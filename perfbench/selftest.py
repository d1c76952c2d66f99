"""Shows that every check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs each workload briefly (one operation, or one cli-oneshot round),
confirms its outputs pass, then alters copies of them and confirms the
checks reject each alteration:

* one coefficient moved by twice the promised tolerance, in every kind of
  output (while a move of half the tolerance still passes);
* a polynomial that annihilates but is not minimal, a wrong chi, a large
  defining-property residual, output that does not parse;
* a wrong exit code: non-zero on a valid input, or 0 with an error;

and that the three known-faulty cli-oneshot inputs are counted as failed
while the run goes on past them.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle as O  # noqa: E402
from algebra import blade_text  # noqa: E402
from inputs import PRECISION, cli_round, parse_terms  # noqa: E402
from run import OUT, spawn_worker  # noqa: E402

FAILURES = []


def expect(label: str, got, want):
    ok = got == want
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {got}")
    if not ok:
        FAILURES.append(label)


def record(workload: str, seconds: float) -> dict:
    out = OUT / f"selftest-{workload}.ops.json"
    spawn_worker(["--workload", workload, "--seed", "7", "--seconds", str(seconds), "--out", str(out)], 300)
    return json.loads(out.read_text())


def tolerance_of(values) -> Fraction:
    """The tolerance checks.matches allows around ``values`` (exact)."""
    re, _ = checks.recorded_fixed(values)
    return Fraction(O.tolerance(re, checks.BITS, PRECISION), 1 << checks.BITS)


def moved(triple, delta: Fraction) -> list:
    """A serialised mpf moved by ``delta``, kept exact to 2^-(BITS + 64)."""
    sign, man, exp = triple
    value = (-1) ** sign * Fraction(man) * Fraction(2) ** exp + delta
    e = -(checks.BITS + 64)
    m = round(value / Fraction(2) ** e)
    return [int(m < 0), abs(m), e]


def nudge(values, index, factor: Fraction):
    """Copy of serialised coefficients with the real part of entry
    ``index`` (flat) moved by ``factor`` times the tolerance."""
    out = copy.deepcopy(values)
    flat = out
    while isinstance(flat[0][0], list) and isinstance(flat[0][0][0], list):
        flat = [c for row in flat for c in row]
    flat[index][0] = moved(flat[index][0], factor * tolerance_of(values))
    return out


def check_one(workload, op, seed=7):
    return checks.check(workload, seed, [op])[0]


def generic():
    rec = record("generic-n6-exp", 0.01)
    op = rec["ops"][0]
    expect("generic exp as computed", check_one("generic-n6-exp", op), "ok")
    for factor, want in ((Fraction(1, 2), "ok"), (Fraction(2), "wrong"), (Fraction(-2), "wrong")):
        bad = dict(op, value=nudge(op["value"], 37, factor))
        expect(f"generic exp, one coefficient moved by {factor} x tolerance", check_one("generic-n6-exp", bad), want)
    expect("generic exp that raised", check_one("generic-n6-exp", dict(op, error="ValueError: x")), "failed")


def defective():
    rec = record("defective-cl42-batch", 0.01)
    op = rec["ops"][0]
    refs = checks.DefectiveReferences()
    expect("defective element as computed", checks.check_defective(7, [op], refs)[0], "ok")
    for name in op["value"]:
        for factor, want in ((Fraction(1, 2), "ok"), (Fraction(2), "wrong")):
            values = dict(op["value"], **{name: nudge(op["value"][name], 5, factor)})
            got = checks.check_defective(7, [dict(op, value=values)], refs)[0]
            expect(f"defective {name}, one coefficient moved by {factor} x tolerance", got, want)


def _text_nudge(stdout: str, factor: Fraction, mask=None) -> str:
    """Move one coefficient of a text multivector by ``factor`` times the
    tolerance of the output."""
    terms = parse_terms(stdout)
    exact = {m: Fraction(c) for m, c in terms.items()}
    scale = max(Fraction(1), max(abs(v) for v in exact.values()))
    tol = scale / 10 ** (PRECISION - O.PROMISE_LOSS)
    mask = mask if mask is not None else max(exact)
    exact[mask] += factor * tol
    with mp.workdps(PRECISION + 30):
        out = {m: mp.nstr(mp.mpf(v.numerator) / v.denominator, PRECISION + 25) for m, v in exact.items()}
    return " + ".join(c if m == 0 else f"{c}*{blade_text(m)}" for m, c in out.items())


def _matrix_nudge(stdout: str, factor: Fraction) -> str:
    """Move entry (1,1) of a text matrix by ``factor`` times the tolerance."""
    rows = [[Fraction(v) for v in line.split()] for line in stdout.strip().splitlines()]
    scale = max(Fraction(1), max(abs(v) for row in rows for v in row))
    rows[0][0] += factor * scale / 10 ** (PRECISION - O.PROMISE_LOSS)
    with mp.workdps(PRECISION + 30):
        return "\n".join(
            " ".join(mp.nstr(mp.mpf(v.numerator) / v.denominator, PRECISION + 25) for v in row) for row in rows
        )


def cli():
    rec = record("cli-oneshot", 0.01)
    ops = rec["ops"]
    specs = cli_round(7, 0)
    statuses = checks.check_cli(7, ops)
    for spec, st in zip(specs, statuses):
        expect(f"cli {spec.name} as run", st, "failed-known" if spec.known_fault else "ok")
    by_name = {op["name"]: (op, spec) for op, spec in zip(ops, specs)}

    def status(name, exit_code=None, stdout=None):
        op, spec = by_name[name]
        return checks.check_cli_op(
            spec, op["exit"] if exit_code is None else exit_code, op["stdout"] if stdout is None else stdout
        )

    for name in ("func-exp-paper", "func-exp-n4", "func-log-n3", "func-sqrt-n3"):
        text = by_name[name][0]["stdout"]
        expect(f"cli {name}, one coefficient moved by 1/2 x tolerance", status(name, stdout=_text_nudge(text, Fraction(1, 2))), "ok")
        expect(f"cli {name}, one coefficient moved by 2 x tolerance", status(name, stdout=_text_nudge(text, Fraction(2))), "wrong")
    matrix = by_name["matfunc-exp-4x4"][0]["stdout"]
    for factor, want in ((Fraction(1, 2), "ok"), (Fraction(2), "wrong")):
        expect(f"cli matfunc, entry (1,1) moved by {factor} x tolerance",
               status("matfunc-exp-4x4", stdout=_matrix_nudge(matrix, factor)), want)

    mu = json.loads(by_name["minpoly-defective-n3"][0]["stdout"])
    coeffs = [Fraction(c) for c in mu["coefficients"]]
    times_x_minus_7 = [-7 * coeffs[0]] + [coeffs[k - 1] - 7 * c for k, c in enumerate(coeffs[1:], 1)] + [coeffs[-1]]
    bigger = dict(mu, coefficients=[str(c) for c in times_x_minus_7])
    expect("cli minpoly, an annihilating multiple mu*(x-7)", status("minpoly-defective-n3", stdout=json.dumps(bigger)), "wrong")
    off = dict(mu, coefficients=[str(coeffs[0] + 1)] + mu["coefficients"][1:])
    expect("cli minpoly, constant term off by one", status("minpoly-defective-n3", stdout=json.dumps(off)), "wrong")
    chi = by_name["charpoly-n4"][0]["stdout"]
    expect("cli charpoly, last coefficient off by one",
           status("charpoly-n4", stdout=_bump_last(chi)), "wrong")
    expect("cli verify, residual 1e-3", status("verify-n3", stdout="defining-property residual: 1.0e-3\n"), "wrong")
    expect("cli func exp, exit 1 on a valid input", status("func-exp-n3", exit_code=1), "failed")
    expect("cli func exp, exit 2 on a valid input", status("func-exp-n3", exit_code=2), "failed")
    expect("cli func exp, exit 0 with an error and no result", status("func-exp-n3", stdout=""), "wrong")
    expect("cli known fault (c), exit 0 with a wrong value", status("fault-c-exp", exit_code=0, stdout="1 + e1"), "wrong")

    long_rec = record("cli-oneshot", 10)
    long_status = checks.check_cli(7, long_rec["ops"])
    rounds = 1 + max(op["round"] for op in long_rec["ops"])
    known = sum(st == "failed-known" for st in long_status)
    expect("cli run goes on past the known faults (rounds > 1)", rounds > 1, True)
    expect("cli known faults counted as failed, three per round", known, 3 * rounds)
    expect("cli every other operation ok", sum(st == "ok" for st in long_status), len(long_status) - 3 * rounds)


def _bump_last(text: str) -> str:
    head, last = text.strip()[:-1].rsplit(",", 1)
    return f"{head}, {Fraction(last.strip()) + 1}]"


if __name__ == "__main__":
    generic()
    defective()
    cli()
    print(f"{len(FAILURES)} expectation(s) failed" if FAILURES else "all checks can fail")
    sys.exit(1 if FAILURES else 0)
