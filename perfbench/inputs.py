"""Seeded inputs for the three workloads.

Every input is a function of (seed, index) alone, so the process that runs
a workload and the process that checks it draw the same inputs, and the
same seed always gives the same inputs.  Nothing here imports gafunc.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from algebra import Algebra, algebra

PRECISION = 50

# The paper's worked elements: the degree-4 Cl(3,0) example and the
# degree-8 Cl(4,2) element T with mu_T = (x - 5)^4 (x - 3)^3 (x - 1).
EX1_TEXT = "-1 + 2*e1 + e2 + 2*e3 - 2*e12 - 2*e13 + e23 - e123"
T_TEXT = (
    "30/8 + 2/8*e1 - 1/8*e13 - 1/8*e134 + 2/8*e1345 - 10/8*e13456 + 4/8*e135"
    " + 2/8*e136 - 4/8*e14 + 1/8*e145 - 2/8*e1456 + 2/8*e146 - 1/8*e15"
    " + 4/8*e16 - 2/8*e34 - 4/8*e345 + 2/8*e3456 - 1/8*e346 - 2/8*e35"
    " - 4/8*e356 + 1/8*e36 + 1/8*e456 + 2/8*e5 + 1/8*e56 + 2/8*e6"
)
T_SIGNATURE = (4, 2)

# mv_function calls per element of defective-cl42-batch, in call order; the
# first analyses the element and the other five reuse that analysis.
DEFECTIVE_FUNCTIONS = ("exp", "log", "sqrt", "inv", "sin", "cos")


def parse_terms(text: str) -> dict:
    """{blade mask: coefficient text} of a multivector in gafunc's text form.

    Accepts rationals, decimals with exponents and complex ``(a+bi)``
    coefficients; the caller converts the coefficient text."""
    out: dict = {}
    body = text.strip()
    body = "- " + body[1:] if body.startswith("-") else "+ " + body
    tokens = body.split()
    if len(tokens) % 2:
        raise ValueError(f"unbalanced terms in {text!r}")
    for op, term in zip(tokens[::2], tokens[1::2]):
        if op not in ("+", "-"):
            raise ValueError(f"bad term separator {op!r} in {text!r}")
        coeff, _, blade = term.rpartition("*")
        if not coeff:
            coeff, blade = ("1", term) if term.startswith("e") else (term, "")
        mask = 0
        for ch in blade[1:]:
            mask |= 1 << (int(ch) - 1)
        if mask in out:
            raise ValueError(f"repeated blade {blade!r} in {text!r}")
        out[mask] = ("-" if op == "-" else "") + coeff
    return out


def complex_parts(coeff: str) -> tuple:
    """(re, im) Fractions of a coefficient text, real or ``(a+bi)``."""
    neg = coeff.startswith("-")
    body = coeff[1:] if neg else coeff
    if not body.startswith("("):
        re, im = Fraction(body), Fraction(0)
    else:
        inner = body[1:-2]  # drop "(" and "i)"
        cut = max(k for k, ch in enumerate(inner) if ch in "+-" and k and inner[k - 1] != "e")
        re, im = Fraction(inner[:cut]), Fraction(inner[cut:])
    return (-re, -im) if neg else (re, im)


def exact_coeffs(text: str, alg: Algebra) -> list:
    terms = parse_terms(text)
    return [Fraction(terms.get(m, "0")) for m in alg.order]


def _dense(rng: random.Random, alg: Algebra, lo: int, hi: int) -> list:
    while True:
        coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(alg.dim)]
        if any(coeffs):
            return coeffs


# -- generic-n6-exp ---------------------------------------------------------


@dataclass
class MVInput:
    sig: tuple
    coeffs: list  # exact, canonical order
    text: str
    g: list | None = None  # defective-cl42-batch: the conjugating versor
    g_inv: list | None = None


def generic_inputs(seed: int):
    """Dense integer multivectors at n = 6, coefficients in [-3, 3],
    signatures cycling (0,6), (1,5), ..., (6,0)."""
    seen = set()  # no cold call may get an element already analysed
    i = 0
    while True:
        p = i % 7
        alg = algebra(p, 6 - p)
        rng = random.Random(f"generic-n6-exp/{seed}/{i}")
        i += 1
        coeffs = _dense(rng, alg, -3, 3)
        key = (p, tuple(coeffs))
        if key not in seen:
            seen.add(key)
            yield MVInput((p, 6 - p), coeffs, alg.text(coeffs))


# -- defective-cl42-batch ---------------------------------------------------


def random_versor(rng: random.Random, alg: Algebra, factors: int):
    """(g, g^-1) for g a product of ``factors`` random integer vectors with
    nonzero square; v^-1 = v / v^2."""
    g = alg.scalar(Fraction(1))
    g_inv = alg.scalar(Fraction(1))
    for _ in range(factors):
        while True:
            comps = [rng.randint(-2, 2) for _ in range(alg.n)]
            square = sum(c * c for c in comps[: alg.p]) - sum(c * c for c in comps[alg.p :])
            if square != 0:
                break
        v = alg.vector(comps)
        g = alg.mul(g, v)
        g_inv = alg.mul([c / square for c in v], g_inv)
    return g, g_inv


def defective_inputs(seed: int):
    """Versor conjugates g T g^-1 of the paper's Cl(4,2) element T, with g
    a product of 1, 2, 3, 1, 2, 3, ... vectors: the cost of an element grows
    with the size of its coefficients, so cycling the factor count instead
    of drawing it keeps every run's mix the same."""
    alg = algebra(*T_SIGNATURE)
    t = exact_coeffs(T_TEXT, alg)
    seen = set()  # no cold call may get an element already analysed
    i = 0
    while True:
        rng = random.Random(f"defective-cl42-batch/{seed}/{i}")
        g, g_inv = random_versor(rng, alg, 1 + i % 3)
        i += 1
        coeffs = alg.mul(alg.mul(g, t), g_inv)
        if tuple(coeffs) not in seen:
            seen.add(tuple(coeffs))
            yield MVInput(T_SIGNATURE, coeffs, alg.text(coeffs), g, g_inv)


# -- cli-oneshot ------------------------------------------------------------


@dataclass
class CliOp:
    name: str
    argv: list  # arguments after ``python -m gafunc.cli``
    stdin: str
    kind: str  # func | matfunc | minpoly | charpoly | verify
    function: str = ""
    sig: tuple = ()
    exact: list = field(default_factory=list)  # coefficients, or matrix rows
    centre: int = 0  # log/sqrt: the series centre the reference uses
    known_fault: str = ""  # set for KNOWN_FAULTS: failing counts as failed, not wrong


def _func(name, sig, coeffs, function, centre=0, fault=""):
    alg = algebra(*sig)
    return CliOp(
        name,
        ["func", "--signature", f"{sig[0]},{sig[1]}", "--function", function,
         "--precision", str(PRECISION)],
        alg.text(coeffs), "func", function, sig, coeffs, centre, fault,
    )


def _subcommand(name, command, sig, coeffs, extra=()):
    alg = algebra(*sig)
    return CliOp(
        name,
        [command, "--signature", f"{sig[0]},{sig[1]}", "--precision", str(PRECISION), *extra],
        alg.text(coeffs), command, "", sig, coeffs,
    )


def _signature(rng, n):
    p = rng.randint(0, n)
    return (p, n - p)


def _shifted(rng, sig):
    """c + B with B dense in [-1, 1] (no scalar part) and c = ||B||_1 + 1,
    so every eigenvalue has positive real part; returns (coeffs, c)."""
    alg = algebra(*sig)
    b = [Fraction(0)] + [Fraction(rng.randint(-1, 1)) for _ in range(alg.dim - 1)]
    c = int(sum(abs(x) for x in b)) + 1
    b[0] = Fraction(c)
    return b, c


# The three ROADMAP-3 inputs: each fails on every run, whatever the seed.
KNOWN_FAULTS = (
    ("fault-a-exp", (2, 0), f"e1 + e12 + 1/{10**60}*e2", "exp",
     "vanishing-denominator ValueError in spectral.py"),
    ("fault-b-sqrt", (2, 0), f"-1 + 1/{10**46}*e12", "sqrt",
     "conjugate pair merged into a real double root in roots.py"),
    ("fault-c-exp", (3, 0),
     "123456789123456789 + 987654321987654321*e1 + 5*e23 + 7*e123", "exp",
     "NonConvergenceError on a large scalar part"),
)


def cli_round(seed: int, r: int) -> list:
    """One round of cli-oneshot: the same eleven kinds of operation with
    fresh small inputs (n <= 4), then the three known-faulty inputs."""
    rng = random.Random(f"cli-oneshot/{seed}/{r}")
    ex1_alg = algebra(3, 0)
    ex1 = exact_coeffs(EX1_TEXT, ex1_alg)
    ops = [_func("func-exp-paper", (3, 0), ex1, "exp")]
    for n in (3, 4):
        sig = _signature(rng, n)
        ops.append(_func(f"func-exp-n{n}", sig, _dense(rng, algebra(*sig), -2, 2), "exp"))
    sig = _signature(rng, 3)
    coeffs, c = _shifted(rng, sig)
    ops.append(_func("func-log-n3", sig, coeffs, "log", c))
    sig = _signature(rng, 3)
    coeffs, c = _shifted(rng, sig)
    ops.append(_func("func-sqrt-n3", sig, coeffs, "sqrt", c))
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
    ops.append(
        CliOp("matfunc-exp-4x4", ["matfunc", "--function", "exp", "--precision", str(PRECISION)],
              "; ".join(" ".join(str(x) for x in row) for row in m), "matfunc", "exp", (), m)
    )
    sig = _signature(rng, 4)
    ops.append(_subcommand("minpoly-n4", "minpoly", sig, _dense(rng, algebra(*sig), -2, 2),
                           ("--output", "structured")))
    g, g_inv = random_versor(rng, ex1_alg, rng.randint(1, 3))
    conj = ex1_alg.mul(ex1_alg.mul(g, ex1), g_inv)
    ops.append(_subcommand("minpoly-defective-n3", "minpoly", (3, 0), conj,
                           ("--output", "structured")))
    sig = _signature(rng, 4)
    ops.append(_subcommand("charpoly-n4", "charpoly", sig, _dense(rng, algebra(*sig), -2, 2)))
    sig = _signature(rng, 3)
    ops.append(_subcommand("verify-n3", "verify", sig, _dense(rng, algebra(*sig), -2, 2)))
    sig = _signature(rng, 4)
    coeffs, c = _shifted(rng, sig)
    ops.append(_func("func-sqrt-n4", sig, coeffs, "sqrt", c))
    for name, sig, text, function, fault in KNOWN_FAULTS:
        ops.append(_func(name, sig, exact_coeffs(text, algebra(*sig)), function, fault=fault))
    return ops
