"""Checks of every output a workload run recorded.

``check(workload, seed, ops)`` redraws the run's inputs from the seed,
computes each reference with oracle.py, and returns one status per
operation:

* ``ok``: the call completed and its output is right to the promised digits;
* ``wrong``: the call completed and its output is not right;
* ``failed-known``: one of the three known-faulty cli-oneshot inputs failed;
* ``failed``: any other operation raised or exited non-zero.

Besides the forward comparison, sqrt is checked by F*F = A, inv by
A*F = 1 (its reference is the exact solution) and log by exp(F) = A, each
with the error the promised digits of F allow.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import oracle as O
from algebra import algebra, blade_text, product_sign
from inputs import (
    DEFECTIVE_FUNCTIONS,
    PRECISION,
    T_SIGNATURE,
    T_TEXT,
    cli_round,
    complex_parts,
    defective_inputs,
    exact_coeffs,
    generic_inputs,
    parse_terms,
)

BITS = O.work_bits(PRECISION)


# -- program outputs to fixed point -------------------------------------------


def _mpf_fixed(triple, bits: int = BITS) -> int:
    sign, man, exp = triple
    if man == 0 and exp != 0:
        raise ValueError("non-finite value")
    shift = exp + bits
    v = man << shift if shift >= 0 else (2 * man + (1 << -shift)) >> (1 - shift)
    return -v if sign else v


def recorded_fixed(coeffs):
    """(real, imaginary) fixed-point arrays of serialised mpc coefficients,
    any nesting (vectors or matrix rows)."""
    arr = np.array(coeffs, dtype=object)
    shape = arr.shape[:-2]
    flat = arr.reshape(-1, 2, 3)
    re = np.array([_mpf_fixed(x[0]) for x in flat], dtype=object).reshape(shape)
    im = np.array([_mpf_fixed(x[1]) for x in flat], dtype=object).reshape(shape)
    return re, im


def matches(re, im, ref, digits: int = PRECISION) -> bool:
    """Real part within the promise of the real reference, imaginary part
    within the same tolerance of zero."""
    tol = O.tolerance(ref, BITS, digits)
    return O.deviation(re, ref) <= tol and O._max_abs(im) <= tol


def _l1(v) -> int:
    return sum(abs(int(x)) for x in np.ravel(v))


# Rounding of the fixed-point products in a property check: 2^20 units of
# 2^-BITS, some 10^-84 relative, far below any tolerance checked.
SLACK = 1 << 20


def sqrt_property(ring, f, a_fixed, tol) -> bool:
    """|F*F - A| <= 2 tol ||F||_1: F off by at most tol per coefficient
    moves F*F by at most that much."""
    res = O.fixed_mul(ring, f, f, BITS) - a_fixed
    return O._max_abs(res) <= 2 * tol * _l1(f) // (1 << BITS) + SLACK


def inverse_property(ring, a_fixed, f, tol) -> bool:
    """|A*F - 1| <= tol ||A||_1."""
    res = O.fixed_mul(ring, a_fixed, f, BITS) - ring.one(1 << BITS)
    return O._max_abs(res) <= tol * _l1(a_fixed) // (1 << BITS) + SLACK


def log_property(ring, f, a_fixed, err) -> bool:
    """|exp(F) - A| <= ||E||_1 e^(||F||_1 + ||E||_1), with ||E||_1 <= err
    the l1 size of the error F may carry: the exponential's Lipschitz bound
    in the l1 algebra norm, which every product respects."""
    import mpmath as mp

    f_exact = O.exact([Fraction(int(x), 1 << BITS) for x in f])
    res = O.exp_fixed(ring, f_exact, BITS) - a_fixed
    grow = mp.exp(mp.mpf(_l1(f) + err) / (1 << BITS))
    return O._max_abs(res) <= err * grow + SLACK


# -- generic-n6-exp -----------------------------------------------------------


def check_generic(seed: int, ops) -> list:
    gen = generic_inputs(seed)
    statuses = []
    for op in ops:
        x = next(gen)
        if op["error"]:
            statuses.append("failed")
            continue
        ring = O.MVRing(algebra(*x.sig))
        ref = O.exp_fixed(ring, O.exact(x.coeffs), BITS)
        re, im = recorded_fixed(op["value"])
        statuses.append("ok" if matches(re, im, ref) else "wrong")
    return statuses


# -- defective-cl42-batch -------------------------------------------------------


class DefectiveReferences:
    """f(T) for the six functions, validated once by their defining
    properties; then f(g T g^-1) = g f(T) g^-1 for each element."""

    CENTRE = 3  # T's spectrum {1, 3, 5}: X = T/3 - 1 has spectral radius 2/3

    def __init__(self):
        alg = algebra(*T_SIGNATURE)
        self.ring = ring = O.MVRing(alg)
        t = O.exact(exact_coeffs(T_TEXT, alg))
        self.t_fixed = t_fixed = O.fixed(t, BITS)
        sin, cos = O.sincos_fixed(ring, t, BITS)
        self.at_t = {
            "exp": O.exp_fixed(ring, t, BITS),
            "sin": sin,
            "cos": cos,
            "log": O.log_fixed(ring, t, self.CENTRE, BITS),
            "sqrt": O.sqrt_fixed(ring, t, self.CENTRE, BITS),
        }
        self.inv_t = O.exact_inverse(ring, t)
        self.at_t["inv"] = O.fixed(self.inv_t, BITS)
        tight = 1 << 40  # 2^-(BITS-40): far below the promise being checked
        log_t = O.exact([Fraction(int(v), 1 << BITS) for v in self.at_t["log"]])
        checks = {
            "exp(log T) = T": O.deviation(O.exp_fixed(ring, log_t, BITS), t_fixed),
            "sqrt(T)^2 = T": O.deviation(O.fixed_mul(ring, self.at_t["sqrt"], self.at_t["sqrt"], BITS), t_fixed),
            "sin^2 + cos^2 = 1": O.deviation(
                O.fixed_mul(ring, sin, sin, BITS) + O.fixed_mul(ring, cos, cos, BITS), ring.one(1 << BITS)
            ),
        }
        bad = {k: v for k, v in checks.items() if v > tight}
        if bad or any(ring.mul(t, self.inv_t) != ring.one(Fraction(1))):
            raise ArithmeticError(f"reference for T failed its defining property: {bad}")
        self._reps = None

    @staticmethod
    def conjugator(g, g_inv):
        """(g, N g^-1, N) in integers: g is a product of integer vectors and
        N g^-1 is its reverse, with N the product of their squares."""
        n = math.lcm(*(Fraction(c).denominator for c in g_inv))
        return (np.array([int(c) for c in g], dtype=object),
                np.array([int(c * n) for c in g_inv], dtype=object), n)

    def conjugate(self, x, conj):
        """g x g^-1 of a fixed-point x."""
        g, g_inv_n, n = conj
        return O._rdiv(self.ring.mul(self.ring.mul(g, x), g_inv_n), n)

    def blade_reps(self):
        """The 8x8 matrices rep_of gives the 64 blades, after checking that
        they multiply like the blades do (so they form a representation)."""
        if self._reps is None:
            from gafunc import Signature, parse_mv, rep_of

            alg = self.ring.alg
            sig = Signature(*T_SIGNATURE)
            reps = np.array(
                [[[int(v) for v in row] for row in rep_of(parse_mv(blade_text(m), sig)).entries]
                 for m in alg.order],
                dtype=np.int64,
            )
            for i, a in enumerate(alg.order):
                for j, b in enumerate(alg.order):
                    want = product_sign(alg.p, a, b) * reps[alg.pos[a ^ b]]
                    if not np.array_equal(reps[i] @ reps[j], want):
                        raise ArithmeticError("rep_of is not a representation of Cl(4,2)")
            self._reps = reps
        return self._reps


def check_defective(seed: int, ops, refs: DefectiveReferences | None = None) -> list:
    refs = refs or DefectiveReferences()
    ring = refs.ring
    gen = defective_inputs(seed)
    statuses = []
    for op in ops:
        x = next(gen)
        if op["error"]:
            statuses.append("failed")
            continue
        a_fixed = O.fixed(O.exact(x.coeffs), BITS)
        conj = refs.conjugator(x.g, x.g_inv)
        ref = {name: refs.conjugate(refs.at_t[name], conj) for name in DEFECTIVE_FUNCTIONS}
        got = {name: recorded_fixed(v) for name, v in op["value"].items()}
        ok = all(matches(*got[name], ref[name]) for name in DEFECTIVE_FUNCTIONS)
        tol = {name: O.tolerance(ref[name], BITS, PRECISION) for name in ("sqrt", "inv", "log")}
        ok = ok and sqrt_property(ring, got["sqrt"][0], a_fixed, tol["sqrt"])
        ok = ok and inverse_property(ring, a_fixed, got["inv"][0], tol["inv"])
        # exp(F) = A  iff  exp(g^-1 F g) = T: checked on T, whose log has a
        # small l1 norm, with the error F may carry moved across by g
        g, g_inv_n, n = conj
        back = refs.conjugate(got["log"][0], (g_inv_n, g, n))
        err = tol["log"] * len(back) * _l1(g) * _l1(g_inv_n) // n
        ok = ok and log_property(ring, back, refs.t_fixed, err)
        mat_ref = np.tensordot(ref["exp"], refs.blade_reps().astype(object), axes=1)
        ok = ok and matches(*got["matrix-exp"], mat_ref)
        statuses.append("ok" if ok else "wrong")
    return statuses


# -- cli-oneshot ----------------------------------------------------------------


def _parse_mv_output(text: str, alg):
    terms = parse_terms(text)
    if set(terms) - set(alg.order):
        raise ValueError("blade outside the algebra")
    parts = [complex_parts(terms.get(m, "0")) for m in alg.order]
    re = np.array([O.to_fixed(p[0], BITS) for p in parts], dtype=object)
    im = np.array([O.to_fixed(p[1], BITS) for p in parts], dtype=object)
    return re, im


def _parse_matrix_output(text: str, m: int):
    rows = [line.split() for line in text.strip().splitlines()]
    if len(rows) != m or any(len(r) != m for r in rows):
        raise ValueError("matrix shape")
    parts = [[complex_parts(v) for v in r] for r in rows]
    re = np.array([[O.to_fixed(p[0], BITS) for p in r] for r in parts], dtype=object)
    im = np.array([[O.to_fixed(p[1], BITS) for p in r] for r in parts], dtype=object)
    return re, im


def _fault_reference(op):
    """References for the known-faulty inputs, in case they ever succeed.

    (a) is small: its Taylor series serves.  (b) lies in the even
    subalgebra of Cl(2,0), a copy of C (e12^2 = -1), so its principal
    square root is the complex one.  (c) is a sum of commuting parts
    a + b e1 + c e23 + d e123 (e123 is central and e1 e23 = e23 e1), so its
    exponential is e^a (cosh b + e1 sinh b)(cos c + e23 sin c)(cos d + e123 sin d).
    Returned as mpmath values, compared relatively, since e^a overflows any
    fixed point."""
    import mpmath as mp

    alg = algebra(*op.sig)
    a = op.exact
    with mp.workprec(BITS + 64):
        if op.name == "fault-a-exp":
            ref = O.exp_fixed(O.MVRing(alg), O.exact(a), BITS)
            return [mp.mpf(int(v)) / mp.mpf(2) ** BITS for v in ref]
        if op.name == "fault-b-sqrt":
            e12 = alg.pos[0b11]
            z = mp.sqrt(mp.mpc(a[0], a[e12]))
            out = [mp.mpf(0)] * alg.dim
            out[0], out[e12] = z.real, z.imag
            return out
        if op.name == "fault-c-exp":
            pos = alg.pos
            s, b, c, d = (a[0], a[pos[0b1]], a[pos[0b110]], a[pos[0b111]])
            parts = []
            for mask, even, odd in ((0b1, mp.cosh(b), mp.sinh(b)), (0b110, mp.cos(c), mp.sin(c)),
                                    (0b111, mp.cos(d), mp.sin(d))):
                part = [mp.mpf(0)] * alg.dim
                part[0], part[pos[mask]] = even, odd
                parts.append(part)
            acc = alg.mul(alg.mul(parts[0], parts[1]), parts[2])
            return [mp.exp(s) * v for v in acc]
    raise KeyError(op.name)


def _check_fault_output(op, text: str) -> bool:
    import mpmath as mp

    alg = algebra(*op.sig)
    terms = parse_terms(text)
    ref = _fault_reference(op)
    with mp.workprec(BITS + 64):
        got = [complex_parts(terms.get(m, "0")) for m in alg.order]
        scale = max(mp.mpf(1), max(abs(v) for v in ref))
        tol = scale * mp.mpf(10) ** -(PRECISION - O.PROMISE_LOSS)
        return all(
            abs(mp.mpf(g[0].numerator) / g[0].denominator - r) <= tol
            and abs(mp.mpf(g[1].numerator) / g[1].denominator) <= tol
            for g, r in zip(got, ref)
        )


def check_cli_op(op, exit_code: int, stdout: str) -> str:
    """Status of one cli-oneshot operation from its exit code and output."""
    if exit_code != 0:
        return "failed-known" if op.known_fault else "failed"
    try:
        if op.known_fault:
            return "ok" if _check_fault_output(op, stdout) else "wrong"
        return "ok" if _check_cli_value(op, stdout) else "wrong"
    except (ValueError, KeyError, IndexError, ZeroDivisionError):
        return "wrong"  # output that does not parse is a wrong output


def _check_cli_value(op, stdout: str) -> bool:
    if op.kind == "matfunc":
        m = len(op.exact)
        re, im = _parse_matrix_output(stdout, m)
        return matches(re, im, O.exp_fixed(O.MatRing(m), O.exact(op.exact), BITS))
    alg = algebra(*op.sig)
    ring = O.MVRing(alg)
    a = O.exact(op.exact)
    if op.kind == "minpoly":
        record = json.loads(stdout)
        return record.get("kind") == "polynomial" and O.minpoly_ok(ring, a, record["coefficients"])
    if op.kind == "charpoly":
        body = stdout.strip()
        if not (body.startswith("C = [") and body.endswith("]")):
            return False
        return O.charpoly_ok(ring, a, [c.strip() for c in body[5:-1].split(",")])
    if op.kind == "verify":
        prefix = "defining-property residual: "
        body = stdout.strip()
        if not body.startswith(prefix):
            return False
        residual = Fraction(body[len(prefix):])
        scale = max(Fraction(1), Fraction(O._max_abs(O.exp_fixed(ring, a, BITS)), 1 << BITS))
        scale *= max(Fraction(1), sum(abs(x) for x in a))
        return abs(residual) <= scale / 10 ** (PRECISION - O.PROMISE_LOSS)
    re, im = _parse_mv_output(stdout, alg)
    a_fixed = O.fixed(a, BITS)
    if op.function == "exp":
        return matches(re, im, O.exp_fixed(ring, a, BITS))
    if op.function == "log":
        ref = O.log_fixed(ring, a, op.centre, BITS)
        tol = O.tolerance(ref, BITS, PRECISION)
        return matches(re, im, ref) and log_property(ring, re, a_fixed, tol * len(re))
    if op.function == "sqrt":
        ref = O.sqrt_fixed(ring, a, op.centre, BITS)
        tol = O.tolerance(ref, BITS, PRECISION)
        return matches(re, im, ref) and sqrt_property(ring, re, a_fixed, tol)
    raise KeyError(op.function)


def check_cli(seed: int, ops) -> list:
    rounds = {}
    statuses = []
    per_round = {}
    for op in ops:
        r = op["round"]
        if r not in rounds:
            rounds[r] = cli_round(seed, r)
            per_round[r] = 0
        spec = rounds[r][per_round[r]]
        per_round[r] += 1
        if spec.name != op["name"]:
            raise ValueError(f"operation order differs: {spec.name} vs {op['name']}")
        statuses.append(check_cli_op(spec, op["exit"], op["stdout"]))
    return statuses


def check(workload: str, seed: int, ops) -> list:
    if workload == "generic-n6-exp":
        return check_generic(seed, ops)
    if workload == "defective-cl42-batch":
        return check_defective(seed, ops)
    return check_cli(seed, ops)
