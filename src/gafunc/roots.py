"""Distinct roots and exact multiplicities of an exact polynomial.

Multiplicities are determined purely algebraically: Yun's square-free
decomposition over the rationals yields, per multiplicity class, a square-free
factor whose roots all carry that multiplicity.  Numeric refinement never
influences multiplicities.

Within each square-free factor, rational roots are found exactly first (the
rational-root test on the primitive integer form, with a bounded divisor
search) and deflated; the remaining roots come from Aberth-Ehrlich
simultaneous iteration at working precision, started on a perturbed circle.
Complex roots of a real polynomial are paired with their conjugates and
symmetrized so each pair is exactly conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import NonConvergenceError, VerificationError
from .poly import Poly, squarefree_decomposition, _integer_primitive
from .scalars import DEFAULT_DPS, GUARD_DIGITS, to_mpc, working

_ABERTH_SWEEPS = 200
_DIVISOR_SEARCH_LIMIT = 10**6


@dataclass
class RootEntry:
    value: object  # mpc (exact-rational roots carry im == 0 exactly)
    multiplicity: int
    is_real: bool
    conjugate_partner: int | None = None
    exact: Fraction | None = None  # set when the root is a known rational


@dataclass
class RootSet:
    entries: list[RootEntry]
    source: Poly
    precision: int

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    @property
    def max_multiplicity(self) -> int:
        return max(e.multiplicity for e in self.entries)

    @property
    def total_degree(self) -> int:
        return sum(e.multiplicity for e in self.entries)


def _bounded_divisors(n: int):
    """All positive divisors of |n|, or None when n is too large to factor
    cheaply (rational-root detection then falls back to numerics)."""
    n = abs(n)
    if n == 0:
        return None
    if n > _DIVISOR_SEARCH_LIMIT**2:
        return None
    divs = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
        d += 1
        if d > _DIVISOR_SEARCH_LIMIT:
            return None
    return divs


def _rational_roots(factor: Poly) -> tuple[list[Fraction], Poly]:
    """Exact rational roots of a square-free rational polynomial, plus the
    deflated cofactor."""
    found = []
    if factor.degree >= 1 and factor.constant_term() == 0:
        found.append(Fraction(0))
        factor = factor.shift_down()
    if factor.degree == 1:
        found.append(-factor.coeff(0) / factor.coeff(1))
        return found, Poly.constant(factor.leading())
    if factor.degree == 0:
        return found, factor
    ints = _integer_primitive(factor)
    nums = _bounded_divisors(ints[0])
    dens = _bounded_divisors(ints[-1])
    if nums is None or dens is None:
        return found, factor
    candidates = sorted(
        {Fraction(s * p, q) for p in nums for q in dens for s in (1, -1)}
    )
    for cand in candidates:
        while factor.degree >= 1 and factor.eval_exact(cand) == 0:
            found.append(cand)
            factor, rem = _deflate(factor, cand)
            if rem != 0:
                raise VerificationError(f"deflation by the root {cand} left {rem}")
        if factor.degree == 1:
            found.append(-factor.coeff(0) / factor.coeff(1))
            return found, Poly.constant(factor.leading())
    return found, factor


def _deflate(p: Poly, root: Fraction) -> tuple[Poly, Fraction]:
    """Exact synthetic division by (x - root)."""
    out = []
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * root + c
        out.append(acc)
    rem = out.pop()
    return Poly.make(list(reversed(out))), rem


def aberth_roots(p: Poly, dps: int):
    """All roots of a square-free polynomial by Aberth-Ehrlich iteration.

    Raises NonConvergenceError when the sweep budget is exhausted.
    """
    with working(dps):
        coeffs = [to_mpc(c) for c in p.coeffs]
        n = len(coeffs) - 1
        if n < 1:
            return []
        dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]
        lead = coeffs[-1]
        radius = 1 + max(abs(c / lead) for c in coeffs[:-1])
        # perturbed circle: irrational-ish angle offset breaks symmetry traps
        z = [
            radius
            * (mp.mpf(k + 1) / (n + 1))
            * mp.exp(mp.mpc(0, 2) * mp.pi * (mp.mpf(k) / n + mp.mpf("0.1357")))
            for k in range(n)
        ]
        # leave a few digits of headroom above working-precision rounding
        # noise, which otherwise stalls the step size just above the bound
        tol = mp.mpf(10) ** (-(dps + GUARD_DIGITS - 5))

        def horner(cs, x):
            acc = mp.mpc(0)
            for c in reversed(cs):
                acc = acc * x + c
            return acc

        for _ in range(_ABERTH_SWEEPS):
            moved = mp.mpf(0)
            for k in range(n):
                pv = horner(coeffs, z[k])
                if pv == 0:
                    continue
                dv = horner(dcoeffs, z[k])
                if dv == 0:
                    z[k] = z[k] * (1 + mp.mpf("1e-8")) + mp.mpf("1e-8")
                    moved = max(moved, mp.mpf(1))
                    continue
                newton = pv / dv
                s = mp.mpc(0)
                for j in range(n):
                    if j != k:
                        s += 1 / (z[k] - z[j])
                denom = 1 - newton * s
                step = newton if denom == 0 else newton / denom
                z[k] -= step
                moved = max(moved, abs(step) / max(mp.mpf(1), abs(z[k])))
            if moved < tol:
                return z
        raise NonConvergenceError(p, moved)


def extract_roots(mu: Poly, precision: int = DEFAULT_DPS) -> RootSet:
    """RootSet of an exact polynomial: exact multiplicities, roots refined to
    ``precision`` digits, conjugate pairs symmetrized."""
    if mu.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    entries: list[RootEntry] = []
    for factor, mult in squarefree_decomposition(mu):
        rational, rest = _rational_roots(factor)
        for r in rational:
            entries.append(
                RootEntry(value=None, multiplicity=mult, is_real=True, exact=r)
            )
        if rest.degree >= 1:
            entries.extend(
                _numeric_entries(rest, mult, precision)
            )
    with working(precision):
        for e in entries:
            if e.exact is not None:
                e.value = to_mpc(e.exact)
        _verify_residuals(mu, entries, precision)
        entries.sort(
            key=lambda e: (e.multiplicity, mp.re(e.value), mp.im(e.value))
        )
        _pair_conjugates(entries, precision)
    return RootSet(entries=entries, source=mu, precision=precision)


def _numeric_entries(factor: Poly, mult: int, precision: int):
    try:
        roots = aberth_roots(factor, precision)
    except NonConvergenceError:
        roots = aberth_roots(factor, 2 * precision)  # escalate once
    with working(precision):
        pair_tol = mp.mpf(10) ** (-mp.mpf(precision) / 2)
        out = []
        for z in roots:
            scale = max(mp.mpf(1), abs(z))
            if abs(mp.im(z)) < pair_tol * scale:
                out.append(
                    RootEntry(value=mp.mpc(mp.re(z)), multiplicity=mult, is_real=True)
                )
            else:
                out.append(RootEntry(value=z, multiplicity=mult, is_real=False))
    return out


def _verify_residuals(mu: Poly, entries, precision: int):
    bound = mp.mpf(10) ** (-(precision - GUARD_DIGITS // 2))
    scale = max(abs(to_mpc(c)) for c in mu.coeffs)
    for e in entries:
        if e.exact is not None:
            continue
        res = abs(mu.eval_mpc(e.value))
        if res > bound * scale * max(1, abs(e.value)) ** mu.degree:
            raise NonConvergenceError(mu, res)


def _pair_conjugates(entries, precision: int):
    tol = mp.mpf(10) ** (-mp.mpf(precision) / 2)
    unpaired = [i for i, e in enumerate(entries) if not e.is_real]
    used = set()
    for i in unpaired:
        if i in used:
            continue
        best = None
        for j in unpaired:
            if j == i or j in used:
                continue
            d = abs(entries[i].value - mp.conj(entries[j].value))
            if entries[i].multiplicity == entries[j].multiplicity and (
                best is None or d < best[1]
            ):
                best = (j, d)
        if best is None:
            continue
        j, d = best
        scale = max(mp.mpf(1), abs(entries[i].value))
        if d < tol * scale:
            used.add(i)
            used.add(j)
            entries[i].conjugate_partner = j
            entries[j].conjugate_partner = i
            # symmetrize so the pair is exactly conjugate
            zi = entries[i].value
            zj = entries[j].value
            avg = (zi + mp.conj(zj)) / 2
            entries[i].value = avg
            entries[j].value = mp.conj(avg)
