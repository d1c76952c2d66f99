"""Classical generalized spectral decomposition (cross-validation oracle).

Independent of the recursive engine: the idempotents p_i and nilpotents q_i
come from the partial-fraction decomposition of 1/mu,

    1/mu = sum_i h_i(x) / (x - lam_i)^{m_i},
    h_i(x) = sum_s a_s (x - lam_i)^s,   psi_i(x) = mu(x) / (x - lam_i)^{m_i},
    p_i = h_i psi_i mod mu,             q_i = (x - lam_i) p_i mod mu,

with the a_s obtained from the local Taylor expansion of 1/psi_i around
lam_i (never from a global linear solve).  This route deliberately keeps the
polynomial reductions mod mu that the recursive method avoids; agreement of
the two is a core test of both.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .funcs import FunctionSpec
from .errors import SingularFunctionError
from .ga import Multivector
from .mvfunc import substitute_powers
from .poly import Poly, poly_mod
from .roots import RootSet
from .scalars import DEFAULT_DPS, working
from .tower import multivector_tower


@dataclass
class ClassicalRoot:
    value: object
    multiplicity: int
    p: Poly  # idempotent, reduced mod mu
    q_powers: list  # [q^1 .. q^{m-1}] reduced mod mu
    h: Poly  # audit intermediates
    psi: Poly


@dataclass
class ClassicalBasis:
    per_root: list[ClassicalRoot]
    mu: Poly
    precision: int


def _synthetic_division(p: Poly, root):
    """Divide by (x - root) numerically; returns (quotient, remainder)."""
    from .scalars import to_mpc

    if p.is_zero():
        return Poly.zero(), mp.mpc(0)
    r = to_mpc(root)
    out = []
    acc = mp.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * r + to_mpc(c)
        out.append(acc)
    rem = out.pop()
    return Poly.make(list(reversed(out))), rem


def _taylor_at(p: Poly, center, count: int):
    """First ``count`` Taylor coefficients of p around ``center`` by repeated
    synthetic division."""
    coeffs = []
    cur = p
    for _ in range(count):
        cur, rem = _synthetic_division(cur, center)
        coeffs.append(rem)
    return coeffs


def classical_basis(
    mu: Poly, root_set: RootSet, precision: int = DEFAULT_DPS
) -> ClassicalBasis:
    mu = mu.monic()
    per_root = []
    with working(precision):
        for entry in root_set:
            m = entry.multiplicity
            lam = entry.value
            psi = mu
            for _ in range(m):
                psi, _rem = _synthetic_division(psi, lam)
            # local series of 1/psi at lam, m terms
            t = _taylor_at(psi, lam, m)
            inv = [1 / t[0]]
            for s in range(1, m):
                acc = mp.mpc(0)
                for u in range(1, s + 1):
                    acc += t[u] * inv[s - u]
                inv.append(-acc / t[0])
            # h_i(x) = sum_s a_s (x - lam)^s, expanded
            shift = Poly.make([-lam, 1])
            h = Poly.zero()
            power = Poly.constant(1)
            for s in range(m):
                h = h + power.scale(inv[s])
                power = power * shift
            p_i = poly_mod(h * psi, mu)
            q1 = poly_mod(shift * p_i, mu)
            q_powers = []
            q = Poly.constant(1)
            for _ in range(1, m):
                q = poly_mod(q * q1, mu)
                q_powers.append(q)
            per_root.append(
                ClassicalRoot(lam, m, p_i, q_powers, h, psi)
            )
    return ClassicalBasis(per_root, mu, precision)


def binomial_power(lam, m: int, k: int) -> Poly:
    """(lam + q)^k truncated by q^m = 0; coefficients ascending in q."""
    if m < 1:
        raise ValueError("nilpotency index must be >= 1")
    out = []
    for j in range(min(m, k + 1)):
        out.append(mp.binomial(k, j) * mp.mpc(lam) ** (k - j))
    return Poly.make(out)


def classical_function(
    a: Multivector,
    basis: ClassicalBasis,
    f: FunctionSpec,
    precision: int | None = None,
) -> Multivector:
    """sum_i [ f(lam_i) p_i + sum_k w_f(lam_i, k) q_i^k ] with x -> A."""
    precision = precision or basis.precision
    with working(precision):
        total = Poly.zero()
        for root in basis.per_root:
            reason = f.singularity(root.value)
            if reason is not None:
                raise SingularFunctionError(f.name, root.value, reason)
            total = total + root.p.scale(f.value(root.value, 0))
            for k, qk in enumerate(root.q_powers, start=1):
                w = f.value(root.value, k)
                if w != 0:
                    total = total + qk.scale(w)
        return substitute_powers(total, multivector_tower(a))
