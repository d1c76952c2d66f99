"""Generalized spectral basis via the reverse-order recursion.

The engine works with a dummy commutative indeterminate x standing in for the
multivector (or matrix); powers of the actual element are substituted only in
the very last assembly step.

The bivariate kernel polynomial

    S(x, lam) = sum_{k=0}^{D-1} ( sum_{s=0}^{D-k-1} lam^s C_(D-s-k-1) ) x^k

with D the degree and C_(j) the coefficients of the (monic) annihilating
polynomial satisfies (lam - x) S(x, lam) = mu(lam) - mu(x) identically, and
its weighted lam-derivatives S^(j) feed the recursion that produces, for a
root lam_i of multiplicity m, the basis polynomials in descending order:

    Q_i^{m-1} = S^(0)(x, lam_i) / mu^(m)(lam_i)
    Q_i^{m-1-j} = ( S^(j)(x, lam_i)
                    - sum_{t=1}^{j} Q_i^{m-1-j+t} mu^(m+t)(lam_i) )
                  / mu^(m)(lam_i)

where mu^(k) is the weighted derivative (1/k!) d^k mu.  All Q have degree
< D, so no polynomial reduction is ever needed during construction; the
exact-multiplicity guarantee keeps every denominator away from zero.

The S table is built once, exactly over the rationals; roots are substituted
per multiplicity afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .ga import Multivector
from .poly import Poly
from .roots import RootSet
from .scalars import DEFAULT_DPS, working
from .tower import multivector_tower


@dataclass(frozen=True)
class STable:
    """Bivariate S polynomial: ``grid[k]`` is the lam-polynomial multiplying
    x^k, exact over the rationals."""

    grid: tuple  # tuple of Poly (in lam), index = power of x
    mu: Poly

    def weighted(self, j: int) -> "STable":
        """S^(j): weighted lam-derivative applied coefficientwise."""
        return STable(
            tuple(p.weighted_derivative(j) for p in self.grid), self.mu
        )

    def eval_at(self, lam) -> Poly:
        """Substitute a numeric root for lam; a complex polynomial in x."""
        return Poly.make([p.eval_mpc(lam) for p in self.grid])


def build_s_table(mu: Poly) -> STable:
    """S^(0) for a monic annihilating polynomial ``mu``.

    The x-power range runs through deg(mu) - 1: the degree-8 worked case
    fixes that reading of the summation bound.
    """
    d = mu.degree
    if d < 1:
        raise ValueError("polynomial must have degree >= 1")
    mu = mu.monic()
    # C_(j): mu(lam) = sum_k C_(d-k) lam^k
    c = [mu.coeff(d - j) for j in range(d + 1)]
    grid = []
    for k in range(d):
        grid.append(Poly.make([c[d - s - k - 1] for s in range(d - k)]))
    return STable(tuple(grid), mu)


@dataclass
class SpectralBasis:
    """Per-root lists Q_i^0 .. Q_i^{m_i - 1} (complex polynomials in x)."""

    per_root: list  # per_root[i][k] = Q_i^k
    roots: RootSet
    mu: Poly
    precision: int

    def flat(self):
        for i, qs in enumerate(self.per_root):
            for k, q in enumerate(qs):
                yield i, k, q


def build_spectral_basis(
    mu: Poly, root_set: RootSet, precision: int = DEFAULT_DPS
) -> SpectralBasis:
    mu = mu.monic()
    max_mult = root_set.max_multiplicity
    s0 = build_s_table(mu)
    s_tables = [s0.weighted(j) for j in range(max_mult)]
    mu_derivs = [mu.weighted_derivative(k) for k in range(2 * max_mult)]
    per_root = []
    with working(precision):
        for entry in root_set:
            m = entry.multiplicity
            lam = entry.value
            denom = mu_derivs[m].eval_mpc(lam)
            if denom == 0 or abs(denom) < mp.mpf(10) ** (-(precision - 5)):
                raise ValueError(
                    f"vanishing denominator at root {lam}: inconsistent multiplicity"
                )
            higher = [
                mu_derivs[m + t].eval_mpc(lam) if m + t < len(mu_derivs) else mp.mpc(0)
                for t in range(max_mult)
            ]
            qs: list[Poly | None] = [None] * m
            qs[m - 1] = s_tables[0].eval_at(lam).scale(1 / denom)
            for j in range(1, m):
                acc = s_tables[j].eval_at(lam)
                for t in range(1, j + 1):
                    acc = acc - qs[m - 1 - j + t].scale(higher[t])
                qs[m - 1 - j] = acc.scale(1 / denom)
            per_root.append(qs)
    return SpectralBasis(per_root, root_set, mu, precision)


def spectral_decomposition_check(
    a: Multivector, basis: SpectralBasis, precision: int | None = None
):
    """Max coefficient deviation of the reconstruction identities.

    Evaluates sum_i (lam_i + Q_i^1)^k Q_i^0 for k = 1, 2 with x -> A through
    the unreduced product polynomial (degree up to 2 deg(mu) - 1) and compares
    against A and A^2.
    """
    precision = precision or basis.precision
    with working(precision):
        recon1 = Poly.zero()
        recon2 = Poly.zero()
        for entry, qs in zip(basis.roots, basis.per_root):
            lam_plus_q = Poly.constant(entry.value)
            if len(qs) > 1:
                lam_plus_q = lam_plus_q + qs[1]
            recon1 = recon1 + lam_plus_q * qs[0]
            recon2 = recon2 + lam_plus_q * lam_plus_q * qs[0]
        tower = multivector_tower(a)
        dev = mp.mpf(0)
        for recon, target in ((recon1, Poly.x_power(1)), (recon2, Poly.x_power(2))):
            got = tower.evaluate(recon)
            want = tower.evaluate(target)
            dev = max(dev, max(abs(g - w) for g, w in zip(got, want)))
        return dev
