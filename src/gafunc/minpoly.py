"""Minimal polynomial from the element's exact integer power tower.

With A = B/delta (see :mod:`gafunc.tower`), the coefficient vectors of
B^0, B^1, ... go into one fraction-free eliminator.  Since the list starts
at B^0, the first dependence B^D = -sum_{k<D} c_k B^k is the minimal
polynomial mu_B, and scaling back gives the monic

    mu_A(x) = delta^-D mu_B(delta x).

The result is checked exactly: mu_B(B) = 0 on the tower, else
:class:`VerificationError`.

The engine is generic over any exact commutative ring (rationals, exact
complex rationals) and any element with an associative product and a
coefficient vector, which is how the matrix backend reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError
from .ga import Multivector
from .poly import Poly
from .tower import Eliminator, PowerTower, multivector_tower


@dataclass(frozen=True)
class MinPolyResult:
    mu: Poly  # monic
    combination: tuple  # c_0..c_D with sum_k c_k B^k = 0, B = delta A

    @property
    def degree(self) -> int:
        return self.mu.degree


def _ratio(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def tower_minimal_poly(tower: PowerTower, max_degree: int) -> MinPolyResult:
    """mu of the element behind ``tower``; ``max_degree`` bounds its degree
    (Cayley-Hamilton), past which the search stops with an error."""
    elim = Eliminator()
    for k in range(max_degree + 1):
        combo = elim.insert(tower.vector(k))
        if combo is not None:
            break
    else:
        raise VerificationError(f"no dependence among the first {max_degree + 1} powers")
    tower.require_zero(combo, "minimal polynomial")
    delta = tower.delta
    lead = combo[-1] * delta ** (len(combo) - 1)
    mu = Poly.make([_ratio(c * delta**k, lead) for k, c in enumerate(combo)])
    return MinPolyResult(mu, tuple(combo))


def minimal_poly_generic(elem, one, char_degree: int, vectorize) -> MinPolyResult:
    """mu of ``elem`` over its own exact ring, denominators left as they are.

    ``elem`` must support ``*``; ``vectorize`` flattens an element to its
    coefficient list; ``one`` is the multiplicative identity.
    """
    return tower_minimal_poly(PowerTower(elem, one, 1, vectorize), char_degree)


def minimal_poly(a: Multivector, tower: PowerTower | None = None) -> MinPolyResult:
    """mu of a rational multivector; ``tower`` is its power tower, if built."""
    if tower is None:
        tower = multivector_tower(a)
    return tower_minimal_poly(tower, a.sig.char_degree)


def mv_rank(a: Multivector) -> int:
    """Degree of the minimal polynomial."""
    return minimal_poly(a).degree
