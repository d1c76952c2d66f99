"""Characteristic polynomial of a multivector.

With d = 2^ceil(n/2) and the power sums s_k = d <A^k>_0, the coefficients
follow from Newton's identities,

    C_(0) = -1,   C_(k) = (1/k) (s_k - sum_{i=1}^{k-1} C_(i) s_(k-i)),

which is the Faddeev-LeVerrier-Souriau recursion with its products
already done: the traces are read off the exact integer power tower of
A = B/delta (:mod:`gafunc.tower`) as s_k = d <B^k>_0 / delta^k.  The sign
convention keeps the leading coefficient C_(0) = -1, so the trace is
C_(1) = d <A>_0 and the determinant is -C_(d).  Cayley-Hamilton,
chi(A) = 0, is checked exactly on the same tower, else
:class:`VerificationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError
from .ga import Multivector
from .poly import Poly
from .tower import PowerTower, multivector_tower


@dataclass(frozen=True)
class CharPolyResult:
    chi: Poly  # leading coefficient -1
    coefficients: tuple  # C_(0) .. C_(d)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def trace(self) -> Fraction:
        return self.coefficients[1]

    @property
    def determinant(self) -> Fraction:
        return -self.coefficients[-1]

    @property
    def monic(self) -> Poly:
        """chi / (-1): the polynomial the minimal polynomial divides."""
        return -self.chi


def char_poly(a: Multivector, tower: PowerTower | None = None) -> CharPolyResult:
    """chi of a rational multivector; ``tower`` is its power tower, if built."""
    if tower is None:
        tower = multivector_tower(a)
    d = a.sig.char_degree
    delta = tower.delta
    s = [None] + [Fraction(d * tower.vector(k)[0], delta**k) for k in range(1, d + 1)]
    cs = [Fraction(-1)]
    for k in range(1, d + 1):
        cs.append((s[k] - sum(cs[i] * s[k - i] for i in range(1, k))) / k)
    # chi(A) = sum_k C_(d-k) A^k; times delta^d it is a combination of B^k
    tower.require_zero([cs[d - k] * delta ** (d - k) for k in range(d + 1)], "chi")
    chi = Poly.make([cs[d - k] for k in range(d + 1)])
    return CharPolyResult(chi, tuple(cs))


def determinant(a: Multivector) -> Fraction:
    return char_poly(a).determinant


def cayley_hamilton_check(a: Multivector) -> bool:
    """Whether chi(A) = 0 holds exactly, the test char_poly runs."""
    try:
        char_poly(a)
    except VerificationError:
        return False
    return True
