"""One exact integer power tower per element.

An element A with rational coefficients (a multivector or a square matrix)
is written once as A = B/delta, delta the least common denominator, so B has
Python-int coefficients.  The powers B^0, B^1, ... are built on demand by
the element's own product on those integers, and everything exact is read
off this one tower:

* mu: the powers, from B^0 on, go into one fraction-free eliminator; the
  first dependence is mu_B, and mu_A(x) = delta^-D mu_B(delta x)
  (:mod:`gafunc.minpoly`);
* chi: Newton's identities on the traces d <B^k>_0 / delta^k
  (:mod:`gafunc.charpoly`);
* assembly: P(A) = sum_k c_k A^k with A^k = B^k / delta^k, each
  coefficient rounded to working precision once per element and precision
  (:mod:`gafunc.mvfunc`, :mod:`gafunc.matfunc`).

The tower and the eliminator also run over any other exact commutative ring
(exact complex rationals, say) with delta = 1; only the content step of the
eliminator is specific to the integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .errors import VerificationError
from .ga import Multivector
from .poly import Poly
from .scalars import to_mpc, to_mpf


def clear_denominators(values) -> tuple[int, list]:
    """(delta, ints) with values[i] = ints[i] / delta, delta the least common
    denominator.  Values outside the rationals come back unchanged with
    delta = 1."""
    values = list(values)
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return 1, values
    delta = math.lcm(*(v.denominator for v in values))
    return delta, [v.numerator * (delta // v.denominator) for v in values]


class PowerTower:
    """B^0, B^1, ... of one exact element B, with A = B/delta."""

    def __init__(self, base, one, delta: int = 1, vectorize=lambda e: e.coeffs):
        self.base = base
        self.delta = delta
        self._vectorize = vectorize
        self._top = one
        self._vectors = [vectorize(one)]
        self._lifts = {}  # binary precision -> [A^k coefficients as mpf]

    def vector(self, k: int):
        """Coefficient vector of B^k, extending the tower as needed."""
        while len(self._vectors) <= k:
            self._top = self._top * self.base
            self._vectors.append(self._vectorize(self._top))
        return self._vectors[k]

    def require_zero(self, coeffs, what: str):
        """Raise unless sum_k coeffs[k] B^k = 0 exactly."""
        _, coeffs = clear_denominators(coeffs)  # the scale does not matter
        vecs = [self.vector(k) for k in range(len(coeffs))]
        for column in zip(*vecs):
            if sum(c * x for c, x in zip(coeffs, column) if c) != 0:
                raise VerificationError(f"{what} does not annihilate its element")

    def _lifted(self, k: int) -> list:
        """Coefficients of A^k = B^k / delta^k as mpf at working precision,
        each rounded from its lowest-terms fraction; kept per precision."""
        lifted = self._lifts.setdefault(mp.mp.prec, [])
        while len(lifted) <= k:
            den = self.delta ** len(lifted)
            lifted.append([to_mpf(Fraction(x, den)) for x in self.vector(len(lifted))])
        return lifted[k]

    def evaluate(self, p: Poly) -> list:
        """Coefficients of P(A) = sum_k c_k A^k at working precision, summed
        in ascending k."""
        acc = [mp.mpc(0)] * len(self.vector(0))
        for k, c in enumerate(p.coeffs):
            if c != 0:
                c = to_mpc(c)
                acc = [x + c * a for x, a in zip(acc, self._lifted(k))]
        return acc


def multivector_tower(a: Multivector) -> PowerTower:
    """The power tower of a multivector, denominators cleared."""
    delta, ints = clear_denominators(a.coeffs)
    one = (1,) + (0,) * (a.sig.dim - 1)
    return PowerTower(Multivector(a.sig, tuple(ints)), Multivector(a.sig, one), delta)


class Eliminator:
    """Fraction-free incremental row reduction with combination tracking.

    Every stored row is (pivot, reduced vector, combination of the inserted
    vectors that gives it).  Reducing by a row cross-multiplies,
    v <- p v - f row, so nothing is ever divided; over the integers the
    content of the reduced vector and its combination is divided out, which
    keeps the entries small (Bareiss 1968 divides by the previous pivot for
    the same reason).  ``insert`` returns None while the vectors stay
    independent and, on the first dependence, the combination c with
    sum_j c_j v_j = 0 over every vector inserted so far; its last entry is
    nonzero.
    """

    def __init__(self):
        self.rows = []  # (pivot index, reduced vector, combination)
        self.count = 0

    def insert(self, vec):
        v = list(vec)
        combo = [0] * self.count + [1]
        self.count += 1
        for pivot, row, rcombo in self.rows:
            f = v[pivot]
            if f == 0:
                continue
            p = row[pivot]
            v = [p * x - f * r for x, r in zip(v, row)]
            combo = [p * x for x in combo]
            for i, r in enumerate(rcombo):
                combo[i] -= f * r
        if all(type(x) is int for x in v + combo):
            g = math.gcd(*v, *combo)
            if g > 1:
                v = [x // g for x in v]
                combo = [x // g for x in combo]
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return combo
        self.rows.append((pivot, v, combo))
        return None
