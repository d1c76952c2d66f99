"""A small Clifford algebra written apart from gafunc.

It serves two purposes: building the seeded inputs (exact rational products
such as g*T*g^-1) and computing the references the outputs are checked
against.  It imports nothing from gafunc and nothing outside the standard
library, so the process that runs a workload can use it without loading
numpy or sympy.

Blades are bit masks (bit i set means e_{i+1} occurs).  Coefficient lists
follow gafunc's documented canonical order: lower grades first,
lexicographic on the index tuple within a grade.  If that order ever
differed from the program's, every check would fail, so the order is
checked by every run rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blade_text(mask: int) -> str:
    return "1" if mask == 0 else "e" + "".join(map(str, mask_indices(mask)))


def product_sign(p: int, a: int, b: int) -> int:
    """Sign of e_a * e_b in Cl(p, q): one factor -1 per pair (x in a, y in b)
    with x > y, and one per shared generator that squares to -1."""
    ia, ib = mask_indices(a), mask_indices(b)
    inversions = sum(1 for x in ia for y in ib if x > y)
    negative_squares = sum(1 for x in ia if x in ib and x > p)
    return -1 if (inversions + negative_squares) % 2 else 1


class Algebra:
    """Cl(p, q) with dense coefficient lists in canonical order."""

    def __init__(self, p: int, q: int):
        self.p, self.q, self.n = p, q, p + q
        self.dim = 1 << self.n
        self.order = sorted(
            range(self.dim), key=lambda m: (bin(m).count("1"), mask_indices(m))
        )
        self.pos = {m: i for i, m in enumerate(self.order)}
        # left[i] lists (j, k, sign): e_order[i] * e_order[j] = sign * e_order[k]
        self.left = [
            [
                (j, self.pos[a ^ b], product_sign(p, a, b))
                for j, b in enumerate(self.order)
            ]
            for a in self.order
        ]

    def vector(self, comps) -> list:
        """The grade-1 element sum_i comps[i] e_{i+1}."""
        out = [Fraction(0)] * self.dim
        for i, c in enumerate(comps):
            out[self.pos[1 << i]] = Fraction(c)
        return out

    def scalar(self, c) -> list:
        out = [type(c)(0)] * self.dim
        out[0] = c
        return out

    def mul(self, a, b) -> list:
        """Geometric product over any ring with + and * (exact or ints)."""
        out = [0] * self.dim
        for i, x in enumerate(a):
            if not x:
                continue
            for j, k, s in self.left[i]:
                y = b[j]
                if y:
                    out[k] = out[k] + x * y if s > 0 else out[k] - x * y
        return out

    def text(self, coeffs) -> str:
        """gafunc's multivector text format, exact rationals as p/q."""
        terms = []
        for m, c in zip(self.order, coeffs):
            c = Fraction(c)
            if c == 0:
                continue
            mag = str(abs(c))
            body = mag if m == 0 else f"{mag}*{blade_text(m)}"
            if terms:
                terms.append(("- " if c < 0 else "+ ") + body)
            else:
                terms.append(("-" if c < 0 else "") + body)
        return " ".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def algebra(p: int, q: int) -> Algebra:
    return Algebra(p, q)
