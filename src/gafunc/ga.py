"""Clifford algebra core: signatures, blades, multivectors, geometric product.

Blades are bitmasks: bit ``i`` set means generator ``e_{i+1}`` occurs.  The
coefficient array of a multivector is indexed by the canonical blade order:
lower grades first, lexicographic on the index tuple within a grade, so for
n = 3 the order is {1, e1, e2, e3, e12, e13, e23, e123}.

Multivectors are immutable and ring-agnostic: coefficients may be Fractions
(the exact path), mpmath complex numbers (evaluation), or exact complex
rationals.  Callers lift between rings explicitly (see :func:`lift_complex`);
mixed-ring products are not supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import SignatureMismatchError
from .scalars import to_mpc

_SIGN_TABLE_MAX_N = 8


@dataclass(frozen=True)
class Signature:
    """The algebra Cl(p,q): p generators square to +1, q to -1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError(f"invalid signature ({self.p},{self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        """Number of basis blades, 2^n."""
        return 1 << self.n

    @property
    def char_degree(self) -> int:
        """Degree d = 2^ceil(n/2) of the characteristic polynomial."""
        return 1 << ((self.n + 1) // 2)


def _mask_indices(mask: int) -> tuple[int, ...]:
    """Generator indices (1-based, ascending) present in a blade mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def _blade_order(n: int) -> tuple[int, ...]:
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), _mask_indices(m)))
    return tuple(masks)


@lru_cache(maxsize=None)
def _blade_position(n: int) -> dict:
    return {mask: pos for pos, mask in enumerate(_blade_order(n))}


def blade_order(sig: Signature) -> tuple[int, ...]:
    """All 2^n blade masks in canonical (grade, lexicographic) order."""
    return _blade_order(sig.n)


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(i) for i in _mask_indices(mask))


def blade_sign(p: int, a: int, b: int) -> int:
    """Sign of the product of blades ``a`` and ``b`` (masks) in Cl(p,q).

    Counts the transpositions needed to interleave the two index sequences,
    then one metric factor per repeated generator.
    """
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    sign = -1 if swaps & 1 else 1
    common = a & b
    i = 0
    while common:
        if common & 1 and i >= p:
            sign = -sign
        common >>= 1
        i += 1
    return sign


@lru_cache(maxsize=32)
def _product_table(p: int, q: int):
    """Flat (result position, sign) table over blade positions, n <= 8 only."""
    n = p + q
    order = _blade_order(n)
    pos = _blade_position(n)
    dim = 1 << n
    res = [0] * (dim * dim)
    sgn = [0] * (dim * dim)
    for i, a in enumerate(order):
        base = i * dim
        for j, b in enumerate(order):
            res[base + j] = pos[a ^ b]
            sgn[base + j] = blade_sign(p, a, b)
    return res, sgn


@dataclass(frozen=True)
class Multivector:
    """Dense multivector: 2^n coefficients in canonical blade order."""

    sig: Signature
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.sig.dim:
            raise ValueError(
                f"expected {self.sig.dim} coefficients, got {len(self.coeffs)}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(sig: Signature) -> "Multivector":
        return Multivector(sig, (Fraction(0),) * sig.dim)

    @staticmethod
    def scalar(sig: Signature, value) -> "Multivector":
        coeffs = [Fraction(0)] * sig.dim
        coeffs[0] = value
        return Multivector(sig, tuple(coeffs))

    @staticmethod
    def one(sig: Signature) -> "Multivector":
        return Multivector.scalar(sig, Fraction(1))

    @staticmethod
    def from_blades(sig: Signature, terms: dict) -> "Multivector":
        """Build from a {blade mask: coefficient} mapping."""
        pos = _blade_position(sig.n)
        coeffs = [Fraction(0)] * sig.dim
        for mask, c in terms.items():
            coeffs[pos[mask]] = coeffs[pos[mask]] + c
        return Multivector(sig, tuple(coeffs))

    @staticmethod
    def basis_vector(sig: Signature, i: int) -> "Multivector":
        """The generator e_i, 1-based."""
        if not 1 <= i <= sig.n:
            raise ValueError(f"generator index {i} out of range 1..{sig.n}")
        return Multivector.from_blades(sig, {1 << (i - 1): Fraction(1)})

    # -- ring plumbing -----------------------------------------------------

    def _check(self, other: "Multivector"):
        if self.sig != other.sig:
            raise SignatureMismatchError(
                f"Cl({self.sig.p},{self.sig.q}) vs Cl({other.sig.p},{other.sig.q})"
            )

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(
            self.sig, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(
            self.sig, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "Multivector":
        return Multivector(self.sig, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "Multivector":
        return Multivector(self.sig, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "Multivector") -> "Multivector":
        """Geometric product."""
        self._check(other)
        sig = self.sig
        dim = sig.dim
        if sig.n <= _SIGN_TABLE_MAX_N:
            res, sgn = _product_table(sig.p, sig.q)
            out = [0] * dim
            bc = other.coeffs
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                base = i * dim
                for j, b in enumerate(bc):
                    if not b:
                        continue
                    k = base + j
                    if sgn[k] == 1:
                        out[res[k]] += a * b
                    else:
                        out[res[k]] -= a * b
        else:
            order = _blade_order(sig.n)
            pos = _blade_position(sig.n)
            out = [0] * dim
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                ma = order[i]
                for j, b in enumerate(other.coeffs):
                    if not b:
                        continue
                    mb = order[j]
                    s = blade_sign(sig.p, ma, mb)
                    out[pos[ma ^ mb]] += a * b if s == 1 else -(a * b)
        return Multivector(sig, tuple(out))

    # -- queries -----------------------------------------------------------

    def scalar_part(self):
        return self.coeffs[0]

    def coefficient_list(self) -> list:
        """Coefficients in canonical blade order."""
        return list(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        from .io import format_mv  # late import, io depends on ga

        return f"<{format_mv(self)} in Cl({self.sig.p},{self.sig.q})>"


def mv_powers(a: Multivector, kmax: int) -> list[Multivector]:
    """[A^0, A^1, ..., A^kmax] by repeated geometric product."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    powers = [Multivector.one(a.sig)]
    for _ in range(kmax):
        powers.append(powers[-1] * a)
    return powers


def lift_complex(a: Multivector) -> Multivector:
    """Lift an exact multivector to mpc coefficients at current precision."""
    return Multivector(a.sig, tuple(to_mpc(c) for c in a.coeffs))


def max_abs_coeff(a: Multivector):
    """Largest coefficient magnitude (mpf), for residual reporting."""
    import mpmath as mp

    return max((abs(to_mpc(c)) for c in a.coeffs), default=mp.mpf(0))
