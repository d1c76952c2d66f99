"""Scalar domains used throughout the package.

Three rings appear in the pipeline:

* exact rationals -- ``fractions.Fraction`` (arbitrary-precision, always in
  lowest terms, positive denominator);
* big floats -- ``mpmath.mpf`` at a configurable working precision in decimal
  digits (default 50, never below 16);
* complex scalars -- ``mpmath.mpc`` built from two big floats sharing one
  precision, plus an exact complex-rational type for the few places where
  complex matrices must stay exact.

All structural polynomial and linear-algebra work happens over the exact
rationals; the float rings are evaluation-only.  Transcendental evaluations
run with ``GUARD_DIGITS`` extra digits so results are correct to at least
``precision - 5`` digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import SingularFunctionError

DEFAULT_DPS = 50
MIN_DPS = 16
GUARD_DIGITS = 10


def working(dps: int):
    """Context manager setting mpmath precision to ``dps`` plus guard digits."""
    if dps < MIN_DPS:
        raise ValueError(f"precision must be at least {MIN_DPS} digits, got {dps}")
    return mp.workdps(dps + GUARD_DIGITS)


def to_mpf(x):
    """Convert an exact scalar to an mpf at the current precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def to_mpc(x):
    """Convert any supported scalar to an mpc at the current precision."""
    if isinstance(x, ComplexRational):
        return mp.mpc(to_mpf(x.re), to_mpf(x.im))
    if isinstance(x, Fraction):
        return mp.mpc(to_mpf(x))
    return mp.mpc(x)


@dataclass(frozen=True)
class ComplexRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "ComplexRational":
        return ComplexRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def __repr__(self):
        return f"ComplexRational({self.re}, {self.im})"


def _coerce(x):
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction)):
        return ComplexRational(Fraction(x), Fraction(0))
    return NotImplemented


_TRANSCENDENTALS = {
    "exp": mp.exp,
    "log": mp.log,
    "sin": mp.sin,
    "cos": mp.cos,
    "sqrt": mp.sqrt,
}


def complex_transcendental(name: str, z, dps: int = DEFAULT_DPS, exponent=None):
    """Evaluate a principal-branch transcendental at ``z``.

    ``name`` is one of exp, log, sin, cos, sqrt, pow; ``pow`` additionally
    takes ``exponent``.  Raises :class:`SingularFunctionError` outside the
    principal domain (log/sqrt at zero).
    """
    with working(dps):
        z = to_mpc(z)
        if name in ("log", "sqrt") and z == 0:
            raise SingularFunctionError(name, z, "zero argument")
        if name == "pow":
            if exponent is None:
                raise ValueError("pow requires an exponent")
            if z == 0 and mp.mpf(exponent) < 0:
                raise SingularFunctionError("pow", z, "negative power of zero")
            return mp.power(z, exponent)
        try:
            fn = _TRANSCENDENTALS[name]
        except KeyError:
            raise ValueError(f"unknown transcendental {name!r}") from None
        return fn(z)
