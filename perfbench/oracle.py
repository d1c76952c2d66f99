"""Reference values and checks, computed apart from gafunc.

Nothing here calls the program.  References are series on the element
itself, in fixed-point integer arithmetic (a value v is held as the Python
int round(v * 2**bits)), or exact rational arithmetic and sympy where the
answer is exact:

* exp, sin, cos: scaling and squaring (doubling) of the Taylor series;
* log, sqrt: the series of log(1 + X) and (1 + X)^(1/2) around a positive
  scalar centre c, with X = A/c - 1 of spectral radius below one;
* inv: the exact rational solution of A X = 1;
* mu, chi: exact annihilation and minimality over Q, and sympy's
  characteristic polynomial of the left-regular matrix.

Elements are numpy object arrays: 1-d coefficient vectors for multivectors
(products through the left-regular matrix), 2-d for square matrices.

Every forward comparison allows the digits the call promises: each
coefficient may be off by at most 10^-(precision - 5) times the largest
reference coefficient (or one, if that is larger).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from algebra import Algebra

PROMISE_LOSS = 5  # gafunc promises precision - 5 correct digits
GUARD_BITS = 64


def work_bits(digits: int) -> int:
    """Fixed-point bits for references checked at ``digits`` digits."""
    return math.ceil((digits + 20) * math.log2(10)) + GUARD_BITS


def to_fixed(x, bits: int) -> int:
    """round(x * 2**bits) for an int, Fraction or decimal string."""
    x = Fraction(x)
    return (x.numerator * (2 << bits) + x.denominator) // (2 * x.denominator)


def exact(values):
    """Object array of Fractions (any nesting of lists)."""
    return np.vectorize(Fraction, otypes=[object])(np.array(values, dtype=object))


def fixed(values, bits: int):
    """Object array of fixed-point ints from exact values."""
    arr = np.array(values, dtype=object)
    return np.vectorize(lambda v: to_fixed(v, bits), otypes=[object])(arr)


def _rshift(v, bits: int):
    """Round-to-nearest division by 2**bits, elementwise."""
    return (v + (1 << (bits - 1))) >> bits


def _rdiv(v, d: int):
    return (2 * v + d) // (2 * d)


def _max_abs(v) -> int:
    return max(abs(int(x)) for x in np.ravel(v))


# -- rings ------------------------------------------------------------------


class MVRing:
    """Multivectors of one algebra, multiplied through left-regular matrices."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        dim = alg.dim
        self.idx = np.zeros((dim, dim), dtype=np.int64)
        self.sgn = np.zeros((dim, dim), dtype=object)
        for i, row in enumerate(alg.left):
            for j, k, s in row:
                self.idx[k, j] = i
                self.sgn[k, j] = s

    def one(self, scale: int):
        v = np.zeros(self.alg.dim, dtype=object)
        v[0] = scale
        return v

    def left(self, a):
        """Matrix of y -> a*y."""
        return a[self.idx] * self.sgn

    def mul(self, a, b):
        return self.left(a) @ b


class MatRing:
    """Square m x m matrices."""

    def __init__(self, m: int):
        self.m = m

    def one(self, scale: int):
        v = np.zeros((self.m, self.m), dtype=object)
        for i in range(self.m):
            v[i, i] = scale
        return v

    def left(self, a):
        return a

    def mul(self, a, b):
        return a @ b


def fixed_mul(ring, a, b, bits: int):
    return _rshift(ring.mul(a, b), bits)


# -- transcendental references ----------------------------------------------


def _halvings(a) -> int:
    """s with ||a / 2^s||_1 <= 1/2.  The l1 norm of the coefficients bounds
    the norm of every product, so the Taylor tail is controlled."""
    norm = sum(abs(Fraction(x)) for x in np.ravel(a))
    s = 0
    while norm > Fraction(1, 2):
        norm /= 2
        s += 1
    return s


def _taylor_terms(ring, b, bits: int):
    """Yield (k, b^k / k!) until the terms vanish at ``bits`` bits."""
    op = ring.left(b)
    term = ring.one(1 << bits)
    k = 0
    while True:
        yield k, term
        k += 1
        term = _rdiv(_rshift(op @ term, bits), k)
        if _max_abs(term) == 0:
            return


def _scaled(a, s: int, bits: int):
    return fixed(np.vectorize(lambda x: Fraction(x) / (1 << s), otypes=[object])(a), bits)


def exp_fixed(ring, a, bits: int):
    """exp(a) at ``bits`` fractional bits, for exact ``a``."""
    s = _halvings(a)
    w = bits + 2 * s + 16
    acc = 0
    for _, term in _taylor_terms(ring, _scaled(a, s, w), w):
        acc = acc + term
    for _ in range(s):
        acc = fixed_mul(ring, acc, acc, w)
    return _rshift(acc, w - bits)


def sincos_fixed(ring, a, bits: int):
    """(sin(a), cos(a)) by halving, Taylor and the double-angle formulas."""
    s = _halvings(a)
    w = bits + 2 * s + 16
    sin = cos = 0
    for k, term in _taylor_terms(ring, _scaled(a, s, w), w):
        signed = term if (k // 2) % 2 == 0 else -term
        if k % 2:
            sin = sin + signed
        else:
            cos = cos + signed
    for _ in range(s):
        sin, cos = (
            2 * fixed_mul(ring, sin, cos, w),
            fixed_mul(ring, cos, cos, w) - fixed_mul(ring, sin, sin, w),
        )
    return _rshift(sin, w - bits), _rshift(cos, w - bits)


def _log1p_coefficients():
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction((-1) ** (k + 1), k)
        k += 1


def _sqrt1p_coefficients():
    c, k = Fraction(1), 0
    while True:
        yield c
        c = c * (Fraction(1, 2) - k) / (k + 1)
        k += 1


def _centred_series(ring, a, centre: int, coefficients, bits: int, settle: int = 20):
    """sum_k c_k X^k with X = a/centre - 1, at ``bits + 32`` bits.

    Stops once the powers of X have stayed below 2^-(bits - 8) for
    ``settle`` steps in a row (|c_k| <= 1 for both series).  Convergence
    rests on the spectral radius of X, not a norm, so callers confirm the
    result by the function's defining property."""
    w = bits + 32
    x = fixed(np.vectorize(lambda c: Fraction(c) / centre, otypes=[object])(a), w)
    x = x - ring.one(1 << w)
    op = ring.left(x)
    power = ring.one(1 << w)
    limit = 1 << (w - bits + 8)
    acc, small = 0, 0
    for k, c in enumerate(coefficients):
        if k:
            power = _rshift(op @ power, w)
            small = small + 1 if _max_abs(power) < limit else 0
            if small >= settle:
                return acc, w
            if k > 20000:
                raise ArithmeticError("series did not settle")
        acc = acc + _rdiv(power * c.numerator, c.denominator)


def log_fixed(ring, a, centre: int, bits: int):
    """log(a) = log(centre) + log(1 + X)."""
    import mpmath as mp

    acc, w = _centred_series(ring, a, centre, _log1p_coefficients(), bits)
    with mp.workprec(w + 64):
        log_c = int(mp.nint(mp.log(centre) * mp.mpf(2) ** w))
    return _rshift(acc + ring.one(log_c), w - bits)


def sqrt_fixed(ring, a, centre: int, bits: int):
    """sqrt(a) = sqrt(centre) * (1 + X)^(1/2)."""
    acc, w = _centred_series(ring, a, centre, _sqrt1p_coefficients(), bits)
    root_c = math.isqrt(centre << (2 * w))  # floor(sqrt(centre) * 2^w)
    return _rshift(acc * root_c, 2 * w - bits)


def exact_inverse(ring: MVRing, a):
    """The exact rational X with a*X = 1 (Gauss-Jordan on the left-regular
    matrix); raises StopIteration when ``a`` is singular."""
    dim = ring.alg.dim
    rows = [list(r) + [Fraction(int(i == 0))] for i, r in enumerate(ring.left(a).tolist())]
    for c in range(dim):
        piv = next(r for r in range(c, dim) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(dim):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return exact([rows[r][dim] for r in range(dim)])


# -- comparisons ------------------------------------------------------------


def tolerance(ref, bits: int, digits: int) -> int:
    """10^-(digits - PROMISE_LOSS) * max(1, max |ref|), in fixed point."""
    return max(1 << bits, _max_abs(ref)) // 10 ** (digits - PROMISE_LOSS)


def deviation(got, ref) -> int:
    """Largest coefficient difference; ``got`` and ``ref`` share a scale."""
    return max(abs(int(g) - int(r)) for g, r in zip(np.ravel(got), np.ravel(ref)))


# -- exact polynomial checks (mu and chi) -----------------------------------


def _poly_at(ring: MVRing, a, coeffs):
    """sum_k coeffs[k] A^k exactly, coefficients ascending."""
    op = ring.left(a)
    power = ring.one(Fraction(1))
    acc = 0
    for k, c in enumerate(coeffs):
        if k:
            power = op @ power
        acc = acc + power * Fraction(c)
    return acc


def minpoly_ok(ring: MVRing, a, mu) -> bool:
    """``mu`` (ascending) is monic, annihilates A, and no mu/f with f an
    irreducible factor over Q does."""
    import sympy

    mu = [Fraction(c) for c in mu]
    if len(mu) < 2 or mu[-1] != 1 or any(_poly_at(ring, a, mu)):
        return False
    x = sympy.Symbol("x")
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(mu)], x, domain="QQ")
    for f, _ in p.factor_list()[1]:
        q = p.exquo(f)
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())]
        if not any(_poly_at(ring, a, cs)):
            return False
    return True


def charpoly_ok(ring: MVRing, a, fls) -> bool:
    """``fls`` = C_(0) .. C_(d), chi(x) = sum_k C_(d-k) x^k, C_(0) = -1.

    The left-regular representation is 2^n/d copies of the degree-d one,
    so its characteristic polynomial is (-chi)^(2^n/d)."""
    import sympy

    fls = [Fraction(c) for c in fls]
    d = len(fls) - 1
    dim = ring.alg.dim
    if d < 1 or dim % d or fls[0] != -1:
        return False
    x = sympy.Symbol("x")
    q = lambda c: sympy.Rational(c.numerator, c.denominator)  # noqa: E731
    mat = sympy.Matrix([[q(Fraction(v)) for v in r] for r in ring.left(a).tolist()])
    chi = sympy.Poly([-q(fls[d - k]) for k in range(d, -1, -1)], x)
    return mat.charpoly(x) == chi ** (dim // d)
