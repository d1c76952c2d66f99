"""The integer power tower's mu and chi against sympy on the left-regular
matrix L_A (2^n x 2^n, column j = the coefficients of A e_j).

L_A is faithful, so mu(L_A) = mu_A, and its characteristic polynomial is
chi_A^(2^n/d) with chi_A monic.  Here L_A is built from a blade product
written out below, apart from gafunc's product table; sympy supplies the
characteristic polynomial (DomainMatrix over QQ) and mu, as the first linear
dependence among L_A^k e_0 found by its own elimination (p(L_A) e_0 is the
coefficient vector of p(A), so its annihilator is the annihilator of A).
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from gafunc import Multivector, Signature, blade_order, parse_mv, rep_of
from gafunc.charpoly import char_poly
from gafunc.matfunc import matrix_minimal_poly
from gafunc.minpoly import minimal_poly
from gafunc.poly import Poly

from conftest import A_EX2_TEXT, SIG42

# mu of the paper's Cl(4,2) element T: (x - 5)^4 (x - 3)^3 (x - 1)
X = sympy.Symbol("x")
MU_T = sympy.Poly((X - 5) ** 4 * (X - 3) ** 3 * (X - 1), X)
DENOMINATORS = (1, 2, 3, 7, 10, 999_983, 1_000_000)


def _blade_product(p: int, a: int, b: int) -> tuple[int, int]:
    """(sign, mask) of e_a e_b: each generator of b, in ascending order, is
    moved left past the higher generators of a, then squared away or
    inserted."""
    sign = 1
    i = 0
    while b >> i:
        if b >> i & 1:
            if bin(a >> (i + 1)).count("1") % 2:
                sign = -sign
            if a >> i & 1 and i >= p:
                sign = -sign
            a ^= 1 << i
        i += 1
    return sign, a


def left_regular(a: Multivector) -> DomainMatrix:
    order = blade_order(a.sig)
    pos = {mask: i for i, mask in enumerate(order)}
    dim = a.sig.dim
    rows = [[sympy.Rational(0)] * dim for _ in range(dim)]
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        c = sympy.Rational(ca.numerator, ca.denominator)
        for j, b in enumerate(order):
            sign, mask = _blade_product(a.sig.p, order[i], b)
            rows[pos[mask]][j] += sign * c
    return DomainMatrix.from_list_sympy(dim, dim, rows).convert_to(sympy.QQ)


def _as_fractions(coeffs) -> list[Fraction]:
    return [Fraction(int(c.numerator), int(c.denominator)) for c in coeffs]


def sympy_mu(lmat: DomainMatrix) -> list[Fraction]:
    """Monic annihilator of e_0 under L, ascending coefficients."""
    dim = lmat.shape[0]
    v = DomainMatrix.from_list_sympy(
        dim, 1, [[1]] + [[0]] * (dim - 1)
    ).convert_to(sympy.QQ)
    cols = []
    while True:
        cols.append(v)
        krylov = cols[0].hstack(*cols[1:]).to_Matrix()
        null = krylov.nullspace()
        if null:
            (vec,) = null
            return _as_fractions(vec / vec[-1])
        v = lmat * v


def sympy_chi_power(lmat: DomainMatrix) -> list[Fraction]:
    """charpoly(L), ascending coefficients."""
    return _as_fractions(reversed(lmat.charpoly()))


def _power(p: Poly, k: int) -> Poly:
    out = Poly.constant(Fraction(1))
    for _ in range(k):
        out = out * p
    return out


def check_against_sympy(a: Multivector):
    lmat = left_regular(a)
    mu = minimal_poly(a).mu
    assert list(mu.coeffs) == sympy_mu(lmat)
    chi = char_poly(a).monic
    assert chi.degree == a.sig.char_degree
    want = _power(chi, a.sig.dim // a.sig.char_degree)
    assert list(want.coeffs) == sympy_chi_power(lmat)


def _random_element(rng: random.Random, sig: Signature, nonzero: int):
    coeffs = [Fraction(0)] * sig.dim
    for i in rng.sample(range(sig.dim), min(nonzero, sig.dim)):
        coeffs[i] = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    return Multivector(sig, tuple(coeffs))


def seeded_corpus():
    rng = random.Random(20261018)
    out = []
    strata = ((1, 3, 2), (2, 3, 4), (3, 3, 8), (4, 3, 10), (5, 2, 8), (6, 2, 6))
    for n, count, nonzero in strata:
        for _ in range(count):
            p = rng.randint(0, n)
            out.append(_random_element(rng, Signature(p, n - p), nonzero))
    return out


CORPUS = seeded_corpus()


@pytest.mark.parametrize(
    "a", CORPUS, ids=[f"Cl{a.sig.p}{a.sig.q}-{i}" for i, a in enumerate(CORPUS)]
)
def test_random_rational_elements(a):
    check_against_sympy(a)


SPECIAL = {
    "zero": ("0", Signature(3, 0)),
    "scalar": ("-7/3", Signature(2, 1)),
    "scalar-n5": ("5/999983", Signature(3, 2)),
    "nilpotent": ("3/7*e1 + 3/7*e12", Signature(2, 0)),
    "nilpotent-null": ("e1 + e4 + 2*e12 + 2*e24", Signature(3, 1)),
    # P = (1 + e1)/2 plus the nilpotent (3/5) P (e23 + e34), which commutes with P
    "idempotent-plus-nilpotent": (
        "1/2 + 1/2*e1 + 3/10*e23 + 3/10*e34 + 3/10*e123 + 3/10*e134",
        Signature(2, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_special_elements(name):
    text, sig = SPECIAL[name]
    check_against_sympy(parse_mv(text, sig))


def test_special_minimal_polynomials():
    x = Poly.x_power(1)
    zero = parse_mv(*SPECIAL["zero"])
    assert minimal_poly(zero).mu == x
    nil = parse_mv(*SPECIAL["nilpotent"])
    assert minimal_poly(nil).mu == x * x
    scalar = parse_mv(*SPECIAL["scalar"])
    assert minimal_poly(scalar).mu == Poly.make([Fraction(7, 3), 1])
    defective = parse_mv(*SPECIAL["idempotent-plus-nilpotent"])
    x_minus_1 = x - Poly.constant(1)
    assert minimal_poly(defective).mu == x * x_minus_1 * x_minus_1


def _versor_conjugates(count: int):
    """g T g^-1 for g a product of 1, 2, 3 random integer vectors."""
    t = parse_mv(A_EX2_TEXT, SIG42)
    rng = random.Random(401)
    out = []
    for k in range(1, count + 1):
        g = g_inv = Multivector.one(SIG42)
        for _ in range(k):
            while True:
                parts = [rng.randint(-2, 2) for _ in range(6)]
                v = Multivector.from_blades(
                    SIG42, {1 << i: Fraction(c) for i, c in enumerate(parts)}
                )
                square = (v * v).scalar_part()
                if square != 0:
                    break
            g = g * v
            g_inv = v.scale(1 / square) * g_inv
        assert (g * g_inv - Multivector.one(SIG42)).is_zero()
        out.append(g * t * g_inv)
    return out


CONJUGATES = _versor_conjugates(3)


def _poly_of(coeffs) -> sympy.Poly:
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X
    )


@pytest.mark.parametrize("k", range(len(CONJUGATES)))
def test_versor_conjugates_of_t(k):
    a = CONJUGATES[k]
    assert any(c.denominator > 1 for c in a.coeffs)
    assert _poly_of(minimal_poly(a).mu.coeffs) == MU_T
    check_against_sympy(a)


@pytest.mark.parametrize("k", range(len(CONJUGATES)))
def test_matrix_minimal_poly_of_rep(k):
    m = rep_of(CONJUGATES[k])
    mu = matrix_minimal_poly(m).mu
    assert _poly_of(mu.coeffs) == MU_T
    # mu(M) = 0, and no proper divisor mu / f, f irreducible, annihilates M
    mat = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries]
    )

    def at(poly: sympy.Poly):
        acc = sympy.zeros(8, 8)
        for c in poly.all_coeffs():
            acc = acc * mat + c * sympy.eye(8)
        return acc

    assert at(MU_T).is_zero_matrix
    for factor, _ in sympy.factor_list(MU_T.as_expr())[1]:
        lower = sympy.Poly(sympy.quo(MU_T.as_expr(), factor), X)
        assert not at(lower).is_zero_matrix
