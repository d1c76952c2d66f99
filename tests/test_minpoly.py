from fractions import Fraction

import pytest

from gafunc import Multivector, Signature, parse_mv
from gafunc.charpoly import char_poly
from gafunc.errors import VerificationError
from gafunc.minpoly import minimal_poly, mv_rank
from gafunc.poly import Poly, poly_divmod
from gafunc.tower import Eliminator, multivector_tower

from conftest import SIG30


def P(*coeffs):
    return Poly.make([Fraction(c) for c in coeffs])


def test_idempotent(idempotent):
    res = minimal_poly(idempotent)
    assert res.mu == P(0, -1, 1)  # x^2 - x
    assert res.degree == 2
    assert mv_rank(idempotent) == 2


def test_scalar_has_degree_one():
    sig = Signature(3, 0)
    a = Multivector.scalar(sig, Fraction(5, 2))
    assert minimal_poly(a).mu == P(Fraction(-5, 2), 1)
    assert mv_rank(a) == 1


def test_zero_element():
    a = Multivector.zero(Signature(2, 0))
    assert minimal_poly(a).mu == P(0, 1)  # x


def test_ex1(a_ex1):
    assert minimal_poly(a_ex1).mu == P(4, 8, 8, 4, 1)


def test_ex2(a_ex2):
    assert minimal_poly(a_ex2).mu == P(
        16875, -47250, 53550, -32890, 12132, -2774, 386, -30, 1
    )


def test_mu_divides_chi(a_ex1, a_ex2, idempotent):
    for a in (a_ex1, a_ex2, idempotent):
        mu = minimal_poly(a).mu
        q, r = poly_divmod(char_poly(a).monic, mu)
        assert r.is_zero()


def test_full_degree_invertible_element():
    # e1 in Cl(2,0): mu = x^2 - 1 = chi, and mu(0) != 0 so the dependence
    # shows up one step past the characteristic degree
    a = Multivector.basis_vector(Signature(2, 0), 1)
    assert minimal_poly(a).mu == P(-1, 0, 1)


def test_spinor_degree_three(spinor):
    # mu = x^3 - 2 c1 x^2 + (c1^2 + c2^2) x at (c1, c2) = (1, 2)
    assert minimal_poly(spinor).mu == P(0, 5, -2, 1)
    assert mv_rank(spinor) == 3


def test_eliminator_first_dependence():
    elim = Eliminator()
    assert elim.insert([1, 2, 0]) is None
    assert elim.insert([0, 1, 1]) is None
    # 2 (1, 2, 0) + 3 (0, 1, 1) = (2, 7, 3)
    combo = elim.insert([2, 7, 3])
    assert combo is not None and combo[-1] != 0
    assert [Fraction(c, combo[-1]) for c in combo] == [-2, -3, 1]


def test_eliminator_rational_entries():
    elim = Eliminator()
    vecs = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 6)],
    ]
    assert elim.insert(vecs[0]) is None
    combo = elim.insert(vecs[1])
    assert combo is not None
    for col in range(2):
        assert sum(c * v[col] for c, v in zip(combo, vecs)) == 0


def test_eliminator_divides_out_content():
    elim = Eliminator()
    assert elim.insert([2, 0, 0]) is None
    # 2 (4, 2, 0) - 4 (2, 0, 0) = (0, 4, 0), stored without its content 2
    assert elim.insert([4, 2, 0]) is None
    assert elim.rows[1][1:] == ([0, 2, 0], [-2, 1])
    combo = elim.insert([0, 4, 0])
    assert combo == [4, -2, 1]


def test_combination_spans_tower_from_one(a_ex2):
    # B = 8 A: the combination is mu_B = 8^8 mu_A(x / 8) up to a factor
    res = minimal_poly(a_ex2)
    combo = res.combination
    assert len(combo) == res.degree + 1
    for k, c in enumerate(combo):
        assert Fraction(c, combo[-1]) == res.mu.coeffs[k] * 8 ** (res.degree - k)


def test_corrupted_combination_is_a_typed_error(a_ex1):
    tower = multivector_tower(a_ex1)
    combo = list(minimal_poly(a_ex1, tower).combination)
    tower.require_zero(combo, "mu")
    combo[0] += 1
    with pytest.raises(VerificationError):
        tower.require_zero(combo, "mu")


def test_corrupted_eliminator_is_caught(a_ex1, monkeypatch):
    insert = Eliminator.insert

    def corrupt(self, vec):
        combo = insert(self, vec)
        if combo is not None:
            combo[0] += 1
        return combo

    monkeypatch.setattr(Eliminator, "insert", corrupt)
    with pytest.raises(VerificationError):
        minimal_poly(a_ex1)


def test_annihilation_exact(a_ex1, corpus):
    from gafunc.ga import mv_powers

    for a in [a_ex1] + corpus[:10]:
        mu = minimal_poly(a).mu
        powers = mv_powers(a, mu.degree)
        acc = Multivector.zero(a.sig)
        for k, c in enumerate(mu.coeffs):
            acc = acc + powers[k].scale(c)
        assert acc.is_zero()
