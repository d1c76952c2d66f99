from fractions import Fraction

import mpmath as mp
import pytest

from gafunc import Multivector, Signature, parse_mv
from gafunc.errors import RealnessError, SingularFunctionError
from gafunc.funcs import (
    builtin,
    cos_spec,
    exp_spec,
    inverse_spec,
    log_spec,
    pow_spec,
    sin_spec,
    sqrt_spec,
)
from gafunc import mvfunc
from gafunc.ga import lift_complex
from gafunc.mvfunc import (
    clear_cache,
    get_pipeline,
    mv_function,
    real_reduction,
    verify_exponential,
)
from gafunc.scalars import working

from conftest import SIG30, mv_diff, taylor_exp


def test_exp_ex1_real_form(a_ex1):
    """The worked closed form: exp(A) = (1/e)(cos1 + (sin1+2cos1)e1 + ...)."""
    res = mv_function(a_ex1, exp_spec(), 50)
    assert res.real_form is not None
    with working(50):
        s, c, inv_e = mp.sin(1), mp.cos(1), mp.exp(-1)
        expected = [
            c,
            s + 2 * c,  # e1
            2 * s + c,  # e2
            2 * (c - s),  # e3
            -2 * (s + c),  # e12
            s - 2 * c,  # e13
            c - 2 * s,  # e23
            -s,  # e123
        ]
        for got, want in zip(res.real_form.coeffs, expected):
            assert abs(got - want * inv_e) < mp.mpf(10) ** -40


def test_exp_matches_taylor_oracle(a_ex1):
    res = mv_function(a_ex1, exp_spec(), 50)
    with working(50):
        oracle = taylor_exp(a_ex1, 50)
        assert mv_diff(res.value, oracle) < mp.mpf(10) ** -40


def test_verify_exponential(a_ex1):
    res = mv_function(a_ex1, exp_spec(), 50)
    with working(50):
        assert verify_exponential(a_ex1, res, 50) < mp.mpf(10) ** -40


def test_derivative_orders_reported(a_ex1):
    res = mv_function(a_ex1, exp_spec(), 50)
    assert res.diagnostics["derivative_orders"] == [0, 1]
    assert res.diagnostics["minimal_degree"] == 4


def test_non_defective_uses_no_derivatives():
    a = parse_mv("1 + 2*e1", SIG30)
    res = mv_function(a, exp_spec(), 50)
    assert res.diagnostics["derivative_orders"] == [0]


def test_log_inverts_exp():
    # exponentiate log(A) through the independent Taylor oracle, which
    # accepts the numeric coefficients the spectral pipeline produces
    a = parse_mv("2 + 1/2*e12", SIG30)
    with working(50):
        l = mv_function(a, log_spec(), 50)
        assert l.real_form is not None
        back = taylor_exp(l.real_form, 50)
        assert mv_diff(back, lift_complex(a)) < mp.mpf(10) ** -40


def test_sin_cos_identity(a_ex1):
    with working(50):
        s = mv_function(a_ex1, sin_spec(), 50).value
        c = mv_function(a_ex1, cos_spec(), 50).value
        ident = s * s + c * c
        one = Multivector.one(a_ex1.sig)
        assert mv_diff(ident, lift_complex(one)) < mp.mpf(10) ** -40


def test_sqrt_squares_back():
    a = parse_mv("5 + e1 + 1/3*e23", SIG30)
    with working(50):
        r = mv_function(a, sqrt_spec(), 50).value
        assert mv_diff(r * r, lift_complex(a)) < mp.mpf(10) ** -40


def test_inverse_is_geometric_inverse():
    a = parse_mv("3 + e2", SIG30)
    with working(50):
        inv = mv_function(a, inverse_spec(), 50).value
        one = lift_complex(Multivector.one(a.sig))
        assert mv_diff(inv * lift_complex(a), one) < mp.mpf(10) ** -40


def test_integer_power_matches_geometric_power(a_ex1):
    with working(50):
        cubed = mv_function(a_ex1, pow_spec(3), 50).value
        direct = lift_complex(a_ex1 * a_ex1 * a_ex1)
        assert mv_diff(cubed, direct) < mp.mpf(10) ** -38


def test_singular_function_raises(idempotent):
    # mu roots are 0 and 1: 1/x and log are singular at 0
    with pytest.raises(SingularFunctionError) as err:
        mv_function(idempotent, inverse_spec(), 50)
    assert err.value.function_name == "inv"
    with pytest.raises(SingularFunctionError):
        mv_function(idempotent, log_spec(), 50)


def test_branch_cut_root_is_hard_error():
    e1 = parse_mv("e1", SIG30)  # roots +-1; -1 sits on the log branch cut
    with pytest.raises(SingularFunctionError):
        mv_function(e1, log_spec(), 50)
    with pytest.raises(SingularFunctionError):
        mv_function(e1, sqrt_spec(), 50)
    # but integral powers are fine
    res = mv_function(e1, pow_spec(2), 50)
    assert res.real_form is not None


def test_charpoly_substitution_agrees(a_ex1):
    with working(50):
        via_mu = mv_function(a_ex1, exp_spec(), 50).value
        via_chi = mv_function(a_ex1, exp_spec(), 50, poly_source="charpoly").value
        assert mv_diff(via_mu, via_chi) < mp.mpf(10) ** -40


def test_real_reduction_raises_on_genuinely_complex():
    with working(50):
        sig = SIG30
        value = Multivector(sig, (mp.mpc(1, 1),) + (mp.mpc(0),) * (sig.dim - 1))
        with pytest.raises(RealnessError):
            real_reduction(value, mp.mpf(10) ** -25)
        reduced = real_reduction(
            Multivector(
                sig, (mp.mpc(1, mp.mpf(10) ** -40),) + (mp.mpc(0),) * (sig.dim - 1)
            ),
            mp.mpf(10) ** -25,
        )
        assert mp.im(reduced.coeffs[0]) == 0


def test_pipeline_cache_reused(a_ex1):
    clear_cache()
    p1 = get_pipeline(a_ex1, 50)
    p2 = get_pipeline(a_ex1, 50)
    assert p1 is p2
    p3 = get_pipeline(a_ex1, 30)
    assert p3 is not p1


def test_pipeline_cache_is_bounded():
    clear_cache()
    for k in range(mvfunc._CACHE_SIZE + 5):
        get_pipeline(Multivector.scalar(SIG30, Fraction(k + 1, 3)), 30)
        assert len(mvfunc._cache) == min(k + 1, mvfunc._CACHE_SIZE)
    # least recently used goes first: the oldest element is analysed again
    first = Multivector.scalar(SIG30, Fraction(1, 3))
    last = Multivector.scalar(SIG30, Fraction(mvfunc._CACHE_SIZE + 5, 3))
    hit = get_pipeline(last, 30)
    assert get_pipeline(last, 30) is hit
    assert (SIG30, first.coeffs, 30, "minimal") not in mvfunc._cache
    clear_cache()


def test_higher_precision_request():
    a = parse_mv("1 + e12", SIG30)
    res = mv_function(a, exp_spec(), 100)
    with working(100):
        oracle = taylor_exp(a, 100)
        assert mv_diff(res.value, oracle) < mp.mpf(10) ** -90


def test_builtin_lookup():
    assert builtin("exp").name == "exp"
    assert builtin("pow:0.5").name.startswith("pow:")
    with pytest.raises(ValueError):
        builtin("tan")
