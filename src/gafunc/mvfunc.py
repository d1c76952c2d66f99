"""Assembly of f(A) from the generalized spectral basis.

The pipeline is: one exact integer power tower of A = B/delta
(:mod:`gafunc.tower`), the minimal polynomial read off it, exact
multiplicities and refined roots, the spectral basis in the dummy
indeterminate, then one polynomial

    P(x) = sum_i sum_t w_f(lam_i, t) Q_i^t(x, lam_i)

with w_f the weighted derivative (1/t!) f^(t), substituted x -> A from the
same tower: the coefficients of A^k = B^k / delta^k are rounded to working
precision once per element and precision, then each call sums
sum_k c_k A^k.  The weighted-derivative/Q^t pairing is the
one the degree-8 worked example (multiplicity four) pins down; for
multiplicity two it coincides with the other reading.

A small least-recently-used cache keyed by the exact coefficients holds the
tower, mu, roots and basis, so repeated evaluations on one element reuse
them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import mpmath as mp

from .charpoly import char_poly
from .errors import RealnessError, SingularFunctionError
from .funcs import FunctionSpec, exp_times_arg_spec
from .ga import Multivector, lift_complex, max_abs_coeff
from .minpoly import minimal_poly
from .poly import Poly
from .roots import RootSet, extract_roots
from .spectral import SpectralBasis, build_spectral_basis
from .scalars import DEFAULT_DPS, working
from .tower import PowerTower, multivector_tower


@dataclass
class FunctionResult:
    value: Multivector  # complex coefficients
    real_form: Multivector | None
    max_imag_residual: object  # mpf
    diagnostics: dict = field(default_factory=dict)


@dataclass
class _Pipeline:
    mu: Poly
    roots: RootSet
    basis: SpectralBasis
    tower: PowerTower  # exact integer powers of B = delta A


# analysed elements kept, most recently used last
_CACHE_SIZE = 8
_cache: OrderedDict = OrderedDict()


def clear_cache():
    _cache.clear()


def get_pipeline(
    a: Multivector, precision: int = DEFAULT_DPS, poly_source: str = "minimal"
) -> _Pipeline:
    key = (a.sig, a.coeffs, precision, poly_source)
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit
    tower = multivector_tower(a)
    if poly_source == "minimal":
        mu = minimal_poly(a, tower).mu
    elif poly_source == "charpoly":
        mu = char_poly(a, tower).monic
    else:
        raise ValueError(f"unknown polynomial source {poly_source!r}")
    roots = extract_roots(mu, precision)
    basis = build_spectral_basis(mu, roots, precision)
    pipe = _Pipeline(mu, roots, basis, tower)
    _cache[key] = pipe
    if len(_cache) > _CACHE_SIZE:
        _cache.popitem(last=False)
    return pipe


def _assemble(pipe: _Pipeline, f: FunctionSpec, precision: int) -> Poly:
    total = Poly.zero()
    for entry, qs in zip(pipe.roots, pipe.basis.per_root):
        reason = f.singularity(entry.value)
        if reason is not None:
            raise SingularFunctionError(f.name, entry.value, reason)
        for t in range(entry.multiplicity):
            w = f.value(entry.value, t)
            if w != 0:
                total = total + qs[t].scale(w)
    return total


def substitute_powers(p: Poly, tower: PowerTower) -> Multivector:
    """x -> A through the element's integer power tower."""
    return Multivector(tower.base.sig, tuple(tower.evaluate(p)))


def mv_function(
    a: Multivector,
    f: FunctionSpec,
    precision: int = DEFAULT_DPS,
    poly_source: str = "minimal",
) -> FunctionResult:
    """f(A) via the recursive spectral method.

    Returns the complex-form value plus, when the imaginary residual passes
    the realness tolerance, the reduced real form.
    """
    with working(precision):
        pipe = get_pipeline(a, precision, poly_source)
        f.reset_instrumentation()
        total = _assemble(pipe, f, precision)
        value = substitute_powers(total, pipe.tower)
        tol = _realness_tolerance(precision)
        real_form = None
        residual = _imag_residual(value)
        if residual < tol * (1 + _real_magnitude(value)):
            real_form = Multivector(
                a.sig, tuple(mp.re(c) for c in value.coeffs)
            )
        return FunctionResult(
            value=value,
            real_form=real_form,
            max_imag_residual=residual,
            diagnostics={
                "function": f.name,
                "precision": precision,
                "poly_source": poly_source,
                "minimal_degree": pipe.mu.degree,
                "roots": [(e.value, e.multiplicity) for e in pipe.roots],
                "derivative_orders": sorted({t for _, t in f.calls}),
            },
        )


def _realness_tolerance(precision: int):
    return mp.mpf(10) ** (-mp.mpf(precision) / 2)


def _imag_residual(value: Multivector):
    return max(abs(mp.im(mp.mpc(c))) for c in value.coeffs)


def _real_magnitude(value: Multivector):
    return max(abs(mp.re(mp.mpc(c))) for c in value.coeffs)


def real_reduction(value: Multivector, tolerance) -> Multivector:
    """Drop imaginary parts when they are below tolerance; raise otherwise."""
    residual = _imag_residual(value)
    if residual >= tolerance * (1 + _real_magnitude(value)):
        raise RealnessError(residual, tolerance)
    return Multivector(value.sig, tuple(mp.re(mp.mpc(c)) for c in value.coeffs))


def verify_exponential(
    a: Multivector, result: FunctionResult, precision: int = DEFAULT_DPS
):
    """Residual of the exponential defining property
    A exp(A) = d/dt exp(t A) at t = 1, the right side evaluated through the
    spectral coefficients of g(z) = z e^z."""
    with working(precision):
        lhs = lift_complex(a) * result.value
        rhs = mv_function(a, exp_times_arg_spec(), precision).value
        return max_abs_coeff(lhs - rhs)
