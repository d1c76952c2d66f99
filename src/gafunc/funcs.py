"""Analytic function specifications for the spectral assembly.

A :class:`FunctionSpec` supplies weighted derivative values

    w(lam, t) = (1/t!) * d^t f / dz^t  at  z = lam

for every derivative order the root multiplicities demand, plus a singularity
predicate.  log, sqrt, and non-integer powers use the principal branch; a
root at zero or on the negative real axis is a hard error for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath as mp


@dataclass
class FunctionSpec:
    name: str
    weighted_derivative: Callable  # (lam: mpc, t: int) -> mpc
    singularity: Callable = lambda lam: None  # reason string or None
    calls: list = field(default_factory=list)  # (lam, t) instrumentation

    def value(self, lam, t: int):
        self.calls.append((lam, t))
        return self.weighted_derivative(lam, t)

    def reset_instrumentation(self):
        self.calls.clear()


def _near_zero(lam) -> bool:
    return abs(lam) < mp.mpf(10) ** (-(mp.mp.dps - 5))


def _on_branch_cut(lam) -> bool:
    return abs(mp.im(lam)) < mp.mpf(10) ** (-(mp.mp.dps - 5)) and mp.re(lam) < 0


def _branch_singularity(lam) -> Optional[str]:
    if _near_zero(lam):
        return "zero argument"
    if _on_branch_cut(lam):
        return "negative real axis (principal branch cut)"
    return None


def exp_spec() -> FunctionSpec:
    return FunctionSpec(
        "exp",
        lambda lam, t: mp.exp(lam) / mp.factorial(t),
    )


def log_spec() -> FunctionSpec:
    def w(lam, t):
        if t == 0:
            return mp.log(lam)
        # (1/t!) d^t log = (-1)^(t-1) / (t lam^t)
        return (-1) ** (t - 1) / (t * lam**t)

    return FunctionSpec("log", w, _branch_singularity)


def sin_spec() -> FunctionSpec:
    cycle = (mp.sin, mp.cos, lambda z: -mp.sin(z), lambda z: -mp.cos(z))
    return FunctionSpec(
        "sin", lambda lam, t: cycle[t % 4](lam) / mp.factorial(t)
    )


def cos_spec() -> FunctionSpec:
    cycle = (mp.cos, lambda z: -mp.sin(z), lambda z: -mp.cos(z), mp.sin)
    return FunctionSpec(
        "cos", lambda lam, t: cycle[t % 4](lam) / mp.factorial(t)
    )


def pow_spec(alpha) -> FunctionSpec:
    alpha = mp.mpf(alpha) if not isinstance(alpha, mp.mpf) else alpha
    integral = alpha == mp.floor(alpha) and alpha >= 0

    def w(lam, t):
        # (1/t!) d^t z^alpha = binom(alpha, t) z^(alpha - t)
        coeff = mp.binomial(alpha, t)
        if coeff == 0:
            return mp.mpc(0)
        return coeff * mp.power(lam, alpha - t)

    def singular(lam):
        if integral:
            return None
        return _branch_singularity(lam)

    return FunctionSpec(f"pow:{alpha}", w, singular)


def sqrt_spec() -> FunctionSpec:
    spec = pow_spec(mp.mpf(1) / 2)
    spec.name = "sqrt"
    return spec


def inverse_spec() -> FunctionSpec:
    def w(lam, t):
        # (1/t!) d^t (1/z) = (-1)^t / z^(t+1)
        return (-1) ** t / lam ** (t + 1)

    return FunctionSpec(
        "inv", w, lambda lam: "zero argument" if _near_zero(lam) else None
    )


def exp_times_arg_spec() -> FunctionSpec:
    """g(z) = z e^z, the t-derivative tower of the exponential defining
    property d/dt exp(t z) at t = 1."""
    return FunctionSpec(
        "z*exp(z)",
        lambda lam, t: mp.exp(lam) * (lam + t) / mp.factorial(t),
    )


_BUILTINS = {
    "exp": exp_spec,
    "log": log_spec,
    "sin": sin_spec,
    "cos": cos_spec,
    "sqrt": sqrt_spec,
    "inv": inverse_spec,
}


def builtin(name: str) -> FunctionSpec:
    """Look up a builtin by name; ``pow:ALPHA`` carries its exponent."""
    if name.startswith("pow:"):
        return pow_spec(mp.mpf(name.split(":", 1)[1]))
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown function {name!r}") from None

