"""Square-matrix backend: the identical pipeline with the matrix product.

A rational matrix M is written once as M = N/delta with N an integer matrix,
and the powers N^0, N^1, ... form the same exact tower the multivector
route uses (:mod:`gafunc.tower`): flattened row-major, they feed the same
fraction-free eliminator for mu, and the spectral assembly substitutes them
for the dummy indeterminate.  Entries are exact rationals on the structural
path; exact complex rationals are supported (with delta = 1) so the 2x2
spinor representation's complex minimal polynomial stays exact.

Also hosts the fixed 8x8 real representation of Cl(4,2): six generator
matrices satisfying the anticommutation relations with signature (4,2), and
the linear extension mapping any Cl(4,2) multivector to its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import SignatureMismatchError
from .funcs import FunctionSpec
from .ga import Multivector, Signature, blade_order, _mask_indices
from .minpoly import MinPolyResult, tower_minimal_poly
from .mvfunc import _Pipeline, _assemble, _realness_tolerance
from .roots import extract_roots
from .scalars import DEFAULT_DPS, working
from .spectral import build_spectral_basis
from .tower import PowerTower, clear_denominators


@dataclass(frozen=True)
class ExactMatrix:
    entries: tuple  # tuple of row tuples, square

    def __post_init__(self):
        m = len(self.entries)
        if m < 1 or any(len(row) != m for row in self.entries):
            raise ValueError("matrix must be square with dimension >= 1")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @staticmethod
    def identity(m: int) -> "ExactMatrix":
        return ExactMatrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(m))
                for i in range(m)
            )
        )

    @staticmethod
    def zero(m: int) -> "ExactMatrix":
        return ExactMatrix(tuple((Fraction(0),) * m for _ in range(m)))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(c * a for a in row) for row in self.entries))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        m = self.dim
        cols = list(zip(*other.entries))
        return ExactMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def coefficient_list(self) -> list:
        """Row-major flattening, the vector the null-space search sees."""
        return [x for row in self.entries for x in row]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def matrix_tower(m: ExactMatrix) -> PowerTower:
    """The power tower of a matrix, denominators cleared."""
    dim = m.dim
    delta, ints = clear_denominators(m.coefficient_list())
    n = ExactMatrix(tuple(tuple(ints[i * dim : (i + 1) * dim]) for i in range(dim)))
    one = ExactMatrix(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))
    return PowerTower(n, one, delta, ExactMatrix.coefficient_list)


def matrix_minimal_poly(m: ExactMatrix, tower: PowerTower | None = None) -> MinPolyResult:
    """mu of a matrix; ``tower`` is its power tower, if built."""
    if tower is None:
        tower = matrix_tower(m)
    return tower_minimal_poly(tower, m.dim)


@dataclass
class MatrixFunctionResult:
    value: list  # list of rows of mpc
    real_form: list | None
    max_imag_residual: object
    diagnostics: dict = field(default_factory=dict)


def matrix_function(
    m: ExactMatrix, f: FunctionSpec, precision: int = DEFAULT_DPS
) -> MatrixFunctionResult:
    """f(M) by minimal polynomial, roots, spectral basis, and matrix powers."""
    with working(precision):
        tower = matrix_tower(m)
        mu = matrix_minimal_poly(m, tower).mu
        roots = extract_roots(mu, precision)
        basis = build_spectral_basis(mu, roots, precision)
        pipe = _Pipeline(mu, roots, basis, tower)
        f.reset_instrumentation()
        total = _assemble(pipe, f, precision)
        flat = tower.evaluate(total)
        dim = m.dim
        value = [flat[i * dim : (i + 1) * dim] for i in range(dim)]
        residual = max(abs(mp.im(x)) for x in flat)
        magnitude = max(abs(mp.re(x)) for x in flat)
        real_form = None
        if residual < _realness_tolerance(precision) * (1 + magnitude):
            real_form = [[mp.re(x) for x in row] for row in value]
        return MatrixFunctionResult(
            value=value,
            real_form=real_form,
            max_imag_residual=residual,
            diagnostics={
                "function": f.name,
                "precision": precision,
                "minimal_degree": mu.degree,
                "derivative_orders": sorted({t for _, t in f.calls}),
            },
        )


# -- the fixed Cl(4,2) 8x8 real representation -----------------------------

_CL42_GENERATOR_ROWS = (
    (
        (0, 1, 0, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, -1, 0, 0, 0, 0),
        (0, 0, -1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, -1),
        (0, 0, 0, 0, 0, 0, -1, 0),
    ),
    (
        (0, 0, 0, 0, 0, 0, 0, -1),
        (0, 0, 0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, -1, 0, 0, 0),
        (0, 0, 0, -1, 0, 0, 0, 0),
        (0, 0, -1, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, 0, 0, 0, 0),
        (-1, 0, 0, 0, 0, 0, 0, 0),
    ),
    (
        (0, 0, 0, -1, 0, 0, 0, 0),
        (0, 0, -1, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, 0, 0, 0, 0),
        (-1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
    ),
    (
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, -1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, -1),
    ),
    (
        (0, 0, 0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, 0, 0, 0, 0),
        (-1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, -1, 0, 0, 0),
    ),
    (
        (0, 1, 0, 0, 0, 0, 0, 0),
        (-1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0, 0),
        (0, 0, -1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 0, -1, 0),
    ),
)

CL42 = Signature(4, 2)


@lru_cache(maxsize=1)
def cl42_generators() -> tuple[ExactMatrix, ...]:
    """The six 8x8 real generator matrices of Cl(4,2)."""
    return tuple(ExactMatrix.from_rows(rows) for rows in _CL42_GENERATOR_ROWS)


@lru_cache(maxsize=1)
def _cl42_blade_reps() -> tuple[ExactMatrix, ...]:
    gens = cl42_generators()
    reps = []
    for mask in blade_order(CL42):
        acc = ExactMatrix.identity(8)
        for idx in _mask_indices(mask):
            acc = acc * gens[idx - 1]
        reps.append(acc)
    return tuple(reps)


@lru_cache(maxsize=1)
def _cl42_blade_perms() -> tuple[tuple[tuple[int, bool], ...], ...]:
    """Each blade matrix as a signed permutation: per row, the column of its
    one nonzero entry and whether that entry is -1."""
    perms = []
    for rep in _cl42_blade_reps():
        perm = []
        for row in rep.entries:
            nonzero = [(j, x) for j, x in enumerate(row) if x != 0]
            if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
                raise ValueError("Cl(4,2) blade matrix is not a signed permutation")
            perm.append((nonzero[0][0], nonzero[0][1] < 0))
        perms.append(tuple(perm))
    return tuple(perms)


def rep_of(a: Multivector) -> ExactMatrix:
    """8x8 real matrix of a Cl(4,2) multivector (linear extension over the
    blade representations, each a signed permutation)."""
    if a.sig != CL42:
        raise SignatureMismatchError("rep_of requires signature (4,2)")
    acc = [[Fraction(0)] * 8 for _ in range(8)]
    for coeff, perm in zip(a.coeffs, _cl42_blade_perms()):
        if coeff == 0:
            continue
        for row, (j, negative) in zip(acc, perm):
            row[j] = row[j] - coeff if negative else row[j] + coeff
    return ExactMatrix(tuple(tuple(row) for row in acc))
