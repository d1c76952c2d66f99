"""Command-line front end.

Subcommands: charpoly, minpoly, roots, basis, func, matfunc, verify, rank.
Input is a multivector (or matrix, for matfunc) read from --input PATH or
standard input.  Exit codes: 0 success, 2 parse error, 3 singular function,
4 root non-convergence, 5 realness failure; errors also print one
machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath as mp

from . import io as gio
from .charpoly import char_poly
from .classical import classical_basis, classical_function
from .errors import (
    NonConvergenceError,
    ParseError,
    RealnessError,
    SingularFunctionError,
)
from .funcs import builtin
from .ga import Signature
from .matfunc import ExactMatrix, matrix_function, matrix_minimal_poly
from .minpoly import minimal_poly
from .mvfunc import get_pipeline, mv_function, real_reduction, verify_exponential
from .poly import format_poly
from .roots import extract_roots
from .scalars import DEFAULT_DPS, MIN_DPS, working

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_NONCONVERGENCE = 4
EXIT_REALNESS = 5


def _error(kind: str, detail: str, code: int) -> int:
    sys.stderr.write(json.dumps({"detail": detail, "error": kind}, sort_keys=True) + "\n")
    return code


def _read_input(args) -> str:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


def _parse_signature(text: str) -> Signature:
    try:
        p, q = (int(t) for t in text.split(","))
        return Signature(p, q)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad signature {text!r}: {exc}") from None


def _function_spec(name: str):
    try:
        return builtin(name)
    except ValueError as exc:
        raise ParseError(f"bad function {name!r}: {exc}") from None


def _emit(args, payload_text: str, payload_record: dict):
    if args.output == "structured":
        sys.stdout.write(gio.canonical_json(payload_record))
    else:
        sys.stdout.write(payload_text + "\n")


def _add_common(sub, needs_function=False):
    sub.add_argument("--signature", required=True, help="p,q of Cl(p,q)")
    sub.add_argument("--precision", type=int, default=DEFAULT_DPS)
    sub.add_argument("--input", default="-", help="input file path, or - for stdin")
    sub.add_argument("--output", choices=("text", "structured"), default="text")
    if needs_function:
        sub.add_argument(
            "--function",
            required=True,
            help="exp|log|sqrt|sin|cos|pow:ALPHA|inv",
        )
        sub.add_argument(
            "--method",
            choices=("recursive", "classical", "charpoly-substitution"),
            default="recursive",
        )
        sub.add_argument(
            "--use-charpoly",
            action="store_true",
            help="substitute the characteristic polynomial for the minimal one",
        )
        sub.add_argument(
            "--complex-form",
            action="store_true",
            help="emit the pre-reduction complex form",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafunc",
        description="Functions of multivectors and matrices via exact minimal "
        "polynomials and a recursive generalized spectral basis.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("charpoly", "minpoly", "roots", "basis", "rank", "verify"):
        _add_common(subs.add_parser(name))
    _add_common(subs.add_parser("func"), needs_function=True)
    mat = subs.add_parser("matfunc")
    mat.add_argument("--function", required=True)
    mat.add_argument("--precision", type=int, default=DEFAULT_DPS)
    mat.add_argument("--input", default="-")
    mat.add_argument("--output", choices=("text", "structured"), default="text")
    return parser


def _run(args) -> int:
    if args.precision < MIN_DPS:
        return _error("parse", f"precision must be >= {MIN_DPS}", EXIT_PARSE)
    text = _read_input(args)

    if args.command == "matfunc":
        rows = gio.parse_matrix(text)
        m = ExactMatrix.from_rows(rows)
        spec = _function_spec(args.function)
        res = matrix_function(m, spec, args.precision)
        shown = res.real_form if res.real_form is not None else res.value
        with working(args.precision):
            lines = [
                " ".join(gio._coeff_text(x, args.precision) for x in row)
                for row in shown
            ]
        record = {
            "kind": "matrix",
            "precision": args.precision,
            "entries": [
                [gio._coeff_text(x, args.precision) for x in row] for row in shown
            ],
        }
        _emit(args, "\n".join(lines), record)
        return EXIT_OK

    sig = _parse_signature(args.signature)
    a = gio.parse_mv(text, sig)

    if args.command == "charpoly":
        res = char_poly(a)
        coeffs = [str(c) for c in res.coefficients]
        _emit(
            args,
            "C = [" + ", ".join(coeffs) + "]",
            {"kind": "charpoly", "coefficients": coeffs},
        )
        return EXIT_OK

    if args.command == "minpoly":
        mu = minimal_poly(a).mu
        _emit(args, format_poly(mu), gio.poly_record(mu))
        return EXIT_OK

    if args.command == "rank":
        d = minimal_poly(a).degree
        _emit(args, str(d), {"kind": "rank", "value": d})
        return EXIT_OK

    if args.command == "roots":
        mu = minimal_poly(a).mu
        rs = extract_roots(mu, args.precision)
        with working(args.precision):
            lines = [
                f"{gio._coeff_text(e.value, args.precision)}  multiplicity {e.multiplicity}"
                for e in rs
            ]
            record = {
                "kind": "roots",
                "precision": args.precision,
                "entries": [
                    {
                        "value": gio._coeff_text(e.value, args.precision),
                        "multiplicity": e.multiplicity,
                    }
                    for e in rs
                ],
            }
        _emit(args, "\n".join(lines), record)
        return EXIT_OK

    if args.command == "basis":
        pipe = get_pipeline(a, args.precision)
        with working(args.precision):
            lines = []
            entries = []
            for i, qs in enumerate(pipe.basis.per_root):
                for k, q in enumerate(qs):
                    lines.append(f"Q_{i + 1}^{k} = {format_poly(q)}")
                    entries.append(
                        {"root_index": i, "order": k, "text": format_poly(q)}
                    )
        _emit(args, "\n".join(lines), {"kind": "basis", "entries": entries})
        return EXIT_OK

    if args.command == "verify":
        from .funcs import exp_spec

        res = mv_function(a, exp_spec(), args.precision)
        residual = verify_exponential(a, res, args.precision)
        with working(args.precision):
            txt = mp.nstr(residual, 5)
        _emit(
            args,
            f"defining-property residual: {txt}",
            {"kind": "verify", "residual": txt},
        )
        return EXIT_OK

    if args.command == "func":
        spec = _function_spec(args.function)
        poly_source = (
            "charpoly"
            if (args.use_charpoly or args.method == "charpoly-substitution")
            else "minimal"
        )
        if args.method == "classical":
            pipe = get_pipeline(a, args.precision, poly_source)
            cb = classical_basis(pipe.mu, pipe.roots, args.precision)
            value = classical_function(a, cb, spec, args.precision)
            from .mvfunc import FunctionResult, _imag_residual

            res = FunctionResult(value, None, _imag_residual(value), {})
            with working(args.precision):
                tol = mp.mpf(10) ** (-mp.mpf(args.precision) / 2)
                try:
                    res.real_form = real_reduction(value, tol)
                except RealnessError:
                    res.real_form = None
        else:
            res = mv_function(a, spec, args.precision, poly_source)
        shown = (
            res.value
            if (args.complex_form or res.real_form is None)
            else res.real_form
        )
        with working(args.precision):
            _emit(
                args,
                gio.format_mv(shown, args.precision),
                gio.mv_record(shown, args.precision),
            )
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        return _error("parse", str(exc), EXIT_PARSE)
    except SingularFunctionError as exc:
        return _error("singular-function", str(exc), EXIT_SINGULAR)
    except NonConvergenceError as exc:
        return _error("non-convergence", str(exc), EXIT_NONCONVERGENCE)
    except RealnessError as exc:
        return _error("realness", str(exc), EXIT_REALNESS)


if __name__ == "__main__":
    sys.exit(main())
