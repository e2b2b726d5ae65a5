"""Command-line interface.

Three subcommands: ``analyze`` runs the full pipeline plus family sampling,
``family`` the symmetry-family sampling without matrix payloads, and
``spectrum`` the spectral diagnostics alone. Input is either a matrix file
or a built-in model selected with --model. The JSON report goes to stdout
and, with --out, to a file. Exit status: 0 verdict pass, 1 input or
spectral error, 2 residual failure.

Tolerances resolve in three layers: built-in defaults, then one
environment variable per Tolerances field, QUASIHERM_<FIELD> (e.g.
QUASIHERM_RESIDUAL_TOL), then flags. Any other QUASIHERM_* variable
is refused, so a misspelt one never runs at the default.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import ParseError, QuasiHermError
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .models import MODEL_KINDS, ModelSpec
from .report import DEFAULT_MAX_DIM, run_analyze, run_family, run_spectrum


def _resolve_tolerances(args, environ) -> Tolerances:
    values = dataclasses.asdict(DEFAULT_TOLERANCES)
    names = {f"QUASIHERM_{name.upper()}": name for name in values}
    for var in sorted(v for v in environ if v.startswith("QUASIHERM_")):
        if var not in names:
            raise ParseError(f"{var} names no tolerance; expected one of {', '.join(names)}")
        raw = environ[var]
        try:
            values[names[var]] = float(raw)
        except ValueError as exc:
            raise ParseError(f"{var}={raw!r} is not a number") from exc
    if getattr(args, "tol", None) is not None:
        values["residual_tol"] = args.tol
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _resolve_source(args):
    if args.model is None:
        if args.input is None:
            raise ParseError("provide a matrix file or pick a model with --model")
        return args.input
    if args.input is not None:
        raise ParseError("give either a matrix file or --model, not both")
    kind = "random_diagonalizable" if args.model == "random" else args.model
    # the kind's defaults, then every model flag that was set, so that
    # build_model refuses one the kind does not take
    flags = {**vars(args), "seed": args.model_seed}
    parameters = {
        name: 0 if default is None else default for name, default in MODEL_KINDS[kind].items()
    }
    for table in MODEL_KINDS.values():
        parameters.update((name, flags[name]) for name in table if flags[name] is not None)
    dim = args.dim if args.dim is not None else (2 if kind == "two_level" else 20)
    return ModelSpec(kind, parameters, dim=dim)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", help="matrix file (JSON: dim, entries)")
    parser.add_argument(
        "--model",
        choices=("two_level", "swanson", "random"),
        help="use a built-in model instead of a matrix file",
    )
    # a model flag left unset (None) takes its default from models.MODEL_KINDS
    parser.add_argument("--b", type=complex, help="two_level upper entry")
    parser.add_argument("--c", type=complex, help="two_level lower entry")
    parser.add_argument("--d", type=float, help="two_level diagonal shift")
    parser.add_argument("--dim", type=int, help="model dimension (default 20; two_level: 2)")
    parser.add_argument("--omega", type=float, help="swanson frequency")
    parser.add_argument("--alpha", type=float, help="swanson a^2 coefficient")
    parser.add_argument("--beta", type=float, help="swanson a+^2 coefficient")
    parser.add_argument("--model-seed", type=int, help="random model seed (default 0)")
    parser.add_argument("--cond-bound", type=float, help="random model condition bound")
    parser.add_argument("--tol", type=float, default=None, help="residual tolerance")
    parser.add_argument("--out", default=None, help="also write the report here")
    parser.add_argument(
        "--max-dim", type=int, default=DEFAULT_MAX_DIM, help="largest accepted dimension"
    )


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=5, help="family members to sample")
    parser.add_argument("--seed", type=int, default=0, help="base sampling seed")
    parser.add_argument(
        "--spread", type=float, default=10.0, help="symmetry spectral spread"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiherm",
        description="Metric operators and Hermitian equivalents for "
        "diagonalizable Hamiltonians with real spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline, commutant, metric family")
    _add_common(analyze)
    _add_sampling(analyze)

    family = sub.add_parser("family", help="metric-family sampling only")
    _add_common(family)
    _add_sampling(family)

    spectrum = sub.add_parser("spectrum", help="spectral diagnostics only")
    _add_common(spectrum)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _resolve_tolerances(args, os.environ)
        source = _resolve_source(args)
    except (ParseError, QuasiHermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "analyze":
        report = run_analyze(
            source, tol, args.samples, args.seed, args.spread, args.out, args.max_dim
        )
    elif args.command == "family":
        report = run_family(
            source, tol, args.samples, args.seed, args.spread, args.out, args.max_dim
        )
    else:
        report = run_spectrum(source, tol, args.out, args.max_dim)

    print(report.to_json())
    if report.error is not None:
        print(f"error: {report.error['message']}", file=sys.stderr)
    elif report.failure is not None:
        print(
            "residual failure: {identity} = {value:.3e} > {bound:.3e}".format(
                **report.failure
            ),
            file=sys.stderr,
        )
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
