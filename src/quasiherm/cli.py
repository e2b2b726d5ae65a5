"""Command-line interface.

Three subcommands: ``analyze`` runs the full pipeline plus family sampling,
``family`` the symmetry-family sampling without matrix payloads, and
``spectrum`` the spectral diagnostics alone. Input is either a matrix file
or a built-in model selected with --model; a model flag given with a file
is refused. A flag left out takes its runner's default. The JSON report
goes to stdout and, with --out, to a file. Exit status: 0 verdict pass,
1 input or spectral error (a malformed or unknown flag, value or command
too), 2 residual failure.

Tolerances resolve in three layers: built-in defaults, then one
environment variable per Tolerances field, QUASIHERM_<FIELD> (e.g.
QUASIHERM_RESIDUAL_TOL), then flags. Any other QUASIHERM_* variable
is refused, so a misspelt one never runs at the default.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

from .errors import ParseError, QuasiHermError
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .models import MODEL_KINDS, ModelSpec
from .report import run_analyze, run_family, run_spectrum


def _resolve_tolerances(tol, environ) -> Tolerances:
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
    if tol is not None:
        values["residual_tol"] = tol
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# Each model flag's dest: its kind, ModelSpec parameter and default (0 for a required one).
_MODEL_FLAGS = {
    "model_seed" if name == "seed" else name: (kind, name, 0 if default is None else default)
    for kind, parameters in MODEL_KINDS.items() for name, default in parameters.items()
}


def _resolve_source(args: dict):
    """The matrix file or ModelSpec named by ``args``, whose source flags it pops."""
    path, model = args.pop("input", None), args.pop("model", None)
    given = {flag: args.pop(flag) for flag in (*_MODEL_FLAGS, "dim") if flag in args}
    if model is None:
        if path is None:
            raise ParseError("provide a matrix file or pick a model with --model")
        if given:
            flags = ", ".join("--" + flag.replace("_", "-") for flag in given)
            raise ParseError(f"a matrix file takes no model flag; got {flags}")
        return path
    if path is not None:
        raise ParseError("give either a matrix file or --model, not both")
    kind = "random_diagonalizable" if model == "random" else model
    dim = given.pop("dim", 2 if kind == "two_level" else 20)
    # the kind's defaults, then every model flag that was set, so that
    # build_model refuses one the kind does not take
    parameters = {name: default for k, name, default in _MODEL_FLAGS.values() if k == kind}
    parameters.update((_MODEL_FLAGS[flag][1], value) for flag, value in given.items())
    return ModelSpec(kind, parameters, dim=dim)


# Each subcommand's runner and help.
COMMANDS = {
    "analyze": (run_analyze, "full pipeline, commutant, metric family"),
    "family": (run_family, "metric-family sampling only"),
    "spectrum": (run_spectrum, "spectral diagnostics only"),
}


class _Parser(argparse.ArgumentParser):
    """Its refusal is a ParseError, exit 1: argparse's own exit 2 means a residual failure."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quasiherm",
        description="Metric operators and Hermitian equivalents for "
        "diagonalizable Hamiltonians with real spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (runner, help_text) in COMMANDS.items():
        # a flag left out is absent: its MODEL_KINDS or run_* default holds
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("input", nargs="?", help="matrix file (JSON: dim, entries)")
        p.add_argument(
            "--model",
            choices=("two_level", "swanson", "random"),
            help="use a built-in model instead of a matrix file",
        )
        for flag, (kind, name, default) in _MODEL_FLAGS.items():
            number = int if name == "seed" else complex  # build_model checks the number
            help_text = f"{kind} parameter {name} (default {default})"
            p.add_argument("--" + flag.replace("_", "-"), type=number, help=help_text)
        p.add_argument("--dim", type=int, help="model dimension (default 20; two_level: 2)")
        p.add_argument("--tol", type=float, help="residual tolerance")
        p.add_argument("--out", help="also write the report here")
        p.add_argument("--max-dim", type=int, help="largest accepted dimension")
        if "samples" in inspect.signature(runner).parameters:
            p.add_argument("--samples", type=int, help="family members to sample")
            p.add_argument("--seed", type=int, help="base sampling seed")
            p.add_argument("--spread", type=float, help="symmetry spectral spread")
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        runner, _ = COMMANDS[args.pop("command")]
        tol = _resolve_tolerances(args.pop("tol", None), os.environ)
        source = _resolve_source(args)
    except (ParseError, QuasiHermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # the flags left are the run_* keywords that were set
    report = runner(source, tol, **args)
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
