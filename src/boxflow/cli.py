"""Command-line entry point: ``boxflow <study> --config cfg.json --out dir``.

Each subcommand runs the study kind of that name in
``experiments.STUDY_KINDS``, writes CSV tables, ``checks.csv``, and
``metadata.json`` into the output directory and prints one PASS/FAIL line
per assertion.

Exit codes: 0 = all assertions passed, 1 = assertion failure (a blow-up or
CFL violation on a box is a failed assertion with a written report; other
runtime errors write none), 2 = configuration error or a report that
cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .errors import BoxflowError, ConfigurationError
from .spectral_core import set_default_workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxflow",
        description=(
            "Convergence, tail, and transfer studies for incompressible "
            "Navier-Stokes on expanding periodic boxes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in experiments.STUDY_KINDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument(
            "--config", required=True, metavar="<file>", help="JSON study config"
        )
        cmd.add_argument(
            "--out",
            metavar="<dir>",
            default=None,
            help="output directory (overrides the config's out_dir)",
        )
        cmd.add_argument(
            "--threads",
            type=int,
            default=1,
            metavar="<n>",
            help="threads for the solver stage's slabs and every FFT pass "
            "(default 1, the reference path)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = experiments.load_config(args.config)
        if cfg.kind != args.command:
            raise ConfigurationError(
                f"config declares kind={cfg.kind!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        out_dir = args.out if args.out is not None else cfg.out_dir
        if out_dir is None:
            raise ConfigurationError(
                "no output directory: pass --out or set out_dir in the config"
            )
        set_default_workers(args.threads)
        result = experiments.run_study(cfg)
        paths = experiments.emit_report(result, out_dir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    except BoxflowError as exc:
        print(f"study failed: {exc}", file=sys.stderr)
        return 1

    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        note = f"  ({check.note})" if check.note else ""
        print(
            f"{status} {check.name}: measured={check.measured:.6g} "
            f"threshold={check.threshold:.6g}{note}"
        )
    print(f"report: {', '.join(str(p) for p in paths)}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
