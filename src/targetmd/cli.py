"""Command-line interface: solve, compare, check, ensemble, list."""

from __future__ import annotations

import argparse
import sys

from .dynamics import DIVERGED
from .errors import TargetMDError
from .harness import COMMANDS, catalog, run_command


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetmd",
        description="Monotone variational inequality solvers built on "
                    "target-corrected dual updates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub.add_parser(name, help=command.help).add_argument("config")
    sub.add_parser("list", help="enumerate problems, geometries, and presets")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for section, entries in catalog().items():
            print(f"{section}:")
            for name, blurb in entries.items():
                print(f"  {name:22s} {blurb}")
        return 0
    try:
        exit_code, report, out = run_command(args.command, args.config)
    except (TargetMDError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.get("termination") == DIVERGED:
        print(f"error: the dual point turned non-finite at step "
              f"{report['final_step'] + 1}; the run diverges", file=sys.stderr)
    else:
        print(f"{COMMANDS[args.command].line(report)}  -> {out}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
