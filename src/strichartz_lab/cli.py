"""Command-line entry point.

Subcommands mirror the experiment kinds plus ``validate-config``::

    strichartz-lab kernel-sweep --config cfg.json --out results/
    strichartz-lab validate-config --config cfg.json [--print-schema]

Common flags: ``--config PATH``, ``--out DIR``, ``--seed U64`` (overrides
the config), ``--threads N`` (falls back to STRICHARTZ_LAB_THREADS, then
serial), ``--strict`` (warnings fatal).  Exit codes: 0 all cells passed,
1 any failed cell or numeric failure, 2 malformed config.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import EXPERIMENT_KINDS, load_config, schema_document
from .errors import ConfigError
from .harness import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strichartz-lab",
        description="Dispersive-estimate experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_out=True):
        sp.add_argument("--config", required=True, help="JSON config path")
        if needs_out:
            sp.add_argument("--out", default="results",
                            help="output directory (default: results)")
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
            sp.add_argument("--threads", type=int, default=None,
                            help="worker threads, shared by the cells and "
                                 "the block items of running cells' flow "
                                 "streams, at most the CPUs the process "
                                 "may use; results do not depend on it "
                                 "(default: STRICHARTZ_LAB_THREADS or 1)")
            sp.add_argument("--strict", action="store_true",
                            help="escalate warnings to cell failures")

    for kind in EXPERIMENT_KINDS:
        add_common(sub.add_parser(kind, help=f"run a {kind} experiment"))
    vc = sub.add_parser("validate-config",
                        help="validate a config file and echo it")
    vc.add_argument("--config", required=True)
    vc.add_argument("--print-schema", action="store_true",
                    help="print the experiment schema document instead")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate-config":
        if args.print_schema:
            json.dump(schema_document(), sys.stdout, indent=2)
            sys.stdout.write("\n")
            return 0
        try:
            echo = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        json.dump(echo, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    try:
        echo = load_config(args.config)
        if echo["experiment"] != args.command:
            print(f"config error: config is for {echo['experiment']!r}, "
                  f"invoked as {args.command!r}", file=sys.stderr)
            return 2
        result = run(echo, args.out, seed=args.seed, threads=args.threads,
                     strict=args.strict)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    passed = result.summary["cells_passed"]
    total = result.summary["cells_total"]
    print(f"{args.command}: {passed}/{total} cells passed "
          f"({result.summary['duration_ms']:.0f} ms) -> {args.out}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
