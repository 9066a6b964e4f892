"""Command-line front end.

    wwl verify-conjecture --type A --rank 3
    wwl stats --type A --rank 4 --format csv
    wwl coeff --type A --rank 3 --w 1,2,1,3,2,1 --x 2,3
    wwl mtx --type A --rank 2 --points 20 --seed 7
    wwl cs-check --type A --rank 2 --lambda 1,1
    wwl good-words --type B --rank 2

Exit codes: 0 ok, 2 mathematical violation, 3 size budget exceeded,
4 bad input, 5 unlucky-point exhaustion.  All JSON output has sorted keys;
identical configurations produce byte-identical output.  WWL_THREADS
overrides --threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (BudgetError, ConfigurationError, DomainError,
                     InvariantError, UnluckyPointError)
from .workbench import (SweepConfig, build_group, coeff_report, cs_report,
                        good_words_report, mtx_report, parse_int_seq,
                        stats_sweep, stats_to_csv, verify_conjecture)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4
EXIT_UNLUCKY = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def _add_common(sub):
    sub.add_argument("--type", dest="type_letter", default="A",
                     choices=list("ABCDEFG"))
    sub.add_argument("--rank", type=int, default=2)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=None,
                     help="worker processes; defaults to the available "
                          "parallelism and never changes the output")
    sub.add_argument("--format", dest="fmt", default="json",
                     choices=["json", "csv"])
    sub.add_argument("--cache", dest="cache_dir", default=None)
    sub.add_argument("--large", action="store_true")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wwl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p = subs.add_parser("verify-conjecture",
                        help="test the three per-word flags for equivalence "
                             "over all (w, word, x) triples")
    _add_common(p)
    p.add_argument("--budget", type=int, default=None,
                   help="maximum number of triples to sweep")

    p = subs.add_parser("stats",
                        help="per-element condition percentages and histogram")
    _add_common(p)
    p.add_argument("--mode", choices=["fast", "independent"], default="fast")

    p = subs.add_parser("coeff", help="dump transition coefficients for one w")
    _add_common(p)
    p.add_argument("--w", required=True, help="comma-separated reduced word")
    p.add_argument("--x", default=None, help="comma-separated word, or omit for all")
    p.add_argument("--char", action="store_true",
                   help="include coefficients on Demazure characters")

    p = subs.add_parser("mtx", help="Casselman transition matrix at seeded points")
    _add_common(p)
    p.add_argument("--points", type=int, default=20)

    p = subs.add_parser("cs-check",
                        help="compare the summed Whittaker function with the "
                             "product formula")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated dominant weight")

    p = subs.add_parser("good-words",
                        help="census of clean deletion words over qualifying pairs")
    _add_common(p)
    return parser


def _config_from(args) -> SweepConfig:
    default_threads = args.threads if args.threads is not None else \
        (os.cpu_count() or 1)
    threads = int(os.environ.get("WWL_THREADS", default_threads))
    config = SweepConfig(type_letter=args.type_letter, rank=args.rank,
                         seed=args.seed, threads=threads, fmt=args.fmt,
                         cache_dir=args.cache_dir, large=args.large)
    if getattr(args, "points", None) is not None:
        config.points = args.points
    if getattr(args, "budget", None) is not None:
        config.budget = args.budget
    if getattr(args, "mode", None) is not None:
        config.mode = args.mode
    return config


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from(args)
        group = build_group(config)

        if args.command == "verify-conjecture":
            report = verify_conjecture(group, config)
            _emit(report)
            if report["violations"] or report["deodhar_failures"]:
                return EXIT_VIOLATION
            if report["partial"]:
                return EXIT_BUDGET
            return EXIT_OK

        if args.command == "stats":
            report = stats_sweep(group, config)
            if config.fmt == "csv":
                sys.stdout.write(stats_to_csv(report))
            else:
                _emit(report)
            return EXIT_OK

        if args.command == "coeff":
            x_word = None if args.x is None else parse_int_seq(args.x)
            report = coeff_report(group, parse_int_seq(args.w), x_word,
                                  include_char=args.char)
            _emit(report)
            return EXIT_OK

        if args.command == "mtx":
            report = mtx_report(group, config)
            _emit(report)
            return EXIT_OK if report["ok"] else EXIT_VIOLATION

        if args.command == "cs-check":
            report = cs_report(group, parse_int_seq(args.lam))
            _emit(report)
            return EXIT_OK if report["equal"] else EXIT_VIOLATION

        if args.command == "good-words":
            report = good_words_report(group)
            _emit(report)
            return EXIT_OK

        raise DomainError(f"unknown command {args.command!r}")
    except BudgetError as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return EXIT_BUDGET
    except InvariantError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return EXIT_VIOLATION
    except (ConfigurationError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except UnluckyPointError as exc:
        sys.stderr.write(f"unlucky point: {exc}\n")
        return EXIT_UNLUCKY


if __name__ == "__main__":
    sys.exit(main())
