"""Command-line front end.

    wwl verify-conjecture --type A --rank 3
    wwl stats --type A --rank 4 --format csv
    wwl coeff --type A --rank 3 --w 1,2,1,3,2,1 --x 2,3
    wwl mtx --type A --rank 2 --points 20 --seed 7
    wwl cs-check --type A --rank 2 --lambda 1,1
    wwl good-words --type B --rank 2

Exit codes: 0 ok, 2 mathematical violation, 3 size budget exceeded,
4 bad input, 5 unlucky-point exhaustion.  All JSON output has sorted keys;
identical configurations produce byte-identical output.  --threads
must be at least 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from .errors import (BudgetError, ConfigurationError, DomainError,
                     InvariantError, UnluckyPointError)
from .groupalg import GAElement, _grouped, _weight_of
from .workbench import (SweepConfig, build_group, check_request,
                        coeff_report, cs_report, good_words_report,
                        mtx_report, parse_int_seq, stats_sweep, stats_to_csv,
                        verify_conjecture)

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
    p.add_argument("--format", dest="fmt", default="json",
                   choices=["json", "csv"])

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
    threads = args.threads if args.threads is not None else \
        (os.cpu_count() or 1)
    if threads < 1:
        raise DomainError(f"a thread count must be at least 1, not {threads}")
    config = SweepConfig(type_letter=args.type_letter, rank=args.rank,
                         seed=args.seed, threads=threads,
                         cache_dir=args.cache_dir, large=args.large)
    if getattr(args, "points", None) is not None:
        config.points = args.points
    if getattr(args, "budget", None) is not None:
        config.budget = args.budget
    if getattr(args, "mode", None) is not None:
        config.mode = args.mode
    return config


def _json_text(obj, indent: str, memo: dict) -> str:
    """The text json.dumps(obj, sort_keys=True, indent=2) gives obj when it
    sits at the nesting of indent, a GAElement standing for its
    to_json_obj().  Only what reports hold is accepted: dicts with str
    keys, lists, tuples, ints, strs, bools, None and GAElements.  memo
    holds _ga_text's texts for one _emit call."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if {*map(type, obj)} == {int}:  # no bool, which prints as a word
            return _int_list_text(obj, indent)
        inner = indent + "  "
        body = (",\n" + inner).join([_json_text(x, inner, memo) for x in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join(
            [f"{_json_key(k)}: {_json_text(obj[k], inner, memo)}"
             for k in sorted(obj)])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, GAElement):
        return _ga_text(obj, indent, memo)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    f"serializable")


def _int_list_text(values, indent: str) -> str:
    """_json_text of a list of ints at the nesting of indent."""
    if not values:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + (",\n" + inner).join(map(int.__repr__, values)) \
        + f"\n{indent}]"


def _ga_text(f: GAElement, indent: str, memo: dict) -> str:
    """_json_text(f.to_json_obj(), indent, memo), written from the packed
    keys with no intermediate dicts.  At each indent, the text of each
    distinct v-polynomial (with the head of its entry) and of each packed
    weight (with the tail of its entry) is made once and kept in memo."""
    if not f.terms:
        return "[]"
    texts = memo.get(indent)
    if texts is None:
        texts = memo[indent] = ({}, {})
    polys, weights = texts
    entry = indent + "  "
    field = entry + "  "
    items = []
    for key, poly in _grouped(f.terms):
        poly = tuple(poly)
        head = polys.get(poly)
        if head is None:
            head = polys[poly] = f'{{\n{field}"vpoly": ' + \
                _int_list_text(poly, field)
        tail = weights.get(key)
        if tail is None:
            tail = weights[key] = f',\n{field}"weight": ' + \
                _int_list_text(_weight_of(key), field) + \
                f"\n{entry}}}"
        items.append(head + tail)
    return f"[\n{entry}" + (",\n" + entry).join(items) + f"\n{indent}]"


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _json_chunks(obj, indent: str, depth: int, memo: dict):
    """_json_text(obj, indent, memo) in pieces: a non-empty dict or list
    within depth levels of the top streams its entries one at a time, so
    only one entry of a top-level list is held as text."""
    if depth and isinstance(obj, (dict, list, tuple)) and obj:
        inner = indent + "  "
        is_dict = isinstance(obj, dict)
        sep = "{\n" if is_dict else "[\n"
        for k in sorted(obj) if is_dict else range(len(obj)):
            yield sep + inner
            if is_dict:
                yield _json_key(k) + ": "
            yield from _json_chunks(obj[k], inner, depth - 1, memo)
            sep = ",\n"
        yield "\n" + indent + ("}" if is_dict else "]")
    else:
        yield _json_text(obj, indent, memo)


def _emit(obj) -> None:
    """Write obj as json.dumps(obj, sort_keys=True, indent=2,
    default=GAElement.to_json_obj) would, and a newline, streaming the
    entries of each top-level list."""
    write = sys.stdout.write
    for chunk in _json_chunks(obj, "", 2, {}):
        write(chunk)
    write("\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from(args)
        lam = parse_int_seq(args.lam) if args.command == "cs-check" else None
        check_request(args.command, config, lam)  # before build_group writes
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
            if args.fmt == "csv":
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
            report = cs_report(group, lam)
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
