"""Command-line front end.

Commands: classify, core, envelope, push, monad-mul, search, selftest.
Exit codes are a stable contract: 0 ok, 2 parse error or unreadable input, 3 validation
error, 4 configuration out of range or unwritable output (argparse's usage errors exit 2).
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

from .capacity import BalancedFamily, pushforward
from .classify import ClassReport, ExactnessGap, classify_full, is_balanced
from .credal import CONSTRAINTS, lower_envelope
from .errors import (
    CapaxError,
    ConfigOutOfRange,
    InternalInconsistency,
    ParseError,
)
from .gamefiles import (
    emit_game,
    emit_measure,
    parse_credal,
    parse_game,
    parse_map,
    parse_second,
)
from .ground import format_rat, format_subset
from .lp.core import check_points
from .monad import monad_mul
from .search import (
    REPORT_HEADER,
    SearchConfig,
    machine_report,
    problem1_search,
    text_log,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONFIG = 4

_SEEDS = re.compile(r"^(\d+)\.\.(\d+)$")


class _Unreadable(Exception):
    """An input file that cannot be read as text."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:  # missing, a directory, no permission, ...
        raise _Unreadable(exc) from None
    except UnicodeDecodeError as exc:
        raise _Unreadable(f"{path}: not text ({exc.reason} at byte {exc.start})") from None


def _family_text(family: BalancedFamily) -> str:
    return " ".join(f"{format_subset(a)}:{format_rat(w)}"
                    for a, w in zip(family.sets, family.weights))


def _witness_lines(report: ClassReport) -> list[str]:
    lines = []
    w = report.convex_witness
    if w is not None:
        lines.append(f"witness convex A={format_subset(w.set_a)} B={format_subset(w.set_b)}")
    w = report.balanced_witness
    if report.balanced:
        lines.append(f"witness core-measure {' '.join(format_rat(x) for x in w.weights)}")
    else:
        lines.append(f"witness unbalanced-family {_family_text(w)}")
    w = report.tb_witness
    if w is not None:
        lines.append(f"witness totally-balanced subset={format_subset(w.subset)} "
                     f"family {_family_text(w.family)}")
    w = report.exact_witness
    if isinstance(w, ExactnessGap):
        lines.append(f"witness exact subset={format_subset(w.subset)} "
                     f"core-minimum={format_rat(w.bound)}")
    elif w is not None:
        lines.append("witness exact core-empty")
    return lines


def _cmd_classify(args) -> int:
    nu = parse_game(_read(args.file), strict=not args.lenient)
    report = classify_full(nu)
    if args.format == "machine":
        print(REPORT_HEADER)
        print(f"config command=classify input={args.file}")
        yn = lambda b: "yes" if b else "no"
        print(f"flags convex={yn(report.convex)} exact={yn(report.exact)} "
              f"totally-balanced={yn(report.totally_balanced)} balanced={yn(report.balanced)}")
    else:
        print(report.summary())
    for line in _witness_lines(report):
        print(line)
    return EXIT_OK


def _cmd_core(args) -> int:
    nu = parse_game(_read(args.file), strict=not args.lenient)
    balanced, witness = is_balanced(nu)
    if balanced:
        sys.stdout.write(emit_measure(witness))
    else:
        print("core empty")
        print(f"witness unbalanced-family {_family_text(witness)}")
    return EXIT_OK


def _cmd_envelope(args) -> int:
    alpha = parse_credal(_read(args.file))
    if alpha.kind == CONSTRAINTS:  # one core-system LP per subset
        check_points(alpha.ground.n)
    sys.stdout.write(emit_game(lower_envelope(alpha)))
    return EXIT_OK


def _cmd_push(args) -> int:
    f = parse_map(_read(args.map))
    nu = parse_game(_read(args.game), strict=not args.lenient)
    sys.stdout.write(emit_game(pushforward(f, nu)))
    return EXIT_OK


def _cmd_monad_mul(args) -> int:
    c2 = parse_second(_read(args.file), strict=not args.lenient)
    sys.stdout.write(emit_game(monad_mul(c2)))
    return EXIT_OK


def _cmd_search(args) -> int:
    m = _SEEDS.match(args.seeds)
    if not m:
        raise ConfigOutOfRange(f"--seeds wants A..B with integers, got {args.seeds!r}")
    config = SearchConfig(
        n=args.n,
        support_size=args.k,
        target_class=args.target_class.replace("-", "_"),
        seed_start=int(m.group(1)),
        seed_end=int(m.group(2)),
        grid=args.grid,
        jobs=args.jobs,
    )
    if not args.out:
        report = problem1_search(config)
        sys.stdout.write(machine_report(report))
        sys.stderr.write(text_log(report))
        return EXIT_OK
    out = Path(args.out)
    report_path = Path(f"{out}.report")  # appended: a dotted prefix keeps every part
    log_path = Path(f"{out}.log")
    with ExitStack() as files:
        with _writing(args.out):  # before the search, so an unwritable prefix costs no seed
            out.parent.mkdir(parents=True, exist_ok=True)
            report_file = files.enter_context(report_path.open("w"))
            log_file = files.enter_context(log_path.open("w"))
        report = problem1_search(config)
        with _writing(args.out):
            report_file.write(machine_report(report))
            log_file.write(text_log(report))
            files.close()
    print(f"machine report: {report_path}")
    print(f"text log: {log_path}")
    print(f"seeds={len(report.outcomes)} counterexamples={len(report.counterexamples)}")
    return EXIT_OK


@contextmanager
def _writing(out):
    """Turn an OSError on the --out files into ConfigOutOfRange (exit 4)."""
    try:
        yield
    except OSError as exc:
        raise ConfigOutOfRange(f"cannot write --out {out}: {exc}") from None


def _cmd_selftest(_args) -> int:
    return EXIT_OK if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capax",
        description="exact-arithmetic toolkit for capacity classes, cores, "
                    "envelopes and the capacity monad",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="four class flags plus witnesses for a game file")
    p.add_argument("file")
    p.add_argument("--lenient", action="store_true",
                   help="fill unspecified subsets by monotone closure")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("core", help="a core measure of a game file, or a refuting family")
    p.add_argument("file")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("envelope", help="lower envelope of a credal file as a game file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("push", help="pushforward of a game file along a map file")
    p.add_argument("map")
    p.add_argument("game")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_push)

    p = sub.add_parser("monad-mul", help="monad multiplication of a second-order file")
    p.add_argument("file")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_monad_mul)

    p = sub.add_parser("search", help="seeded counterexample search for the submonad question")
    p.add_argument("--class", dest="target_class", required=True,
                   choices=("exact", "totally-balanced"))
    p.add_argument("--n", type=int, required=True, help="ground set size")
    p.add_argument("--k", type=int, required=True, help="support size")
    p.add_argument("--seeds", required=True, help="inclusive seed range A..B")
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="path prefix for .report and .log files")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("selftest", help="run the bundled fixture suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _Unreadable as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigOutOfRange as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalInconsistency as exc:
        print(f"INTERNAL INCONSISTENCY (solver bug, please report): {exc}", file=sys.stderr)
        return 1
    except CapaxError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
