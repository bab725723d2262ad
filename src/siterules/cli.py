"""Command-line front end: mine, stats, validate, fixture.

Every command is a pure function of its inputs and flags; identical
invocations produce byte-identical outputs. Data goes to stdout or the
requested file, diagnostics to stderr. Exit codes: 0 success (validation
passed), 1 validation mismatch or infeasible fixture, 2 usage/IO/parse
error.

Each command loads only the modules it runs: ``corpus`` (the fixture search
and the packaged data) is imported inside the ``fixture`` handler,
``validation`` inside the ``validate`` handler and ``fractions`` where
``--tolerance`` is read, and files are read and written with ``open``
rather than ``pathlib``. Likewise :func:`main` builds only the invoked
command's argument parser; the full tree of :func:`build_parser` is built
for the top-level help, a missing or unknown command, and arguments the
command does not take, so that argparse words those as before.
"""

from __future__ import annotations

import argparse
import codecs
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

from .classify import classify_rules
from .datamodel import MiningConfig, Percent, _shown
from .ingest import (
    parse_golden_rules,
    parse_int,
    parse_pct_bp,
    parse_schema,
    parse_transactions,
    render_transactions_csv,
)
from .report import frequency_csv, render_rules, stats_table, study_aggregate_groups
from .rules import canonical_sort, derive_rules

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2

T = TypeVar("T")


def _text(data: bytes) -> str:
    # Decoding the bytes translates no line ends: the parsers see them as
    # written, so a quoted "\r" in a record id is kept and CRLF text reaches
    # the parser unchanged. A leading BOM is dropped first, as "utf-8-sig"
    # would, so that an error's offset counts from the file's first byte.
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end as the parsers' rows do: at "\n", "\r\n" or a lone "\r"
        at = bom + exc.start
        ends = data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at)
        raise ValueError(
            f"line {ends + 1}: byte 0x{data[at]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def _read(path: str, parse: Callable[[str], T]) -> T:
    """``parse`` of the text of the file ``path``, whose bytes are dropped
    first; a refusal of the bytes or of the text names the file."""
    try:
        with open(path, "rb") as f:
            text = _text(f.read())
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _confidence_from_flag(raw: str) -> Percent:
    try:
        bp = parse_pct_bp(raw)
    except ValueError as exc:
        raise ValueError(f"--min-conf: {exc}") from None
    if bp > 10_000:
        raise ValueError("--min-conf: confidence must be in [0,100]")
    return Percent.from_basis_points(bp)


def _positive_int(raw: str) -> int:
    try:
        value = parse_int(raw)
    except ValueError:
        digits = raw[1:] if raw[:1] in "+-" else raw
        if digits.isascii() and digits.isdigit():
            # int() converts at most sys.get_int_max_str_digits() digits
            raise argparse.ArgumentTypeError(f"too long: {_shown(raw)}") from None
        raise argparse.ArgumentTypeError(f"not an integer: {_shown(raw)}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# The numbers Fraction() reads, less the other scripts' digits, "_" and
# surrounding whitespace that it also takes: n/d, or a decimal with an
# optional exponent.
_NUMBER_RE = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?0*(?P<exp>[0-9]+))?)"
)


def _tolerance(raw: str) -> Fraction:
    from fractions import Fraction

    m = _NUMBER_RE.fullmatch(raw)
    if m is None:
        raise argparse.ArgumentTypeError(f"not a number: {_shown(raw)}")
    # Fraction reads the digits with int(), which refuses more than 4,300 of
    # them on current Pythons (640 at the lowest setting)
    if len(raw) > 400:
        raise argparse.ArgumentTypeError(f"longer than 400 characters ({len(raw)})")
    # Fraction builds 10**exponent; past 400 no verdict or printed figure changes
    if m["exp"] and (len(m["exp"]) > 3 or int(m["exp"]) > 400):
        raise argparse.ArgumentTypeError(f"exponent beyond 400: {_shown(raw)}")
    try:
        value = Fraction(raw)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {_shown(raw)}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _cmd_mine(args: argparse.Namespace) -> int:
    # the flags are checked before any input is read
    config = MiningConfig(
        min_confidence=_confidence_from_flag(args.min_conf),
        min_support_count=args.min_support_count,
        max_antecedent_size=args.max_antecedent,
    )
    schema = _read(args.schema, parse_schema)
    db = _read(args.data, lambda text: parse_transactions(schema, text))
    ruleset = canonical_sort(derive_rules(db, config))
    document = render_rules(schema.catalog, classify_rules(ruleset), args.format)
    _emit(document, args.out)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    schema = _read(args.schema, parse_schema)
    db = _read(args.data, lambda text: parse_transactions(schema, text))
    table = stats_table(db, aggregates=study_aggregate_groups(schema.catalog))
    _emit(frequency_csv(table, mode="round"), args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import parse_rules_csv, validate_rows_against_golden

    golden = _read(args.golden, parse_golden_rules)
    mined = _read(args.mined, parse_rules_csv)
    if args.subset == "single-antecedent":
        golden = [g for g in golden if len(g.antecedent_items) == 1]
    report = validate_rows_against_golden(mined, golden, args.tolerance)
    sys.stdout.write(report.render())
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_fixture(args: argparse.Namespace) -> int:
    from . import corpus

    try:
        counts = corpus.study_group_counts()
        result = corpus.build_fixture(counts, counts.golden)
    except corpus.InfeasibleFixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    out_dir = args.out_dir or os.curdir
    os.makedirs(out_dir, exist_ok=True)
    _emit(corpus.schema_text(), os.path.join(out_dir, "schema_appendix_a.txt"))
    _emit(render_transactions_csv(result.database), os.path.join(out_dir, "fixture_data.csv"))
    _emit(result.report.render(), os.path.join(out_dir, "construction_report.txt"))
    print(f"wrote fixture files to {out_dir}", file=sys.stderr)
    return EXIT_OK


# Each command's help line, handler and arguments (flags and add_argument
# keywords), in the order its usage lists them.
_COMMANDS = {
    "mine": ("mine, classify and render rules", _cmd_mine, (
        ("--schema", {"required": True}),
        ("--data", {"required": True}),
        ("--min-conf", {"default": "90", "help": "minimum confidence percent"}),
        ("--max-antecedent", {"type": _positive_int, "default": 2}),
        ("--min-support-count", {"type": _positive_int, "default": 1}),
        ("--format", {"choices": ("csv", "text"), "default": "csv"}),
        ("--out", {}),
    )),
    "stats": ("per-facility frequency table", _cmd_stats, (
        ("--schema", {"required": True}),
        ("--data", {"required": True}),
        ("--out", {}),
    )),
    "validate": ("compare mined rules to a reference list", _cmd_validate, (
        ("--mined", {"required": True}),
        ("--golden", {"required": True}),
        ("--tolerance", {"type": _tolerance, "default": "0.011", "help": "percentage points"}),
        ("--subset", {"choices": ("all", "single-antecedent"), "default": "all"}),
    )),
    "fixture": ("emit the reconstructed study fixture", _cmd_fixture, (
        ("--out-dir", {"required": True}),
    )),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    _, handler, arguments = _COMMANDS[command]
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser of ``siterules``.

    :func:`main` builds only the invoked command's parser, from the same
    definitions, and turns to this one for what that parser cannot say
    alike: the top-level help, a missing or unknown command, and arguments
    the command does not take.
    """
    parser = argparse.ArgumentParser(
        prog="siterules",
        description="Constrained association-rule mining over checklist data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=summary), command)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the parser of the
    command ``argv`` starts with when that parser takes every argument after
    it. The full tree hands those arguments to the same parser, named
    ``siterules <command>``, so its usage, help and errors read alike; what
    it leaves over, only the full tree words as before.
    """
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"siterules {argv[0]}")
        args, extra = _add_arguments(parser, argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
