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
rather than ``pathlib``.
"""

from __future__ import annotations

import argparse
import codecs
import os
import re
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .classify import classify_rules
from .datamodel import MiningConfig, Percent
from .ingest import (
    DataError,
    GoldenFileError,
    SchemaError,
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


def _read(path: str) -> str:
    # Decoding the bytes translates no line ends: the parsers see them as
    # written, so a quoted "\r" in a record id is kept and CRLF text reaches
    # the parser unchanged. A leading BOM is dropped first, as "utf-8-sig"
    # would, so that an error's offset counts from the file's first byte.
    with open(path, "rb") as f:
        data = f.read()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end as the parsers' rows do: at "\n", "\r\n" or a lone "\r"
        at = bom + exc.start
        ends = data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at)
        line = ends + 1
        raise ValueError(
            f"{path}: line {line}: byte 0x{data[at]:02x} is not UTF-8 ({exc.reason})"
        ) from None


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
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# The numbers Fraction() reads, less the other scripts' digits, "_" and
# surrounding whitespace that it also takes: n/d, or a decimal with an
# optional exponent.
_NUMBER_RE = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
)


def _tolerance(raw: str) -> Fraction:
    from fractions import Fraction

    if _NUMBER_RE.fullmatch(raw) is None:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}")
    try:
        value = Fraction(raw)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {raw!r}") from None
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
    schema = parse_schema(_read(args.schema))
    db = parse_transactions(schema, _read(args.data))
    ruleset = canonical_sort(derive_rules(db, config))
    document = render_rules(schema.catalog, classify_rules(ruleset), args.format)
    _emit(document, args.out)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    schema = parse_schema(_read(args.schema))
    db = parse_transactions(schema, _read(args.data))
    table = stats_table(db, aggregates=study_aggregate_groups(schema.catalog))
    _emit(frequency_csv(table, mode="round"), args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import parse_rules_csv, validate_rows_against_golden

    golden = parse_golden_rules(_read(args.golden))
    mined = parse_rules_csv(_read(args.mined))
    if args.subset == "single-antecedent":
        golden = [g for g in golden if len(g.antecedent_items) == 1]
    report = validate_rows_against_golden(mined, golden, args.tolerance)
    sys.stdout.write(report.render())
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_fixture(args: argparse.Namespace) -> int:
    from . import corpus

    try:
        result = corpus.build_fixture(corpus.study_group_counts(), corpus.load_golden_rules())
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siterules",
        description="Constrained association-rule mining over checklist data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine, classify and render rules")
    mine.add_argument("--schema", required=True)
    mine.add_argument("--data", required=True)
    mine.add_argument("--min-conf", default="90", help="minimum confidence percent")
    mine.add_argument("--max-antecedent", type=_positive_int, default=2)
    mine.add_argument("--min-support-count", type=_positive_int, default=1)
    mine.add_argument("--format", choices=("csv", "text"), default="csv")
    mine.add_argument("--out")
    mine.set_defaults(handler=_cmd_mine)

    stats = sub.add_parser("stats", help="per-facility frequency table")
    stats.add_argument("--schema", required=True)
    stats.add_argument("--data", required=True)
    stats.add_argument("--out")
    stats.set_defaults(handler=_cmd_stats)

    validate = sub.add_parser("validate", help="compare mined rules to a reference list")
    validate.add_argument("--mined", required=True)
    validate.add_argument("--golden", required=True)
    validate.add_argument(
        "--tolerance", type=_tolerance, default="0.011", help="percentage points"
    )
    validate.add_argument(
        "--subset", choices=("all", "single-antecedent"), default="all"
    )
    validate.set_defaults(handler=_cmd_validate)

    fixture = sub.add_parser("fixture", help="emit the reconstructed study fixture")
    fixture.add_argument("--out-dir", required=True)
    fixture.set_defaults(handler=_cmd_fixture)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, DataError, GoldenFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
