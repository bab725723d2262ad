"""Validation of a rendered rules CSV against the transcribed reference rules.

``parse_rules_csv`` re-reads the file ``siterules mine`` writes, and
``validate_rows_against_golden`` matches its rows against the reference list
by antecedent set and consequent, comparing the two-decimal figures within a
tolerance. Of the CLI commands only ``validate`` runs this module; ``cli``
imports it inside that command's handler.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .datamodel import record
from .ingest import GoldenRule, _parse_item_text, csv_rows, parse_int, parse_pct_bp
from .report import RULES_HEADER


@record
class MinedRuleRow(NamedTuple):
    """One row of a rendered rules CSV, as re-read for validation."""

    rule_id: int
    antecedent_items: tuple[tuple[str, str], ...]
    consequent_item: tuple[str, str]
    confidence_bp: int
    coverage_bp: int
    support_bp: int
    class_label: str

    @property
    def key(self) -> tuple[frozenset, tuple[str, str]]:
        return (frozenset(self.antecedent_items), self.consequent_item)


def _rule_text(rule: Union[GoldenRule, MinedRuleRow]) -> str:
    antecedent = " AND ".join(f"{a}={v}" for a, v in rule.antecedent_items)
    attr, value = rule.consequent_item
    return f"{antecedent} => {attr}={value}"


def parse_rules_csv(text: str) -> list[MinedRuleRow]:
    """Re-read a rendered rules CSV; a malformed or repeated rule names its row."""
    reader = csv_rows(text, ValueError)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("missing header row") from None
    if header != RULES_HEADER:
        raise ValueError(f"expected header {','.join(RULES_HEADER)}")
    rows = []
    seen: set[tuple[frozenset, tuple[str, str]]] = set()
    for rowno, row in enumerate(reader, start=2):
        if len(row) != len(RULES_HEADER):
            raise ValueError(f"row {rowno}: expected {len(RULES_HEADER)} cells")
        try:
            mined = MinedRuleRow(
                rule_id=parse_int(row[0]),
                antecedent_items=tuple(_parse_item_text(part) for part in row[1].split(" AND ")),
                consequent_item=_parse_item_text(row[2]),
                confidence_bp=parse_pct_bp(row[3]),
                coverage_bp=parse_pct_bp(row[4]),
                support_bp=parse_pct_bp(row[5]),
                class_label=row[6],
            )
        except ValueError as exc:
            raise ValueError(f"row {rowno}: {exc}") from None
        if len(set(mined.antecedent_items)) != len(mined.antecedent_items):
            raise ValueError(f"row {rowno}: malformed antecedent (repeated item)")
        if mined.key in seen:
            raise ValueError(f"row {rowno}: duplicate rule {_rule_text(mined)}")
        seen.add(mined.key)
        rows.append(mined)
    return rows


@record
class MetricMismatch(NamedTuple):
    golden: GoldenRule
    mined: MinedRuleRow
    confidence_delta_pp: Fraction
    coverage_delta_pp: Fraction


@record
class ValidationReport(NamedTuple):
    matched: tuple[tuple[GoldenRule, MinedRuleRow], ...]
    missing: tuple[GoldenRule, ...]
    extra: tuple[MinedRuleRow, ...]
    metric_mismatches: tuple[MetricMismatch, ...]
    tolerance_pp: Fraction

    @property
    def ok(self) -> bool:
        return not self.missing and not self.metric_mismatches

    def render(self) -> str:
        lines = [
            f"matched: {len(self.matched)}  missing: {len(self.missing)}  "
            f"extra: {len(self.extra)}  metric mismatches: {len(self.metric_mismatches)}"
        ]
        if self.missing:
            lines.append("missing reference rules:")
            lines += [
                f"  #{g.rule_id} {_rule_text(g)}"
                for g in self.missing
            ]
        if self.metric_mismatches:
            lines.append(f"metric mismatches (tolerance {float(self.tolerance_pp)} pp):")
            for mm in self.metric_mismatches:
                lines.append(
                    f"  #{mm.golden.rule_id} {_rule_text(mm.mined)}: "
                    f"confidence off by {float(mm.confidence_delta_pp):.4f} pp, "
                    f"coverage off by {float(mm.coverage_delta_pp):.4f} pp"
                )
        if self.extra:
            lines.append("extra mined rules (allowed, not published):")
            lines += [
                f"  {_rule_text(r)} (confidence {r.confidence_bp / 100:.2f}, "
                f"coverage {r.coverage_bp / 100:.2f})"
                for r in self.extra
            ]
        return "\n".join(lines) + "\n"


def validate_rows_against_golden(
    rows: Iterable[MinedRuleRow],
    golden: Sequence[GoldenRule],
    tolerance_pp: Fraction,
) -> ValidationReport:
    """Match the rows of a rendered rules CSV against the reference list.

    A reference rule is matched when a row has the same antecedent set and
    consequent; the match is clean when the row's two-decimal confidence and
    coverage sit within ``tolerance_pp`` percentage points of the published
    figures. Surplus mined rules are listed, never failed: the reference
    list only covers what its authors printed.
    """
    if tolerance_pp < 0:
        raise ValueError("tolerance must be non-negative")
    by_key = {row.key: row for row in rows}
    matched = []
    missing = []
    mismatches = []
    for g in golden:
        row = by_key.pop(g.key, None)
        if row is None:
            missing.append(g)
            continue
        matched.append((g, row))
        confidence_delta = Fraction(abs(row.confidence_bp - g.confidence_bp), 100)
        coverage_delta = Fraction(abs(row.coverage_bp - g.support_bp), 100)
        if confidence_delta > tolerance_pp or coverage_delta > tolerance_pp:
            mismatches.append(MetricMismatch(g, row, confidence_delta, coverage_delta))
    return ValidationReport(
        tuple(matched), tuple(missing), tuple(by_key.values()), tuple(mismatches), tolerance_pp
    )
