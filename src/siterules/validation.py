"""Validation of a rendered rules CSV against the transcribed reference rules.

``parse_rules_csv`` re-reads the file ``siterules mine`` writes, and
``validate_rows_against_golden`` matches its rows against the reference list
by antecedent set and consequent, comparing the two-decimal figures within a
tolerance. Of the CLI commands only ``validate`` runs this module; ``cli``
imports it inside that command's handler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

from .classify import _tier
from .datamodel import RuleClass, _shown
from .ingest import GoldenRule, _rule_rows
from .report import RULES_HEADER

if TYPE_CHECKING:
    from fractions import Fraction

_CLASS_LABELS = frozenset(c.label for c in RuleClass)


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
    """Re-read a rendered rules CSV; a malformed or repeated rule names its row.

    A row must also agree with itself as ``mine`` writes it: its class is the
    tier of its confidence (the file truncates to two decimals, which keeps
    the 90 and 95 boundaries exact), and its support does not exceed its
    coverage.
    """
    rows = []
    for rowno, cells in _rule_rows(text, RULES_HEADER):
        mined = MinedRuleRow(*cells)
        for name, bp in zip(("confidence", "coverage", "support"), cells[3:6]):
            if bp > 10000:
                raise ValueError(f"row {rowno}: {name} above 100")
        if mined.class_label not in _CLASS_LABELS:
            raise ValueError(f"row {rowno}: unknown class {_shown(mined.class_label)}")
        tier = _tier(mined.confidence_bp, 10000).label
        if mined.class_label != tier:
            raise ValueError(
                f"row {rowno}: class {mined.class_label!r} does not match confidence "
                f"{mined.confidence_bp / 100:.2f} ({tier})"
            )
        if mined.support_bp > mined.coverage_bp:
            raise ValueError(f"row {rowno}: support above coverage")
        rows.append(mined)
    return rows


class MetricMismatch(NamedTuple):
    golden: GoldenRule
    mined: MinedRuleRow
    confidence_delta_bp: int
    coverage_delta_bp: int


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
                    f"confidence off by {mm.confidence_delta_bp / 100:.4f} pp, "
                    f"coverage off by {mm.coverage_delta_bp / 100:.4f} pp"
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
    list only covers what its authors printed. ``tolerance_pp`` is
    non-negative: ``--tolerance`` refuses a negative one.
    """
    # a delta of d basis points is d/100 pp, so d/100 > n/q reads d*q > n*100
    scale, limit = tolerance_pp.denominator, tolerance_pp.numerator * 100
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
        confidence_delta = abs(row.confidence_bp - g.confidence_bp)
        coverage_delta = abs(row.coverage_bp - g.support_bp)
        if confidence_delta * scale > limit or coverage_delta * scale > limit:
            mismatches.append(MetricMismatch(g, row, confidence_delta, coverage_delta))
    return ValidationReport(
        tuple(matched), tuple(missing), tuple(by_key.values()), tuple(mismatches), tolerance_pp
    )
