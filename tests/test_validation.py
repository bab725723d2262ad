from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siterules.ingest import GoldenRule
from siterules.report import RULES_HEADER, render_rules
from siterules.validation import (
    MetricMismatch,
    MinedRuleRow,
    parse_rules_csv,
    validate_rows_against_golden,
)

TOLERANCE_PP = Fraction(11, 1000)


@pytest.fixture(scope="module")
def mined_rows(catalog, mined_classified):
    return parse_rules_csv(render_rules(catalog, mined_classified))


def rule_21_at(golden, confidence_bp):
    """Reference rule 21 (ownership=governmental => about_us, published 97.95)
    with its confidence edited."""
    (g,) = [g for g in golden if g.rule_id == 21]
    return [g._replace(confidence_bp=confidence_bp)]


@st.composite
def figure_deltas(draw):
    """A tolerance in percentage points and, per rule, the signed confidence
    and coverage deltas in basis points between a mined row and its
    reference rule. A tolerance of whole basis points is drawn often, and
    deltas exactly at it and one basis point either side."""
    tolerance = draw(st.one_of(
        st.integers(0, 20).map(lambda bp: Fraction(bp, 100)),
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    ))
    at = int(tolerance * 100)
    magnitude = st.one_of(st.sampled_from((at - 1, at, at + 1)), st.integers(0, 120))
    delta = st.tuples(magnitude, st.sampled_from((-1, 1))).map(lambda d: max(d[0], 0) * d[1])
    return tolerance, draw(st.lists(st.tuples(delta, delta), min_size=1, max_size=6))


class TestValidation:
    def test_fixture_mined_rules_match_all_68(self, mined_rows, golden):
        report = validate_rows_against_golden(mined_rows, golden, TOLERANCE_PP)
        assert report.ok
        assert len(report.matched) == 68
        assert report.missing == ()
        assert report.metric_mismatches == ()
        assert len(report.extra) > 0  # unpublished combinations are allowed

    def test_empty_mined_set_misses_everything(self, catalog, golden):
        rows = parse_rules_csv(render_rules(catalog, []))
        report = validate_rows_against_golden(rows, golden, TOLERANCE_PP)
        assert not report.ok
        assert len(report.missing) == 68
        assert report.matched == ()

    def test_tolerance_absorbs_truncation(self, golden, mined_rows):
        # the file reads 97.95; a published 97.94 is 0.01 pp off, inside 0.011 pp
        report = validate_rows_against_golden(
            mined_rows, rule_21_at(golden, 9794), TOLERANCE_PP
        )
        assert report.ok
        ((g, row),) = report.matched
        assert abs(Fraction(row.confidence_bp - g.confidence_bp, 100)) <= Fraction(11, 1000)

    def test_zero_tolerance_flags_truncated_figures(self, golden, mined_rows):
        report = validate_rows_against_golden(
            mined_rows, rule_21_at(golden, 9794), Fraction(0)
        )
        assert not report.ok
        assert len(report.metric_mismatches) == 1
        # the rule is still item-matched: matched + missing covers all golden
        assert len(report.matched) == 1 and not report.missing

    @given(figure_deltas())
    # --tolerance 0: any delta is a mismatch
    @example((Fraction(0), [(0, 0), (1, 0), (0, -1)]))
    # the default tolerance, 0.011 pp: a 1 bp delta is within it, 2 bp are not
    @example((Fraction(11, 1000), [(1, -1), (2, 0), (0, -2)]))
    # deltas exactly at the tolerance are within it
    @example((Fraction(3, 100), [(3, -3), (-3, 4), (-4, 3)]))
    @settings(max_examples=200, deadline=None)
    def test_mismatches_are_the_fraction_comparison(self, system):
        tolerance, deltas = system
        golden, rows = [], []
        for i, (d_confidence, d_coverage) in enumerate(deltas):
            antecedent, consequent = (("age", f"v{i}"),), ("facility", "about_us")
            g = GoldenRule(i + 1, antecedent, consequent, 5000 + 37 * i, 4000 + 11 * i)
            golden.append(g)
            rows.append(MinedRuleRow(
                i + 1, antecedent, consequent, g.confidence_bp + d_confidence,
                g.support_bp + d_coverage, 0, "rejected",
            ))
        expected = []
        for g, row in zip(golden, rows):
            confidence = abs(row.confidence_bp - g.confidence_bp)
            coverage = abs(row.coverage_bp - g.support_bp)
            if Fraction(max(confidence, coverage), 100) > tolerance:
                expected.append(MetricMismatch(g, row, confidence, coverage))
        report = validate_rows_against_golden(rows, golden, tolerance)
        assert report.metric_mismatches == tuple(expected)
        assert len(report.matched) == len(golden) and report.ok == (not expected)

    def test_rows_roundtrip_through_rendered_csv(self, catalog, mined_classified, golden):
        doc = render_rules(catalog, mined_classified)
        rows = parse_rules_csv(doc)
        assert len(rows) == len(mined_classified)
        report = validate_rows_against_golden(rows, golden, TOLERANCE_PP)
        assert report.ok

    def test_overlong_field_in_rules_csv_names_its_line(self, catalog, mined_classified):
        doc = render_rules(catalog, mined_classified) + f"999,{'x' * 131_073},,,,,\n"
        line = len(doc.splitlines())
        with pytest.raises(ValueError, match=f"line {line}: field larger than field limit"):
            parse_rules_csv(doc)

    def test_repeated_antecedent_item_names_its_row(self):
        doc = (
            ",".join(RULES_HEADER) + "\n"
            + "1,age=below10 AND age=below10,facility=about_us,100.00,12.08,12.08,must_have\n"
        )
        with pytest.raises(ValueError, match=r"row 2: malformed antecedent \(repeated item\)"):
            parse_rules_csv(doc)

    @pytest.mark.parametrize("cell", ["\u0663", "\uff13", "1_0", " 3", "3 "])
    def test_rule_id_takes_ascii_digits_only(self, cell):
        doc = (
            ",".join(RULES_HEADER) + "\n"
            + f"{cell},age=below10,facility=about_us,100.00,12.08,12.08,must_have\n"
        )
        with pytest.raises(ValueError) as exc:
            parse_rules_csv(doc)
        assert str(exc.value) == f"row 2: invalid integer {cell!r}"

    @pytest.mark.parametrize(
        "cells, message",
        [
            ("150.00,12.08,12.08,must_have", "confidence above 100"),
            ("100.00,912.08,12.08,must_have", "coverage above 100"),
            ("100.00,12.08,100.01,must_have", "support above 100"),
            ("100.00,12.08,12.08,bogus_class", "unknown class 'bogus_class'"),
            ("100.00,12.08,12.08,Must_Have", "unknown class 'Must_Have'"),
            ("100.00,12.08,12.08,", "unknown class ''"),
            # a row that mine could not have written: its class is not the
            # tier of its confidence, or its support exceeds its coverage
            (
                "90.00,12.08,50.00,rejected",
                "class 'rejected' does not match confidence 90.00 (should_have)",
            ),
            (
                "95.00,12.08,10.98,should_have",
                "class 'should_have' does not match confidence 95.00 (must_have)",
            ),
            (
                "94.99,12.08,10.98,must_have",
                "class 'must_have' does not match confidence 94.99 (should_have)",
            ),
            (
                "89.99,12.08,10.98,should_have",
                "class 'should_have' does not match confidence 89.99 (rejected)",
            ),
            ("100.00,12.08,12.09,must_have", "support above coverage"),
            ("0.00,0.00,0.01,rejected", "support above coverage"),
        ],
    )
    def test_percentage_range_and_class_name_the_row(self, cells, message):
        doc = ",".join(RULES_HEADER) + "\n" + f"1,age=below10,facility=about_us,{cells}\n"
        with pytest.raises(ValueError) as exc:
            parse_rules_csv(doc)
        assert str(exc.value) == f"row 2: {message}"

    @pytest.mark.parametrize(
        "cells",
        [
            "89.99,12.08,10.86,rejected",
            "90.00,12.08,10.87,should_have",
            "94.99,12.08,11.47,should_have",
            "95.00,12.08,12.08,must_have",
            "0.00,0.00,0.00,rejected",
        ],
    )
    def test_class_boundaries_and_equal_support_read(self, cells):
        doc = ",".join(RULES_HEADER) + "\n" + f"1,age=below10,facility=about_us,{cells}\n"
        (row,) = parse_rules_csv(doc)
        assert row.class_label == cells.rsplit(",", 1)[1]

    def test_render_summary_line(self, mined_rows, golden):
        report = validate_rows_against_golden(mined_rows, golden, TOLERANCE_PP)
        first = report.render().splitlines()[0]
        assert first.startswith("matched: 68  missing: 0")
