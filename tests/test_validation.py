from fractions import Fraction

import pytest

from siterules.report import RULES_HEADER, render_rules
from siterules.validation import parse_rules_csv, validate_rows_against_golden

TOLERANCE_PP = Fraction(11, 1000)


@pytest.fixture(scope="module")
def mined_rows(catalog, mined_classified):
    return parse_rules_csv(render_rules(catalog, mined_classified))


def rule_21_at(golden, confidence_bp):
    """Reference rule 21 (ownership=governmental => about_us, published 97.95)
    with its confidence edited."""
    (g,) = [g for g in golden if g.rule_id == 21]
    return [g._replace(confidence_bp=confidence_bp)]


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

    def test_negative_tolerance_rejected(self, golden):
        with pytest.raises(ValueError):
            validate_rows_against_golden([], golden, Fraction(-1))

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

    def test_render_summary_line(self, mined_rows, golden):
        report = validate_rows_against_golden(mined_rows, golden, TOLERANCE_PP)
        first = report.render().splitlines()[0]
        assert first.startswith("matched: 68  missing: 0")
