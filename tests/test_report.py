import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siterules.classify import classify_rules
from siterules.datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    Rule,
    Transaction,
    TransactionDatabase,
)
from siterules.report import (
    format_percent,
    frequency_csv,
    render_rules,
    stats_table,
    study_aggregate_groups,
)


class TestFormatPercent:
    @pytest.mark.parametrize(
        "num,den,mode,expected",
        [
            (48, 49, "truncate", "97.95"),
            (48, 49, "round", "97.96"),
            (0, 5, "truncate", "0.00"),
            (0, 5, "round", "0.00"),
            (1, 1, "truncate", "100.00"),
            (11, 91, "truncate", "12.08"),
            (89, 91, "round", "97.80"),
            (18, 20, "truncate", "90.00"),
        ],
    )
    def test_examples(self, num, den, mode, expected):
        assert format_percent(num, den, mode) == expected

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            format_percent(1, 2, "ceil")

    @given(st.integers(0, 400), st.integers(1, 400))
    @settings(max_examples=300)
    def test_modes_agree_within_one_ulp(self, num, den):
        num = min(num, den)
        trunc = format_percent(num, den, "truncate")
        rounded = format_percent(num, den, "round")
        delta = round(abs(float(trunc) - float(rounded)), 2)
        assert delta in (0.0, 0.01)
        # exact two-decimal values must agree in both modes
        if (10_000 * num) % den == 0:
            assert trunc == rounded


class TestStatsTable:
    def test_fixture_matches_published_cells(self, fixture_db):
        table = stats_table(fixture_db, aggregates=study_aggregate_groups(fixture_db.catalog))
        rows = {row.facility: row for row in table.rows}
        labels = [col.label for col in table.columns]
        total = labels.index("total")
        gov = labels.index("ownership=governmental")
        assert format_percent(*rows["contact_us"].cells[total], "round") == "97.80"
        assert format_percent(*rows["about_us"].cells[gov], "round") == "97.96"
        assert rows["about_us"].cells[gov] == (48, 49)

    def test_cell_denominators_equal_group_sizes(self, fixture_db):
        from siterules.engine import count_support

        table = stats_table(fixture_db)
        for col_index, col in enumerate(table.columns):
            if not col.item_ids:
                expected = fixture_db.size
            else:
                expected = count_support(fixture_db, col.item_ids)
            for row in table.rows:
                assert row.cells[col_index][1] == expected

    def test_counts_recoverable_from_rendered_table(self, fixture_db):
        table = stats_table(fixture_db)
        for row in table.rows:
            for count, size in row.cells:
                rendered = float(format_percent(count, size, "round"))
                assert round(rendered * size / 100) == count

    def test_absent_facility_is_zero(self):
        catalog = ItemCatalog(
            (
                AttributeDef("g", AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("a", "b")),
                AttributeDef("f", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",)),
            )
        )
        db = TransactionDatabase.build(catalog, [Transaction("r1", 0b001)])
        table = stats_table(db)
        assert table.rows[0].cells[0] == (0, 1)

    def test_empty_group_cell_is_blank(self):
        catalog = ItemCatalog(
            (
                AttributeDef("g", AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("a", "b")),
                AttributeDef("f", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",)),
            )
        )
        db = TransactionDatabase.build(catalog, [Transaction("r1", 0b101)])
        table = stats_table(db)
        labels = [c.label for c in table.columns]
        empty = labels.index("g=b")
        assert table.rows[0].cells[empty] is None
        line = frequency_csv(table).splitlines()[1]
        assert line == "f,100.00,100.00,"

    def test_empty_database_rejected(self, catalog):
        db = TransactionDatabase.build(catalog, [])
        with pytest.raises(ValueError):
            stats_table(db)


class TestRenderRules:
    def test_published_first_rule_line(self, catalog):
        rule = Rule(
            (catalog.item_id("age", "below10"),),
            (catalog.item_id("about_us", "yes"),),
            11, 11, 91,
        )
        doc = render_rules(catalog, classify_rules([rule]))
        assert doc.splitlines() == [
            "rule_id,antecedent,consequent,confidence_pct,coverage_pct,support_pct,class",
            "1,age=below10,facility=about_us,100.00,12.08,12.08,must_have",
        ]

    def test_boundary_confidence_renders_two_decimals(self, catalog):
        rule = Rule(
            tuple(sorted((catalog.item_id("age", "11-29"), catalog.item_id("industry", "services")))),
            (catalog.item_id("contact_us", "yes"),),
            20, 18, 91,
        )
        line = render_rules(catalog, classify_rules([rule])).splitlines()[1]
        assert line == (
            "1,age=11-29 AND industry=services,facility=contact_us,90.00,21.97,19.78,should_have"
        )

    def test_empty_is_header_only(self, catalog):
        assert render_rules(catalog, []) == (
            "rule_id,antecedent,consequent,confidence_pct,coverage_pct,support_pct,class\n"
        )

    def test_text_format_aligns(self, catalog, mined_classified):
        text = render_rules(catalog, mined_classified[:5], fmt="text")
        lines = text.splitlines()
        assert lines[0].startswith("rule_id")
        assert len(lines) == 7

    @given(data=st.data())
    @settings(max_examples=300)
    def test_percentages_as_format_percent(self, catalog, data):
        size = data.draw(st.integers(1, 10**6), label="size")
        antecedent = data.draw(st.integers(1, size), label="antecedent")
        joint = data.draw(st.integers(0, antecedent), label="joint")
        rule = Rule((0,), (catalog.n_items - 1,), antecedent, joint, size)
        cells = render_rules(catalog, classify_rules([rule])).splitlines()[1].split(",")
        assert cells[3:6] == [
            format_percent(joint, antecedent, "truncate"),
            format_percent(antecedent, size, "truncate"),
            format_percent(joint, size, "truncate"),
        ]

    @given(data=st.data())
    @settings(max_examples=300)
    def test_rendered_metrics_keep_their_relations(self, catalog, data):
        size = data.draw(st.integers(1, 10**6), label="size")
        antecedent = data.draw(st.integers(1, size), label="antecedent")
        joint = data.draw(st.integers(0, antecedent), label="joint")
        rule = Rule((0,), (catalog.n_items - 1,), antecedent, joint, size)
        cells = render_rules(catalog, classify_rules([rule])).splitlines()[1].split(",")
        confidence, coverage, support = (int(c.replace(".", "")) for c in cells[3:6])
        assert (confidence, coverage, support) == (
            10_000 * joint // antecedent,
            10_000 * antecedent // size,
            10_000 * joint // size,
        )
        assert support <= min(confidence, coverage)
        # support = confidence * coverage exactly; each shown figure is cut
        # below its ratio by less than 1 bp, so the product of the shown two
        # lies within 2 bp of the shown support
        assert abs(confidence * coverage - 10_000 * support) < 2 * 10_000

    def test_mined_rows_show_the_ratios_of_their_counts(self, catalog, mined_classified):
        rows = render_rules(catalog, mined_classified).splitlines()[1:]
        assert len(rows) == len(mined_classified) > 0
        for row, entry in zip(rows, mined_classified):
            r = entry.rule
            cells = row.split(",")
            assert cells[3:6] == [
                f"{n * 100 // d}.{n * 10_000 // d % 100:02d}"
                for n, d in (
                    (r.joint_count, r.antecedent_count),
                    (r.antecedent_count, r.db_size),
                    (r.joint_count, r.db_size),
                )
            ]

    def test_byte_determinism(self, catalog, mined_classified):
        a = render_rules(catalog, mined_classified)
        b = render_rules(catalog, list(mined_classified))
        assert a == b
        assert a.endswith("\n") and "\r" not in a
