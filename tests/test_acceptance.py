"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here and nowhere else.

Criteria 1, 4 and 5 recount, tier and threshold in integer arithmetic of
their own, so they share no code with the package's tiering or thresholds.
"""

import itertools
import random
import resource
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from siterules import corpus
from siterules.classify import classify_rules
from siterules.datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    MiningConfig,
    Percent,
    Transaction,
    TransactionDatabase,
)
from siterules.engine import mine_frequent
from siterules.report import format_percent, render_rules, stats_table
from siterules.rules import canonical_sort, derive_rules
from siterules.validation import parse_rules_csv, validate_rows_against_golden

TOLERANCE_PP = Fraction(11, 1000)
# the study's accessible websites, over which the reference supports are printed
M = 91


@pytest.fixture()
def announce(capfd):
    @contextmanager
    def criterion(number, name):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"ACCEPTANCE {number} {name}: FAIL")
            raise
        with capfd.disabled():
            print(f"ACCEPTANCE {number} {name}: PASS")

    return criterion


def reference_counts(g):
    """A reference rule's antecedent and joint counts, read off its printed
    support and confidence (basis points, truncated), with the joint's
    distance from an integer in ten-thousandths of a row."""
    n_antecedent = (g.support_bp * M + 5000) // 10000
    joint_e4 = g.confidence_bp * n_antecedent
    joint = (joint_e4 + 5000) // 10000
    return n_antecedent, joint, abs(joint_e4 - 10000 * joint)


def test_criterion_1_golden_arithmetic_consistency(announce, golden):
    with announce(1, "golden-arithmetic-consistency"):
        start = time.perf_counter()
        recovered = {g.rule_id: reference_counts(g) for g in golden}
        elapsed = time.perf_counter() - start
        assert len(recovered) == 68
        off = [k for k, (_, _, deviation) in recovered.items() if deviation > 100]
        assert not off, f"confidence times antecedent count strays over 0.01 rows: {off}"
        for g in golden:
            n_antecedent, joint, _ = recovered[g.rule_id]
            # the counts print the published figures again
            assert n_antecedent * 10000 // M == g.support_bp, g.rule_id
            assert joint * 10000 // n_antecedent == g.confidence_bp, g.rule_id
        assert elapsed < 1.0


def test_criterion_2_single_antecedent_reproduction(announce, fixture_db, catalog, golden):
    with announce(2, "single-antecedent-reproduction"):
        start = time.perf_counter()
        classified = classify_rules(canonical_sort(derive_rules(fixture_db)))
        elapsed = time.perf_counter() - start
        subset = [g for g in golden if len(g.antecedent_items) == 1]
        assert len(subset) == 27
        rows = parse_rules_csv(render_rules(catalog, classified))
        report = validate_rows_against_golden(rows, subset, TOLERANCE_PP)
        assert report.missing == ()
        assert report.metric_mismatches == ()
        for g, row in report.matched:
            assert abs(Fraction(row.confidence_bp - g.confidence_bp, 100)) <= TOLERANCE_PP
            assert abs(Fraction(row.coverage_bp - g.support_bp, 100)) <= TOLERANCE_PP
        assert elapsed < 1.0


def test_criterion_3_full_set_reproduction(announce, fixture_result, catalog, golden):
    with announce(3, "full-set-reproduction"):
        # the constructor satisfied every mandatory constraint, so no unmet
        # cell may involve a reference-rule target (only frequency groups)
        assert fixture_result.report.mandatory_rule_targets == 68
        classified = classify_rules(canonical_sort(derive_rules(fixture_result.database)))
        rows = parse_rules_csv(render_rules(catalog, classified))
        report = validate_rows_against_golden(rows, golden, TOLERANCE_PP)
        assert len(report.matched) == 68
        assert report.missing == ()
        assert report.metric_mismatches == ()


def test_criterion_4_tier_counts(announce, golden):
    with announce(4, "tier-counts"):
        tiers = []
        for g in golden:
            n, joint, _ = reference_counts(g)
            if joint * 10000 >= 9500 * n:
                tiers.append("must_have")
            elif joint * 10000 >= 9000 * n:
                tiers.append("should_have")
            else:
                tiers.append("rejected")
        # the source prose claims 34 top-tier rules, but its printed list
        # holds 33 at >= 95%; the count derived from the list is asserted
        assert tiers.count("must_have") == 33
        assert tiers.count("should_have") == 35
        assert tiers.count("rejected") == 0


def flat_catalog(n_demo, n_fac):
    attrs = [
        AttributeDef(f"d{k}", AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("v",))
        for k in range(n_demo)
    ]
    attrs += [
        AttributeDef(f"f{k}", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))
        for k in range(n_fac)
    ]
    return ItemCatalog(tuple(attrs))


def naive_count(masks, items):
    want = 0
    for i in items:
        want |= 1 << i
    return sum(1 for m in masks if m & want == want)


def brute_levels(masks, n_items, min_count):
    levels = []
    size = 1
    while True:
        level = [
            (combo, naive_count(masks, combo))
            for combo in itertools.combinations(range(n_items), size)
        ]
        level = [(combo, count) for combo, count in level if count >= min_count]
        if not level:
            return levels
        levels.append((size, level))
        size += 1


def brute_rules(masks, n_demo, n_fac, config):
    out = []
    for size in range(1, config.max_antecedent_size + 1):
        for combo in itertools.combinations(range(n_demo), size):
            n_a = naive_count(masks, combo)
            for y in range(n_demo, n_demo + n_fac):
                n_ay = naive_count(masks, combo + (y,))
                if n_ay < config.min_support_count:
                    continue
                floor = config.min_confidence
                if n_ay * floor.denominator < floor.numerator * n_a:
                    continue
                out.append((combo, (y,), n_a, n_ay))
    return sorted(out)


def test_criterion_5_oracle_equivalence(announce):
    with announce(5, "oracle-equivalence"):
        start = time.perf_counter()
        for seed in range(500):
            rng = random.Random(seed)
            n_items = rng.randint(2, 12)
            n_demo = rng.randint(1, n_items - 1)
            n_fac = n_items - n_demo
            m = rng.randint(1, 50)
            masks = [rng.getrandbits(n_items) for _ in range(m)]
            rows = [Transaction(f"t{j}", mask) for j, mask in enumerate(masks)]
            db = TransactionDatabase.build(flat_catalog(n_demo, n_fac), rows)

            min_count = rng.randint(1, m)
            mined = [
                (lvl.k, [(ci.items, ci.count) for ci in lvl.itemsets])
                for lvl in mine_frequent(db, min_count)
            ]
            assert mined == brute_levels(masks, n_items, min_count), f"seed {seed}"

            config = MiningConfig(
                min_confidence=Percent(rng.randint(0, 10_000), 10_000),
                min_support_count=rng.randint(1, max(1, m // 2)),
                max_antecedent_size=rng.randint(1, 4),
            )
            derived = sorted(
                (r.antecedent, r.consequent, r.antecedent_count, r.joint_count)
                for r in derive_rules(db, config)
            )
            assert derived == brute_rules(masks, n_demo, n_fac, config), f"seed {seed}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_6_frequency_table_totals(announce, fixture_db, counts):
    with announce(6, "frequency-table-totals"):
        table = stats_table(fixture_db)
        total_index = [c.label for c in table.columns].index("total")
        assert len(table.rows) == 20
        for row in table.rows:
            published_bp = corpus._FREQUENCY_BP[row.facility][0]
            cell = row.cells[total_index]
            rendered = format_percent(cell, "round")
            published = f"{published_bp // 100}.{published_bp % 100:02d}"
            # round-formatted cell must land within 0.01 pp of the published figure
            assert abs(round(float(rendered) * 100) - published_bp) <= 1, row.facility
            assert rendered == published, row.facility


def test_criterion_7_determinism_and_invariance(announce, fixture_db):
    with announce(7, "determinism-and-invariance"):
        catalog = fixture_db.catalog

        def mined_csv(db):
            classified = classify_rules(canonical_sort(derive_rules(db)))
            return render_rules(catalog, classified)

        baseline = mined_csv(fixture_db)

        shuffled = list(fixture_db.transactions)
        random.Random(2024).shuffle(shuffled)
        permuted_db = TransactionDatabase.build(catalog, shuffled)
        assert mined_csv(permuted_db) == baseline

        tripled = [
            Transaction(f"{t.record_id}_{c}", t.members)
            for c in range(3)
            for t in fixture_db.transactions
        ]
        tripled_db = TransactionDatabase.build(catalog, tripled)
        assert mined_csv(tripled_db) == baseline


def test_criterion_8_desk_scale_performance(announce):
    with announce(8, "desk-scale-performance"):
        m, n_items, density = 100_000, 64, Fraction(1, 5)
        rng = random.Random(20_13)
        per_item = round(m * density)
        row_masks = [0] * m
        for i in range(n_items):
            bit = 1 << i
            for j in rng.sample(range(m), per_item):
                row_masks[j] |= bit
        rows = [Transaction(f"t{j}", mask) for j, mask in enumerate(row_masks)]
        catalog = flat_catalog(0, n_items)

        start = time.perf_counter()
        db = TransactionDatabase.build(catalog, rows)
        levels = mine_frequent(db, m // 20)
        elapsed = time.perf_counter() - start

        assert len(levels[0].itemsets) == n_items  # every item clears 5%
        assert elapsed < 10.0, f"indexing + mining took {elapsed:.1f}s"
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kb < 512 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB"
