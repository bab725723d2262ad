import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siterules.classify import classify_rules
from siterules.datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    MiningConfig,
    Percent,
    Rule,
    Transaction,
    TransactionDatabase,
)
from siterules.report import render_rules
from siterules.rules import canonical_sort, derive_rules


def tiny_catalog(n_demo, n_fac):
    attrs = [
        AttributeDef(f"d{k}", AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("v",))
        for k in range(n_demo)
    ]
    attrs += [
        AttributeDef(f"f{k}", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))
        for k in range(n_fac)
    ]
    return ItemCatalog(tuple(attrs))


def tiny_db(masks, n_demo, n_fac):
    rows = [Transaction(f"t{j}", m) for j, m in enumerate(masks)]
    return TransactionDatabase.build(tiny_catalog(n_demo, n_fac), rows)


def brute_force_rules(masks, n_demo, n_fac, config):
    def count(items):
        want = sum(1 << i for i in items)
        return sum(1 for m in masks if m & want == want)

    out = []
    for size in range(1, config.max_antecedent_size + 1):
        for combo in itertools.combinations(range(n_demo), size):
            n_a = count(combo)
            for y in range(n_demo, n_demo + n_fac):
                n_ay = count(combo + (y,))
                if n_ay < config.min_support_count:
                    continue
                floor = config.min_confidence
                if n_ay * floor.denominator < floor.numerator * n_a:
                    continue
                out.append((combo, (y,), n_a, n_ay))
    return sorted(out)


def as_tuples(ruleset):
    return sorted(
        (r.antecedent, r.consequent, r.antecedent_count, r.joint_count) for r in ruleset
    )


class TestDeriveRules:
    def test_fixture_reproduces_published_counts(self, fixture_db):
        catalog = fixture_db.catalog
        ruleset = derive_rules(fixture_db)
        by_items = {(r.antecedent, r.consequent): r for r in ruleset}
        below10 = catalog.item_id("age", "below10")
        about = catalog.item_id("about_us", "yes")
        rule = by_items[((below10,), (about,))]
        assert (rule.antecedent_count, rule.joint_count) == (11, 11)

        gov = catalog.item_id("ownership", "governmental")
        rule = by_items[((gov,), (about,))]
        assert (rule.antecedent_count, rule.joint_count) == (49, 48)

    def test_universal_facility_pairs_with_every_antecedent(self):
        # facility bit always on; two demographic groups
        masks = [0b1001, 0b1010, 0b1001]
        db = tiny_db(masks, 3, 1)
        ruleset = derive_rules(db, MiningConfig(max_antecedent_size=1))
        antecedents = {r.antecedent for r in ruleset}
        assert antecedents == {(0,), (1,)}
        assert all(r.joint_count == r.antecedent_count for r in ruleset)

    def test_confidence_threshold_filters(self):
        # d0 in all four rows, facility in three of them
        masks = [0b11, 0b11, 0b11, 0b01]
        db = tiny_db(masks, 1, 1)
        assert len(derive_rules(db, MiningConfig(min_confidence=Percent(75, 100)))) == 1
        assert len(derive_rules(db, MiningConfig(min_confidence=Percent(76, 100)))) == 0

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(99)
        for _ in range(40):
            n_demo = rng.randint(1, 5)
            n_fac = rng.randint(1, 5)
            m = rng.randint(1, 30)
            masks = [rng.getrandbits(n_demo + n_fac) for _ in range(m)]
            config = MiningConfig(
                min_confidence=Percent(rng.randint(0, 10_000), 10_000),
                min_support_count=rng.randint(1, max(1, m // 2)),
                max_antecedent_size=rng.randint(1, 3),
            )
            db = tiny_db(masks, n_demo, n_fac)
            ruleset = derive_rules(db, config)
            assert as_tuples(ruleset) == brute_force_rules(masks, n_demo, n_fac, config)
            for rule in ruleset:
                # Rule is a bare record: its one producer keeps its contract
                assert list(rule.antecedent) == sorted(set(rule.antecedent))
                assert rule.antecedent and rule.antecedent[-1] < n_demo <= rule.consequent[0]
                assert len(rule.consequent) == 1 and rule.consequent[0] < n_demo + n_fac
                assert 0 < rule.joint_count <= rule.antecedent_count <= rule.db_size == m

    def test_mining_depth_stops_at_the_demographic_attribute_count(self, fixture_db, monkeypatch):
        # an antecedent holds at most one item per demographic attribute, so a
        # larger cap only mines facility-only itemsets that yield no rule
        sizes = []

        def spy(db, min_count, max_size=None, *, leaf_from=None):
            sizes.append(max_size)
            return []

        monkeypatch.setattr("siterules.rules.mine_frequent", spy)
        n_demographic = sum(
            a.item_class is ItemClass.DEMOGRAPHIC for a in fixture_db.catalog.attributes
        )
        derive_rules(fixture_db, MiningConfig(max_antecedent_size=50))
        derive_rules(fixture_db, MiningConfig(max_antecedent_size=2))
        assert sizes[0] <= n_demographic + 1
        assert sizes[1] == 3

    def test_raising_min_confidence_shrinks_rule_set(self, fixture_db):
        loose = derive_rules(fixture_db, MiningConfig(min_confidence=Percent(90, 100)))
        tight = derive_rules(fixture_db, MiningConfig(min_confidence=Percent(95, 100)))
        assert set(as_tuples(tight)) <= set(as_tuples(loose))
        assert all(r.joint_count * 100 >= 95 * r.antecedent_count for r in tight)

    def test_duplicating_transactions_changes_no_metric(self, fixture_db):
        catalog = fixture_db.catalog
        tripled = [
            Transaction(f"{t.record_id}_{c}", t.members)
            for c in range(3)
            for t in fixture_db.transactions
        ]
        db3 = TransactionDatabase.build(catalog, tripled)
        base = canonical_sort(derive_rules(fixture_db))
        big = canonical_sort(derive_rules(db3))

        def metrics(r):
            confidence = Fraction(r.joint_count, r.antecedent_count)
            coverage = Fraction(r.antecedent_count, r.db_size)
            return r.antecedent, r.consequent, confidence, coverage, confidence * coverage

        assert list(map(metrics, base)) == list(map(metrics, big))
        assert render_rules(catalog, classify_rules(base)) == render_rules(
            catalog, classify_rules(big)
        )


def confidence(rule):
    return Fraction(rule.joint_count, rule.antecedent_count)


class TestConfidenceFloor:
    """``min_confidence`` is an exact ratio: a rule is kept iff its confidence
    is at least the floor, whatever terms the floor is written in."""

    @pytest.fixture(scope="class")
    def every_rule(self, fixture_db):
        return derive_rules(fixture_db, MiningConfig(min_confidence=Percent(0, 1)))

    def test_each_floor_keeps_the_rules_at_or_above_it(self, fixture_db, every_rule):
        ratios = sorted({confidence(r) for r in every_rule})
        assert len(ratios) > 100 and ratios[-1] == 1
        for ratio in ratios:
            floor = Percent(ratio.numerator, ratio.denominator)
            kept = derive_rules(fixture_db, MiningConfig(min_confidence=floor))
            assert kept == tuple(r for r in every_rule if confidence(r) >= ratio)

    def test_a_floor_just_above_a_rule_drops_it(self, fixture_db, every_rule):
        # 1/(10**6 * d) above a/d: closer than any two ratios of counts <= 91
        for ratio in sorted({confidence(r) for r in every_rule})[:-1]:
            floor = Percent(ratio.numerator * 10**6 + 1, ratio.denominator * 10**6)
            kept = derive_rules(fixture_db, MiningConfig(min_confidence=floor))
            assert kept == tuple(r for r in every_rule if confidence(r) > ratio)

    def test_equal_ratios_decide_alike(self, fixture_db):
        for a, b in [(9, 10), (19, 20), (48, 49), (18, 19), (1, 1)]:
            runs = {
                derive_rules(fixture_db, MiningConfig(min_confidence=Percent(k * a, k * b)))
                for k in (1, 2, 7, 10**4)
            }
            assert len(runs) == 1


class TestCanonicalSort:
    def test_confidence_descending(self):
        rules = (
            Rule((0,), (9,), 20, 18, 91),   # 90%
            Rule((1,), (9,), 49, 48, 91),   # 97.95%
            Rule((2,), (9,), 11, 11, 91),   # 100%
        )
        got = canonical_sort(rules)
        assert [(r.joint_count, r.antecedent_count) for r in got] == [(11, 11), (48, 49), (18, 20)]

    def test_tie_break_by_size_then_items(self):
        rules = (
            Rule((1, 2), (9,), 10, 10, 91),
            Rule((0,), (9,), 10, 10, 91),
            Rule((0, 2), (9,), 10, 10, 91),
            Rule((0,), (8,), 10, 10, 91),
        )
        got = canonical_sort(rules)
        assert [(r.antecedent, r.consequent) for r in got] == [
            ((0,), (8,)), ((0,), (9,)), ((0, 2), (9,)), ((1, 2), (9,)),
        ]

    def test_permutation_invariance(self, fixture_db):
        rules = derive_rules(fixture_db)
        rng = random.Random(5)
        shuffled = list(rules)
        rng.shuffle(shuffled)
        assert canonical_sort(shuffled) == canonical_sort(rules)

    @given(
        specs=st.lists(
            st.tuples(
                st.sets(st.integers(0, 4), min_size=1, max_size=3),
                st.integers(5, 7),
                st.integers(1, 6),
                st.integers(0, 6),
            ),
            max_size=40,
        ),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    # Near-ties of large counts, the higher confidence on the longer
    # antecedent, so a key that ties them sorts them the wrong way round: a
    # key scaled to basis points ties 99,999/100,000 and 99,998/99,999, and a
    # float key ties 999,999,999/10**9 and 999,999,998/999,999,999. Equal
    # ratios of far-apart counts must tie, and sort by the antecedent.
    @example(
        specs=[({0, 1}, 5, 100_000, 99_999), ({2}, 5, 99_999, 99_998)], rng=random.Random(0)
    )
    @example(
        specs=[({0, 1}, 5, 10**9, 10**9 - 1), ({2}, 5, 10**9 - 1, 10**9 - 2)],
        rng=random.Random(0),
    )
    @example(
        specs=[({0, 1}, 5, 6, 3), ({2}, 5, 1_000_000, 500_000), ({1}, 6, 999_999, 499_999)],
        rng=random.Random(0),
    )
    def test_matches_the_single_key_sort(self, specs, rng):
        # denominators up to 6 tie many confidences (1/2 = 2/4 = 3/6), and
        # equal rules may repeat, so the order of ties is checked too
        rules = [
            Rule(tuple(sorted(ante)), (cons,), n_ante, min(joint, n_ante), 10**9)
            for ante, cons, n_ante, joint in specs
        ]
        rng.shuffle(rules)
        reference = sorted(
            rules,
            key=lambda r: (
                -Fraction(r.joint_count, r.antecedent_count), len(r.antecedent), r.antecedent,
                r.consequent,
            ),
        )
        assert canonical_sort(rules) == tuple(reference)
