import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siterules.datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    Transaction,
    TransactionDatabase,
)
from siterules.engine import CountedItemset, FrequentLevel, count_support, generate_candidates, mine_frequent


def flat_catalog(n_items):
    """One single-item facility attribute per item, so any bitmask is valid."""
    return ItemCatalog(
        tuple(
            AttributeDef(f"i{k}", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))
            for k in range(n_items)
        )
    )


def db_from_masks(masks, n_items):
    rows = [Transaction(f"t{j}", m) for j, m in enumerate(masks)]
    return TransactionDatabase.build(flat_catalog(n_items), rows)


def naive_count(masks, items):
    want = 0
    for i in items:
        want |= 1 << i
    return sum(1 for m in masks if m & want == want)


def brute_force_levels(masks, n_items, min_count):
    levels = []
    k = 1
    while True:
        level = [
            (combo, naive_count(masks, combo))
            for combo in itertools.combinations(range(n_items), k)
        ]
        level = [(combo, c) for combo, c in level if c >= min_count]
        if not level:
            break
        levels.append((k, level))
        k += 1
    return levels


def as_plain(levels):
    return [(lvl.k, [(ci.items, ci.count) for ci in lvl.itemsets]) for lvl in levels]


class TestCountSupport:
    def test_empty_itemset_counts_everything(self):
        db = db_from_masks([0b01, 0b10, 0b11], 2)
        assert count_support(db, ()) == 3

    @given(st.lists(st.integers(0, 2 ** 10 - 1), min_size=1, max_size=20), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_scan(self, masks, data):
        db = db_from_masks(masks, 10)
        items = data.draw(st.lists(st.integers(0, 9), max_size=4, unique=True))
        assert count_support(db, tuple(sorted(items))) == naive_count(masks, items)

    def test_governmental_count_on_fixture(self, fixture_db):
        gov = fixture_db.catalog.item_id("ownership", "governmental")
        assert count_support(fixture_db, (gov,)) == 49

    @given(st.lists(st.integers(0, 2 ** 8 - 1), min_size=1, max_size=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_anti_monotone(self, masks, data):
        db = db_from_masks(masks, 8)
        small = data.draw(st.lists(st.integers(0, 7), max_size=3, unique=True))
        extra = data.draw(st.lists(st.integers(0, 7), max_size=3, unique=True))
        sub = tuple(sorted(set(small)))
        sup = tuple(sorted(set(small) | set(extra)))
        assert count_support(db, sub) >= count_support(db, sup)


def level_of(sets_with_counts):
    k = len(sets_with_counts[0][0])
    return FrequentLevel(k, tuple(CountedItemset(s, c) for s, c in sets_with_counts))


class TestGenerateCandidates:
    def test_full_join(self):
        level = level_of([((0, 1), 2), ((0, 2), 2), ((1, 2), 2)])
        assert generate_candidates(level) == [(0, 1, 2)]

    def test_pruned_when_subset_missing(self):
        level = level_of([((0, 1), 2), ((0, 2), 2), ((1, 3), 2)])
        assert generate_candidates(level) == []

    def test_empty_level(self):
        assert generate_candidates(FrequentLevel(2, ())) == []

    def test_candidate_soundness_and_completeness(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 9)
            masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 30))]
            min_count = rng.randint(1, 5)
            brute = dict(
                ((k, tuple(s for s, _ in lvl)) for k, lvl in brute_force_levels(masks, n, min_count))
            )
            for k, frequent in brute.items():
                if k + 1 not in brute:
                    continue
                cands = generate_candidates(
                    level_of([(s, naive_count(masks, s)) for s in frequent])
                )
                # complete: every truly frequent (k+1)-set is proposed
                assert set(brute[k + 1]) <= set(cands)
                # sound: every candidate has all k-subsets frequent
                for cand in cands:
                    for drop in range(len(cand)):
                        assert cand[:drop] + cand[drop + 1:] in set(frequent)

    def test_bounded_candidates_are_unbounded_ones_with_one_leaf(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 9)
            masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 30))]
            leaf_from = rng.randint(0, n)
            for _, frequent in brute_force_levels(masks, n, rng.randint(1, 5)):
                level = level_of(frequent)
                bounded = generate_candidates(level, leaf_from=leaf_from)
                assert set(bounded) <= set(generate_candidates(level))
                assert all(sum(i >= leaf_from for i in cand) <= 1 for cand in bounded)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_candidates_are_exactly_the_unpruned_extensions_in_order(self, data):
        # levels closed downward from a few random sets, plus random k-sets:
        # many joins survive the prune and many do not
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(k, 8))
        grown = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k), max_size=4))
        loose = data.draw(
            st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k), max_size=12)
        )
        sets = {sub for s in grown for sub in itertools.combinations(sorted(s), k)}
        sets |= {tuple(sorted(s)) for s in loose}
        level = FrequentLevel(k, tuple(CountedItemset(s, 1) for s in sorted(sets)))
        leaf_from = data.draw(st.none() | st.integers(0, n))
        expected = [
            cand
            for cand in itertools.combinations(range(n), k + 1)
            if all(sub in sets for sub in itertools.combinations(cand, k))
            and (leaf_from is None or all(i < leaf_from for i in cand[:-1]))
        ]
        assert generate_candidates(level, leaf_from=leaf_from) == expected


class TestMineFrequent:
    def test_worked_example(self):
        # T1={a,b}, T2={a,c}, T3={a,b,c}, T4={b}; a=0 b=1 c=2
        db = db_from_masks([0b011, 0b101, 0b111, 0b010], 3)
        got = as_plain(mine_frequent(db, 2))
        assert got == [
            (1, [((0,), 3), ((1,), 3), ((2,), 2)]),
            (2, [((0, 1), 2), ((0, 2), 2)]),
        ]

    def test_threshold_above_size_yields_nothing(self):
        db = db_from_masks([0b11, 0b11], 2)
        assert mine_frequent(db, 3) == []

    def test_empty_database_has_no_frequent_itemset(self):
        assert mine_frequent(db_from_masks([], 2), 1) == []

    def test_max_size_caps_levels(self):
        db = db_from_masks([0b111] * 4, 3)
        levels = mine_frequent(db, 1, max_size=2)
        assert [lvl.k for lvl in levels] == [1, 2]

    def test_matches_brute_force_on_random_databases(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 10)
            m = rng.randint(1, 40)
            masks = [rng.getrandbits(n) for _ in range(m)]
            min_count = rng.randint(1, m)
            db = db_from_masks(masks, n)
            assert as_plain(mine_frequent(db, min_count)) == brute_force_levels(masks, n, min_count)

    def test_transaction_order_invariance(self):
        rng = random.Random(3)
        masks = [rng.getrandbits(8) for _ in range(30)]
        shuffled = masks[:]
        rng.shuffle(shuffled)
        a = as_plain(mine_frequent(db_from_masks(masks, 8), 3))
        b = as_plain(mine_frequent(db_from_masks(shuffled, 8), 3))
        assert a == b

    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=30),
                st.integers(1, 4),
                st.integers(1, 5),
                st.integers(0, n),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_mining_matches_filtered_brute_force(self, case):
        n, masks, min_count, max_size, leaf_from = case
        expected = []
        for k, level in brute_force_levels(masks, n, min_count)[:max_size]:
            level = [(s, c) for s, c in level if sum(i >= leaf_from for i in s) <= 1]
            if not level:
                break
            expected.append((k, level))
        got = mine_frequent(db_from_masks(masks, n), min_count, max_size, leaf_from=leaf_from)
        assert as_plain(got) == expected

    @given(
        st.integers(6, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # the union of three random masks sets each bit with odds 7/8
                st.lists(
                    st.tuples(*[st.integers(0, 2**n - 1)] * 3).map(lambda t: t[0] | t[1] | t[2]),
                    min_size=8,
                    max_size=24,
                ),
                st.integers(1, 4),
                st.integers(5, n),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_deep_lattices_match_brute_force(self, case):
        # With six or more levels, consecutive candidate prefixes differ at
        # every position, so prefixes of every length are built.
        n, masks, min_count, leaf_from = case
        expected = brute_force_levels(masks, n, min_count)
        assume(len(expected) >= 6)
        db = db_from_masks(masks, n)
        assert as_plain(mine_frequent(db, min_count)) == expected
        bounded = []
        for k, level in expected:
            level = [(s, c) for s, c in level if sum(i >= leaf_from for i in s) <= 1]
            if not level:
                break
            bounded.append((k, level))
        assert as_plain(mine_frequent(db, min_count, leaf_from=leaf_from)) == bounded
