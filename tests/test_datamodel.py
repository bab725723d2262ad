import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siterules.datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    MiningConfig,
    NumericBin,
    Percent,
    RuleClass,
    Transaction,
    TransactionDatabase,
    build_vertical_index,
)


OUT_OF_RANGE = "a membership mask is negative or wider than the catalog"


def make_catalog():
    return ItemCatalog(
        (
            AttributeDef("color", AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("red", "blue")),
            AttributeDef("has_door", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",)),
            AttributeDef("size", AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("s", "l")),
        )
    )


@st.composite
def small_catalogs(draw):
    """Declarations of one to four attributes, each a facility or a
    categorical demographic, with names and values from four words:
    "facility" and "yes" among them, so a demographic attribute can share
    its name with the facility items' label and a value with a facility's
    name."""
    words = st.sampled_from(("facility", "yes", "a", "b"))
    declared = []
    for name in draw(st.lists(words, min_size=1, max_size=4, unique=True)):
        if draw(st.booleans()):
            declared.append((name, AttributeKind.BINARY, ItemClass.FACILITY, ("yes",)))
        else:
            values = tuple(draw(st.lists(words, min_size=1, max_size=3, unique=True)))
            declared.append((name, AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, values))
    return declared


def facility_catalog(n_items):
    """One single-item facility attribute per item, so any mask in range is valid."""
    return ItemCatalog(tuple(
        AttributeDef(f"f{i}", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))
        for i in range(n_items)
    ))


class TestPercent:
    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            Percent(1, 0)
        with pytest.raises(ValueError):
            Percent(-1, 5)
        with pytest.raises(ValueError):
            Percent(6, 5)

    def test_equality_is_field_wise(self):
        # a Percent holds counts; thresholds compare them by cross-multiplication
        assert Percent(48, 49) == Percent(48, 49)
        assert hash(Percent(48, 49)) == hash(Percent(48, 49))
        assert Percent(48, 49) != Percent(96, 98)
        assert Percent(1, 2) != (1, 2)

    def test_has_no_ordering(self):
        with pytest.raises(TypeError):
            Percent(1, 2) < Percent(2, 3)
        with pytest.raises(TypeError):
            Percent(1, 2) < 0.5

    def test_basis_points(self):
        assert Percent.from_basis_points(9795) == Percent(9795, 10_000)
        assert Percent.from_basis_points(9500) == Percent(9500, 10_000)

    def test_basis_points_out_of_range(self):
        assert Percent.from_basis_points(0) == Percent(0, 10_000)
        assert Percent.from_basis_points(10_000) == Percent(10_000, 10_000)
        with pytest.raises(ValueError):
            Percent.from_basis_points(10_001)
        with pytest.raises(ValueError):
            Percent.from_basis_points(-1)


class TestCatalog:
    def test_demographic_items_come_first(self):
        catalog = make_catalog()
        classes = [it.item_class for it in catalog.items]
        assert classes == [ItemClass.DEMOGRAPHIC] * 4 + [ItemClass.FACILITY]
        assert catalog.item_id("color", "red") == 0
        assert catalog.item_id("size", "l") == 3
        assert catalog.item_id("has_door", "yes") == 4

    def test_labels_and_pairs(self):
        catalog = make_catalog()
        assert catalog.item_label(0) == "color=red"
        assert catalog.item_label(4) == "facility=has_door"
        assert catalog.item_pair(4) == ("facility", "has_door")
        assert catalog.item_pair(1) == ("color", "blue")

    @given(small_catalogs())
    @settings(max_examples=200, deadline=None)
    def test_item_pairs_name_each_item_once(self, declared):
        # rule files write items as item_pair labels, and validation matches
        # rules by them, so a catalog the model accepts labels each item once
        try:
            catalog = ItemCatalog(tuple(AttributeDef(*d) for d in declared))
        except ValueError as exc:
            assert str(exc) == "'facility' labels facility items; rename the attribute"
            assert ("facility", ItemClass.DEMOGRAPHIC) in [(d[0], d[2]) for d in declared]
            return
        pairs = [catalog.item_pair(i) for i in range(catalog.n_items)]
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("kind, values", [
        (AttributeKind.CATEGORICAL, ("a", "yes")),
        (AttributeKind.BINARY, ("yes",)),
    ])
    def test_a_demographic_attribute_named_facility_is_refused(self, kind, values):
        with pytest.raises(ValueError, match="^'facility' labels facility items; rename"):
            AttributeDef("facility", kind, ItemClass.DEMOGRAPHIC, values)
        # the facility class takes the name: its item's pair is ("facility", "facility")
        AttributeDef("facility", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))

    def test_unknown_lookups(self):
        with pytest.raises(KeyError):
            make_catalog().item_id("color", "green")

    @pytest.mark.parametrize("length", [40, 100_000])
    @pytest.mark.parametrize("kind, values, bins", [
        (AttributeKind.CATEGORICAL, ("a", "a"), ()),
        (AttributeKind.NUMERIC, ("a", "a"), (NumericBin(0, 1, "a"), NumericBin(2, None, "a"))),
    ], ids=["categorical", "numeric"])
    def test_a_long_attribute_name_is_echoed_by_its_start(self, kind, values, bins, length):
        name = "x" * length
        with pytest.raises(ValueError) as info:
            AttributeDef(name, kind, ItemClass.DEMOGRAPHIC, values, bins)
        # a name of up to 40 characters is echoed whole, a longer one by its
        # start and its length
        shown = repr(name) if length <= 40 else f"'{'x' * 20}'... (100000 characters)"
        assert str(info.value) == f"attribute {shown} has duplicate values"
        assert len(str(info.value).encode()) < 1024


class TestDatabase:
    def test_vertical_index_is_transpose(self):
        # only T2 (index 1) holds item 0
        vecs = build_vertical_index(2, [Transaction("a", 0b10), Transaction("b", 0b01), Transaction("c", 0b10)])
        assert vecs[0] == 0b010
        assert vecs[1] == 0b101

    @given(st.lists(st.integers(0, 2 ** 6 - 1), min_size=0, max_size=40))
    @settings(max_examples=150)
    def test_membership_read_back(self, masks):
        rows = [Transaction(f"r{k}", m) for k, m in enumerate(masks)]
        vecs = build_vertical_index(6, rows)
        for j, txn in enumerate(rows):
            for i in range(6):
                assert (vecs[i] >> j & 1) == (txn.members >> i & 1)
        for i in range(6):
            assert vecs[i].bit_count() == sum(1 for t in rows if t.members >> i & 1)

    def test_build_rejects_bad_bits(self):
        # the constructor trusts distinct ids and one value per attribute,
        # which ingest and corpus make so, but refuses a mask out of range
        with pytest.raises(ValueError, match=f"^{OUT_OF_RANGE}$"):
            TransactionDatabase.build(make_catalog(), [Transaction("a", 1 << 5)])

    @pytest.mark.parametrize("rows", [[("a", -5)], [("b", 0), ("a", -5)], [("a", -5), ("b", 0)]])
    def test_negative_mask_is_refused(self, rows):
        # format(-5, "05b") is "-0101": as wide as a valid mask of 5 items.
        with pytest.raises(ValueError, match=f"^{OUT_OF_RANGE}$"):
            TransactionDatabase.build(make_catalog(), [Transaction(r, m) for r, m in rows])
        with pytest.raises(ValueError, match=f"^{OUT_OF_RANGE}$"):
            TransactionDatabase(make_catalog(), [r for r, _ in rows], [m for _, m in rows])
        with pytest.raises(ValueError):
            build_vertical_index(5, [Transaction(r, m) for r, m in rows])

    def test_mask_wider_than_catalog_rejected_by_transpose(self):
        with pytest.raises(ValueError):
            build_vertical_index(3, [Transaction("a", 1), Transaction("b", 1 << 3)])
        with pytest.raises(ValueError):
            build_vertical_index(0, [Transaction("a", 1)])

    @pytest.mark.parametrize("n_items", [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128])
    def test_mask_one_bit_wider_than_the_catalog_rejected_at_each_width(self, n_items):
        # a 28-item catalog packs 32-bit words, which would hold bit 28
        full = Transaction("a", (1 << n_items) - 1)
        assert build_vertical_index(n_items, [full])[n_items - 1] == 1
        self.assert_mask_refused(n_items, 1 << n_items)

    @pytest.mark.parametrize("n_items", [8, 64, 65])
    def test_negative_mask_rejected_at_each_width(self, n_items):
        # -1 fills every word of one 8- or 64-bit row; 65 items take two words
        self.assert_mask_refused(n_items, -1)

    @staticmethod
    def assert_mask_refused(n_items, mask):
        catalog = facility_catalog(n_items)
        full = (1 << n_items) - 1
        with pytest.raises(ValueError):
            build_vertical_index(n_items, [Transaction("a", full), Transaction("b", mask)])
        with pytest.raises(ValueError, match=f"^{OUT_OF_RANGE}$"):
            TransactionDatabase(catalog, ["a", "b"], [full, mask])
        with pytest.raises(ValueError, match=f"^{OUT_OF_RANGE}$"):
            TransactionDatabase.build(catalog, [Transaction("a", full), Transaction("b", mask)])

    def test_negative_excluded_count_is_refused_by_every_way_in(self):
        message = "^excluded_count must be non-negative$"
        with pytest.raises(ValueError, match=message):
            TransactionDatabase(make_catalog(), ["a"], [1], excluded_count=-1)
        with pytest.raises(ValueError, match=message):
            TransactionDatabase.build(make_catalog(), [Transaction("a", 1)], excluded_count=-1)

    @pytest.mark.parametrize(
        "n_items", [0, 1, 7, 8, 9, 15, 16, 17, 28, 31, 32, 33, 63, 64, 65, 128, 129]
    )
    @pytest.mark.parametrize(
        "n_rows", [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 8191, 8192, 8193]
    )
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=2, deadline=None)
    def test_transpose_matches_per_bit_reference(self, n_items, n_rows, seed):
        rng = random.Random(seed)
        rows = [
            Transaction(f"r{j}", rng.getrandbits(n_items) & rng.getrandbits(n_items))
            for j in range(n_rows)
        ]
        expected = [0] * n_items
        for j, txn in enumerate(rows):
            for i in range(n_items):
                if txn.members >> i & 1:
                    expected[i] |= 1 << j
        assert build_vertical_index(n_items, rows) == tuple(expected)
        # the constructor derives the same index from the same rows
        db = TransactionDatabase(
            facility_catalog(n_items), [t.record_id for t in rows], [t.members for t in rows]
        )
        assert db.vertical_index == tuple(expected)

    @pytest.mark.parametrize("record_ids, masks", [(["a"], [1, 1, 1]), (["a", "b", "c"], [1])])
    def test_constructor_refuses_columns_of_different_lengths(self, record_ids, masks):
        # the constructor trusts distinct ids and one value per attribute,
        # but not that the columns pair up: 1 id with 3 masks would count a
        # support of 3 in a database of size 1
        message = f"column lengths differ: {len(record_ids)} record ids, {len(masks)} masks"
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransactionDatabase(make_catalog(), record_ids, masks)

    def test_vertical_index_is_not_a_field(self):
        assert "vertical_index" not in TransactionDatabase._fields
        db = TransactionDatabase(make_catalog(), ["a", "b"], [0b10, 0b101], 3)
        again = pickle.loads(pickle.dumps(db))
        assert again == db
        assert again.vertical_index == db.vertical_index == (0b10, 0b01, 0b10, 0, 0)
        assert repr(db) == (
            f"TransactionDatabase(catalog={db.catalog!r}, record_ids=('a', 'b'), "
            "masks=(2, 5), excluded_count=3)"
        )

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts to strings of any length here",
    )
    def test_repr_of_a_database_wider_than_the_int_digit_limit(self):
        # an item vector of 15,000 bits has over 4,300 decimal digits
        n_rows = 15_000
        db = TransactionDatabase(make_catalog(), [f"r{j}" for j in range(n_rows)], [0b100] * n_rows)
        assert db.vertical_index[2] == (1 << n_rows) - 1
        assert repr(db).startswith("TransactionDatabase(catalog=")

    def test_excluded_count_tracked(self):
        catalog = make_catalog()
        db = TransactionDatabase.build(catalog, [Transaction("a", 1)], excluded_count=9)
        assert db.size == 1
        assert db.excluded_count == 9


def test_rule_class_orders_by_strength():
    assert RuleClass.REJECTED < RuleClass.SHOULD_HAVE < RuleClass.MUST_HAVE
    assert RuleClass.MUST_HAVE.label == "must_have"


def test_mining_config_defaults_are_the_study_setting():
    assert MiningConfig() == (Percent(90, 100), 1, 2)
