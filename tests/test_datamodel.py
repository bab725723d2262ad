import pickle
import random
import sys
from fractions import Fraction

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
    Rule,
    RuleClass,
    Transaction,
    TransactionDatabase,
    build_vertical_index,
)


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

    def test_equality_is_rational(self):
        assert Percent(48, 49) == Percent(96, 98)
        assert hash(Percent(48, 49)) == hash(Percent(96, 98))
        assert Percent(1, 3) != Percent(33, 100)
        assert Percent(1, 2) != (1, 2)

    @given(
        st.integers(0, 500), st.integers(1, 500),
        st.integers(0, 500), st.integers(1, 500),
    )
    @settings(max_examples=200)
    def test_ordering_matches_fractions(self, a, b, c, d):
        a, c = min(a, b), min(c, d)
        left, right = Percent(a, b), Percent(c, d)
        assert (left < right) == (Fraction(a, b) < Fraction(c, d))
        assert (left <= right) == (Fraction(a, b) <= Fraction(c, d))
        assert (left == right) == (Fraction(a, b) == Fraction(c, d))
        assert (left != right) == (Fraction(a, b) != Fraction(c, d))
        assert (left > right) == (Fraction(a, b) > Fraction(c, d))
        assert (left >= right) == (Fraction(a, b) >= Fraction(c, d))

    def test_ordering_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            Percent(1, 2) < 3
        with pytest.raises(TypeError):
            Percent(1, 2) < 0.5

    def test_basis_points(self):
        assert Percent.from_basis_points(9795) == Percent(9795, 10_000)
        assert Percent.from_basis_points(9500) == Percent(95, 100)


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
        assert catalog.resolve_pair(("facility", "has_door")) == 4
        assert catalog.resolve_pair(("color", "blue")) == 1

    def test_a_facility_pair_resolves_only_to_a_facility_item(self):
        # member=yes is a demographic item; ("facility", "member") names none
        catalog = ItemCatalog((
            AttributeDef("member", AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("yes", "no")),
            AttributeDef("has_door", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",)),
        ))
        with pytest.raises(KeyError) as info:
            catalog.resolve_pair(("facility", "member"))
        assert info.value.args == ("no facility 'member' in catalog",)
        for catalog in (catalog, make_catalog()):
            for i in range(catalog.n_items):
                assert catalog.resolve_pair(catalog.item_pair(i)) == i

    @pytest.mark.parametrize(
        "lookup, says",
        [
            (lambda c, name: c.item_id(name, "yes"), "no item {shown}='yes' in catalog"),
            (lambda c, name: c.item_id("color", name), "no item 'color'={shown} in catalog"),
            (lambda c, name: c.resolve_pair((name, "red")), "no item {shown}='red' in catalog"),
            (lambda c, name: c.resolve_pair(("facility", name)), "no facility {shown} in catalog"),
        ],
        ids=["item_id attribute", "item_id value", "resolve_pair attribute", "resolve_pair facility"],
    )
    @pytest.mark.parametrize("length", [5, 100_000])
    def test_an_unknown_item_echoes_long_names_by_their_start(self, lookup, says, length):
        name = "x" * length
        with pytest.raises(KeyError) as info:
            lookup(make_catalog(), name)
        shown = repr(name) if length <= 40 else f"'{'x' * 20}'... (100000 characters)"
        assert info.value.args == (says.format(shown=shown),)
        assert len(str(info.value).encode()) < 1024

    @given(small_catalogs())
    @settings(max_examples=200, deadline=None)
    def test_item_pairs_name_each_item_once(self, declared):
        # rule files write items as item_pair labels and read them back
        # through resolve_pair, so a catalog the model accepts maps its items
        # one to one onto their pairs
        try:
            catalog = ItemCatalog(tuple(AttributeDef(*d) for d in declared))
        except ValueError as exc:
            assert str(exc) == "'facility' labels facility items; rename the attribute"
            assert ("facility", ItemClass.DEMOGRAPHIC) in [(d[0], d[2]) for d in declared]
            return
        pairs = [catalog.item_pair(i) for i in range(catalog.n_items)]
        assert len(set(pairs)) == len(pairs)
        assert [catalog.resolve_pair(pair) for pair in pairs] == list(range(catalog.n_items))

    @pytest.mark.parametrize("kind, values", [
        (AttributeKind.CATEGORICAL, ("a", "yes")),
        (AttributeKind.BINARY, ("yes",)),
    ])
    def test_a_demographic_attribute_named_facility_is_refused(self, kind, values):
        with pytest.raises(ValueError, match="^'facility' labels facility items; rename"):
            AttributeDef("facility", kind, ItemClass.DEMOGRAPHIC, values)
        # the facility class takes the name: its item's pair is ("facility", "facility")
        AttributeDef("facility", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))

    def test_facility_attributes_must_be_binary(self):
        with pytest.raises(ValueError, match="facility attributes must be binary"):
            AttributeDef("size", AttributeKind.CATEGORICAL, ItemClass.FACILITY, ("small", "big"))

    def test_duplicate_attribute_rejected(self):
        attr = AttributeDef("x", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))
        with pytest.raises(ValueError):
            ItemCatalog((attr, attr))

    def test_unknown_lookups(self):
        catalog = make_catalog()
        with pytest.raises(KeyError):
            catalog.item_id("color", "green")
        with pytest.raises(KeyError):
            catalog.attribute("nope")

    @pytest.mark.parametrize("length", [40, 100_000])
    @pytest.mark.parametrize(
        "kind, item_class, values, bins, message",
        [
            (AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, (), (),
             "attribute {} declares no values"),
            (AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("a", "a"), (),
             "attribute {} has duplicate values"),
            (AttributeKind.NUMERIC, ItemClass.DEMOGRAPHIC, ("a",), (),
             "attribute {}: bin labels must match values"),
            (AttributeKind.CATEGORICAL, ItemClass.DEMOGRAPHIC, ("a",), (NumericBin(0, None, "a"),),
             "attribute {}: only numeric attributes take bins"),
            (AttributeKind.BINARY, ItemClass.FACILITY, ("yes", "no"), (),
             "attribute {}: binary attributes have exactly one item"),
            (AttributeKind.CATEGORICAL, ItemClass.FACILITY, ("a",), (),
             "attribute {}: facility attributes must be binary"),
        ],
        ids=["no-values", "duplicate", "bin-labels", "bins", "binary", "facility"],
    )
    def test_a_long_attribute_name_is_echoed_by_its_start(
        self, kind, item_class, values, bins, message, length
    ):
        name = "x" * length
        with pytest.raises(ValueError) as info:
            AttributeDef(name, kind, item_class, values, bins)
        # a name of up to 40 characters is echoed whole, a longer one by its
        # start and its length
        shown = repr(name) if length <= 40 else f"'{'x' * 20}'... (100000 characters)"
        assert str(info.value) == message.format(shown)
        assert len(str(info.value).encode()) < 1024

    @pytest.mark.parametrize("length", [40, 100_000])
    def test_an_unknown_long_attribute_is_echoed_by_its_start(self, length):
        name = "x" * length
        with pytest.raises(KeyError) as info:
            make_catalog().attribute(name)
        shown = repr(name) if length <= 40 else f"'{'x' * 20}'... (100000 characters)"
        assert info.value.args == (f"no attribute {shown} in catalog",)
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

    def test_build_rejects_duplicates_and_bad_bits(self):
        catalog = make_catalog()
        with pytest.raises(ValueError, match="duplicate record_id"):
            TransactionDatabase.build(catalog, [Transaction("a", 0), Transaction("a", 0)])
        with pytest.raises(ValueError, match="outside the catalog"):
            TransactionDatabase.build(catalog, [Transaction("a", 1 << 5)])

    def test_build_rejects_conflicting_categorical_values(self):
        catalog = make_catalog()
        both_colors = (1 << 0) | (1 << 1)
        with pytest.raises(ValueError, match="record 'a' sets multiple values of one attribute"):
            TransactionDatabase.build(catalog, [Transaction("a", both_colors)])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([("a", 0), ("b", 0b11), ("a", 0)], "record 'b' sets multiple values"),
            ([("a", 0), ("a", 0), ("b", 0b11)], "duplicate record_id 'a'"),
            ([("a", 0), ("b", 1 << 9), ("c", 0b11)], "record 'b' sets an item id outside"),
            ([("a", 0b10100), ("b", 0b11), ("c", 1 << 9)], "record 'b' sets multiple values"),
        ],
    )
    def test_build_names_the_first_offending_record(self, rows, message):
        with pytest.raises(ValueError, match=message):
            TransactionDatabase.build(make_catalog(), [Transaction(r, m) for r, m in rows])

    @pytest.mark.parametrize("rows", [[("a", -5)], [("b", 0), ("a", -5)], [("a", -5), ("b", 0)]])
    def test_negative_mask_names_its_record(self, rows):
        # format(-5, "05b") is "-0101": as wide as a valid mask of 5 items.
        with pytest.raises(ValueError, match="record 'a' has a negative membership mask"):
            TransactionDatabase.build(make_catalog(), [Transaction(r, m) for r, m in rows])
        with pytest.raises(ValueError, match="record 'a' has a negative membership mask"):
            TransactionDatabase.from_columns(make_catalog(), [r for r, _ in rows], [m for _, m in rows])
        with pytest.raises(ValueError):
            build_vertical_index(5, [Transaction(r, m) for r, m in rows])

    @pytest.mark.parametrize(
        "masks, says",
        [
            ([0, 0], "duplicate record_id "),
            ([-1], "has a negative membership mask"),
            ([1 << 5], "sets an item id outside the catalog"),
            ([0b11], "sets multiple values of one attribute"),
        ],
        ids=["duplicate", "negative", "outside", "multiple"],
    )
    def test_a_long_record_id_is_echoed_by_its_start(self, masks, says):
        long_id = "x" * 100_000
        with pytest.raises(ValueError) as info:
            TransactionDatabase.from_columns(make_catalog(), [long_id] * len(masks), masks)
        message = str(info.value)
        assert says in message and len(message.encode()) < 1024
        # the echo is the id's start, then its length
        assert f"'{'x' * 20}'... (100000 characters)" in message

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
        self.assert_mask_refused(n_items, 1 << n_items, "sets an item id outside the catalog")

    @pytest.mark.parametrize("n_items", [8, 64, 65])
    def test_negative_mask_rejected_at_each_width(self, n_items):
        # -1 fills every word of one 8- or 64-bit row; 65 items take two words
        self.assert_mask_refused(n_items, -1, "has a negative membership mask")

    @staticmethod
    def assert_mask_refused(n_items, mask, says):
        catalog = facility_catalog(n_items)
        full = (1 << n_items) - 1
        with pytest.raises(ValueError):
            build_vertical_index(n_items, [Transaction("a", full), Transaction("b", mask)])
        with pytest.raises(ValueError, match="^a membership mask is negative or wider than the catalog$"):
            TransactionDatabase(catalog, ["a", "b"], [full, mask])
        with pytest.raises(ValueError, match=f"^record 'b' {says}$"):
            TransactionDatabase.from_columns(catalog, ["a", "b"], [full, mask])

    def test_negative_excluded_count_is_refused_by_every_way_in(self):
        # from_columns catches only the constructor's mask-range refusal
        message = "^excluded_count must be non-negative$"
        with pytest.raises(ValueError, match=message):
            TransactionDatabase.from_columns(make_catalog(), ["a"], [1], excluded_count=-1)
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
    def test_from_columns_refuses_columns_of_different_lengths(self, record_ids, masks):
        message = f"column lengths differ: {len(record_ids)} record ids, {len(masks)} masks"
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransactionDatabase.from_columns(make_catalog(), record_ids, masks)

    @pytest.mark.parametrize("record_ids, masks", [(["a"], [1, 1, 1]), (["a", "b", "c"], [1])])
    def test_constructor_refuses_columns_of_different_lengths(self, record_ids, masks):
        # the constructor trusts what from_columns screens, but not that the
        # columns pair up: 1 id with 3 masks would count a support of 3 in a
        # database of size 1
        message = f"column lengths differ: {len(record_ids)} record ids, {len(masks)} masks"
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransactionDatabase(make_catalog(), record_ids, masks)

    def test_vertical_index_is_not_a_field(self):
        assert "vertical_index" not in TransactionDatabase._fields
        db = TransactionDatabase.from_columns(make_catalog(), ["a", "b"], [0b10, 0b101], 3)
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
        db = TransactionDatabase.from_columns(
            make_catalog(), [f"r{j}" for j in range(n_rows)], [0b100] * n_rows
        )
        assert db.vertical_index[2] == (1 << n_rows) - 1
        assert repr(db).startswith("TransactionDatabase(catalog=")

    def test_excluded_count_tracked(self):
        catalog = make_catalog()
        db = TransactionDatabase.build(catalog, [Transaction("a", 1)], excluded_count=9)
        assert db.size == 1
        assert db.excluded_count == 9


class TestRule:
    def test_metrics_derive_from_counts(self):
        rule = Rule((0,), (4,), 49, 48, 91)
        assert rule.confidence == Percent(48, 49)
        assert rule.coverage == Percent(49, 91)
        assert rule.support == Percent(48, 91)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Rule((0,), (0,), 5, 5, 10)  # overlap
        with pytest.raises(ValueError):
            Rule((0,), (1,), 5, 6, 10)  # joint > antecedent
        with pytest.raises(ValueError):
            Rule((0,), (1,), 11, 5, 10)  # antecedent > size
        with pytest.raises(ValueError):
            Rule((0,), (1,), 0, 0, 10)  # empty cover
        with pytest.raises(ValueError):
            Rule((2, 1), (3,), 5, 5, 10)  # not sorted
        with pytest.raises(ValueError):
            Rule((0,), (), 5, 5, 10)  # empty consequent
        with pytest.raises(ValueError):
            Rule((-1,), (1,), 5, 5, 10)  # negative id
        with pytest.raises(ValueError):
            Rule((1, 1), (3,), 5, 5, 10)  # id repeated within a side
        with pytest.raises(ValueError):
            Rule((0,), (1, 1), 5, 5, 10)
        with pytest.raises(ValueError):
            Rule((1, 3, 2), (4,), 5, 5, 10)  # out of order after the first pair
        with pytest.raises(ValueError):
            Rule((1, 2), (2, 3), 5, 5, 10)  # overlap between two-item sides

    @given(
        st.lists(st.integers(-2, 5), max_size=4).map(tuple),
        st.lists(st.integers(-2, 5), max_size=3).map(tuple),
        st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 4),
    )
    @settings(max_examples=300)
    def test_accepts_exactly_its_contract(self, antecedent, consequent, a, j, m):
        def increasing(side):
            return all(side[p] < side[q] for p in range(len(side)) for q in range(p + 1, len(side)))

        contract = (
            increasing(antecedent) and increasing(consequent)
            and all(i >= 0 for i in antecedent + consequent)
            and len(consequent) > 0
            and not any(x == y for x in antecedent for y in consequent)
            and 0 <= j <= a <= m and a > 0
        )
        try:
            Rule(antecedent, consequent, a, j, m)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == contract

    @given(st.integers(1, 60), st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=150)
    def test_metric_relations(self, m, a, j):
        a = min(a, m)
        j = min(j, a)
        if a == 0:
            return
        rule = Rule((0,), (1,), a, j, m)
        assert rule.support <= rule.coverage
        assert rule.support <= rule.confidence
        product = rule.confidence.as_fraction() * rule.coverage.as_fraction()
        assert product == rule.support.as_fraction()


def test_rule_class_orders_by_strength():
    assert RuleClass.REJECTED < RuleClass.SHOULD_HAVE < RuleClass.MUST_HAVE
    assert RuleClass.MUST_HAVE.label == "must_have"


def test_mining_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(min_support_count=0)
    with pytest.raises(ValueError):
        MiningConfig(max_antecedent_size=0)
    assert MiningConfig().min_confidence == Percent(90, 100)
