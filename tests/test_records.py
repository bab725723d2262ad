import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from siterules import corpus, validation
from siterules.classify import ClassifiedRule
from siterules.datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    ItemDef,
    MiningConfig,
    NumericBin,
    Percent,
    Rule,
    RuleClass,
    Transaction,
    TransactionDatabase,
)
from siterules.engine import CountedItemset, FrequentLevel
from siterules.ingest import GoldenRule, Schema
from siterules.report import FrequencyRow, FrequencyTable, GroupColumn

SRC = Path(__file__).resolve().parents[1] / "src"


def _records():
    """One instance of every public record type."""
    young = NumericBin(0, 10, "young")
    age = AttributeDef(
        "age", AttributeKind.NUMERIC, ItemClass.DEMOGRAPHIC, ("young",), (young,), "years"
    )
    door = AttributeDef("door", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))
    catalog = ItemCatalog((age, door))
    txn = Transaction("r1", 0b11)
    db = TransactionDatabase.build(catalog, [txn])
    rule = Rule((0,), (1,), 1, 1, 1)
    itemset = CountedItemset((0,), 1)
    column = GroupColumn("total", ())
    row = FrequencyRow("door", ((1, 1),))
    golden = GoldenRule(1, (("age", "young"),), ("facility", "door"), 10_000, 10_000)
    mined = validation.MinedRuleRow(
        1, (("age", "young"),), ("facility", "door"), 10_000, 10_000, 10_000, "must_have"
    )
    conflict = corpus.FamilySumConflict("age", (("young", 1),), 1)
    unmet = corpus.UnmetCell("door", "young", 1, 0, conflict)
    report = corpus.ConstructionReport(1, (("age=young", 1),), 0, 1, (unmet,))
    mismatch = validation.MetricMismatch(golden, mined, 0, 0)
    return [
        young, age, ItemDef("age", "young", ItemClass.DEMOGRAPHIC), catalog, txn, db,
        Percent(1, 2), rule, MiningConfig(), itemset, FrequentLevel(1, (itemset,)),
        ClassifiedRule(rule, RuleClass.MUST_HAVE), column, row, FrequencyTable((column,), (row,)),
        Schema(catalog), golden, mined, corpus.StudyCounts(1, {}, {}, {}, {}, catalog, (golden,)),
        conflict, unmet, report,
        corpus.FixtureResult(db, report), mismatch,
        validation.ValidationReport(((golden, mined),), (), (), (mismatch,), Fraction(0)),
    ]


RECORDS = _records()


def test_every_record_type_is_listed_once():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 25


TUPLES = [r for r in RECORDS if isinstance(r, tuple)]
CATALOG, DB = (r for r in RECORDS if not isinstance(r, tuple))
# the records whose fields hold a catalog or a database, which a copy
# compares through their columns
HOLDERS = {"Schema", "StudyCounts", "FixtureResult"}


def _pickled(protocol):
    return lambda value: pickle.loads(pickle.dumps(value, protocol))


# copy, and every pickle protocol that keeps slots: protocols 0 and 1 refuse
# a slotted class that defines no __getstate__
CLONES = {
    "copy": copy.copy,
    **{f"pickle{p}": _pickled(p) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)},
}


def test_only_the_types_that_derive_fields_are_not_tuples():
    assert [type(CATALOG), type(DB)] == [ItemCatalog, TransactionDatabase]


def assert_same(value, again):
    """``again`` holds what ``value`` holds: a catalog or a database by its
    columns, and anything else by ``==``."""
    assert type(again) is type(value)
    if isinstance(value, ItemCatalog):
        assert again.attributes == value.attributes
        assert again.items == value.items
        for iid, item in enumerate(value.items):
            assert again.item_id(item.attribute, item.value) == iid
    elif isinstance(value, TransactionDatabase):
        assert_same(value.catalog, again.catalog)
        assert again.record_ids == value.record_ids
        assert again.masks == value.masks
        assert again.excluded_count == value.excluded_count
        assert again.vertical_index == value.vertical_index
    elif type(value).__name__ in HOLDERS:
        for field, held in zip(value, again):
            assert_same(field, held)
    else:
        assert again == value


@pytest.mark.parametrize("rec", TUPLES, ids=lambda r: type(r).__name__)
def test_tuple_records_refuse_assignment_and_deletion(rec):
    field = rec._fields[0]
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert getattr(rec, field) is before


@pytest.mark.parametrize("rec", TUPLES, ids=lambda r: type(r).__name__)
def test_tuple_records_are_the_tuple_of_their_fields(rec):
    values = tuple(getattr(rec, name) for name in rec._fields)
    assert rec == values and values == rec
    try:
        expected = hash(values)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected
    assert repr(rec).startswith(f"{type(rec).__name__}({rec._fields[0]}=")
    for clone in CLONES.values():
        assert_same(rec, clone(rec))


@pytest.mark.parametrize("obj", [CATALOG, DB], ids=lambda o: type(o).__name__)
def test_derived_types_have_no_dict_and_refuse_a_new_attribute(obj):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.extra = None


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
def test_a_database_survives_pickle_and_copy(clone):
    db = TransactionDatabase(CATALOG, ["r1", "r2", "r3"], [0b11, 0b01, 0b10], excluded_count=2)
    again = clone(db)
    assert again is not db
    assert_same(db, again)
    assert again.vertical_index == (0b011, 0b101)
    assert again.catalog.item_id("door", "yes") == 1


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
def test_a_catalog_survives_pickle_and_copy(clone):
    # copying a database or a Schema shares its catalog, so copy the catalog itself
    again = clone(CATALOG)
    assert again is not CATALOG
    assert_same(CATALOG, again)
    assert again.item_pair(1) == ("facility", "door")
    assert not again.has_item("age", "old")


def test_derived_types_compare_and_hash_by_identity():
    assert DB == DB and DB != copy.copy(DB)
    assert CATALOG != ItemCatalog(CATALOG.attributes)
    assert len({DB, copy.copy(DB)}) == 2


def test_cli_import_leaves_out_dataclasses():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import siterules.cli; "
        "print('dataclasses' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"
