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


def test_only_the_types_that_check_or_derive_fields_are_frozen():
    frozen = {type(r).__name__ for r in RECORDS if not isinstance(r, tuple)}
    assert frozen == {"AttributeDef", "ItemCatalog", "TransactionDatabase", "Percent"}


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_assignment_and_deletion(rec):
    field = type(rec)._fields[0]
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert getattr(rec, field) is before


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_records_compare_by_their_fields(rec):
    values = tuple(getattr(rec, name) for name in type(rec)._fields)
    assert rec == copy.copy(rec) == pickle.loads(pickle.dumps(rec))
    # a NamedTuple record is the tuple of its fields; a Frozen value equals
    # only values of its own type
    assert (rec == values) is (values == rec) is isinstance(rec, tuple)
    assert repr(rec).startswith(f"{type(rec).__name__}({type(rec)._fields[0]}=")


def test_hashable_records_hash_their_fields():
    rule = Rule((0, 2), (5,), 4, 3, 9)
    assert hash(rule) == hash(((0, 2), (5,), 4, 3, 9))
    assert hash(Transaction("r1", 3)) == hash(("r1", 3))
    with pytest.raises(TypeError):
        hash(ItemCatalog(()))


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
