"""Core domain types: items, catalogs, transactions, databases, rules.

Every type here is immutable after construction. A database keeps its rows as
an id column and a bitmask column; ``Transaction`` is only the row input type
of ``TransactionDatabase.build``. Metric values are stored as integer count
pairs (`Percent`) and compared by cross-multiplication, so threshold and tie
decisions never touch floating point; floats appear only when a value is
formatted for display.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Sequence


class ItemClass(enum.Enum):
    """Which side of a rule an item may appear on."""

    DEMOGRAPHIC = "demographic"  # antecedent-eligible
    FACILITY = "facility"        # consequent-eligible


class AttributeKind(enum.Enum):
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    BINARY = "binary"


@dataclass(frozen=True)
class NumericBin:
    """One labelled value range; ``hi=None`` means the range is open above."""

    lo: int
    hi: Optional[int]
    label: str


@dataclass(frozen=True)
class AttributeDef:
    """A declared attribute; expands to one item per value (or bin label)."""

    name: str
    kind: AttributeKind
    item_class: ItemClass
    values: tuple[str, ...]
    bins: tuple[NumericBin, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if not self.values:
            raise ValueError(f"attribute {self.name!r} declares no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"attribute {self.name!r} has duplicate values")
        if self.kind is AttributeKind.NUMERIC:
            if tuple(b.label for b in self.bins) != self.values:
                raise ValueError(f"attribute {self.name!r}: bin labels must match values")
        elif self.bins:
            raise ValueError(f"attribute {self.name!r}: only numeric attributes take bins")
        if self.kind is AttributeKind.BINARY and len(self.values) != 1:
            raise ValueError(f"attribute {self.name!r}: binary attributes have exactly one item")
        if self.item_class is ItemClass.FACILITY and self.kind is not AttributeKind.BINARY:
            raise ValueError(f"attribute {self.name!r}: facility attributes must be binary")


@dataclass(frozen=True)
class ItemDef:
    attribute: str
    value: str
    item_class: ItemClass


@dataclass(frozen=True, eq=False)
class ItemCatalog:
    """The fixed item universe.

    Items are laid out demographic-first: every demographic attribute's items
    (in declaration order), then every facility attribute's items. An item's
    id is its position in that layout and never changes.
    """

    attributes: tuple[AttributeDef, ...]
    items: tuple[ItemDef, ...] = field(init=False, repr=False)
    _index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in catalog")
        items: list[ItemDef] = []
        for wanted in (ItemClass.DEMOGRAPHIC, ItemClass.FACILITY):
            for attr in self.attributes:
                if attr.item_class is wanted:
                    items.extend(ItemDef(attr.name, v, wanted) for v in attr.values)
        index = {(it.attribute, it.value): iid for iid, it in enumerate(items)}
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "_index", index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemCatalog):
            return NotImplemented
        return self.attributes == other.attributes

    @property
    def n_items(self) -> int:
        return len(self.items)

    def item(self, item_id: int) -> ItemDef:
        return self.items[item_id]

    def item_id(self, attribute: str, value: str) -> int:
        try:
            return self._index[(attribute, value)]
        except KeyError:
            raise KeyError(f"no item {attribute}={value} in catalog") from None

    def has_item(self, attribute: str, value: str) -> bool:
        return (attribute, value) in self._index

    def attribute(self, name: str) -> AttributeDef:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"no attribute {name!r} in catalog")

    def ids_of_class(self, item_class: ItemClass) -> tuple[int, ...]:
        return tuple(i for i, it in enumerate(self.items) if it.item_class is item_class)

    def ids_of_attribute(self, name: str) -> tuple[int, ...]:
        return tuple(i for i, it in enumerate(self.items) if it.attribute == name)

    def item_pair(self, item_id: int) -> tuple[str, str]:
        """Textual identity of an item, as used in rule files.

        Demographic items are ``(attribute, value)``; facility items collapse
        to ``("facility", attribute)`` because their only value is "yes".
        """
        it = self.items[item_id]
        if it.item_class is ItemClass.FACILITY:
            return ("facility", it.attribute)
        return (it.attribute, it.value)

    def item_label(self, item_id: int) -> str:
        attr, value = self.item_pair(item_id)
        return f"{attr}={value}"

    def resolve_pair(self, pair: tuple[str, str]) -> int:
        """Item id for a ``(attribute, value)`` pair in item_pair convention."""
        attr, value = pair
        if attr == "facility":
            attr, value = value, "yes"
        return self.item_id(attr, value)


@dataclass(frozen=True)
class Transaction:
    """One input row: an id plus a bitmask with bit i set iff item i is present."""

    record_id: str
    members: int


def build_vertical_index(n_items: int, transactions: Sequence[Transaction]) -> tuple[int, ...]:
    """Transpose row bitmasks into one transaction bitset per item (see :func:`_transpose`)."""
    masks = [txn.members for txn in transactions]
    if not _masks_in_range(n_items, masks):
        raise ValueError("a membership mask is negative or wider than the catalog")
    return _transpose(n_items, masks)


def _masks_in_range(n_items: int, masks: Sequence[int]) -> bool:
    """Whether every mask lies in ``[0, 2**n_items)``."""
    return min(masks, default=0) >= 0 and max(masks, default=0).bit_length() <= n_items


# an array typecode for each unsigned word size in bytes
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def _transpose(n_items: int, masks: Sequence[int]) -> tuple[int, ...]:
    """Bit j of item i's vector is set iff ``masks[j]`` has bit i set.

    The masks must lie in ``[0, 2**n_items)``; the callers check that. They
    are packed into one int,
    row j as ``words`` little-endian ``width``-bit words, with zero rows
    appended up to a multiple of ``width``. The width is the smallest of 8,
    16, 32 and 64 bits that holds a mask; a catalog of more than 64 items
    takes 64-bit words. Every ``width`` x ``width`` bit block (``width``
    rows of one word column) is then transposed in place by log2(width)
    word-parallel stages (Warren, Hacker's Delight, 7-3): stage k swaps the
    top-right and bottom-left k x k quadrants of every 2k x 2k sub-block,
    bits ``k * (row_bits - 1)`` apart. Afterwards word w of row
    ``width * r + c`` holds rows ``width * r`` .. ``width * r + width - 1``
    of item ``width * w + c``, so item i's vector is every
    ``width * words``-th word from there.
    """
    if not n_items:
        return ()
    width = next((w for w in (8, 16, 32) if n_items <= w), 64)
    words = -(-n_items // width)
    word_bytes = width // 8
    typecode = _TYPECODES[word_bytes]
    row_bytes = word_bytes * words
    n_rows = -(-len(masks) // width) * width
    if words == 1:
        packed = array(typecode, masks)
        if sys.byteorder == "big":
            packed.byteswap()
        rows = packed.tobytes()
    else:
        rows = b"".join([mask.to_bytes(row_bytes, "little") for mask in masks])
    rows += bytes(row_bytes * (n_rows - len(masks)))
    bits = int.from_bytes(rows, "little")
    k = width // 2
    while k:
        # columns whose bit k is set, in rows whose bit k is clear
        column = sum(((1 << k) - 1) << start for start in range(k, width, 2 * k))
        row = column.to_bytes(word_bytes, "little") * words
        mask = int.from_bytes((row * k + bytes(row_bytes * k)) * (n_rows // (2 * k)), "little")
        shift = k * (width * words - 1)
        swap = (bits ^ bits >> shift) & mask
        bits ^= swap ^ swap << shift
        k >>= 1
    column_words = memoryview(bits.to_bytes(len(rows), "little")).cast(typecode)
    return tuple(
        int.from_bytes(column_words[(i % width) * words + i // width :: width * words], "little")
        for i in range(n_items)
    )


def _overlapping(index: Sequence[int], item_ids: Sequence[int]) -> bool:
    """Whether some transaction holds two of ``item_ids``."""
    union = 0
    for i in item_ids:
        union |= index[i]
    return sum(index[i].bit_count() for i in item_ids) != union.bit_count()


def _raise_first_invalid(
    n_items: int, exclusive: Sequence[Sequence[int]], record_ids: Sequence[str], masks: Sequence[int]
) -> None:
    """Raise ``ValueError`` for the first record that repeats an id, has a negative mask,
    sets an item outside the catalog, or sets two items of one ``exclusive`` group."""
    seen: set[str] = set()
    exclusive_masks = [sum(1 << i for i in ids) for ids in exclusive]
    for record_id, members in zip(record_ids, masks):
        if record_id in seen:
            raise ValueError(f"duplicate record_id {record_id!r}")
        seen.add(record_id)
        if members < 0:
            raise ValueError(f"record {record_id!r} has a negative membership mask")
        if members.bit_length() > n_items:
            raise ValueError(f"record {record_id!r} sets an item id outside the catalog")
        for mask in exclusive_masks:
            if (members & mask).bit_count() > 1:
                raise ValueError(f"record {record_id!r} sets multiple values of one attribute")


@dataclass(frozen=True)
class TransactionDatabase:
    """An immutable transaction set (``record_ids[j]`` with bitmask ``masks[j]``)
    plus its per-item vertical index.

    ``excluded_count`` records input rows that were dropped before the
    database was built (e.g. unreachable websites); they never enter any
    count and the database size ``m`` covers included rows only.
    """

    catalog: ItemCatalog
    record_ids: tuple[str, ...]
    masks: tuple[int, ...]
    excluded_count: int
    vertical_index: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.excluded_count < 0:
            raise ValueError("excluded_count must be non-negative")
        if len(self.vertical_index) != self.catalog.n_items:
            raise ValueError("vertical index must have one vector per item")

    @classmethod
    def from_columns(
        cls, catalog: ItemCatalog, record_ids: Sequence[str], masks: Sequence[int],
        excluded_count: int = 0,
    ) -> "TransactionDatabase":
        """Validate rows given as an id column and a mask column, and index them.

        The checks run on whole columns: record ids are distinct, every mask lies in
        ``[0, 2**n_items)``, and no two items of one non-binary attribute share a
        transaction. Only when one fails are the rows scanned, to name the first
        offending record.
        """
        screened = len(set(record_ids)) == len(record_ids) and _masks_in_range(
            catalog.n_items, masks
        )
        return cls._index_columns(catalog, record_ids, masks, excluded_count, screened)

    @classmethod
    def _index_columns(
        cls, catalog: ItemCatalog, record_ids: Sequence[str], masks: Sequence[int],
        excluded_count: int, screened: bool,
    ) -> "TransactionDatabase":
        """:meth:`from_columns` for a caller that has already checked the ids and
        the mask range; ``screened`` says whether the ids are distinct and every
        mask is in range."""
        exclusive = [
            catalog.ids_of_attribute(attr.name)
            for attr in catalog.attributes
            if attr.kind is not AttributeKind.BINARY
        ]
        index = _transpose(catalog.n_items, masks) if screened else None
        if index is None or any(_overlapping(index, ids) for ids in exclusive):
            _raise_first_invalid(catalog.n_items, exclusive, record_ids, masks)
        return cls(catalog, tuple(record_ids), tuple(masks), excluded_count, index)

    @classmethod
    def build(
        cls, catalog: ItemCatalog, transactions: Sequence[Transaction], excluded_count: int = 0
    ) -> "TransactionDatabase":
        """:meth:`from_columns` over rows given as :class:`Transaction` objects."""
        record_ids = [txn.record_id for txn in transactions]
        masks = [txn.members for txn in transactions]
        return cls.from_columns(catalog, record_ids, masks, excluded_count)

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The rows as :class:`Transaction` objects, built on each access."""
        return tuple(map(Transaction, self.record_ids, self.masks))

    @property
    def size(self) -> int:
        return len(self.record_ids)


@total_ordering
@dataclass(frozen=True, eq=False)
class Percent:
    """An exact ratio of counts in [0, 1], compared by cross-multiplication."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError(
                f"numerator must lie in [0, denominator], got {self.numerator}/{self.denominator}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Percent):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Percent):
            return NotImplemented
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __hash__(self) -> int:
        return hash(Fraction(self.numerator, self.denominator))

    @classmethod
    def from_basis_points(cls, bp: int) -> "Percent":
        """Build from hundredths of a percent (e.g. 9795 -> 97.95%)."""
        return cls(bp, 10_000)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class Rule:
    """An antecedent => consequent implication with its exact counts.

    Confidence, coverage and support all derive from the three stored counts,
    so a rule can be re-rendered or re-thresholded without touching the
    database it came from.
    """

    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    antecedent_count: int
    joint_count: int
    db_size: int

    def __post_init__(self) -> None:
        for side in (self.antecedent, self.consequent):
            if any(a >= b for a, b in zip(side, side[1:])) or any(i < 0 for i in side):
                raise ValueError("rule sides must be strictly increasing item id tuples")
        if not self.consequent:
            raise ValueError("rule consequent must be non-empty")
        if set(self.antecedent) & set(self.consequent):
            raise ValueError("antecedent and consequent must be disjoint")
        if not 0 <= self.joint_count <= self.antecedent_count <= self.db_size:
            raise ValueError(
                f"counts must satisfy 0 <= joint <= antecedent <= size, got "
                f"{self.joint_count}/{self.antecedent_count}/{self.db_size}"
            )
        if self.antecedent_count == 0:
            raise ValueError("rules require a non-empty antecedent cover")

    @property
    def confidence(self) -> Percent:
        return Percent(self.joint_count, self.antecedent_count)

    @property
    def coverage(self) -> Percent:
        """Antecedent share of the database (the reference files' support column)."""
        return Percent(self.antecedent_count, self.db_size)

    @property
    def support(self) -> Percent:
        """Joint share of the database."""
        return Percent(self.joint_count, self.db_size)


class RuleClass(enum.IntEnum):
    """Priority tier of a rule; ordered so stronger confidence compares higher."""

    REJECTED = 0
    SHOULD_HAVE = 1
    MUST_HAVE = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class MiningConfig:
    """Thresholds for deriving demographic => single-facility rules.

    The defaults reproduce the study setting: antecedents of at most two
    items, confidence at least 90%, and no support floor beyond requiring the
    joint itemset to occur at all.
    """

    min_confidence: Percent = Percent(90, 100)
    min_support_count: int = 1
    max_antecedent_size: int = 2

    def __post_init__(self) -> None:
        if self.min_support_count < 1:
            raise ValueError("min_support_count must be at least 1")
        if self.max_antecedent_size < 1:
            raise ValueError("max_antecedent_size must be at least 1")
