"""Core domain types: items, catalogs, transactions, databases, rules.

Records are bare ``NamedTuple`` classes, which compare, hash and pickle as
the tuple of their fields. The two types that derive fields from their
arguments, :class:`ItemCatalog` and :class:`TransactionDatabase`, are plain
slotted classes: they compare by identity, and they pickle by their slots.
A database keeps its rows as an id column and a bitmask column, and its
constructor is the one way to build it; ``Transaction`` is only the row
input type of ``TransactionDatabase.build``. A rule keeps its metrics as
integer counts, and every threshold and tie compares those counts by
cross-multiplication, so no decision touches floating point; a ``Percent``
is only the pair of counts that holds the mining confidence floor.
"""

from __future__ import annotations

import enum
import sys
from array import array
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence


def _shown(raw: str) -> str:
    """An input value as an error message echoes it: whole if short, else
    its start and length."""
    return repr(raw) if len(raw) <= 40 else f"{raw[:20]!r}... ({len(raw)} characters)"


class ItemClass(enum.Enum):
    """Which side of a rule an item may appear on."""

    DEMOGRAPHIC = "demographic"  # antecedent-eligible
    FACILITY = "facility"        # consequent-eligible


class AttributeKind(enum.Enum):
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    BINARY = "binary"


class NumericBin(NamedTuple):
    """One labelled value range; ``hi=None`` means the range is open above."""

    lo: int
    hi: Optional[int]
    label: str


class AttributeDef(NamedTuple):
    """A declared attribute; expands to one item per value (or bin label).

    ``ingest.parse_schema`` builds every attribute a command reads: each has
    a name, distinct values (the bin labels of a numeric attribute, the
    single value "yes" of a binary facility), and a demographic one is not
    named "facility".
    """

    name: str
    kind: AttributeKind
    item_class: ItemClass
    values: tuple[str, ...]
    bins: tuple[NumericBin, ...] = ()
    description: str = ""


class ItemDef(NamedTuple):
    attribute: str
    value: str
    item_class: ItemClass


class ItemCatalog:
    """The fixed item universe.

    Items are laid out demographic-first: every demographic attribute's items
    (in declaration order), then every facility attribute's items. An item's
    id is its position in that layout and never changes.
    """

    __slots__ = ("attributes", "items", "_index")

    def __init__(self, attributes: tuple[AttributeDef, ...]) -> None:
        # ingest.parse_schema refuses a repeated attribute name
        items: list[ItemDef] = []
        for wanted in (ItemClass.DEMOGRAPHIC, ItemClass.FACILITY):
            for attr in attributes:
                if attr.item_class is wanted:
                    items.extend(ItemDef(attr.name, v, wanted) for v in attr.values)
        self.attributes = attributes
        self.items = tuple(items)
        self._index = {(it.attribute, it.value): iid for iid, it in enumerate(items)}

    @property
    def n_items(self) -> int:
        return len(self.items)

    def item_id(self, attribute: str, value: str) -> int:
        return self._index[(attribute, value)]

    def has_item(self, attribute: str, value: str) -> bool:
        return (attribute, value) in self._index

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


class Transaction(NamedTuple):
    """One input row: an id plus a bitmask with bit i set iff item i is present."""

    record_id: str
    members: int


def build_vertical_index(n_items: int, transactions: Sequence[Transaction]) -> tuple[int, ...]:
    """Transpose row bitmasks into one transaction bitset per item (see :func:`_transpose`)."""
    return _transpose(n_items, list(map(itemgetter(1), transactions)))


_MASK_OUT_OF_RANGE = "a membership mask is negative or wider than the catalog"

# an array typecode for each unsigned word size in bytes; 'L' wins over an
# equally wide 'Q', since array('L', ...) converts Python ints faster
_TYPECODES = {array(code).itemsize: code for code in "BHIQL"}


def _transpose(n_items: int, masks: Sequence[int]) -> tuple[int, ...]:
    """Bit j of item i's vector is set iff ``masks[j]`` has bit i set.

    The masks are packed into one int,
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

    A mask outside ``[0, 2**n_items)`` raises ``ValueError``: packing refuses
    one that is negative or wider than its row's words, and the padding
    items from ``n_items`` up to the words' width must read back empty. An
    empty catalog takes one word a row, so it holds only the mask 0.
    """
    width = next((w for w in (8, 16, 32) if n_items <= w), 64)
    words = max(1, -(-n_items // width))
    word_bytes = width // 8
    typecode = _TYPECODES[word_bytes]
    row_bytes = word_bytes * words
    n_rows = -(-len(masks) // width) * width
    try:
        if words == 1:
            packed = array(typecode, masks)
            if sys.byteorder == "big":
                packed.byteswap()
            rows = packed.tobytes()
        else:
            rows = b"".join([mask.to_bytes(row_bytes, "little") for mask in masks])
    except OverflowError:
        raise ValueError(_MASK_OUT_OF_RANGE) from None
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
    vectors = tuple(
        int.from_bytes(column_words[(i % width) * words + i // width :: width * words], "little")
        for i in range(width * words)
    )
    if any(vectors[n_items:]):
        raise ValueError(_MASK_OUT_OF_RANGE)
    return vectors[:n_items]


class TransactionDatabase:
    """A transaction set (``record_ids[j]`` with bitmask ``masks[j]``)
    plus the per-item vertical index that the constructor derives from it.

    The constructor refuses columns of different lengths and any mask outside
    ``[0, 2**n_items)`` (the transpose meets each one), and trusts the rest of
    its rows: distinct ids and at most one item per non-binary attribute,
    which both of its callers make so (``ingest`` checks the ids and sets one
    bit per column, and ``corpus`` numbers its rows and sets one item of each
    attribute). ``excluded_count`` records input rows dropped before the
    build (e.g. unreachable websites); they never enter any count or the
    size ``m``. The constructor sets every field, and nothing assigns one later.
    """

    __slots__ = ("catalog", "record_ids", "masks", "excluded_count", "vertical_index")

    def __init__(
        self, catalog: ItemCatalog, record_ids: Sequence[str], masks: Sequence[int],
        excluded_count: int = 0,
    ) -> None:
        if excluded_count < 0:
            raise ValueError("excluded_count must be non-negative")
        record_ids = tuple(record_ids)
        masks = tuple(masks)
        if len(record_ids) != len(masks):
            raise ValueError(
                f"column lengths differ: {len(record_ids)} record ids, {len(masks)} masks"
            )
        self.catalog = catalog
        self.record_ids = record_ids
        self.masks = masks
        self.excluded_count = excluded_count
        self.vertical_index = _transpose(catalog.n_items, masks)

    @classmethod
    def build(
        cls, catalog: ItemCatalog, transactions: Sequence[Transaction], excluded_count: int = 0
    ) -> "TransactionDatabase":
        """The database of rows given as :class:`Transaction` objects."""
        return cls(catalog, list(map(itemgetter(0), transactions)),
                   list(map(itemgetter(1), transactions)), excluded_count)

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The rows as :class:`Transaction` objects, built on each access."""
        return tuple(map(Transaction, self.record_ids, self.masks))

    @property
    def size(self) -> int:
        return len(self.record_ids)


class Percent(NamedTuple):
    """A ratio of counts in [0, 1], as its numerator and denominator.

    ``cli`` builds one from ``--min-conf``, which reads no sign and refuses
    a confidence above 100.
    """

    numerator: int
    denominator: int

    @classmethod
    def from_basis_points(cls, bp: int) -> "Percent":
        """Build from hundredths of a percent (e.g. 9795 -> 97.95%)."""
        return cls(bp, 10_000)


class Rule(NamedTuple):
    """An antecedent => consequent implication with its exact counts.

    Confidence (joint / antecedent), coverage (antecedent / size, the
    reference files' support column) and support (joint / size) are compared
    and rendered from the counts, so a rule can be re-rendered or
    re-thresholded without touching the database it came from.
    ``rules.derive_rules`` builds every rule: each side strictly increasing,
    the sides disjoint, and 0 < joint <= antecedent <= size.
    """

    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    antecedent_count: int
    joint_count: int
    db_size: int


class RuleClass(enum.IntEnum):
    """Priority tier of a rule; ordered so stronger confidence compares higher."""

    REJECTED = 0
    SHOULD_HAVE = 1
    MUST_HAVE = 2

    @property
    def label(self) -> str:
        return self.name.lower()


class MiningConfig(NamedTuple):
    """Thresholds for deriving demographic => single-facility rules.

    The defaults reproduce the study setting: antecedents of at most two
    items, confidence at least 90%, and no support floor beyond requiring the
    joint itemset to occur at all. ``mine`` refuses a count flag below 1.
    """

    min_confidence: Percent = Percent(90, 100)
    min_support_count: int = 1
    max_antecedent_size: int = 2
