"""Core domain types: items, catalogs, transactions, databases, rules.

Every type here is immutable after construction. Plain records are bare
``NamedTuple`` classes, which compare and hash as tuples; the types that
validate or compute fields are slotted :class:`Frozen` classes. A database
keeps its rows as an id column and a bitmask column; ``Transaction`` is only
the row input type of ``TransactionDatabase.build``. A rule keeps its
metrics as integer counts, and every threshold and tie compares those counts
by cross-multiplication, so no decision touches floating point; a
``Percent`` is only the checked pair of counts that holds the mining
confidence floor.
"""

from __future__ import annotations

import enum
import sys
from array import array
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

_set = object.__setattr__


def _shown(raw: str) -> str:
    """An input value as an error message echoes it: whole if short, else
    its start and length."""
    return repr(raw) if len(raw) <= 40 else f"{raw[:20]!r}... ({len(raw)} characters)"


class Frozen:
    """Base of the slotted value types that validate or compute fields.

    A subclass sets its slots in ``__init__`` with ``object.__setattr__``;
    afterwards assigning or deleting an attribute raises ``AttributeError``.
    Repr, equality, hashing and pickling go by the constructor fields named
    in ``_fields``, in order, as a frozen dataclass's do.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return (type(self), self._values())


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


class AttributeDef(Frozen):
    """A declared attribute; expands to one item per value (or bin label)."""

    __slots__ = _fields = ("name", "kind", "item_class", "values", "bins", "description")
    name: str
    kind: AttributeKind
    item_class: ItemClass
    values: tuple[str, ...]
    bins: tuple[NumericBin, ...]
    description: str

    def __init__(
        self, name: str, kind: AttributeKind, item_class: ItemClass, values: tuple[str, ...],
        bins: tuple[NumericBin, ...] = (), description: str = "",
    ) -> None:
        if not name:
            raise ValueError("attribute name must be non-empty")
        if not values:
            raise ValueError(f"attribute {_shown(name)} declares no values")
        if len(set(values)) != len(values):
            raise ValueError(f"attribute {_shown(name)} has duplicate values")
        if kind is AttributeKind.NUMERIC:
            if tuple(b.label for b in bins) != values:
                raise ValueError(f"attribute {_shown(name)}: bin labels must match values")
        elif bins:
            raise ValueError(f"attribute {_shown(name)}: only numeric attributes take bins")
        if kind is AttributeKind.BINARY and len(values) != 1:
            raise ValueError(f"attribute {_shown(name)}: binary attributes have exactly one item")
        if item_class is ItemClass.FACILITY and kind is not AttributeKind.BINARY:
            raise ValueError(f"attribute {_shown(name)}: facility attributes must be binary")
        if item_class is ItemClass.DEMOGRAPHIC and name == "facility":
            # item_pair writes every facility item as ("facility", name)
            raise ValueError("'facility' labels facility items; rename the attribute")
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "item_class", item_class)
        _set(self, "values", values)
        _set(self, "bins", bins)
        _set(self, "description", description)


class ItemDef(NamedTuple):
    attribute: str
    value: str
    item_class: ItemClass


class ItemCatalog(Frozen):
    """The fixed item universe.

    Items are laid out demographic-first: every demographic attribute's items
    (in declaration order), then every facility attribute's items. An item's
    id is its position in that layout and never changes. Catalogs compare by
    their attributes and are not hashable.
    """

    __slots__ = ("attributes", "items", "_index")
    _fields = ("attributes",)
    __hash__ = None
    attributes: tuple[AttributeDef, ...]
    items: tuple[ItemDef, ...]

    def __init__(self, attributes: tuple[AttributeDef, ...]) -> None:
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in catalog")
        items: list[ItemDef] = []
        for wanted in (ItemClass.DEMOGRAPHIC, ItemClass.FACILITY):
            for attr in attributes:
                if attr.item_class is wanted:
                    items.extend(ItemDef(attr.name, v, wanted) for v in attr.values)
        index = {(it.attribute, it.value): iid for iid, it in enumerate(items)}
        _set(self, "attributes", attributes)
        _set(self, "items", tuple(items))
        _set(self, "_index", index)

    @property
    def n_items(self) -> int:
        return len(self.items)

    def item_id(self, attribute: str, value: str) -> int:
        try:
            return self._index[(attribute, value)]
        except KeyError:
            raise KeyError(f"no item {_shown(attribute)}={_shown(value)} in catalog") from None

    def has_item(self, attribute: str, value: str) -> bool:
        return (attribute, value) in self._index

    def attribute(self, name: str) -> AttributeDef:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"no attribute {_shown(name)} in catalog")

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
        """Item id for a ``(attribute, value)`` pair in item_pair convention;
        ``("facility", name)`` resolves only to a facility attribute's item."""
        attr, value = pair
        if attr != "facility":
            return self.item_id(attr, value)
        item = self._index.get((value, "yes"))
        if item is None or self.items[item].item_class is not ItemClass.FACILITY:
            raise KeyError(f"no facility {_shown(value)} in catalog")
        return item


class Transaction(NamedTuple):
    """One input row: an id plus a bitmask with bit i set iff item i is present."""

    record_id: str
    members: int


def build_vertical_index(n_items: int, transactions: Sequence[Transaction]) -> tuple[int, ...]:
    """Transpose row bitmasks into one transaction bitset per item (see :func:`_transpose`)."""
    return _transpose(n_items, list(map(itemgetter(1), transactions)))


class _MaskOutOfRange(ValueError):
    """:func:`_transpose` met a mask outside ``[0, 2**n_items)``."""

    def __init__(self) -> None:
        super().__init__("a membership mask is negative or wider than the catalog")


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
    items from ``n_items`` up to the words' width must read back empty.
    """
    if not n_items:
        if any(masks):
            raise _MaskOutOfRange
        return ()
    width = next((w for w in (8, 16, 32) if n_items <= w), 64)
    words = -(-n_items // width)
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
        raise _MaskOutOfRange from None
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
        raise _MaskOutOfRange
    return vectors[:n_items]


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
            raise ValueError(f"duplicate record_id {_shown(record_id)}")
        seen.add(record_id)
        if members < 0:
            raise ValueError(f"record {_shown(record_id)} has a negative membership mask")
        if members.bit_length() > n_items:
            raise ValueError(f"record {_shown(record_id)} sets an item id outside the catalog")
        for mask in exclusive_masks:
            if (members & mask).bit_count() > 1:
                raise ValueError(f"record {_shown(record_id)} sets multiple values of one attribute")


def _check_lengths(record_ids: Sequence[str], masks: Sequence[int]) -> None:
    if len(record_ids) != len(masks):
        raise ValueError(f"column lengths differ: {len(record_ids)} record ids, {len(masks)} masks")


class TransactionDatabase(Frozen):
    """An immutable transaction set (``record_ids[j]`` with bitmask ``masks[j]``)
    plus the per-item vertical index that the constructor derives from it.

    The constructor refuses columns of different lengths and any mask outside
    ``[0, 2**n_items)`` (the transpose meets each one), and trusts the rest of
    its rows: distinct ids and at most one item per non-binary attribute;
    :meth:`from_columns` checks them. Equality, repr and pickling go by the
    rows.
    ``excluded_count`` records input rows dropped before the build (e.g.
    unreachable websites); they never enter any count or the size ``m``.
    """

    __slots__ = ("catalog", "record_ids", "masks", "excluded_count", "vertical_index")
    _fields = ("catalog", "record_ids", "masks", "excluded_count")
    catalog: ItemCatalog
    record_ids: tuple[str, ...]
    masks: tuple[int, ...]
    excluded_count: int
    vertical_index: tuple[int, ...]

    def __init__(
        self, catalog: ItemCatalog, record_ids: Sequence[str], masks: Sequence[int],
        excluded_count: int = 0,
    ) -> None:
        if excluded_count < 0:
            raise ValueError("excluded_count must be non-negative")
        record_ids = tuple(record_ids)
        masks = tuple(masks)
        _check_lengths(record_ids, masks)
        _set(self, "catalog", catalog)
        _set(self, "record_ids", record_ids)
        _set(self, "masks", masks)
        _set(self, "excluded_count", excluded_count)
        _set(self, "vertical_index", _transpose(catalog.n_items, masks))

    @classmethod
    def from_columns(
        cls, catalog: ItemCatalog, record_ids: Sequence[str], masks: Sequence[int],
        excluded_count: int = 0,
    ) -> "TransactionDatabase":
        """Check an id column and a mask column, and build their database.

        The checks run on whole columns: equal lengths and distinct ids, then
        the constructor's mask range, then, on the built index, no two items of
        one non-binary attribute in a transaction. Only when one fails are the
        rows scanned, to name the first offending record.
        """
        _check_lengths(record_ids, masks)
        exclusive = [
            catalog.ids_of_attribute(attr.name)
            for attr in catalog.attributes
            if attr.kind is not AttributeKind.BINARY
        ]
        if len(set(record_ids)) == len(record_ids):
            try:
                db = cls(catalog, record_ids, masks, excluded_count)
            except _MaskOutOfRange:
                pass
            else:
                if not any(_overlapping(db.vertical_index, ids) for ids in exclusive):
                    return db
        _raise_first_invalid(catalog.n_items, exclusive, record_ids, masks)

    @classmethod
    def build(
        cls, catalog: ItemCatalog, transactions: Sequence[Transaction], excluded_count: int = 0
    ) -> "TransactionDatabase":
        """:meth:`from_columns` over rows given as :class:`Transaction` objects."""
        record_ids = list(map(itemgetter(0), transactions))
        masks = list(map(itemgetter(1), transactions))
        return cls.from_columns(catalog, record_ids, masks, excluded_count)

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The rows as :class:`Transaction` objects, built on each access."""
        return tuple(map(Transaction, self.record_ids, self.masks))

    @property
    def size(self) -> int:
        return len(self.record_ids)


class Percent(Frozen):
    """A ratio of counts in [0, 1], as its numerator and denominator; it
    compares field-wise, like every ``Frozen`` value."""

    __slots__ = _fields = ("numerator", "denominator")
    numerator: int
    denominator: int

    def __init__(self, numerator: int, denominator: int) -> None:
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        if not 0 <= numerator <= denominator:
            raise ValueError(
                f"numerator must lie in [0, denominator], got {numerator}/{denominator}"
            )
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)

    @classmethod
    def from_basis_points(cls, bp: int) -> "Percent":
        """Build from hundredths of a percent (e.g. 9795 -> 97.95%)."""
        return cls(bp, 10_000)


class Rule(Frozen):
    """An antecedent => consequent implication with its exact counts.

    Confidence (joint / antecedent), coverage (antecedent / size, the
    reference files' support column) and support (joint / size) are compared
    and rendered from the counts, so a rule can be re-rendered or
    re-thresholded without touching the database it came from.
    """

    __slots__ = _fields = ("antecedent", "consequent", "antecedent_count", "joint_count", "db_size")
    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    antecedent_count: int
    joint_count: int
    db_size: int

    def __init__(
        self, antecedent: tuple[int, ...], consequent: tuple[int, ...],
        antecedent_count: int, joint_count: int, db_size: int,
    ) -> None:
        for side in (antecedent, consequent):
            # strictly increasing: the side is its own items, deduplicated and
            # sorted; its first item is then its least
            if sorted(set(side)) != list(side) or (side and side[0] < 0):
                raise ValueError("rule sides must be strictly increasing item id tuples")
        if not consequent:
            raise ValueError("rule consequent must be non-empty")
        if not set(antecedent).isdisjoint(consequent):
            raise ValueError("antecedent and consequent must be disjoint")
        if not 0 <= joint_count <= antecedent_count <= db_size:
            raise ValueError(
                f"counts must satisfy 0 <= joint <= antecedent <= size, got "
                f"{joint_count}/{antecedent_count}/{db_size}"
            )
        if antecedent_count == 0:
            raise ValueError("rules require a non-empty antecedent cover")
        _set(self, "antecedent", antecedent)
        _set(self, "consequent", consequent)
        _set(self, "antecedent_count", antecedent_count)
        _set(self, "joint_count", joint_count)
        _set(self, "db_size", db_size)


class RuleClass(enum.IntEnum):
    """Priority tier of a rule; ordered so stronger confidence compares higher."""

    REJECTED = 0
    SHOULD_HAVE = 1
    MUST_HAVE = 2

    @property
    def label(self) -> str:
        return self.name.lower()


class MiningConfig(Frozen):
    """Thresholds for deriving demographic => single-facility rules.

    The defaults reproduce the study setting: antecedents of at most two
    items, confidence at least 90%, and no support floor beyond requiring the
    joint itemset to occur at all.
    """

    __slots__ = _fields = ("min_confidence", "min_support_count", "max_antecedent_size")
    min_confidence: Percent
    min_support_count: int
    max_antecedent_size: int

    def __init__(
        self, min_confidence: Percent = Percent(90, 100), min_support_count: int = 1,
        max_antecedent_size: int = 2,
    ) -> None:
        if min_support_count < 1:
            raise ValueError("min_support_count must be at least 1")
        if max_antecedent_size < 1:
            raise ValueError("max_antecedent_size must be at least 1")
        _set(self, "min_confidence", min_confidence)
        _set(self, "min_support_count", min_support_count)
        _set(self, "max_antecedent_size", max_antecedent_size)
