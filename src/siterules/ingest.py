"""Parsers for the schema file, the transaction CSV, and the rule-list CSVs.

The schema file is line oriented; ``#`` starts a comment. Three declaration
forms are accepted:

    attribute <name> categorical antecedent values: v1, v2, ...
    attribute <name> numeric antecedent bins: 0-10=a, 11-29=b, 30-=c
    facility <name> "<description>"

``facility`` declares a binary consequent attribute with the single item
value "yes"; it is the only way to declare a consequent. The transaction CSV
has a ``record_id`` first column, then one column per attribute
(order-insensitive): categorical cells hold a declared value, numeric cells
an integer, facility cells a yes/no token or nothing. Cells and record ids
may be padded with ASCII whitespace, and with no other space.
A row whose facility cells are all empty is excluded from the database and
only counted; a partially empty facility row is an error.

The transaction CSV is read from one of two row sources. Text with no
``"``, no NUL, no ``\\r`` outside ``\\r\\n`` and no line over
``csv.field_size_limit()`` is split into lines, one piece of about 64 KiB
at a time, and each line at its first comma; ``csv.reader`` would read it
the same way, and skipping the reader also skips the ``io.StringIO`` it
reads from, a second copy of the text at four bytes per character. Working
memory then holds the rows' columns and one piece's lines, not a list of
every line. Any other text goes through ``csv.reader``. Both
sources give each row as (id cell, separator, row tail), the plain one as
``str.partition`` returns it, and feed one row loop, which encodes each
distinct row tail (the cells after the record id) once and looks it up for
every later row.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import re
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    NumericBin,
    TransactionDatabase,
    _shown,
)

YES_TOKENS = frozenset({"y", "yes", "1"})
NO_TOKENS = frozenset({"n", "no", "0"})

_ATTR_RE = re.compile(
    r"^attribute\s+(?P<name>\S+)\s+(?P<kind>\S+)\s+(?P<cls>\S+)\s+(?P<list>values|bins):\s*(?P<body>.+)$"
)
_FACILITY_RE = re.compile(r'^facility\s+(?P<name>\S+)\s+"(?P<desc>[^"]*)"$')
_BIN_RE = re.compile(r"^(?P<lo>[0-9]+)-(?P<hi>[0-9]*)=(?P<label>[^\s,]+)$")
_INT_RE = re.compile(r"[+-]?[0-9]+")
# the only padding a data cell or record id may carry: ASCII whitespace
_ASCII_SPACE = " \t\n\r\v\f"


class SchemaError(ValueError):
    """Schema file rejected; the message carries the offending line number."""


class DataError(ValueError):
    """The transaction CSV was rejected; the message carries the offending row."""


class GoldenFileError(ValueError):
    """Reference-rule CSV rejected."""


class Schema(NamedTuple):
    """A parsed schema: its catalog holds the declaration-ordered attributes."""

    catalog: ItemCatalog


def _parse_bins(body: str, lineno: int) -> tuple[NumericBin, ...]:
    bins = []
    for part in (p.strip() for p in body.split(",")):
        m = _BIN_RE.match(part)
        if m is None:
            raise SchemaError(f"line {lineno}: malformed bin {_shown(part)}")
        try:
            lo = int(m.group("lo"))
            hi = int(m.group("hi")) if m.group("hi") else None
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise SchemaError(
                f"line {lineno}: bin {_shown(m['label'])} has a bound too long"
            ) from None
        if hi is not None and hi < lo:
            raise SchemaError(f"line {lineno}: bin {_shown(part)} is empty")
        bins.append(NumericBin(lo, hi, m.group("label")))
    for prev, cur in zip(bins, bins[1:]):
        if prev.hi is None or cur.lo <= prev.hi:
            raise SchemaError(f"line {lineno}: bins must be ordered and non-overlapping")
    return tuple(bins)


def parse_schema(text: str) -> Schema:
    """Parse a schema file into a :class:`Schema`.

    The resulting catalog lists all demographic items first, in declaration
    order, then all facility items.
    """
    attributes: list[AttributeDef] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        bins: tuple[NumericBin, ...] = ()
        description = ""
        if line.startswith("attribute"):
            m = _ATTR_RE.match(line)
            if m is None:
                raise SchemaError(f"line {lineno}: malformed attribute declaration")
            name, kind_word, cls_word = m.group("name"), m.group("kind"), m.group("cls")
            if kind_word not in ("categorical", "numeric"):
                raise SchemaError(f"line {lineno}: unknown attribute kind {_shown(kind_word)}")
            if cls_word == "consequent":
                raise SchemaError(f"line {lineno}: consequents are declared with 'facility'")
            if cls_word != "antecedent":
                raise SchemaError(f"line {lineno}: unknown class keyword {_shown(cls_word)}")
            item_class = ItemClass.DEMOGRAPHIC
            if kind_word == "categorical":
                if m.group("list") != "values":
                    raise SchemaError(f"line {lineno}: categorical attributes take 'values:'")
                kind = AttributeKind.CATEGORICAL
                values = tuple(v.strip() for v in m.group("body").split(","))
                if any(not v for v in values):
                    raise SchemaError(f"line {lineno}: empty value in list")
            else:
                if m.group("list") != "bins":
                    raise SchemaError(f"line {lineno}: numeric attributes take 'bins:'")
                kind = AttributeKind.NUMERIC
                bins = _parse_bins(m.group("body"), lineno)
                values = tuple(b.label for b in bins)
        elif line.startswith("facility"):
            m = _FACILITY_RE.match(line)
            if m is None:
                raise SchemaError(f"line {lineno}: malformed facility declaration")
            name, kind, item_class = m.group("name"), AttributeKind.BINARY, ItemClass.FACILITY
            values, description = ("yes",), m.group("desc")
        else:
            raise SchemaError(
                f"line {lineno}: unrecognized declaration {_shown(line.split()[0])}"
            )
        # Rule files write an item as attribute=value, join antecedent items
        # with " AND " and separate cells with ","; these names and values
        # would read back as other items, and a '"' opening a cell would
        # read as a quoted field.
        for char in ',="':
            if char in name:
                raise SchemaError(
                    f"line {lineno}: attribute name {_shown(name)} contains {char!r}"
                )
        for value in values:
            if " AND " in value + " ":  # a trailing " AND" joins into " AND AND "
                raise SchemaError(f"line {lineno}: value {_shown(value)} contains ' AND '")
        try:
            attr = AttributeDef(name, kind, item_class, values, bins, description)
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if attr.name in seen:
            raise SchemaError(f"line {lineno}: duplicate attribute {_shown(attr.name)}")
        seen.add(attr.name)
        attributes.append(attr)
    if not attributes:
        raise SchemaError("no attributes declared")
    return Schema(ItemCatalog(tuple(attributes)))


def bin_numeric(value: float, bins: Sequence[NumericBin]) -> str:
    """Label of the unique bin containing ``value``.

    Bin endpoints are inclusive on both sides, so integer-year bins partition
    the integers but leave fractional values between bins unassigned.
    """
    for b in bins:
        if b.lo <= value and (b.hi is None or value <= b.hi):
            return b.label
    raise ValueError(f"value {value} falls in no bin")


def _facility_token(cell: str) -> bool:
    token = cell.lower()
    if token in YES_TOKENS:
        return True
    if token in NO_TOKENS:
        return False
    raise ValueError(f"unrecognized yes/no token {_shown(cell)}")


def csv_rows(text: str, error: type[ValueError]) -> Iterator[list[str]]:
    """The CSV records of ``text``; a record the reader rejects (say, a field
    over the csv module's size limit) raises ``error`` naming its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"line {reader.line_num}: {exc}") from None


def _cell_error(rowno: int, attr: AttributeDef, message: str) -> DataError:
    """The error for a rejected cell of column ``attr``, naming its row."""
    return DataError(f"row {rowno}, column {_shown(attr.name)}: {message}")


def _cell_bit(catalog: ItemCatalog, attr: AttributeDef, cell: str, rowno: int) -> int:
    """The item bit one cell of column ``attr`` sets (0 for a facility's "no").

    The bit depends only on the column and the raw cell; ``rowno`` only
    names the row in the message of a rejected cell.
    """
    value = cell.strip(_ASCII_SPACE)
    if attr.kind is AttributeKind.BINARY:
        try:
            present = _facility_token(value)
        except ValueError as exc:
            raise _cell_error(rowno, attr, str(exc)) from None
        return 1 << catalog.item_id(attr.name, "yes") if present else 0
    if not value:
        raise DataError(f"row {rowno}: empty value for attribute {_shown(attr.name)}")
    if attr.kind is AttributeKind.NUMERIC:
        try:
            number = parse_int(value)
        except ValueError as exc:
            raise _cell_error(rowno, attr, str(exc)) from None
        try:
            label = bin_numeric(number, attr.bins)
        except ValueError:
            raise _cell_error(rowno, attr, f"value {_shown(value)} falls in no bin") from None
    else:
        if value not in attr.values:
            raise _cell_error(rowno, attr, f"value {_shown(value)} not in schema")
        label = value
    return 1 << catalog.item_id(attr.name, label)


_PIECE = 1 << 16  # characters of plain text split into lines at a time


def _plain_text(text: str) -> Optional[str]:
    """``text`` with each ``\\r\\n`` as ``\\n`` when ``csv.reader`` would read
    each of its lines as the line split on ``","`` (a blank line as no
    cells), else ``None``.

    That holds when the text has no ``"`` (no quoted field hides a comma or
    spans lines), no NUL (Python 3.10's reader rejects one), no ``\\r`` but
    in ``\\r\\n`` (which ends a record as ``\\n`` does, so it is normalised
    away), and no line longer than ``csv.field_size_limit()``. The last
    check steps from line start to line start: when no ``\\n`` lies within
    ``limit`` characters of one, its line is too long; else every line up
    to the last such ``\\n`` fits, and the next step starts after it.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    limit = csv.field_size_limit()
    end = len(text) - text.endswith("\n")  # the last line's terminator ends no line
    start = 0
    while end - start > limit:
        start = text.rfind("\n", start, start + limit + 1) + 1
        if not start:
            return None
    return text


def parse_transactions(schema: Schema, text: str) -> TransactionDatabase:
    """Materialize a transaction database from CSV contents.

    Rows come from one of two sources. Plain text (see :func:`_plain_text`)
    is split on ``\\n`` one piece of about 64 KiB at a time and each line
    partitioned at its first comma (:func:`_parse_plain`), so only one
    piece's lines are held at once; no ``csv.reader`` is run, and so no
    ``io.StringIO`` copy of the text is made, which holds four bytes per
    character. Any other text goes through ``csv.reader``
    (:func:`_parse_csv`). Both give each row as its id cell, a separator
    and a tail (the rest of the row), which :func:`_read_rows` turns into
    the database.
    """
    plain = _plain_text(text)
    if plain is None:
        return _parse_csv(schema.catalog, text)
    return _parse_plain(schema.catalog, plain)


def _pieces(text: str, end: int) -> Iterator[str]:
    """``text[:end]`` cut at a ``\\n`` (which neither side keeps) after
    every ``_PIECE`` characters or more."""
    start = 0
    while True:
        stop = text.find("\n", start + _PIECE, end)
        if stop < 0:
            yield text[start:end]
            return
        yield text[start:stop]
        start = stop + 1


def _parse_plain(catalog: ItemCatalog, text: str) -> TransactionDatabase:
    """The database of plain ``text``, each line partitioned at its first
    comma; a line without one has the separator ``""``. A final ``\\n``
    ends the last line and starts no row."""
    pieces = _pieces(text, len(text) - text.endswith("\n")) if text else ()
    lines = itertools.chain.from_iterable(piece.split("\n") for piece in pieces)
    first = next(lines, None)
    header = None if first is None else first.split(",") if first else []
    rows = map(str.partition, lines, itertools.repeat(","))
    return _read_rows(catalog, header, rows, lambda tail: tail.split(","))


def _parse_csv(catalog: ItemCatalog, text: str) -> TransactionDatabase:
    """The database of the CSV records of ``text``; a record's tail is the
    tuple of its cells after the id, and a record of no cells has the
    separator ``""``."""
    records = csv_rows(text, DataError)
    header = next(records, None)
    rows = ((row[0], ",", tuple(row[1:])) if row else ("", "", None) for row in records)
    return _read_rows(catalog, header, rows, list)


_UNSEEN = object()


def _duplicate_id(record_ids: Sequence[str]) -> Optional[DataError]:
    """The error for the first row (rows count from 2) whose id repeats an
    earlier one, if any does."""
    seen: set[str] = set()
    for rowno, record_id in enumerate(record_ids, start=2):
        if record_id in seen:
            return DataError(f"row {rowno}: duplicate record_id {_shown(record_id)}")
        seen.add(record_id)
    return None


def _read_rows(
    catalog: ItemCatalog,
    header: Optional[list[str]],
    rows: Iterable[tuple[str, str, Optional[Hashable]]],
    split_tail: Callable[[Any], list[str]],
) -> TransactionDatabase:
    """Check ``header`` and turn (id cell, separator, tail) ``rows`` into a
    database.

    A tail is everything after a row's id cell and ``split_tail`` gives its
    cells; a row with no cell after its id has the separator ``""``. Rows
    with equal tails have equal masks, so each distinct tail is checked and
    encoded once, with the number of the row it first appears on, and its
    mask (or ``None`` for an excluded row) kept in a dict. A checklist table
    has few distinct tails, so the loop tests the common row first: a tail
    already kept and a non-empty id with nothing to strip cost one lookup,
    one strip and two appends, and every other row takes the checks in
    order, where its id is stripped of ASCII whitespace only and may keep
    no other padding. Within that check each column keeps a table from raw
    cell to item bit, filled by :func:`_cell_bit` the first time a cell is
    seen; empty cells never enter a table, so a row holding one takes the
    checked path. Record ids, those of excluded rows included, are hashed
    once as a whole column; only when that finds a repeat, or a row is
    rejected, are they scanned in order, so the first failing row is named.
    """
    if header is None:
        raise DataError("missing header row")
    if not header or header[0] != "record_id":
        raise DataError("row 1: first column must be 'record_id'")
    declared = {a.name: a for a in catalog.attributes}
    for col in header[1:]:
        if col not in declared:
            raise DataError(f"row 1: unknown column {_shown(col)}")
    missing = declared.keys() - set(header[1:])
    if missing:
        raise DataError(f"row 1: missing columns: {', '.join(map(_shown, sorted(missing)))}")
    if len(header) != len(declared) + 1:
        raise DataError("row 1: duplicate columns in header")
    attr_by_col = [declared[col] for col in header[1:]]
    facility_cols = [k for k, a in enumerate(attr_by_col) if a.kind is AttributeKind.BINARY]
    tables: list[dict[str, int]] = [{} for _ in attr_by_col]
    lookup = dict.__getitem__

    def tail_mask(cells: list[str], rowno: int) -> Optional[int]:
        try:
            # Each column is a different attribute, so the bits are disjoint
            # and their sum is their union.
            return sum(map(lookup, tables, cells))
        except KeyError:
            pass
        empties = [not cells[k].strip(_ASCII_SPACE) for k in facility_cols]
        if facility_cols and all(empties):
            return None
        if any(empties):
            raise DataError(f"row {rowno}: facility cells must be all present or all empty")
        members = 0
        for table, cell, attr in zip(tables, cells, attr_by_col):
            bit = table.get(cell)
            if bit is None:
                # a cell in a table passed this check before, so the first
                # cell rejected is the one a check of every cell would name
                table[cell] = bit = _cell_bit(catalog, attr, cell, rowno)
            members |= bit
        return members

    width = len(header)
    memo: dict[Any, Optional[int]] = {}
    record_ids: list[str] = []
    masks: list[Optional[int]] = []
    append_id, append_mask = record_ids.append, masks.append
    try:
        for raw_id, sep, tail in rows:
            members = memo.get(tail, _UNSEEN)
            if members is not _UNSEEN and raw_id and raw_id.strip() == raw_id:
                append_id(raw_id)
                append_mask(members)
                continue
            rowno = len(record_ids) + 2
            if members is _UNSEEN:
                cells = split_tail(tail) if sep else []
                # only a row of no cells has neither an id cell nor a separator
                n_cells = 1 + len(cells) if raw_id or sep else 0
                if n_cells != width:
                    raise DataError(f"row {rowno}: expected {width} cells, got {n_cells}")
            record_id = raw_id.strip(_ASCII_SPACE)
            if not record_id:
                raise DataError(f"row {rowno}: empty record_id")
            if record_id != record_id.strip():
                raise DataError(
                    f"row {rowno}: record_id {_shown(record_id)} has padding other than ASCII"
                    " whitespace"
                )
            append_id(record_id)
            if members is _UNSEEN:
                members = tail_mask(cells, rowno)
                # a line without a comma has the tail "" too, so that tail
                # is never kept: such a line must reach the cell count check
                if tail:
                    memo[tail] = members
            append_mask(members)
    except DataError as exc:
        raise _duplicate_id(record_ids) or exc from None
    if len(set(record_ids)) != len(record_ids):
        raise _duplicate_id(record_ids) from None
    excluded = masks.count(None)
    if excluded:
        record_ids = [rid for rid, mask in zip(record_ids, masks) if mask is not None]
        masks = [mask for mask in masks if mask is not None]
    # the ids are distinct, and each column is one attribute whose cell sets at
    # most one of its items: the rows are what the constructor trusts them to be
    return TransactionDatabase(catalog, record_ids, masks, excluded)


def _cell_texts(catalog: ItemCatalog, attr: AttributeDef) -> tuple[int, dict[int, str]]:
    """The bits of ``attr``'s items, and the cell written for each value of a
    mask's bits there: no bit is an empty cell (``N`` for a facility), and an
    item's bit its value, a numeric bin's largest integer (its lowest when
    open above) or a facility's ``Y``."""
    ids = catalog.ids_of_attribute(attr.name)
    if attr.kind is AttributeKind.BINARY:
        return 1 << ids[0], {0: "N", 1 << ids[0]: "Y"}
    if attr.kind is AttributeKind.NUMERIC:
        texts = [str(b.hi if b.hi is not None else b.lo) for b in attr.bins]
    else:
        texts = list(attr.values)
    cells = {0: "", **{1 << i: text for i, text in zip(ids, texts)}}
    return sum(1 << i for i in ids), cells


def render_transactions_csv(db: TransactionDatabase) -> str:
    """Serialize a database back to the transaction CSV format.

    Numeric cells are written as a representative integer of the transaction's
    bin, so re-parsing reproduces the same membership bits. Excluded rows are
    regenerated as all-empty rows named ``__excluded_k`` (skipping any name
    already used as a record id) to preserve the excluded count. Each cell is
    one lookup of the mask's bits in its column's table; a mask that sets two
    items of one attribute, which the database never holds, has no entry.
    """
    catalog = db.catalog
    header = ["record_id"] + [a.name for a in catalog.attributes]
    columns = [_cell_texts(catalog, a) for a in catalog.attributes]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    # csv.writer quotes a field for the terminator's "\n" but not for a bare
    # "\r", which a reader takes as a line end; such rows are quoted whole.
    quote_all = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    for record_id, mask in zip(db.record_ids, db.masks):
        cells = [record_id, *[table[mask & bits] for bits, table in columns]]
        (quote_all if "\r" in record_id else writer).writerow(cells)
    taken = set(db.record_ids)
    names = (f"__excluded_{k}" for k in itertools.count(1))
    fresh = (name for name in names if name not in taken)
    for name in itertools.islice(fresh, db.excluded_count):
        writer.writerow([name] + [""] * (len(header) - 1))
    return out.getvalue()


_PCT_RE = re.compile(r"(?P<whole>[0-9]+)(?:\.(?P<frac>[0-9]{1,2}))?")


def parse_pct_bp(text: str) -> int:
    """Parse a percentage with up to two decimals into basis points (0.01%);
    like :func:`parse_int`, it takes ASCII digits and no surrounding space."""
    m = _PCT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid percentage {_shown(text)}")
    frac = (m.group("frac") or "").ljust(2, "0")
    try:
        return int(m.group("whole")) * 100 + int(frac)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ValueError(f"percentage {_shown(text)} too long") from None


def parse_int(text: str) -> int:
    """Parse an integer written in ASCII digits with an optional sign.

    Bare ``int()`` also takes other scripts' digits, ``_`` between digits
    and surrounding whitespace; this reader takes none of them.
    """
    if _INT_RE.fullmatch(text) is None:
        raise ValueError(f"invalid integer {_shown(text)}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ValueError(f"integer {_shown(text)} too long") from None


class GoldenRule(NamedTuple):
    """One transcribed reference rule with its published two-decimal figures.

    Percentages are stored in basis points (hundredths of a percent) so
    comparisons stay exact. The published support column is the antecedent
    share of the database, i.e. what this package calls coverage.
    """

    rule_id: int
    antecedent_items: tuple[tuple[str, str], ...]
    consequent_item: tuple[str, str]
    confidence_bp: int
    support_bp: int

    @property
    def key(self) -> tuple[frozenset, tuple[str, str]]:
        return (frozenset(self.antecedent_items), self.consequent_item)


def _parse_item_text(text: str) -> tuple[str, str]:
    attr, sep, value = text.partition("=")
    if not sep or not attr.strip() or not value.strip():
        raise ValueError(f"malformed item {_shown(text)}")
    return (attr.strip(), value.strip())


GOLDEN_HEADER = ["rule_id", "antecedent", "consequent", "confidence_pct", "support_pct"]


def _antecedent(cell: str) -> tuple[tuple[tuple[str, str], ...], frozenset, Optional[str]]:
    """The items of an antecedent cell (split at ``" AND "``), their set, and
    the first way they break the template, if any: a repeated item, a
    ``facility`` item, or two items of one attribute."""
    items = tuple(_parse_item_text(part) for part in cell.split(" AND "))
    attributes = [attr for attr, _ in items]
    fault = None
    if len(set(items)) != len(items):
        fault = "malformed antecedent (repeated item)"
    elif "facility" in attributes:
        fault = "facility item in the antecedent"
    elif len(set(attributes)) != len(attributes):
        fault = "antecedent repeats an attribute"
    return items, frozenset(items), fault


def _rule_rows(text: str, header: list[str], error: type[ValueError]) -> Iterator[tuple[int, tuple]]:
    """Each row of a rule-list CSV with ``header``, as (row number, cells):
    the integer ``rule_id``, the antecedent's items (split at ``" AND "``),
    which are of distinct attributes other than ``facility``, the consequent
    item, which is a ``facility=`` item, each ``*_pct`` cell in basis points,
    then any later cell as written. Both rule lists (the reference rules and
    ``mine``'s output) are read here; a fault, such as a rule (antecedent set
    and consequent) that an earlier row already holds, raises ``error``
    naming its row.

    Antecedent, consequent and percentage cells repeat from row to row, so
    each distinct one is parsed and checked once per file; a row still meets
    its faults in the order above, and the first one raises.
    """
    rows = csv_rows(text, error)
    first = next(rows, None)
    if first is None:
        raise error("missing header row")
    if first != header:
        raise error(f"expected header {','.join(header)}")
    end = 3 + sum(name.endswith("_pct") for name in header)
    # a parse that raises keeps nothing, and its error ends the file's read
    antecedents = functools.cache(_antecedent)
    consequents = functools.cache(_parse_item_text)
    basis_points = functools.cache(parse_pct_bp)
    seen: set[tuple[frozenset, tuple[str, str]]] = set()
    for rowno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise error(f"row {rowno}: expected {len(header)} cells")
        try:
            rule_id = parse_int(row[0])
            antecedent, antecedent_set, fault = antecedents(row[1])
            consequent = consequents(row[2])
            percentages = list(map(basis_points, row[3:end]))
        except ValueError as exc:
            raise error(f"row {rowno}: {exc}") from None
        if fault is not None:
            raise error(f"row {rowno}: {fault}")
        if consequent[0] != "facility":
            raise error(f"row {rowno}: consequent {_shown(row[2])} is not a facility item")
        key = (antecedent_set, consequent)
        if key in seen:
            raise error(f"row {rowno}: duplicate rule {_shown(row[1])} => {_shown(row[2])}")
        seen.add(key)
        yield rowno, (rule_id, antecedent, consequent, *percentages, *row[end:])


def parse_golden_rules(text: str) -> list[GoldenRule]:
    """Parse the transcribed reference rules, validating percentage ranges."""
    rules: list[GoldenRule] = []
    seen_ids: set[int] = set()
    for rowno, cells in _rule_rows(text, GOLDEN_HEADER, GoldenFileError):
        rule = GoldenRule(*cells)
        if rule.rule_id in seen_ids:
            raise GoldenFileError(f"row {rowno}: duplicate rule_id {_shown(str(rule.rule_id))}")
        seen_ids.add(rule.rule_id)
        if rule.confidence_bp < 9000:
            raise GoldenFileError(f"row {rowno}: confidence below 90")
        if rule.confidence_bp > 10000:
            raise GoldenFileError(f"row {rowno}: confidence above 100")
        if not 0 < rule.support_bp <= 10000:
            raise GoldenFileError(f"row {rowno}: support out of range")
        rules.append(rule)
    return rules
