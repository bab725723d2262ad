import csv
import itertools
import re
import string
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siterules.datamodel import AttributeKind, ItemClass, NumericBin, TransactionDatabase
from siterules.engine import count_support
from siterules import ingest
from siterules.ingest import (
    _PIECE,
    DataError,
    _cell_bit,
    _parse_csv,
    _parse_plain,
    _pieces,
    _plain_text,
    _read_rows,
    csv_rows,
    GoldenFileError,
    SchemaError,
    bin_numeric,
    parse_golden_rules,
    parse_schema,
    parse_transactions,
    render_transactions_csv,
)

SMALL_SCHEMA = """\
# demo schema
attribute ownership categorical antecedent values: governmental, private, semiprivate
attribute age numeric antecedent bins: 0-10=below10, 11-29=11-29, 30-=above30
facility about_us "About Us page"
facility search "site search"
"""


@pytest.fixture()
def small_schema():
    return parse_schema(SMALL_SCHEMA)


class TestParseSchema:
    def test_categorical_declaration(self, small_schema):
        catalog = small_schema.catalog
        ownership = [it for it in catalog.items if it.attribute == "ownership"]
        assert [it.value for it in ownership] == ["governmental", "private", "semiprivate"]
        assert all(it.item_class is ItemClass.DEMOGRAPHIC for it in ownership)

    def test_facility_sugar(self, small_schema):
        catalog = small_schema.catalog
        assert catalog.item_id("about_us", "yes") == 6
        assert catalog.attribute("about_us").description == "About Us page"

    def test_demographics_precede_facilities(self, small_schema):
        classes = [it.item_class for it in small_schema.catalog.items]
        assert classes == [ItemClass.DEMOGRAPHIC] * 6 + [ItemClass.FACILITY] * 2

    def test_empty_file(self):
        with pytest.raises(SchemaError, match="no attributes declared"):
            parse_schema("# nothing here\n\n")

    def test_duplicate_attribute(self):
        text = 'facility x "a"\nfacility x "b"\n'
        with pytest.raises(SchemaError, match="line 2: duplicate attribute"):
            parse_schema(text)

    def test_unknown_class_keyword(self):
        with pytest.raises(SchemaError, match="unknown class keyword"):
            parse_schema("attribute a categorical sideways values: x, y\n")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown attribute kind"):
            parse_schema("attribute a fuzzy antecedent values: x\n")

    def test_overlapping_bins(self):
        with pytest.raises(SchemaError, match="non-overlapping"):
            parse_schema("attribute a numeric antecedent bins: 0-10=x, 10-20=y\n")

    def test_open_bin_must_be_last(self):
        with pytest.raises(SchemaError, match="non-overlapping"):
            parse_schema("attribute a numeric antecedent bins: 0-=x, 5-9=y\n")

    def test_malformed_bin(self):
        with pytest.raises(SchemaError, match="malformed bin"):
            parse_schema("attribute a numeric antecedent bins: ten-20=x\n")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts strings of any length here",
    )
    @pytest.mark.parametrize("bins", ["0-{big}=x", "0-10=x, {big}-=y"])
    def test_bin_bound_too_long_for_int_names_its_line(self, bins):
        big = "1" * (sys.get_int_max_str_digits() + 1)
        text = "facility f \"F\"\nattribute a numeric antecedent bins: " + bins.format(big=big)
        with pytest.raises(SchemaError, match="^line 2: bin '[xy]' has a bound too long$"):
            parse_schema(text)

    @pytest.mark.parametrize("text", [
        "attribute age categorical antecedent values: a, a\n",
        "attribute age numeric antecedent bins: 0-10=a, 11-=a\n",
    ])
    def test_duplicate_values_carry_line_number(self, text):
        with pytest.raises(SchemaError, match="line 1: attribute 'age' has duplicate values"):
            parse_schema(text)

    def test_consequent_attribute_rejected(self):
        # A two-valued consequent would render both values as "facility=size".
        text = (
            "attribute age categorical antecedent values: young, old\n"
            "attribute size categorical consequent values: small, big\n"
        )
        with pytest.raises(SchemaError, match="line 2: consequents are declared with 'facility'"):
            parse_schema(text)

    @pytest.mark.parametrize(
        "declaration, message",
        [
            ("attribute own,er categorical antecedent values: a, b", "attribute name 'own,er' contains ','"),
            ('facility about,us "About"', "attribute name 'about,us' contains ','"),
            ("attribute o=wn categorical antecedent values: a, b", "attribute name 'o=wn' contains '='"),
            ('attribute "q categorical antecedent values: a, b', """attribute name '"q' contains '"'"""),
            ('facility "about_us "About"', """attribute name '"about_us' contains '"'"""),
            ("attribute own categorical antecedent values: x AND y, z", "value 'x AND y' contains ' AND '"),
            ("attribute own categorical antecedent values: x AND, z", "value 'x AND' contains ' AND '"),
            ("attribute facility categorical antecedent values: a, b", "'facility' labels facility items"),
        ],
    )
    def test_names_that_break_rule_files_rejected(self, declaration, message):
        # Rule files write items as attribute=value joined by " AND " in a CSV cell.
        with pytest.raises(SchemaError, match=f"line 2: {re.escape(message)}"):
            parse_schema(f'facility search "site search"\n{declaration}\n')

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(SchemaError, match="line 2"):
            parse_schema("facility ok \"fine\"\nattribute broken\n")


BINS = (NumericBin(0, 10, "below10"), NumericBin(11, 29, "11-29"), NumericBin(30, None, "above30"))


class TestBinNumeric:
    @pytest.mark.parametrize(
        "value,label",
        [(5, "below10"), (0, "below10"), (10, "below10"), (11, "11-29"),
         (29, "11-29"), (30, "above30"), (95, "above30")],
    )
    def test_boundaries(self, value, label):
        assert bin_numeric(value, BINS) == label

    def test_fraction_between_bins_errors(self):
        with pytest.raises(ValueError, match="falls in no bin"):
            bin_numeric(10.5, BINS)

    def test_negative_errors(self):
        with pytest.raises(ValueError, match="falls in no bin"):
            bin_numeric(-3, BINS)


def rows_to_csv(rows):
    header = "record_id,ownership,age,about_us,search"
    return "\n".join([header] + rows) + "\n"


class TestParseTransactions:
    def test_membership(self, small_schema):
        db = parse_transactions(small_schema, rows_to_csv(["c1,governmental,25,Y,n"]))
        catalog = small_schema.catalog
        txn = db.transactions[0]
        assert txn.members >> catalog.item_id("ownership", "governmental") & 1
        assert txn.members >> catalog.item_id("age", "11-29") & 1
        assert txn.members >> catalog.item_id("about_us", "yes") & 1
        assert not txn.members >> catalog.item_id("search", "yes") & 1

    def test_all_empty_facilities_excluded(self, small_schema):
        rows = [f"c{k},private,5,Y,N" for k in range(91)]
        rows += [f"x{k},,," + "," for k in range(9)]
        db = parse_transactions(small_schema, rows_to_csv(rows))
        assert db.size == 91
        assert db.excluded_count == 9

    def test_zero_rows(self, small_schema):
        db = parse_transactions(small_schema, rows_to_csv([]))
        assert db.size == 0
        assert db.excluded_count == 0

    def test_header_order_insensitive(self, small_schema):
        text = "record_id,search,about_us,age,ownership\nc1,N,Y,40,private\n"
        db = parse_transactions(small_schema, text)
        assert db.transactions[0].members >> small_schema.catalog.item_id("age", "above30") & 1

    def test_unknown_column(self, small_schema):
        text = "record_id,ownership,age,about_us,search,bogus\nc1,private,5,Y,N,x\n"
        with pytest.raises(DataError, match="unknown column"):
            parse_transactions(small_schema, text)

    def test_missing_column(self, small_schema):
        text = "record_id,ownership,age,about_us\nc1,private,5,Y\n"
        with pytest.raises(DataError, match="missing columns: search"):
            parse_transactions(small_schema, text)

    def test_duplicate_record_id(self, small_schema):
        with pytest.raises(DataError, match=r"^row 3: duplicate record_id 'c1'$"):
            parse_transactions(
                small_schema, rows_to_csv(["c1,private,5,Y,N", "c1,private,6,Y,N"])
            )

    @pytest.mark.parametrize(
        "rows", [["c1,private,5,Y,N", "c1,,,,"], ["c1,,,,", "c1,private,5,Y,N"], ["c1,,,,", "c1,,,,"]]
    )
    def test_excluded_row_ids_count_as_duplicates(self, small_schema, rows):
        with pytest.raises(DataError, match=r"^row 3: duplicate record_id 'c1'$"):
            parse_transactions(small_schema, rows_to_csv(rows))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the earlier row's error wins, whichever kind it is
            (["c1,private,5,Y,N", "c1,private,5,Y,N", "c2,communal,5,Y,N"],
             "row 3: duplicate record_id 'c1'"),
            (["c1,private,5,Y,N", "c2,communal,5,Y,N", "c1,private,5,Y,N"],
             "row 3, column 'ownership': value 'communal' not in schema"),
            (["c1,private,5,Y,N", "c1,private,5,Y", "c2,private,5,Y,N"],
             "row 3: expected 5 cells, got 4"),
            (["c1,private,5,Y,N", "c2,private,5,Y", "c1,private,5,Y,N"],
             "row 3: expected 5 cells, got 4"),
            # within a row, the duplicate id is found before the cells are read
            (["c1,private,5,Y,N", "c1,communal,5,Y,N"], "row 3: duplicate record_id 'c1'"),
            (["c1,private,5,Y,N", " ,private,5,Y,N", "c1,private,5,Y,N"], "row 3: empty record_id"),
            (["c1,private,5,Y,N", "c2,private,5,Y,N", "c1,private,5,Y,N", "c3"],
             "row 4: duplicate record_id 'c1'"),
            # within a row's cells, some already seen, the first bad one is named
            (["c1,private,5,Y,N", "c2,private,x,Y,maybe"], "row 3, column 'age': unparseable integer 'x'"),
            (["c1,private,5,Y,N", "c2,communal,x,Y,N"],
             "row 3, column 'ownership': value 'communal' not in schema"),
            (["c1,private,5,Y,N", "c2,private,x,Y,"], "row 3: facility cells must be all present or all empty"),
        ],
    )
    def test_first_failing_row_is_named(self, small_schema, rows, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            parse_transactions(small_schema, rows_to_csv(rows))

    def test_quoted_newline_kept_in_record_id(self, small_schema):
        text = rows_to_csv(['"a\nb",private,5,Y,N', "ab,private,6,Y,N"])
        db = parse_transactions(small_schema, text)
        assert [t.record_id for t in db.transactions] == ["a\nb", "ab"]

    def test_partial_facility_row_rejected(self, small_schema):
        with pytest.raises(DataError, match="all present or all empty"):
            parse_transactions(small_schema, rows_to_csv(["c1,private,5,Y,"]))

    def test_unknown_categorical_value(self, small_schema):
        with pytest.raises(DataError, match="not in schema"):
            parse_transactions(small_schema, rows_to_csv(["c1,communal,5,Y,N"]))

    def test_empty_demographic_cell_rejected(self, small_schema):
        with pytest.raises(DataError, match="empty value"):
            parse_transactions(small_schema, rows_to_csv(["c1,,5,Y,N"]))

    def test_unparseable_number(self, small_schema):
        with pytest.raises(DataError, match="unparseable integer"):
            parse_transactions(small_schema, rows_to_csv(["c1,private,old,Y,N"]))

    @pytest.mark.parametrize("age", ["1_0", "\u0661\u0660", "\u300025", "25\xa0"])
    def test_non_ascii_digits_rejected(self, small_schema, age):
        with pytest.raises(DataError, match=r"row 2, column 'age': unparseable integer"):
            parse_transactions(small_schema, rows_to_csv([f"c1,private,{age},Y,N"]))

    def test_overlong_field_names_its_line(self, small_schema):
        text = rows_to_csv(["c1,private,5,Y,N", f"c2,private,5,{'Y' * 131_073},N"])
        with pytest.raises(DataError, match="line 3: field larger than field limit"):
            parse_transactions(small_schema, text)

    def test_unbinnable_number(self, small_schema):
        with pytest.raises(DataError, match="falls in no bin"):
            parse_transactions(small_schema, rows_to_csv(["c1,private,-4,Y,N"]))

    def test_bad_token(self, small_schema):
        with pytest.raises(DataError, match="yes/no token"):
            parse_transactions(small_schema, rows_to_csv(["c1,private,5,maybe,N"]))

    def test_token_variants(self, small_schema):
        db = parse_transactions(
            small_schema, rows_to_csv(["c1,private,5,YES,0", "c2,private,5,1,no"])
        )
        about = small_schema.catalog.item_id("about_us", "yes")
        assert [t.members >> about & 1 for t in db.transactions] == [1, 1]

    def test_row_order_permutes_transactions_not_counts(self, small_schema):
        rows = ["c1,governmental,5,Y,N", "c2,private,25,N,Y", "c3,semiprivate,40,Y,Y"]
        db_a = parse_transactions(small_schema, rows_to_csv(rows))
        db_b = parse_transactions(small_schema, rows_to_csv(rows[::-1]))
        by_id_a = {t.record_id: t.members for t in db_a.transactions}
        by_id_b = {t.record_id: t.members for t in db_b.transactions}
        assert by_id_a == by_id_b
        for i in range(small_schema.catalog.n_items):
            assert count_support(db_a, (i,)) == count_support(db_b, (i,))


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def random_rows(draw):
    """Rows with quoted record ids that hold commas, quotes, newlines or
    carriage returns or read like the rendered ``__excluded_k`` ids, and
    several spellings of each cell value, so one value repeats in several raw
    forms within a column."""
    n = draw(st.integers(0, 25))
    rows = []
    for k in range(n):
        prefix = draw(st.sampled_from(["r", "a,b", 'q"x', "a\nb", "p\rq", "__excluded_"]))
        record_id = prefix + str(k)
        ownership = draw(st.sampled_from(["governmental", "private", " private", "semiprivate"]))
        age = draw(st.integers(0, 60))
        age_cell = draw(st.sampled_from([str(age), f" {age}", f"+{age}", f"{age:03d}"]))
        about, search = (
            draw(st.sampled_from(["Y", " y", "yes", "1", "N", "n ", "no", "0"])) for _ in range(2)
        )
        rows.append(f"{quoted(record_id)},{ownership},{age_cell},{about},{search}")
    excluded = draw(st.integers(0, 4))
    rows += [f"gone{k},,,," for k in range(excluded)]
    return rows


class TestRoundTrip:
    @given(random_rows())
    @example(['"a,b",private,5,Y,N', '"q""x",private,25,N,Y', '"a\nb",governmental,40,Y,Y'])
    @example(['"p\rq",private,5,Y,N', "z,governmental,40,N,Y"])
    @example(["__excluded_1,private,5,Y,N", "gone,,,,"])
    @settings(max_examples=60, deadline=None)
    def test_serialize_then_parse_is_identity(self, rows):
        schema = parse_schema(SMALL_SCHEMA)
        db = parse_transactions(schema, rows_to_csv(rows))
        again = parse_transactions(schema, render_transactions_csv(db))
        assert again.size == db.size
        assert again.excluded_count == db.excluded_count
        assert [t.members for t in again.transactions] == [t.members for t in db.transactions]
        assert [t.record_id for t in again.transactions] == [t.record_id for t in db.transactions]
        assert again.vertical_index == db.vertical_index

    @given(random_rows())
    @settings(max_examples=60, deadline=None)
    def test_build_from_rows_matches_parse(self, rows):
        schema = parse_schema(SMALL_SCHEMA)
        db = parse_transactions(schema, rows_to_csv(rows))
        again = TransactionDatabase.build(schema.catalog, db.transactions, db.excluded_count)
        assert again.record_ids == db.record_ids
        assert again.masks == db.masks
        assert again.excluded_count == db.excluded_count
        assert again.vertical_index == db.vertical_index
        assert again == db

    @given(random_rows())
    @settings(max_examples=60, deadline=None)
    def test_rows_parse_as_they_do_alone(self, rows):
        schema = parse_schema(SMALL_SCHEMA)
        db = parse_transactions(schema, rows_to_csv(rows))
        alone = [parse_transactions(schema, rows_to_csv([row])) for row in rows]
        assert db.transactions == tuple(t for one in alone for t in one.transactions)
        assert db.excluded_count == sum(one.excluded_count for one in alone)


def reference_rows(schema, text):
    """The row loop before the plain route, as a test oracle: ``csv.reader``,
    then per row the cell count, the id, the duplicate check and every cell
    through ``_cell_bit``. The header checks are borrowed from the parser."""
    catalog = schema.catalog
    records = csv_rows(text, DataError)
    header = next(records, None)
    _read_rows(catalog, header, iter(()), list)
    attrs = [catalog.attribute(col) for col in header[1:]]
    facility = [k for k, attr in enumerate(attrs) if attr.kind is AttributeKind.BINARY]
    record_ids, masks, seen, excluded = [], [], set(), 0
    for rowno, row in enumerate(records, start=2):
        if len(row) != len(header):
            raise DataError(f"row {rowno}: expected {len(header)} cells, got {len(row)}")
        record_id = row[0].strip(string.whitespace)
        if not record_id:
            raise DataError(f"row {rowno}: empty record_id")
        if record_id != record_id.strip():
            raise DataError(
                f"row {rowno}: record_id {record_id!r} has padding other than ASCII whitespace"
            )
        if record_id in seen:
            raise DataError(f"row {rowno}: duplicate record_id {record_id!r}")
        seen.add(record_id)
        empties = [not row[1 + k].strip(string.whitespace) for k in facility]
        if facility and all(empties):
            excluded += 1
            continue
        if any(empties):
            raise DataError(f"row {rowno}: facility cells must be all present or all empty")
        record_ids.append(record_id)
        masks.append(sum(_cell_bit(catalog, a, cell, rowno) for a, cell in zip(attrs, row[1:])))
    return record_ids, masks, excluded


def outcome(parse):
    """The columns a parse gives, or the message of the ``DataError`` it raises."""
    try:
        got = parse()
    except DataError as exc:
        return str(exc)
    if isinstance(got, TransactionDatabase):
        return list(got.record_ids), list(got.masks), got.excluded_count
    return got


HEADER = "record_id,ownership,age,about_us,search"
ODD_IDS = [
    " c3", "c1 ", "", "\u0661", '"c1"', '"a,b"', '"x\ny"', 'q"x', "c\0", "\u3000c3", "c1\xa0", "\x1c",
]
# per column: cells the schema accepts, then cells it rejects or that need the reader
COLUMN_CELLS = [
    (
        ["private", " governmental", "semiprivate "],
        ["communal", "", '"private"', "pri\0vate", "\u3000private"],
    ),
    (["5", " 25", "+40", "011"], ["\u0661\u0660", "1_0", "", "x", "-4", '"2,5"', "\u300025"]),
    (["Y", "n ", "yes", "0"], ["", " ", "maybe", '"Y"', "\r", "Y\u3000", "\u3000"]),
    (["N", " y", "no", "1"], ["", " ", "maybe", '"n"', "\r", "\x1cn"]),
]
SOUP = [",", '"', "\r", "\n", "\r\n", "\0", " ", "\u0661", "private", "25", "Y", "c1"]


@st.composite
def row_texts(draw):
    """Transaction CSV texts made of the header and lines of schema values,
    ids, spaces, non-ASCII digits, quotes, NULs and bare carriage returns.
    Most lines are rows the schema accepts, some with a repeated id or all
    facility cells empty; some are rejected cells, lines short or long by a
    cell, blank lines or a soup of those characters. Lines end in ``\\n``,
    ``\\r\\n`` or ``\\r``, the last one possibly in nothing. About half the
    texts draw no quote, NUL or bare ``\\r``, so both row sources read them."""
    plain = draw(st.booleans())

    def allowed(options):
        return [o for o in options if not plain or not set(o) & set('"\0\r')]

    def pick(options):
        return draw(st.sampled_from(allowed(options)))

    lines = [HEADER]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 20 + ["excluded"] * 3 + ["short", "long", "blank", "soup"]))
        if kind == "blank":
            lines.append("")
        elif kind == "soup":
            lines.append("".join(draw(st.lists(st.sampled_from(allowed(SOUP))))))
        else:
            odd = draw(st.integers(0, 9)) == 0
            record_id = pick(ODD_IDS) if odd else f"c{draw(st.integers(0, 30))}"
            cells = [record_id] + [
                pick(bad) if draw(st.integers(0, 29)) == 0 else pick(good) for good, bad in COLUMN_CELLS
            ]
            if kind == "excluded":
                cells[3:] = ["", " "]
            cells = cells[:-1] if kind == "short" else cells + ["Y"] * (kind == "long")
            lines.append(",".join(cells))
    ends = [pick(["\n", "\r\n", "\r"]) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestRowSources:
    """The plain route (split lines) and the ``csv.reader`` route must give
    the same columns or the same error, and both the oracle's."""

    @given(row_texts())
    @example(HEADER + "\nc1,private,5,Y,N\n\nc2,private,5,Y,N\n")  # blank line in the middle
    @example(HEADER + "\nc1,private,5,Y,N\n\n\n")  # two trailing blank lines
    @example(HEADER + "\nc1,private,5,Y,N\nc2,private,25,N,Y")  # no final newline
    @example(HEADER + "\r\nc1,private,5,Y,N\r\nc2,,,,\r\n")  # CRLF
    @example(HEADER + "\nc1,private,5,Y,N\rc2,private,25,N,Y\n")  # a bare \r
    @example(HEADER + "\nc1,private,5,Y,N\nc\0,private,5,Y,N\n")  # NUL: 3.10 rejects it
    @example(HEADER + "\nc1,private,5,Y,N\nc1,,,,\nc2,communal,5,Y,N\n")
    @example("")
    @example("\n")
    @example(HEADER + "\n\u0661,private,\u0661,Y,N\n")
    @example(HEADER + "\nc1,private,5,\u3000,N\n")  # a facility cell of one non-ASCII space
    @settings(max_examples=300, deadline=None)
    def test_both_routes_match_the_oracle(self, text):
        schema = parse_schema(SMALL_SCHEMA)
        catalog = schema.catalog
        expected = outcome(lambda: reference_rows(schema, text))
        assert outcome(lambda: _parse_csv(catalog, text)) == expected
        plain = _plain_text(text)
        if plain is not None:
            assert outcome(lambda: _parse_plain(catalog, plain)) == expected
        assert outcome(lambda: parse_transactions(schema, text)) == expected

    def test_a_line_without_a_comma_after_an_empty_tail_is_rejected(self):
        # with one attribute, "r1," has the tail "" and so does "r2"
        schema = parse_schema('facility a "x"\n')
        text = "record_id,a\nr1,\nr2\n"
        message = "row 3: expected 2 cells, got 1"
        assert outcome(lambda: reference_rows(schema, text)) == message
        assert outcome(lambda: parse_transactions(schema, text)) == message

    @pytest.mark.parametrize(
        "text, plain",
        [
            (HEADER + "\nc1,private,5,Y,N\n", True),
            (HEADER + "\r\nc1,private,5,Y,N\r\n", True),
            (HEADER + "\nc1,private,5,Y,N\n\n\n", True),
            (HEADER + "\nc1,private,5,Y,N", True),
            ("", True),
            (HEADER + "\nc1,private,5,Y,N\r", False),
            (HEADER + "\r\r\nc1,private,5,Y,N\n", False),
            (HEADER + '\n"c1",private,5,Y,N\n', False),
            (HEADER + "\nc\0,private,5,Y,N\n", False),
        ],
    )
    def test_plain_route_is_taken_only_for_plain_text(self, text, plain):
        assert (_plain_text(text) is not None) is plain

    @pytest.mark.parametrize(
        "id_length, plain, error",
        [
            (36, True, None),  # the row line is 50 characters, the limit
            (37, False, None),  # one over: the reader reads it, every field fits
            (50, False, None),  # the id field is at the limit
            (51, False, "line 3: field larger than field limit (50)"),
        ],
    )
    def test_line_over_the_field_size_limit_takes_the_reader(self, id_length, plain, error):
        schema = parse_schema(SMALL_SCHEMA)
        text = rows_to_csv(["c1,private,5,Y,N", "c" * id_length + ",private,5,Y,N"])
        old_limit = csv.field_size_limit(50)
        try:
            assert (_plain_text(text) is not None) is plain
            got = outcome(lambda: parse_transactions(schema, text))
            assert got == outcome(lambda: reference_rows(schema, text))
            if error:
                assert got == error
            else:
                assert got[0] == ["c1", "c" * id_length]
        finally:
            csv.field_size_limit(old_limit)

    @given(
        st.lists(st.sampled_from(["a", ",", " ", "\n", "\r\n"]), max_size=40).map("".join),
        st.integers(0, 8),
    )
    @example("aaa\n", 3)  # the final terminator is no part of a line
    @example("aaa\n\n", 3)
    @example("aaaa\n", 3)
    @example("", 0)
    @example("\n", 0)
    @settings(max_examples=300, deadline=None)
    def test_long_line_check_steps_line_to_line(self, text, limit):
        lines = text.replace("\r\n", "\n").split("\n")
        if not lines[-1]:
            lines.pop()
        old_limit = csv.field_size_limit(limit)
        try:
            plain = _plain_text(text)
        finally:
            csv.field_size_limit(old_limit)
        assert (plain is None) is (max(map(len, lines), default=0) > limit)
        if plain is not None:
            assert plain == text.replace("\r\n", "\n")


class TestCellTables:
    @pytest.mark.parametrize("parse", [parse_transactions, lambda schema, text: _parse_csv(schema.catalog, text)])
    def test_each_distinct_cell_is_encoded_once(self, monkeypatch, parse):
        rows = [
            "c1,private,5,Y,N",
            "c2,private,25,Y,N",  # one new cell: only the age is encoded
            "c3,governmental,25,N,N",
            "c4,private,5,N,N",  # a new tail of cells already seen
            "c5,private,26,Y,N",
            "c6,private,27,Y,N",
            "c7,,,,",  # excluded: no cell is encoded
            "c8,private,5,Y,N",
        ]
        calls = Counter()

        def counted(catalog, attr, cell, rowno):
            calls[attr.name, cell] += 1
            return _cell_bit(catalog, attr, cell, rowno)

        monkeypatch.setattr(ingest, "_cell_bit", counted)
        schema = parse_schema(SMALL_SCHEMA)
        text = rows_to_csv(rows)
        got = outcome(lambda: parse(schema, text))
        columns = HEADER.split(",")[1:]
        encoded = [row.split(",")[1:] for row in rows if row != "c7,,,,"]
        distinct = {(col, cell) for cells in encoded for col, cell in zip(columns, cells)}
        assert calls == Counter(dict.fromkeys(distinct, 1))
        assert got == outcome(lambda: reference_rows(schema, text))


def padded(rows, size):
    """The leading ``rows`` whose lines, each with its ``\\n``, fill
    ``size`` characters, the last one's id padded with ``x`` to fill them
    exactly, and the rows left over."""
    taken, total = [], 0
    for row in rows:
        if total + len(row) + 1 > size:
            break
        taken.append(row)
        total += len(row) + 1
    taken[-1] = "x" * (size - total) + taken[-1]
    return taken, rows[len(taken):]


class TestStreamedRoute:
    """Plain text of more than one piece: the study fixture's rows repeated
    with fresh ids, with a blank line, a line with no comma or nothing odd
    inside the first piece, as its last line or as the next piece's first,
    and the text ending there or going on, with a final newline or not."""

    @pytest.fixture(scope="class")
    def study(self, study_schema, fixture_db):
        header, *rows = render_transactions_csv(fixture_db).splitlines()
        copies = -(-3 * _PIECE // sum(len(row) + 1 for row in rows))
        fresh = [f"r{copy}_{row}" for copy in range(copies) for row in rows]
        return study_schema, header, fresh

    @pytest.mark.parametrize(
        "odd, where, rest, final_newline",
        [
            pytest.param(odd, where, rest, final_newline, id=f"{odd_id}-{where}-{rest_id}-{end_id}")
            for (odd, odd_id), where, (rest, rest_id), (final_newline, end_id) in itertools.product(
                [(None, "none"), ("", "blank"), ("C999private", "no-comma")],
                ["inside", "last-of-piece", "first-of-next"],
                [(True, "rows-follow"), (False, "text-ends")],
                [(True, "final-newline"), (False, "no-final-newline")],
            )
            # a blank last line with no newline after it is no line, and the
            # text is the one without it that ends in a newline
            if not (odd == "" and where != "inside" and not rest and not final_newline)
        ],
    )
    def test_matches_the_reader_and_the_oracle(self, study, odd, where, rest, final_newline):
        schema, header, rows = study
        odd_lines = [] if odd is None else [odd]
        next_lines = []
        if where == "inside":
            block, after = rows[:500] + odd_lines + rows[500:1000], rows[1000:]
        elif where == "last-of-piece":
            block, after = padded(rows, _PIECE - len(header) - sum(len(line) + 1 for line in odd_lines))
            block += odd_lines
        else:
            block, after = padded(rows, _PIECE - len(header))
            next_lines = odd_lines
        lines = [header, *block, *next_lines, *(after if rest else [])]
        text = "\n".join(lines) + "\n" * final_newline
        assert _plain_text(text) == text
        pieces = list(_pieces(text, len(text) - final_newline))
        if where != "inside":
            # the first piece ends at the terminator of the line that reaches
            # _PIECE characters, which the padding put on the block's last line
            assert len(pieces[0]) + 1 == sum(len(line) + 1 for line in [header, *block])
            if odd is not None:
                edge = pieces[0].split("\n")[-1] if where == "last-of-piece" else pieces[1].split("\n")[0]
                assert edge == odd
        assert "\n".join(pieces) == text[:len(text) - final_newline]
        expected = outcome(lambda: reference_rows(schema, text))
        if odd is None:
            record_ids, _, excluded = expected
            assert len(record_ids) + excluded == len(lines) - 1
        else:
            assert expected == f"row {lines.index(odd) + 1}: expected 24 cells, got {1 if odd else 0}"
        assert outcome(lambda: _parse_csv(schema.catalog, text)) == expected
        assert outcome(lambda: _parse_plain(schema.catalog, text)) == expected
        assert outcome(lambda: parse_transactions(schema, text)) == expected


GOLDEN_HEADER = "rule_id,antecedent,consequent,confidence_pct,support_pct"


class TestParseGoldenRules:
    def test_examples(self):
        text = "\n".join(
            [
                GOLDEN_HEADER,
                "1,age=below10,facility=about_us,100.00,12.08",
                "21,ownership=governmental,facility=about_us,97.95,53.84",
            ]
        )
        one, twentyone = parse_golden_rules(text)
        assert one.antecedent_items == (("age", "below10"),)
        assert one.consequent_item == ("facility", "about_us")
        assert one.confidence_bp == 10_000
        assert one.support_bp == 1208
        assert twentyone.rule_id == 21
        assert twentyone.confidence_bp == 9795

    def test_two_item_antecedent(self):
        text = GOLDEN_HEADER + "\n8,age=above30 AND ownership=private,facility=contact_us,100,12.08"
        (rule,) = parse_golden_rules(text)
        assert rule.antecedent_items == (("age", "above30"), ("ownership", "private"))
        assert rule.confidence_bp == 10_000

    def test_confidence_below_90_rejected(self):
        text = GOLDEN_HEADER + "\n1,age=below10,facility=about_us,89.00,12.08"
        with pytest.raises(GoldenFileError, match="confidence below 90"):
            parse_golden_rules(text)

    def test_confidence_above_100_rejected(self):
        text = GOLDEN_HEADER + "\n1,age=below10,facility=about_us,101.00,12.08"
        with pytest.raises(GoldenFileError, match="confidence above 100"):
            parse_golden_rules(text)

    def test_malformed_antecedent(self):
        text = GOLDEN_HEADER + "\n1,below10,facility=about_us,100.00,12.08"
        with pytest.raises(GoldenFileError, match="malformed item"):
            parse_golden_rules(text)

    def test_zero_support_rejected(self):
        text = GOLDEN_HEADER + "\n1,age=below10,facility=about_us,100.00,0.00"
        with pytest.raises(GoldenFileError, match="support out of range"):
            parse_golden_rules(text)

    def test_bad_header(self):
        with pytest.raises(GoldenFileError, match="expected header"):
            parse_golden_rules("a,b,c\n")

    def test_duplicate_rule_id(self):
        text = "\n".join(
            [
                GOLDEN_HEADER,
                "1,age=below10,facility=about_us,100.00,12.08",
                "1,age=below10,facility=search,100.00,12.08",
            ]
        )
        with pytest.raises(GoldenFileError, match="duplicate rule_id"):
            parse_golden_rules(text)

    @pytest.mark.parametrize(
        "cell",
        # int() reads each of these but the first two as 10
        ["ten", "", "\u0661\u0660", "\uff11\uff10", "1_0", " 10", "10 ", "\u0661_\u0660 "],
    )
    def test_rule_id_takes_ascii_digits_only(self, cell):
        text = GOLDEN_HEADER + f"\n{cell},age=below10,facility=about_us,100.00,12.08"
        with pytest.raises(GoldenFileError) as exc:
            parse_golden_rules(text)
        assert str(exc.value) == f"row 2: invalid integer {cell!r}"

    @pytest.mark.parametrize("cell, rule_id", [("10", 10), ("+10", 10), ("010", 10), ("-3", -3)])
    def test_rule_id_ascii_forms_read_as_before(self, cell, rule_id):
        text = GOLDEN_HEADER + f"\n{cell},age=below10,facility=about_us,100.00,12.08"
        assert [g.rule_id for g in parse_golden_rules(text)] == [rule_id]

    def test_overlong_field_names_its_line(self):
        text = GOLDEN_HEADER + f"\n1,age=below10,facility={'x' * 131_073},100.00,12.08"
        with pytest.raises(GoldenFileError, match="line 2: field larger than field limit"):
            parse_golden_rules(text)

    def test_packaged_file_has_68_rules(self, golden):
        assert len(golden) == 68
        assert [g.rule_id for g in golden] == list(range(1, 69))
