"""Whole-command robustness on mutated inputs.

Each example edits one of the study fixture's four inputs (the schema, the
transaction CSV, the reference rules and the rules ``mine`` writes) and runs
the commands that read it through ``cli.main`` in-process. Whatever the
edit, the command must end in exit 0, 1 or 2 with no traceback; an exit 2
must say what went wrong on one line; and what ``mine`` writes must read
back through ``validate``'s reader. A digit from another script in a number,
an ideographic space around a rule-file percentage, or a rule that the
demographic => facility template cannot produce, must be rejected.

Two properties hold the fast paths to the plain ones they replace: ``main``
against a parse through the full ``build_parser()`` tree, and the rule-list
reader, which parses each distinct cell once, against the reader that
parsed every row whole.
"""

import contextlib
import io
import os
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siterules import corpus
from siterules.cli import EXIT_ERROR, build_parser, main
from siterules.datamodel import _shown
from siterules.ingest import (
    GOLDEN_HEADER,
    DataError,
    GoldenFileError,
    SchemaError,
    _parse_item_text,
    _rule_rows,
    csv_rows,
    parse_int,
    parse_pct_bp,
)
from siterules.report import RULES_HEADER
from siterules.validation import parse_rules_csv

# the texts an edit inserts or puts in place of one character
TOKENS = [",", '"', "\r", "\n", "=", " AND ", "\u3000", *"0123456789"]
# the commands that read each input
READERS = {
    "schema": ("mine", "stats"),
    "data": ("mine", "stats"),
    "golden": ("validate",),
    "mined": ("validate",),
}
# valid values of the number flags, and the command that reads each
FLAGS = {
    "--min-conf": ("mine", ["90", "95.50", "100"]),
    "--max-antecedent": ("mine", ["2", "10"]),
    "--min-support-count": ("mine", ["1", "10"]),
    "--tolerance": ("validate", ["0.011", "1/100", "1e-2", "0"]),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The fixture's four input texts, and a directory to write edited copies to."""
    out = tmp_path_factory.mktemp("robustness")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["fixture", "--out-dir", str(out)]) == 0
    schema = (out / "schema_appendix_a.txt").read_text(encoding="utf-8")
    data = (out / "fixture_data.csv").read_text(encoding="utf-8")
    texts = {"schema": schema, "data": data, "golden": corpus.golden_text()}
    texts["mined"] = run_on(out, texts, "mine")[1]
    return out, texts


def run_on(directory, texts, command, *flags):
    """Write ``texts`` to ``directory`` and run ``command`` on them: (exit
    code, stdout, stderr)."""
    paths = {}
    for name, text in texts.items():
        paths[name] = directory / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8", newline="")
    if command == "validate":
        argv = ["validate", "--mined", str(paths["mined"]), "--golden", str(paths["golden"])]
    else:
        argv = [command, "--schema", str(paths["schema"]), "--data", str(paths["data"])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, *flags])
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_end(code, err, flag_error=False):
    """Exit 0, 1 or 2, and an exit 2 says why on one line: ``error: ...``,
    or argparse's usage then its one error line for a flag it rejects."""
    assert code in (0, 1, 2)
    if code != 2:
        assert err == ""
    elif flag_error:
        assert err.startswith("usage: siterules ")
        assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
        assert re.match(r"siterules \w+: error: argument --", err.splitlines()[-1])
    else:
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


@st.composite
def edits(draw, texts):
    """One input with one character inserted, deleted or replaced (the new
    text drawn from ``TOKENS``), or one line duplicated or dropped."""
    name = draw(st.sampled_from(sorted(texts)))
    text = texts[name]
    how = draw(st.sampled_from(["insert", "delete", "replace", "duplicate line", "drop line"]))
    if how.endswith("line"):
        lines = text.splitlines(keepends=True)
        k = draw(st.integers(0, len(lines) - 1))
        lines[k:k + 1] = [lines[k]] * (2 if how == "duplicate line" else 0)
        return name, "".join(lines)
    at = draw(st.integers(0, len(text) - (how != "insert")))
    token = "" if how == "delete" else draw(st.sampled_from(TOKENS))
    return name, text[:at] + token + text[at + (how != "insert"):]


def line_forms(data):
    """A quote-free transaction CSV in two forms that read as the same
    records: every line end as CRLF, and every record id quoted."""
    lines = re.split(r"\r\n|[\r\n]", data)
    quoted = [re.sub(r"^([^,]*),", r'"\1",', line) for line in lines]
    return "\r\n".join(lines), "\n".join(quoted)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_an_edited_input_ends_cleanly(work, data):
    directory, texts = work
    name, edited = data.draw(edits(texts))
    inputs = {**texts, name: edited}
    for command in READERS[name]:
        code, out, err = run_on(directory, inputs, command)
        assert_clean_end(code, err)
        if command != "mine" or code != 0:
            continue
        parse_rules_csv(out)
        if '"' not in inputs["data"]:
            for form in line_forms(inputs["data"]):
                assert run_on(directory, {**inputs, "data": form}, "mine") == (0, out, "")


def column_digits(text, wanted):
    """The offsets of the ASCII digits in the cells of the plain CSV ``text``
    whose column name ``wanted`` accepts."""
    header, *rows = text.split("\n")
    columns = {k for k, name in enumerate(header.split(",")) if wanted(name)}
    found, start = [], len(header) + 1
    for row in rows:
        offset = start
        for k, cell in enumerate(row.split(",")):
            if k in columns:
                found += [offset + i for i, c in enumerate(cell) if c in "0123456789"]
            offset += len(cell) + 1
        start += len(row) + 1
    return found


def number_digits(texts):
    """(input, offset) of each ASCII digit in a number field: a rule file's
    rule_id or percentage, a numeric data cell, or a schema bin bound. Record
    ids and item labels are names (``age=11-29``), so their digits are left
    out: a changed digit there gives another valid name."""
    def in_number(column):
        return column == "rule_id" or column.endswith("_pct")

    found = [(name, at) for name in ("golden", "mined") for at in column_digits(texts[name], in_number)]
    schema = texts["schema"]
    numeric = set(re.findall(r"(?m)^attribute (\S+) numeric", schema))
    found += [("data", at) for at in column_digits(texts["data"], numeric.__contains__)]
    for line in re.finditer(r"(?m)^attribute \S+ numeric .*bins:(.*)$", schema):
        for bound in re.finditer(r"(?:^|,)\s*([0-9]+-[0-9]*)=", line.group(1)):
            start = line.start(1) + bound.start(1)
            found += [("schema", start + i) for i, c in enumerate(bound.group(1)) if c != "-"]
    return found


def arabic_indic(text, at):
    """``text`` with its ASCII digit at ``at`` replaced by its Arabic-Indic
    twin, which ``int()`` reads as the same digit."""
    return text[:at] + chr(0x660 + int(text[at])) + text[at + 1:]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_digit_from_another_script_is_rejected(work, data):
    directory, texts = work
    if data.draw(st.booleans(), label="in a flag"):
        flag = data.draw(st.sampled_from(sorted(FLAGS)))
        command, values = FLAGS[flag]
        value = data.draw(st.sampled_from(values))
        at = data.draw(st.sampled_from([i for i, c in enumerate(value) if c.isdigit()]))
        code, _, err = run_on(directory, texts, command, flag, arabic_indic(value, at))
        # --min-conf is read by the command, after argparse
        assert_clean_end(code, err, flag_error=flag != "--min-conf")
    else:
        name, at = data.draw(st.sampled_from(number_digits(texts)))
        edited = {**texts, name: arabic_indic(texts[name], at)}
        code, _, err = run_on(directory, edited, READERS[name][0])
        assert_clean_end(code, err)
    assert code == 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_padded_percentage_is_rejected(work, data):
    directory, texts = work
    name = data.draw(st.sampled_from(["golden", "mined"]))
    lines = texts[name].split("\n")
    k = data.draw(st.integers(1, len(lines) - 2))
    cells = lines[k].split(",")
    col = data.draw(st.integers(3, 4 if name == "golden" else 5))
    cells[col] = data.draw(st.sampled_from(["\u3000{}", "{}\u3000"])).format(cells[col])
    lines[k] = ",".join(cells)
    code, _, err = run_on(directory, {**texts, name: "\n".join(lines)}, "validate")
    path = directory / f"{name}.txt"
    assert (code, err) == (2, f"error: {path}: row {k + 1}: invalid percentage {cells[col]!r}\n")


@pytest.mark.parametrize("name", ["golden", "mined"])
@pytest.mark.parametrize(
    "antecedent, consequent",
    [
        ("age=below10 AND age=above30", "facility=about_us"),
        ("facility=search_inside", "age=below10"),
    ],
    ids=["repeated-attribute", "facility-antecedent"],
)
def test_a_rule_the_template_cannot_produce_is_rejected(work, name, antecedent, consequent):
    # validate would otherwise list such a reference rule as missing, and
    # such a mined rule as extra, with exit 1
    directory, texts = work
    lines = texts[name].split("\n")
    cells = lines[1].split(",")
    cells[1:3] = [antecedent, consequent]
    lines[1] = ",".join(cells)
    code, _, err = run_on(directory, {**texts, name: "\n".join(lines)}, "validate")
    assert_clean_end(code, err)
    assert code == 2 and err.startswith(f"error: {directory / f'{name}.txt'}: row 2: ")



X = "x" * 100_000  # shorter than csv.field_size_limit(), so every route reads it


def set_cells(text, column, value, rows=(2,)):
    """CSV ``text`` with the cell under ``column`` in each of ``rows``
    (numbered from the header's 1) set to ``value``."""
    lines = text.split("\n")
    k = lines[0].split(",").index(column)
    for row in rows:
        cells = lines[row - 1].split(",")
        cells[k] = value
        lines[row - 1] = ",".join(cells)
    return "\n".join(lines)


def set_text(text, lineno, old, new):
    """``text`` with the first ``old`` on line ``lineno`` replaced by ``new``."""
    lines = text.split("\n")
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    return "\n".join(lines)


# (input edited, its edit, what the one error line says after "error: PATH: ");
# each edit puts a value of 100,000 characters (1,000 digits for a rule_id,
# which int() must convert to reach the check) where a reader echoes it
LONG_CELLS = {
    "rule_id": ("golden", lambda t: set_cells(t, "rule_id", X), "row 2: invalid integer"),
    "repeated-rule_id": (
        "golden", lambda t: set_cells(t, "rule_id", "1" * 1000, rows=(2, 3)),
        "row 3: duplicate rule_id",
    ),
    "percentage": (
        "golden", lambda t: set_cells(t, "confidence_pct", X), "row 2: invalid percentage",
    ),
    "item": ("golden", lambda t: set_cells(t, "antecedent", X), "row 2: malformed item"),
    "repeated-rule": (
        "golden",
        lambda t: set_cells(
            set_cells(t, "antecedent", f"age={X}", rows=(2, 3)), "consequent",
            "facility=about_us", rows=(2, 3),
        ),
        "row 3: duplicate rule",
    ),
    "consequent": (
        "golden", lambda t: set_cells(t, "consequent", f"age={X}"),
        "row 2: consequent 'age=xxx",
    ),
    "class": ("mined", lambda t: set_cells(t, "class", X), "row 2: unknown class"),
    "yes/no-token": (
        "data", lambda t: set_cells(t, "about_us", X),
        "row 2, column 'about_us': unrecognized yes/no token",
    ),
    "integer": (
        "data", lambda t: set_cells(t, "age", X), "row 2, column 'age': unparseable integer",
    ),
    "value": (
        "data", lambda t: set_cells(t, "ownership", X), "row 2, column 'ownership': value",
    ),
    "integer-in-no-bin": (
        "data", lambda t: set_cells(t, "age", "-" + "1" * 1000),
        "row 2, column 'age': value '-111",
    ),
    # int() refuses as many digits where Python limits them, and without a
    # limit the integer falls in no bin
    "integer-too-long": (
        "data", lambda t: set_cells(t, "age", "-" + "1" * 99_999),
        "row 2, column 'age': "
        + ("integer" if getattr(sys, "get_int_max_str_digits", lambda: 0)() else "value"),
    ),
    "unknown-column": ("data", lambda t: set_text(t, 1, "age", X), "row 1: unknown column"),
    "padded-record_id": (
        "data", lambda t: set_cells(t, "record_id", X + "\u3000"), "row 2: record_id",
    ),
    "repeated-record_id": (
        "data", lambda t: set_cells(t, "record_id", X, rows=(2, 3)),
        "row 3: duplicate record_id",
    ),
    "attribute-kind": (
        "schema", lambda t: set_text(t, 3, "numeric", X), "line 3: unknown attribute kind",
    ),
    "class-keyword": (
        "schema", lambda t: set_text(t, 4, "antecedent", X), "line 4: unknown class keyword",
    ),
    "declaration": (
        "schema", lambda t: set_text(t, 3, "attribute", X), "line 3: unrecognized declaration",
    ),
    "attribute-name": (
        "schema", lambda t: set_text(t, 4, "ownership", f"{X},"), "line 4: attribute name",
    ),
    "repeated-values": (
        "schema", lambda t: set_text(t, 4, "ownership", X).replace("private,", "governmental,"),
        "line 4: attribute 'xxx",
    ),
    "repeated-attribute": (
        "schema", lambda t: set_text(set_text(t, 4, "ownership", X), 5, "industry", X),
        "line 5: duplicate attribute",
    ),
    "value-with-AND": (
        "schema", lambda t: set_text(t, 5, "services", f"services AND {X}"), "line 5: value",
    ),
    "malformed-bin": ("schema", lambda t: set_text(t, 3, "0-10=below10", X), "line 3: malformed bin"),
    "empty-bin": (
        "schema", lambda t: set_text(t, 3, "0-10=below10", f"10-0={X}"), "line 3: bin '10-0=",
    ),
}


@pytest.mark.parametrize("case", sorted(LONG_CELLS))
def test_a_long_cell_is_echoed_by_its_start(work, case):
    directory, texts = work
    name, edit, says = LONG_CELLS[case]
    edited = edit(texts[name])
    code, _, err = run_on(directory, {**texts, name: edited}, READERS[name][0])
    assert_clean_end(code, err)
    assert code == 2
    assert err.startswith(f"error: {directory / f'{name}.txt'}: {says}")
    assert len(err.encode()) < 1024 and " characters)" in err


@pytest.mark.parametrize(
    "raw, says",
    [("1e" + "9" * 398, "exponent beyond 400"), ("1/" + "0" * 398, "zero denominator")],
    ids=["exponent", "zero-denominator"],
)
def test_a_long_tolerance_is_echoed_by_its_start(work, raw, says):
    # the longest tolerance these checks see: one over 400 characters is
    # refused by its length, unechoed
    directory, texts = work
    code, _, err = run_on(directory, texts, "validate", "--tolerance", raw)
    assert_clean_end(code, err, flag_error=True)
    assert code == 2
    assert err.splitlines()[-1].endswith(f"{says}: {raw[:20]!r}... (400 characters)")
    assert len(err.encode()) < 1024


def full_tree_main(argv):
    """``main`` as it ran with one parser for every command: the whole
    ``build_parser()`` tree parses ``argv``, then the command's handler runs."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, DataError, GoldenFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def outcome(entry, argv, directory):
    """(exit code, stdout, stderr, the text of each file in ``WRITTEN``) of
    ``entry(argv)`` run in ``directory``, with those files removed first."""
    written = [directory / name for name in WRITTEN]
    for path in written:
        if path.exists():
            path.unlink()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    files = [path.read_text(encoding="utf-8") if path.exists() else None for path in written]
    return code, out.getvalue(), err.getvalue(), files


# Each command's flags, and values for each flag, a good one first; paths
# are relative to the directory the command runs in, which holds the inputs
# as run_on writes them. The required flags are given all at once or drawn.
COMMAND_FLAGS = {
    "mine": ["--schema", "--data", "--min-conf", "--max-antecedent", "--min-support-count",
             "--format", "--out"],
    "stats": ["--schema", "--data", "--out"],
    "validate": ["--mined", "--golden", "--tolerance", "--subset"],
    "fixture": ["--out-dir"],
}
REQUIRED = ("--schema", "--data", "--mined", "--golden", "--out-dir")
FLAG_VALUES = {
    "--schema": ["schema.txt", "no-such-file"],
    "--data": ["data.txt", "schema.txt"],
    "--min-conf": ["90", "95.50", "101", "x"],
    "--max-antecedent": ["2", "0", "1.5"],
    "--min-support-count": ["1", "10", "-1"],
    "--format": ["csv", "text", "xml"],
    "--out": ["out.csv"],
    "--mined": ["mined.txt", "golden.txt"],
    "--golden": ["golden.txt", "no-such-file"],
    "--tolerance": ["0.011", "0", "1/0", "-1", "abc"],
    "--subset": ["all", "single-antecedent", "some"],
    "--out-dir": ["fixture"],
}
WRITTEN = ["out.csv", *(f"fixture/{name}" for name in (
    "schema_appendix_a.txt", "fixture_data.csv", "construction_report.txt"))]


@st.composite
def command_lines(draw):
    """An argv: a command (or none, an unknown one, or a help flag), then
    its flags with good and bad values, flags missing their value, stray
    positionals, unknown flags and help flags, in any order."""
    command = draw(st.sampled_from([*COMMAND_FLAGS, None, "bogus", "-h", "--help", "MINE"]))
    if command is None:
        return []
    flags = COMMAND_FLAGS.get(command, ["--schema", "--data", "--mined"])
    argv = [command]
    if command in COMMAND_FLAGS and draw(st.booleans()):
        argv += [part for flag in flags if flag in REQUIRED for part in (flag, FLAG_VALUES[flag][0])]
    valued = st.sampled_from(flags).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(FLAG_VALUES[flag]))
    )
    pieces = st.one_of(
        valued.map(list),
        valued.map(lambda pair: ["=".join(pair)]),
        st.sampled_from(flags).map(lambda flag: [flag]),
        st.sampled_from([["junk"], ["--bogus"], ["-h"], ["--help"], ["--"], ["-x", "1"]]),
    )
    for piece in draw(st.lists(pieces, max_size=5)):
        argv += piece
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
@example(argv=[])
@example(argv=["--help"])
@example(argv=["bogus"])
@example(argv=["mine", "--help"])
@example(argv=["mine", "--schema", "schema.txt", "--data", "data.txt", "junk"])
@example(argv=["stats", "--schema", "schema.txt", "--data", "data.txt", "--bogus"])
@example(argv=["validate", "--mined", "mined.txt", "--golden", "golden.txt", "--tolerance"])
@example(argv=["validate", "--mined", "mined.txt", "--golden", "golden.txt"])
def test_main_parses_as_the_full_tree(work, argv):
    directory, texts = work
    for name, text in texts.items():
        (directory / f"{name}.txt").write_text(text, encoding="utf-8", newline="")
    assert outcome(main, argv, directory) == outcome(full_tree_main, argv, directory)


def reference_rule_rows(text, header, error):
    """The rule-list reader as it parsed every row's cells in full, kept
    verbatim as the reference for the reader that parses each distinct
    cell once."""
    rows = csv_rows(text, error)
    first = next(rows, None)
    if first is None:
        raise error("missing header row")
    if first != header:
        raise error(f"expected header {','.join(header)}")
    end = 3 + sum(name.endswith("_pct") for name in header)
    seen: set[tuple[frozenset, tuple[str, str]]] = set()
    for rowno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise error(f"row {rowno}: expected {len(header)} cells")
        try:
            rule_id = parse_int(row[0])
            antecedent = tuple(_parse_item_text(part) for part in row[1].split(" AND "))
            consequent = _parse_item_text(row[2])
            percentages = [parse_pct_bp(cell) for cell in row[3:end]]
        except ValueError as exc:
            raise error(f"row {rowno}: {exc}") from None
        if len(set(antecedent)) != len(antecedent):
            raise error(f"row {rowno}: malformed antecedent (repeated item)")
        # the template's rules: demographic items of distinct attributes => one facility
        attributes = [attr for attr, _ in antecedent]
        if "facility" in attributes:
            raise error(f"row {rowno}: facility item in the antecedent")
        if len(set(attributes)) != len(attributes):
            raise error(f"row {rowno}: antecedent repeats an attribute")
        if consequent[0] != "facility":
            raise error(f"row {rowno}: consequent {_shown(row[2])} is not a facility item")
        key = (frozenset(antecedent), consequent)
        if key in seen:
            raise error(f"row {rowno}: duplicate rule {_shown(row[1])} => {_shown(row[2])}")
        seen.add(key)
        yield rowno, (rule_id, antecedent, consequent, *percentages, *row[end:])


RULE_HEADERS = {"golden": GOLDEN_HEADER, "mined": RULES_HEADER}


def read_rules(reader, text, header):
    """The rows ``reader`` yields for ``text``, or the error it raises."""
    try:
        return list(reader(text, header, GoldenFileError))
    except GoldenFileError as exc:
        return f"error: {exc}"


def assert_reads_as_reference(name, text):
    header = RULE_HEADERS[name]
    assert read_rules(_rule_rows, text, header) == read_rules(reference_rule_rows, text, header)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_rule_reader_reads_as_its_reference(work, data):
    _, texts = work
    name, edited = data.draw(edits({name: texts[name] for name in RULE_HEADERS}))
    assert_reads_as_reference(name, edited)


# Each edit gives a row that repeats an earlier row's antecedent, consequent
# or percentage cell, so the reader finds that cell parsed and checked, and
# puts the row's fault in another cell. Rows 2 and 3 of both files share
# their antecedent and percentages, rows 3 and 4 their consequent.
MEMO_HITS = {
    "rule_id": ("golden", "rule_id", "x", 3),
    "malformed-consequent": ("golden", "consequent", "facility", 3),
    "non-facility-consequent": ("golden", "consequent", "age=above30", 3),
    "duplicate-rule": ("golden", "consequent", "facility=about_us", 3),
    "percentage": ("golden", "support_pct", "1.234", 3),
    "repeated-attribute": ("golden", "antecedent", "age=below10 AND age=above30", 4),
    "facility-antecedent": ("golden", "antecedent", "facility=about_us", 4),
    "repeated-item": ("golden", "antecedent", "age=below10 AND age=below10", 3),
    "malformed-antecedent": ("golden", "antecedent", "age=", 4),
    "mined-coverage": ("mined", "coverage_pct", "x", 3),
    "mined-consequent": ("mined", "consequent", "facility=about_us", 3),
    "mined-antecedent": ("mined", "antecedent", "facility=search_inside", 4),
}


@pytest.mark.parametrize("case", sorted(MEMO_HITS))
def test_a_repeated_cell_with_a_fault_elsewhere_reads_as_the_reference(work, case):
    _, texts = work
    name, column, value, row = MEMO_HITS[case]
    edited = set_cells(texts[name], column, value, rows=(row,))
    assert_reads_as_reference(name, edited)
    assert read_rules(_rule_rows, edited, RULE_HEADERS[name]).startswith(f"error: row {row}: ")


def test_a_template_fault_follows_a_bad_percentage_on_its_row(work):
    # the antecedent is parsed before the percentages but judged after them
    _, texts = work
    edited = set_cells(texts["golden"], "antecedent", "age=below10 AND age=above30", rows=(3,))
    edited = set_cells(edited, "support_pct", "x", rows=(3,))
    assert_reads_as_reference("golden", edited)
    assert read_rules(_rule_rows, edited, GOLDEN_HEADER) == "error: row 3: invalid percentage 'x'"
