"""Whole-command robustness on mutated inputs.

Each example edits one of the study fixture's four inputs (the schema, the
transaction CSV, the reference rules and the rules ``mine`` writes) and runs
the commands that read it through ``cli.main`` in-process. Whatever the
edit, the command must end in exit 0, 1 or 2 with no traceback; an exit 2
must say what went wrong on one line; and what ``mine`` writes must read
back through ``validate``'s reader. A digit from another script in a number,
an ideographic space around a rule-file percentage, or a rule that the
demographic => facility template cannot produce, must be rejected.
"""

import contextlib
import io
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siterules import corpus
from siterules.cli import main
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
    assert (code, err) == (2, f"error: row {k + 1}: invalid percentage {cells[col]!r}\n")


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
    assert code == 2 and err.startswith("error: row 2: ")



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


# (input edited, its edit, what the one error line says after "error: ");
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
    assert err.startswith(f"error: {says}")
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
