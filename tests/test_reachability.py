"""The package is what its commands run.

One fresh interpreter records every Python function it enters while it runs
a fixed set of ``cli.main`` calls: each command on the study fixture, and
one input per error route. Every ``def`` under ``src/siterules/`` must be
entered, except the short allowlist below. A function is matched by its
file and first line, as the AST gives them, since ``co_qualname`` is
missing on Python 3.10; a decorated def starts at its first decorator, and
nested defs count.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from siterules.ingest import render_transactions_csv

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "siterules"

# modules that hold no def
NO_DEFS = {"__init__", "__main__"}

# qualified name -> why no command enters it
ALLOWED = {
    # the value-type dunders of Frozen: commands compare, hash, print and
    # pickle counts and tuples, never these values
    "datamodel.Frozen._values": "the fields that equality, hashing and pickling go by",
    "datamodel.Frozen.__setattr__": "refuses assignment, which no command tries",
    "datamodel.Frozen.__delattr__": "refuses deletion, which no command tries",
    "datamodel.Frozen.__repr__": "for test failures and debugging",
    "datamodel.Frozen.__eq__": "value equality; tests compare values",
    "datamodel.Frozen.__hash__": "value hashing; no command keys a dict by a value",
    "datamodel.Frozen.__reduce__": "pickling; no command pickles",
    # perfbench/workloads.py calls these, and the benchmark is changed apart
    "datamodel.build_vertical_index": "perfbench times the transpose through it",
    "datamodel.TransactionDatabase.build": "perfbench builds its databases from rows",
    "datamodel.TransactionDatabase.transactions": "perfbench reads a database's rows",
    "engine.generate_candidates": "perfbench times the Apriori join through it",
}

_PROBE = """
import json, sys

entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
sys.path.insert(0, sys.argv[1])
from siterules import cli
from siterules.datamodel import ItemCatalog, TransactionDatabase

codes = []
for argv in json.loads(sys.argv[2]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
# no command reaches these checks: the parsers refuse a repeated id and
# build every mask in range themselves
for record_ids, masks in ((["r", "r"], [0, 0]), (["r", "s"], [0, 1])):
    try:
        TransactionDatabase.from_columns(ItemCatalog(()), record_ids, masks)
    except ValueError as exc:
        codes.append(str(exc))
sys.setprofile(None)
with open(sys.argv[3], "w") as f:
    json.dump({"codes": codes, "entered": sorted(entered)}, f)
"""


def _defs():
    """Each def under the package: (file, first line) -> (qualified name,
    ``def`` line)."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(str(path), first)] = (name, child.lineno)
            visit(child, path, name)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def _run_commands(tmp_path, data_text):
    schema = PACKAGE / "data" / "schema_appendix_a.txt"
    header, first, *rows = data_text.splitlines(keepends=True)

    def data(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return ["--schema", str(schema), "--data", str(path)]

    # the fixture's rows under new ids, repeated past one 64 KiB piece
    copies = [f"R{k}_{row}" for k in range(12) for row in [first, *rows]]
    big = header + "".join(copies)
    assert len(big) > 1 << 16
    bad_cell = first.replace(",governmental,", ",nowhere,", 1)
    long_value = first.replace(",governmental,", f",{'x' * 41},", 1)
    assert bad_cell != first and long_value != first

    fixture = data("fixture_data.csv", data_text)
    mined = tmp_path / "rules.csv"
    golden = PACKAGE / "data" / "appendix_b.csv"
    validate = ["validate", "--mined", str(mined), "--golden", str(golden)]
    calls = [
        (["fixture", "--out-dir", str(tmp_path / "fixture")], 0),
        (["mine", *fixture, "--out", str(mined)], 0),
        (["mine", *fixture, "--format", "text", "--min-conf", "50", "--max-antecedent", "3",
          "--min-support-count", "2", "--out", str(tmp_path / "rules.txt")], 0),
        (["mine", *data("big.csv", big), "--out", str(tmp_path / "big_rules.csv")], 0),
        (["stats", *fixture, "--out", str(tmp_path / "stats.csv")], 0),
        (validate, 0),
        ([*validate, "--subset", "single-antecedent", "--tolerance", "0.5"], 0),
        # error routes: the csv.reader route, a repeated id, a bad cell, a
        # long value echoed by its start, and a command that does not exist
        (["mine", *data("quoted.csv", header + '"' + first[:4] + '"' + first[4:])], 0),
        (["mine", *data("repeated.csv", header + first + first)], 2),
        (["mine", *data("bad_cell.csv", header + bad_cell)], 2),
        (["mine", *data("long_value.csv", header + long_value)], 2),
        (["frobnicate"], 2),
    ]
    result = tmp_path / "probe.json"
    subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", _PROBE, str(PACKAGE.parent),
         json.dumps([argv for argv, _ in calls]), str(result)],
        capture_output=True, check=True,
    )
    probe = json.loads(result.read_text(encoding="utf-8"))
    expected = [code for _, code in calls] + [
        "duplicate record_id 'r'", "record 's' sets an item id outside the catalog",
    ]
    assert probe["codes"] == expected
    return {(path, line) for path, line in probe["entered"] if path.startswith(str(PACKAGE))}


@pytest.fixture(scope="module")
def entered(tmp_path_factory, fixture_db):
    data_text = render_transactions_csv(fixture_db)
    return _run_commands(tmp_path_factory.mktemp("reachability"), data_text)


def test_every_def_is_entered_by_a_command(entered):
    defs = _defs()
    missed = [
        f"{Path(location[0]).relative_to(PACKAGE.parent)}:{line} {name}"
        for location, (name, line) in sorted(defs.items())
        if location not in entered and name not in ALLOWED
    ]
    assert not missed, "no command enters:\n" + "\n".join(missed)


def test_the_probe_reads_every_module(entered):
    # a wrong path or a hook that sees nothing cannot pass for full reach
    defs = _defs()
    stems = {path.stem for path in PACKAGE.rglob("*.py")}
    modules = {Path(path).stem for path, _ in defs}
    assert "cli" in stems and modules == stems - NO_DEFS
    assert modules == {Path(path).stem for path, _ in defs.keys() & entered}


def test_the_allowlist_holds_only_defs_no_command_enters(entered):
    defs = _defs()
    assert set(ALLOWED) <= {name for name, _ in defs.values()}
    entered_names = {name for location, (name, _) in defs.items() if location in entered}
    assert not entered_names & set(ALLOWED)
