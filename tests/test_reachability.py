"""The package is what its commands run, line by line.

One fresh interpreter traces every line it runs under ``src/siterules/``
while it imports the package and makes a fixed set of ``cli.main`` calls:
each command on the study fixture, and one input per refusal that a
command-line input can reach. Every executable line of every function body
must run, except the statements in the allowlist below, each with its
reason.

A function body's executable lines are those that ``co_lines()`` gives for
the function's compiled code, and for the comprehensions, lambdas and
generator expressions inside it, less the lines of the ``def`` itself. A
line belongs to the innermost statement (or ``except`` clause) that holds
it, and an allowlist entry names that statement by its function's
qualified name (``module.Class.function``, nested defs included, since
``co_qualname`` is missing on Python 3.10) and its source: the whole
statement for a simple one, the header for a compound one, with runs of
whitespace as one space. Line numbers differ across Python versions, and
so do the line tables; statements do not.

The check needs no pytest: ``python tests/test_reachability.py`` runs it
under that interpreter and prints each unrun statement outside the
allowlist, and each allowlist entry that some command now runs.
"""

import ast
import functools
import inspect
import itertools
import json
import subprocess
import sys
import tempfile
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "siterules"

# modules that hold no def
NO_DEFS = {"__init__", "__main__"}

# why no command runs the statements of a group
_FIGURES = (
    "a check of the packaged figures: only an edit of them fails it, and no "
    "command-line input edits them (test_corpus and test_cli edit some)"
)
_PLAN_FAILS = "only an edited figure leaves a plan with no solution (test_corpus)"
_SELF_CHECK = "a check that the built fixture keeps a count it was built to meet"
_PERFBENCH = "perfbench/workloads.py calls it, and the benchmark is changed apart"
_CONSTRUCTOR = (
    "the constructor's refusal, kept so that a database is always what its columns say; "
    "ingest and corpus hand it equal columns of in-range masks and no negative count"
)

# (qualified def, statement) -> why no command runs it
ALLOWED = {
    ("cli._cmd_fixture", "except corpus.InfeasibleFixtureError as exc:"): _FIGURES,
    ("cli._cmd_fixture", 'print(f"error: {exc}", file=sys.stderr)'): _FIGURES,
    ("cli._cmd_fixture", "return EXIT_MISMATCH"): _FIGURES,
    ("corpus._derived_count",
     'raise InfeasibleFixtureError( f"embedded figure {bp / 100:.2f}% of {denominator} '
     'fails its integrality check" )'): _FIGURES,
    ("corpus.study_group_counts",
     'raise InfeasibleFixtureError(f"rule {g.rule_id}: support contradicts an earlier rule")'):
        _FIGURES,
    ("corpus.study_group_counts",
     'raise InfeasibleFixtureError(f"{attr} group counts sum to {total}, not {M_ACCESSIBLE}")'):
        _FIGURES,
    ("corpus.study_group_counts",
     'raise InfeasibleFixtureError(f"pair count {count} exceeds its marginal {pair}")'):
        _FIGURES,
    ("corpus._complete_pair_counts.resolve",
     'raise InfeasibleFixtureError( f"pairwise counts for {fixed} sum to {partial}, '
     'expected {total}" )'): _FIGURES,
    ("corpus._complete_pair_counts.resolve",
     'raise InfeasibleFixtureError(f"pairwise counts for {fixed} overshoot {total}")'):
        _FIGURES,
    ("corpus._facility_mandatory",
     'raise InfeasibleFixtureError( f"rule {g.rule_id}: the demographic counts do not pin its '
     'antecedent group " f"at the {expected} rows its published support implies" )'): _FIGURES,
    ("corpus._facility_mandatory",
     'raise InfeasibleFixtureError( f"rule {g.rule_id}: confidence implies non-integer joint '
     'count" )'): _FIGURES,
    ("corpus.build_fixture",
     'raise InfeasibleFixtureError(f"reference rules name unknown facilities: '
     '{sorted(unknown)}")'): _FIGURES,
    ("corpus.build_fixture",
     'raise InfeasibleFixtureError("no demographic table admits the mandatory constraints")'):
        _FIGURES,
    ("corpus.build_fixture",
     'raise InfeasibleFixtureError( f"the published group columns admit no assignment for: '
     '{\', \'.join(failed)}" )'): _FIGURES,
    ("corpus._facility_passes", "mandatory = mandatory_sets[facility]"): _PLAN_FAILS,
    ("corpus._facility_passes", "set_root = set_root or _root_bounds(sizes, mandatory)"):
        _PLAN_FAILS,
    ("corpus._facility_passes", "if next(_search(set_root, mandatory), None) is None:"):
        _PLAN_FAILS,
    ("corpus._facility_passes", "return None"): _PLAN_FAILS,
    ("corpus._verify_fixture",
     'raise InfeasibleFixtureError(f"fixture lost demographic count {attr}={value}")'):
        _SELF_CHECK,
    ("corpus._verify_fixture",
     'raise InfeasibleFixtureError(f"fixture lost facility total for {facility}")'): _SELF_CHECK,
    ("corpus._verify_fixture",
     'raise InfeasibleFixtureError(f"fixture lost the joint count of rule {g.rule_id}")'):
        _SELF_CHECK,
    ("datamodel._transpose", "packed.byteswap()"): "runs only on a big-endian machine",
    ("datamodel._transpose", "except OverflowError:"): _CONSTRUCTOR,
    ("datamodel._transpose", "raise ValueError(_MASK_OUT_OF_RANGE) from None"): _CONSTRUCTOR,
    ("datamodel._transpose", "raise ValueError(_MASK_OUT_OF_RANGE)"): _CONSTRUCTOR,
    ("datamodel.TransactionDatabase.__init__",
     'raise ValueError("excluded_count must be non-negative")'): _CONSTRUCTOR,
    ("datamodel.TransactionDatabase.__init__",
     'raise ValueError( f"column lengths differ: {len(record_ids)} record ids, '
     '{len(masks)} masks" )'): _CONSTRUCTOR,
    ("datamodel.build_vertical_index",
     "return _transpose(n_items, list(map(itemgetter(1), transactions)))"): _PERFBENCH,
    ("datamodel.TransactionDatabase.build",
     "return cls(catalog, list(map(itemgetter(0), transactions)), "
     "list(map(itemgetter(1), transactions)), excluded_count)"): _PERFBENCH,
    ("datamodel.TransactionDatabase.transactions",
     "return tuple(map(Transaction, self.record_ids, self.masks))"): _PERFBENCH,
    ("engine.generate_candidates",
     "return [left + (y,) for left, ys in _joins(level, leaf_from) for y in ys]"): _PERFBENCH,
}


# lines that the study schema refuses when one is appended, each naming a
# different fault; none is read past the schema
_BAD_SCHEMA_LINES = (
    "attribute x",
    "attribute x weird antecedent values: a",
    "attribute x categorical consequent values: a",
    "attribute x categorical sideways values: a",
    "attribute x categorical antecedent bins: 0-1=a",
    "attribute x categorical antecedent values: a, , b",
    "attribute x numeric antecedent values: a",
    "attribute x numeric antecedent bins: x",
    "attribute x numeric antecedent bins: 10-5=a",
    "attribute x numeric antecedent bins: 0-10=a, 5-20=b",
    "attribute x numeric antecedent bins: 0-" + "9" * 5000 + "=a",
    "attribute a=b categorical antecedent values: x",
    "attribute x categorical antecedent values: a AND b",
    "attribute x categorical antecedent values: a, a",
    "attribute facility categorical antecedent values: a",
    "attribute age categorical antecedent values: a",
    "facility x",
    "thing x",
)

# edits of the first reference rule (1,age=below10,facility=about_us,100.00,
# 12.08) as (cell, new text), each refused naming row 2; cell None appends
# a row instead
_BAD_GOLDEN_EDITS = (
    (0, "x"),
    (1, "age"),
    (1, "age=below10 AND age=below10"),
    (1, "facility=about_us"),
    (1, "age=below10 AND age=above30"),
    (2, "age=below10"),
    (3, "80.00"),
    (3, "150.00"),
    (4, "0.00"),
    (4, "12.08,extra"),
    (None, "999,age=below10,facility=about_us,100.00,12.08"),
    (None, "1,age=below10,facility=news_links,100.00,12.08"),
)

# edits of the first mined rule (1,age=below10,facility=about_us,100.00,
# 12.08,12.08,must_have), each refused naming row 2
_BAD_MINED_EDITS = ((4, "150.00"), (6, "bogus"), (6, "should_have"), (5, "50.00"))


def _calls(tmp):
    """Each ``cli.main`` call of the probe, as (argv, exit code). The first
    writes the study fixture; the inputs of the others are made from it."""
    fixture_dir = tmp / "fixture"
    yield ["fixture", "--out-dir", str(fixture_dir)], 0
    schema = str(fixture_dir / "schema_appendix_a.txt")
    fixture = str(fixture_dir / "fixture_data.csv")
    golden = str(PACKAGE / "data" / "appendix_b.csv")
    mined = str(tmp / "rules.csv")
    schema_text = Path(schema).read_text(encoding="utf-8")
    data_text = Path(fixture).read_text(encoding="utf-8")
    header, first, *rows = data_text.splitlines(keepends=True)
    columns = header.rstrip("\n").split(",")
    written = itertools.count()

    def write(text):
        path = tmp / f"input_{next(written)}"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        return str(path)

    def edit(line, cell, text):
        cells = line.rstrip("\n").split(",")
        cells[cell] = text
        return ",".join(cells) + "\n"

    def row(**texts):
        # the first data row with the named cells replaced
        line = first
        for name, text in texts.items():
            line = edit(line, columns.index(name), text)
        return line

    def mine(data, schema=schema, *flags):
        return ["mine", "--schema", schema, "--data", data, "--out", str(tmp / "out"), *flags]

    def validate(mined=mined, golden=golden, *flags):
        return ["validate", "--mined", mined, "--golden", golden, *flags]

    first_cells = first.rstrip("\n").split(",")
    facilities = [c for c, cell in zip(columns, first_cells) if cell in ("Y", "N")]
    assert len(facilities) == 20
    # the fixture's rows under new ids, past csv.field_size_limit() and so
    # past many 64 KiB pieces
    big = header + "".join(f"R{k}_{line}" for k in range(24) for line in [first, *rows])
    assert len(big) > 1 << 17
    # an attribute of 70 values and a facility are 71 items, which the
    # transpose packs as two 64-bit words a row
    wide_schema = "attribute wide categorical antecedent values: "
    wide_schema += ", ".join(f"v{k}" for k in range(70)) + '\nfacility door "Door"\n'
    wide_data = "record_id,wide,door\nr1,v0,Y\nr2,v69,N\n"

    # every command on the study fixture, and each route of a run that succeeds
    two_rows = header + first + rows[0]
    yield mine(fixture, schema, "--out", mined), 0
    yield mine(write(header + "".join(rows[:20])), schema, "--format", "text", "--min-conf", "50",
               "--max-antecedent", "1", "--min-support-count", "2"), 0
    yield mine(write(big)), 0
    yield mine(write(two_rows.replace("\n", "\r\n"))), 0
    yield mine(write(two_rows.replace("\n", "\r"))), 0
    yield mine(write(header + '"' + first[:4] + '"' + first[4:])), 0
    yield mine(write(two_rows + row(record_id="excluded", **dict.fromkeys(facilities, "")))), 0
    yield ["stats", "--schema", schema, "--data", fixture, "--out", str(tmp / "stats.csv")], 0
    yield ["stats", "--schema", write(wide_schema), "--data", write(wide_data)], 0
    # a schema without the study's ownership values has no merged column
    small_schema = write("attribute age numeric antecedent bins: 0-10=young, 11-=old\n"
                         'facility door "Door"\n')
    yield ["stats", "--schema", small_schema, "--data", write("record_id,age,door\nr1,5,Y\n")], 0
    yield validate(), 0
    yield validate(mined, golden, "--subset", "single-antecedent", "--tolerance", "0.5"), 0
    # a mined file that lacks the first reference rule and is off on the
    # second: a mismatch report
    mined_lines = Path(mined).read_text(encoding="utf-8").splitlines(keepends=True)
    off = mined_lines[0] + edit(mined_lines[2], 3, "99.00") + "".join(mined_lines[3:])
    yield validate(write(off)), 1

    # refusals of a flag
    yield mine(fixture, schema, "--min-conf", "abc"), 2
    yield mine(fixture, schema, "--min-conf", "1" * 5000), 2
    yield mine(fixture, schema, "--min-conf", "101"), 2
    yield mine(fixture, schema, "--max-antecedent", "x"), 2
    yield mine(fixture, schema, "--min-support-count", "0"), 2
    yield mine(fixture, schema, "--min-support-count", "1" * 5000), 2
    for tolerance in ("bogus", "0." + "0" * 400 + "1", "1e999", "1/0", "-1"):
        yield validate(mined, golden, "--tolerance", tolerance), 2
    yield ["frobnicate"], 2

    # refusals of a schema
    yield mine(fixture, write("")), 2
    for line in _BAD_SCHEMA_LINES:
        yield mine(fixture, write(schema_text + line + "\n")), 2
    no_facility = "".join(
        line for line in schema_text.splitlines(keepends=True) if not line.startswith("facility")
    )
    yield mine(fixture, write(no_facility)), 2

    # refusals of a data file
    yield mine(write(b"record_id\xff")), 2
    yield mine(write("")), 2
    yield mine(write(header)), 2
    yield mine(write("id" + data_text[len("record_id"):])), 2
    yield mine(write(header.replace(",age,", ",bogus,", 1) + first)), 2
    yield mine(write(header.rstrip("\n").rsplit(",", 1)[0] + "\n")), 2
    yield mine(write(header.rstrip("\n") + ",age\n")), 2
    yield mine(write(header + first + first)), 2
    yield mine(write(header + first.rstrip("\n") + ",extra\n")), 2
    yield mine(write(header + first[first.index(","):])), 2
    yield mine(write(header + "\u00a0" + first)), 2
    yield mine(write(header + row(ownership="nowhere"))), 2
    yield mine(write(header + row(ownership="x" * 41))), 2
    yield mine(write(header + row(ownership=""))), 2
    yield mine(write(header + row(age="abc"))), 2
    yield mine(write(header + row(age="-5"))), 2
    yield mine(write(header + row(**{facilities[0]: "maybe"}))), 2
    yield mine(write(header + row(**{facilities[0]: ""}))), 2
    # a line longer than csv.field_size_limit() goes to csv.reader, which
    # refuses it
    yield mine(write(header + row(ownership="x" * (1 << 18)))), 2

    # refusals of a rule file
    golden_lines = Path(golden).read_text(encoding="utf-8").splitlines(keepends=True)
    yield validate(mined, write("")), 2
    yield validate(mined, write("rule_id\n")), 2
    for cell, text in _BAD_GOLDEN_EDITS:
        if cell is None:
            edited = "".join(golden_lines) + text + "\n"
        else:
            edited = golden_lines[0] + edit(golden_lines[1], cell, text)
        yield validate(mined, write(edited)), 2
    for cell, text in _BAD_MINED_EDITS:
        yield validate(write(mined_lines[0] + edit(mined_lines[1], cell, text))), 2


def _probe(src, tmp, out):
    """Import the package from ``src`` and make every call of
    :func:`_calls` under a line trace; write the exit codes, the expected
    ones and each (file, line) run under ``src`` to ``out`` as JSON.

    A frame is traced only while its code has lines not yet run, so a hot
    loop stops costing trace events once each of its lines has run. A
    code's first line is never waited for: a def's fires no line event
    (Python 3.11 and later list it for the frame's set-up), and that of a
    comprehension, lambda or generator expression also belongs to the code
    around it, which records it.
    """
    ran = set()
    prefix = str(Path(src) / "siterules")
    pending = {}  # code -> its lines not yet run

    def line(frame, event, arg):
        left = pending[frame.f_code]
        if event == "line":
            left.discard(frame.f_lineno)
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line if left else None

    def call(frame, event, arg):
        code = frame.f_code
        left = pending.get(code)
        if left is None:
            left = pending[code] = set()
            if code.co_filename.startswith(prefix):
                left.update(number for _, _, number in code.co_lines())
                left -= {None, code.co_firstlineno}
        return line if left else None

    sys.path.insert(0, src)
    sys.settrace(call)
    from siterules import cli

    codes, expected = [], []
    for argv, code in _calls(Path(tmp)):
        expected.append(code)
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    sys.settrace(None)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"codes": codes, "expected": expected, "ran": sorted(ran)}, f)


def _statements(tree, source):
    """Each line's innermost statement (or ``except`` clause), and each such
    node's source as an allowlist names it."""
    # AST columns count UTF-8 bytes
    lines = [line.encode("utf-8") for line in source.splitlines()]
    owner = {}
    # ast.walk visits a node before the nodes inside it, which then take
    # their own lines
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            for number in range(node.lineno, node.end_lineno + 1):
                owner[number] = node

    @functools.cache
    def text(node):
        inner = [
            child.lineno for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.stmt, ast.excepthandler))
        ]
        if inner:  # a compound statement: its lines before the first inner one
            held = lines[node.lineno - 1 : max(node.lineno, min(inner) - 1)]
        else:
            held = lines[node.lineno - 1 : node.end_lineno]
            held[-1] = held[-1][: node.end_col_offset]
        held[0] = held[0][node.col_offset :]
        return " ".join(b" ".join(held).decode("utf-8").split())

    return owner, text


@functools.cache
def _function_lines():
    """Each executable function-body line under the package:
    (file, line) -> (qualified def, statement)."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        owner, text = _statements(ast.parse(source), source)

        def visit(code, qualname, in_function):
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                # comprehensions, lambdas and generator expressions are
                # part of the def around them (Python 3.12 inlines some)
                anonymous = const.co_name.startswith("<")
                inner = qualname if anonymous else f"{qualname}.{const.co_name}"
                is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)
                counted = is_function and (in_function or not anonymous)
                if counted:
                    for number in {number for _, _, number in const.co_lines()} - {None}:
                        node = owner.get(number)
                        # the def line and a decorator's are no part of the body
                        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                            found[(str(path), number)] = (inner, text(node))
                visit(const, inner, counted)

        visit(compile(source, str(path), "exec"), path.stem, False)
    return found


@functools.cache
def _probe_result():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "probe.json"
        done = subprocess.run(
            [sys.executable, "-B", "-I", "-S", __file__, str(PACKAGE.parent), tmp, str(out)],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        probe = json.loads(out.read_text(encoding="utf-8"))
    probe["ran"] = {tuple(location) for location in probe["ran"]}
    return probe


def _unrun():
    """(qualified def, statement) -> the places of its unrun lines."""
    ran = _probe_result()["ran"]
    unrun = {}
    for location, key in _function_lines().items():
        if location not in ran:
            path, number = location
            unrun.setdefault(key, []).append(f"{Path(path).relative_to(PACKAGE.parent)}:{number}")
    return unrun


def _missed():
    """The unrun statements outside the allowlist, in file order."""
    unrun = _unrun()
    return sorted(((key, unrun[key]) for key in unrun.keys() - ALLOWED), key=lambda e: e[1])


def _stale():
    """The allowlist entries that name no unrun statement."""
    return sorted(ALLOWED.keys() - _unrun().keys())


def _report(entries):
    return "\n".join(f"{places[0]} {name}: {statement}" for (name, statement), places in entries)


def test_every_call_exits_as_expected():
    probe = _probe_result()
    assert probe["codes"] == probe["expected"]


def test_every_function_line_is_run_by_a_command():
    missed = _missed()
    assert not missed, "no command runs:\n" + _report(missed)


def test_the_probe_reads_every_module():
    # a wrong path or a trace that sees nothing cannot pass for full reach
    stems = {path.stem for path in PACKAGE.rglob("*.py")}
    lines = _function_lines()
    modules = {Path(path).stem for path, _ in lines}
    assert "cli" in stems and modules == stems - NO_DEFS
    assert modules == {Path(path).stem for path, _ in lines.keys() & _probe_result()["ran"]}


def test_the_allowlist_holds_only_statements_no_command_runs():
    stale = _stale()
    assert not stale, "run by a command, or no such statement:\n" + "\n".join(map(str, stale))
    assert all(ALLOWED.values())


def _main():
    missed, stale, probe = _missed(), _stale(), _probe_result()
    print(f"Python {sys.version.split()[0]}: {len(_function_lines())} executable lines, "
          f"{len(missed)} unrun statements outside the allowlist, {len(stale)} stale entries")
    if missed:
        print(_report(missed))
    for key in stale:
        print("stale:", key)
    if probe["codes"] != probe["expected"]:
        print("exit codes", probe["codes"], "expected", probe["expected"])
    return 1 if missed or stale or probe["codes"] != probe["expected"] else 0


if __name__ == "__main__":
    if len(sys.argv) == 4:
        _probe(*sys.argv[1:])
    else:
        sys.exit(_main())
