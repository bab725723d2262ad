import codecs
import hashlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from siterules import rules
from siterules.cli import _positive_int, _tolerance, main

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    assert main(["fixture", "--out-dir", str(out)]) == 0
    return out


def run_mine(fixture_dir, out_path, *extra):
    argv = [
        "mine",
        "--schema", str(fixture_dir / "schema_appendix_a.txt"),
        "--data", str(fixture_dir / "fixture_data.csv"),
        "--out", str(out_path),
        *extra,
    ]
    return main(argv)


class TestFixtureCommand:
    def test_writes_three_files(self, fixture_dir):
        for name in ("schema_appendix_a.txt", "fixture_data.csv", "construction_report.txt"):
            assert (fixture_dir / name).is_file()
        data = (fixture_dir / "fixture_data.csv").read_text()
        assert len(data.splitlines()) == 92  # header + 91 rows

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["fixture", "--out-dir", str(again)]) == 0
        for name in ("schema_appendix_a.txt", "fixture_data.csv", "construction_report.txt"):
            assert (again / name).read_bytes() == (fixture_dir / name).read_bytes()

    def test_fixture_bytes_are_pinned(self, tmp_path):
        # a search change that picks a different first solution changes these
        assert main(["fixture", "--out-dir", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("fixture_data.csv", "construction_report.txt")
        }
        assert digests == {
            "fixture_data.csv": "f968bed791ac228064b153937c9926cee2f096f23fb2de5152523820a773e151",
            "construction_report.txt": (
                "f67ecd1e7e35b0952d3add829666af6dae3263a5d00e977a006d2293bc07b8be"
            ),
        }

    def test_infeasible_fixture_exits_one(self, tmp_path, capsys, monkeypatch):
        import siterules.corpus as corpus

        def infeasible(counts, golden):
            raise corpus.InfeasibleFixtureError("no database meets the constraints")

        monkeypatch.setattr(corpus, "build_fixture", infeasible)
        assert main(["fixture", "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: no database meets the constraints\n"
        assert not (tmp_path / "out").exists()

    def test_each_packaged_file_is_parsed_once(self, tmp_path, monkeypatch):
        # every module that imported a parser by name gets the counting wrapper
        import siterules.cli as cli
        import siterules.corpus as corpus
        import siterules.ingest as ingest

        calls = {"parse_schema": 0, "parse_golden_rules": 0}
        for name in calls:
            original = getattr(ingest, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in (ingest, corpus, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert main(["fixture", "--out-dir", str(tmp_path)]) == 0
        assert calls == {"parse_schema": 1, "parse_golden_rules": 1}

    def test_out_dir_naming_a_file_exits_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["fixture", "--out-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert taken.read_text() == ""


class TestMineCommand:
    def test_first_rule_is_full_confidence(self, fixture_dir, tmp_path):
        out = tmp_path / "rules.csv"
        assert run_mine(fixture_dir, out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("rule_id,antecedent")
        first = lines[1].split(",")
        assert first[3] == "100.00"
        assert first[6] == "must_have"

    def test_defaults_match_explicit_flags(self, fixture_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_mine(fixture_dir, a) == 0
        assert run_mine(
            fixture_dir, b, "--min-conf", "90", "--max-antecedent", "2",
            "--min-support-count", "1",
        ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_antecedent_cap_beyond_the_demographic_attributes_changes_nothing(
        self, fixture_dir, tmp_path, monkeypatch
    ):
        mine_frequent = rules.mine_frequent

        def bounded(db, min_count, max_size=None, *, leaf_from=None):
            # an uncapped depth mines facility-only itemsets until memory runs
            # out; fail at once instead (three demographic attributes + 1)
            assert max_size is not None and max_size <= 4
            return mine_frequent(db, min_count, max_size=max_size, leaf_from=leaf_from)

        monkeypatch.setattr(rules, "mine_frequent", bounded)
        three, thirty = tmp_path / "three.csv", tmp_path / "thirty.csv"
        assert run_mine(fixture_dir, three, "--max-antecedent", "3") == 0
        assert run_mine(fixture_dir, thirty, "--max-antecedent", "30") == 0
        assert three.read_bytes() == thirty.read_bytes()

    @pytest.mark.parametrize(
        "max_antecedent, fmt, digest",
        [
            ("1", "csv", "eacd3958aa27d2ee823de14011ccaf3d504dbe8e9c2f3cdfcb0e31c9046762e6"),
            ("1", "text", "1826c95ccd3d36bd844bfb3084b3327ba17afbca1ad0b74244ab97b27842bd0c"),
            ("2", "csv", "4d29a63de68228fe485e632f5efe36d6c99a293db56c42cdd7fffa8dad6265a2"),
            ("2", "text", "c52f128af141a1ea1bd1d038938c997dd96d6971d995fcdaff645529ded38656"),
            ("3", "csv", "64a7ca05346b715c8e08c14150396da8fd5da3da40f65e39b232925d00eb4bc1"),
            ("3", "text", "1debeb13d44edf73b7a94add2c4afc23240eb4c0f9f8b600148c8a1291d70ee1"),
        ],
    )
    def test_mine_bytes_are_pinned(self, fixture_dir, tmp_path, max_antecedent, fmt, digest):
        # a change to the index build or to the mining it feeds must keep these
        out = tmp_path / f"rules.{fmt}"
        assert run_mine(fixture_dir, out, "--max-antecedent", max_antecedent, "--format", fmt) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_higher_threshold_keeps_only_must_haves(self, fixture_dir, tmp_path):
        loose, tight = tmp_path / "loose.csv", tmp_path / "tight.csv"
        assert run_mine(fixture_dir, loose) == 0
        assert run_mine(fixture_dir, tight, "--min-conf", "95") == 0
        loose_rules = {line.split(",", 2)[2] for line in loose.read_text().splitlines()[1:]}
        tight_lines = tight.read_text().splitlines()[1:]
        assert all(line.endswith("must_have") for line in tight_lines)
        assert {line.split(",", 2)[2] for line in tight_lines} <= loose_rules

    def test_confidence_out_of_range(self, fixture_dir, tmp_path, capsys):
        code = run_mine(fixture_dir, tmp_path / "x.csv", "--min-conf", "101")
        assert code == 2
        assert "confidence must be in [0,100]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("abc", "--min-conf: invalid percentage 'abc'"),
            ("90.125", "--min-conf: invalid percentage '90.125'"),
            ("100.01", "--min-conf: confidence must be in [0,100]"),
            # digits outside ASCII (Arabic-Indic, fullwidth), which int() accepts
            ("\u0669\u0665", "--min-conf: invalid percentage '\u0669\u0665'"),
            ("\uff19\uff10.\uff15", "--min-conf: invalid percentage '\uff19\uff10.\uff15'"),
            # a surrounding space, ASCII or ideographic (which repr escapes), as
            # rule_id and the other flags refuse it
            (" 90", "--min-conf: invalid percentage ' 90'"),
            ("90\u3000", "--min-conf: invalid percentage '90\\u3000'"),
            # a long value is echoed only in part
            (
                "x" * 50,
                "--min-conf: invalid percentage 'xxxxxxxxxxxxxxxxxxxx'... (50 characters)",
            ),
        ],
    )
    def test_bad_confidence_is_named_before_input_is_read(self, tmp_path, capsys, raw, message):
        missing = tmp_path / "absent"
        argv = ["mine", "--schema", str(missing / "s.txt"), "--data", str(missing / "d.csv")]
        assert main([*argv, "--min-conf", raw]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flag, raw",
        [
            ("--max-antecedent", "abc"),
            ("--min-support-count", "1.5"),
            # forms int() accepts: other scripts' digits, "_", surrounding spaces
            ("--max-antecedent", "\u0663"),
            ("--min-support-count", "1_0"),
            ("--max-antecedent", " 3"),
        ],
    )
    def test_non_integer_count_names_the_flag(self, fixture_dir, tmp_path, capsys, flag, raw):
        with pytest.raises(SystemExit) as exc:
            run_mine(fixture_dir, tmp_path / "x.csv", flag, raw)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid integer {raw!r}" in err
        assert "_positive_int" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts strings of any length here",
    )
    @pytest.mark.parametrize("flag", ["--max-antecedent", "--min-support-count"])
    def test_overlong_count_names_its_length(self, fixture_dir, tmp_path, capsys, flag):
        raw = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(SystemExit) as exc:
            run_mine(fixture_dir, tmp_path / "x.csv", flag, raw)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"argument {flag}: integer {raw[:20]!r}... ({len(raw)} characters) too long\n"
        )
        assert len(err.encode()) < 1024

    def test_consequent_attribute_schema_is_usage_error(self, tmp_path, capsys):
        schema = tmp_path / "schema.txt"
        schema.write_text(
            "attribute age categorical antecedent values: young, old\n"
            "attribute size categorical consequent values: small, big\n"
        )
        data = tmp_path / "data.csv"
        data.write_text("record_id,age,size\nr1,young,small\nr2,old,big\n")
        code = main(["mine", "--schema", str(schema), "--data", str(data)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "declaration",
        [
            "attribute own,er categorical antecedent values: a, b",
            "attribute o=wn categorical antecedent values: a, b",
            "attribute own categorical antecedent values: x AND y, z",
            "attribute facility categorical antecedent values: a, b",
        ],
    )
    def test_schema_that_breaks_rule_files_is_usage_error(self, tmp_path, capsys, declaration):
        schema = tmp_path / "schema.txt"
        schema.write_text(f'facility about_us "About Us page"\n{declaration}\n')
        data = tmp_path / "data.csv"
        data.write_text("record_id,about_us\nr1,Y\n")
        out = tmp_path / "rules.csv"
        code = main(["mine", "--schema", str(schema), "--data", str(data), "--out", str(out)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_bin_digits_are_usage_error(self, tmp_path, capsys):
        schema = tmp_path / "schema.txt"
        schema.write_text(
            'facility about_us "About Us page"\n'
            "attribute age numeric antecedent bins: \u0660-\u0661\u0660=young, 11-=old\n",
            encoding="utf-8",
        )
        data = tmp_path / "data.csv"
        data.write_text("record_id,about_us,age\nr1,Y,5\n")
        code = main(["mine", "--schema", str(schema), "--data", str(data)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {schema}: line 2: malformed bin '\u0660-\u0661\u0660=young'\n"

    def test_utf8_bom_inputs_mine_identically(self, fixture_dir, tmp_path):
        bom_dir = tmp_path / "bom"
        bom_dir.mkdir()
        for name in ("schema_appendix_a.txt", "fixture_data.csv"):
            (bom_dir / name).write_bytes(b"\xef\xbb\xbf" + (fixture_dir / name).read_bytes())
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        assert run_mine(fixture_dir, plain) == 0
        assert run_mine(bom_dir, bom) == 0
        assert bom.read_bytes() == plain.read_bytes()

    def test_overlong_field_is_usage_error(self, fixture_dir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        text = (fixture_dir / "fixture_data.csv").read_text(encoding="utf-8")
        data.write_text(text + "x" * 131_073 + "\n", encoding="utf-8")
        schema = str(fixture_dir / "schema_appendix_a.txt")
        argv = ["mine", "--schema", schema, "--data", str(data), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        assert f"error: {data}: line 93: field larger than field limit" in capsys.readouterr().err

    def test_text_format(self, fixture_dir, tmp_path):
        out = tmp_path / "rules.txt"
        assert run_mine(fixture_dir, out, "--format", "text") == 0
        assert out.read_text().splitlines()[0].startswith("rule_id")

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["mine", "--schema", str(tmp_path / "nope.txt"), "--data", str(tmp_path / "n.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def run_stats(fixture_dir):
    return main([
        "stats",
        "--schema", str(fixture_dir / "schema_appendix_a.txt"),
        "--data", str(fixture_dir / "fixture_data.csv"),
    ])


class TestStatsCommand:
    def test_stats_bytes_are_pinned(self, fixture_dir, capsys):
        assert run_stats(fixture_dir) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == "17f5117db9fe26688b9d4cbf3b1e8ac78cc44d9da601bec9d82580442770ef49"

    def test_crlf_data_gives_the_same_bytes(self, fixture_dir, tmp_path, capsys):
        # CRLF text takes the parser's plain route after normalisation; LF
        # and CRLF copies must mine and count identically.
        crlf_dir = tmp_path / "crlf"
        crlf_dir.mkdir()
        (crlf_dir / "schema_appendix_a.txt").write_bytes(
            (fixture_dir / "schema_appendix_a.txt").read_bytes()
        )
        lf_bytes = (fixture_dir / "fixture_data.csv").read_bytes()
        (crlf_dir / "fixture_data.csv").write_bytes(lf_bytes.replace(b"\n", b"\r\n"))
        lf_rules, crlf_rules = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        assert run_mine(fixture_dir, lf_rules) == 0
        assert run_mine(crlf_dir, crlf_rules) == 0
        assert crlf_rules.read_bytes() == lf_rules.read_bytes()
        capsys.readouterr()
        assert run_stats(fixture_dir) == 0
        lf_stats = capsys.readouterr().out
        assert run_stats(crlf_dir) == 0
        assert capsys.readouterr().out == lf_stats

    def test_quoted_carriage_return_keeps_ids_apart(self, tmp_path, capsys):
        # read with newline translation, "p\rq" became "p\nq", a duplicate
        schema = tmp_path / "schema.txt"
        schema.write_text('attribute ownership categorical antecedent values: private\n'
                          'facility about_us "About Us page"\n')
        data = tmp_path / "data.csv"
        data.write_bytes(b'record_id,ownership,about_us\n"p\rq",private,Y\n"p\nq",private,N\n')
        assert main(["stats", "--schema", str(schema), "--data", str(data)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "about_us,50.00,50.00"

    def test_published_cells(self, fixture_dir, capsys):
        assert run_stats(fixture_dir) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = lines[0].split(",")
        by_name = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert by_name["contact_us"][header.index("total_pct")] == "97.80"
        gov = header.index("ownership=governmental")
        assert by_name["about_us"][gov] == "97.96"


@pytest.fixture(scope="module")
def mined_csv(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("mined") / "rules.csv"
    assert run_mine(fixture_dir, out) == 0
    return out


@pytest.fixture(scope="module")
def golden_csv(fixture_dir):
    import siterules.corpus as corpus

    path = fixture_dir / "appendix_b.csv"
    path.write_text(corpus.golden_text())
    return path


def validate_with_row_2(mined_csv, golden_csv, tmp_path, edit_golden, cells):
    """Run ``validate`` with row 2 of one rule file given ``cells`` (column
    number to text) in a copy; the exit code."""
    source = golden_csv if edit_golden else mined_csv
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[1].split(",")
    for column, cell in cells.items():
        row[column] = cell
    lines[1] = ",".join(row)
    edited = tmp_path / "edited.csv"
    edited.write_text("".join(lines), encoding="utf-8")
    golden, mined = (edited, mined_csv) if edit_golden else (golden_csv, edited)
    return main(["validate", "--mined", str(mined), "--golden", str(golden)])


class TestValidateCommand:
    def test_full_match_exits_zero(self, mined_csv, golden_csv, capsys):
        code = main(["validate", "--mined", str(mined_csv), "--golden", str(golden_csv)])
        assert code == 0
        assert capsys.readouterr().out.startswith("matched: 68  missing: 0")

    def test_zero_tolerance_reproduces_published_figures(self, mined_csv, golden_csv, capsys):
        code = main([
            "validate", "--mined", str(mined_csv), "--golden", str(golden_csv),
            "--tolerance", "0",
        ])
        assert code == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.startswith("matched: 68  missing: 0")
        assert summary.endswith("metric mismatches: 0")

    def test_report_lists_missing_rules_and_mismatches(
        self, mined_csv, golden_csv, tmp_path, capsys
    ):
        # rule 21's published 97.95 raised by 0.03 pp, and a rule the
        # fixture does not yield
        text = golden_csv.read_text(encoding="utf-8")
        rule_21 = "21,ownership=governmental,facility=about_us,97.95,53.84\n"
        assert rule_21 in text
        edited = tmp_path / "edited_golden.csv"
        edited.write_text(
            text.replace(rule_21, rule_21.replace("97.95", "97.98"))
            + "69,age=below10 AND industry=services,facility=advertising,95.00,5.00\n",
            encoding="utf-8",
        )
        code = main(["validate", "--mined", str(mined_csv), "--golden", str(edited)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == [
            "matched: 68  missing: 1  extra: 120  metric mismatches: 1",
            "missing reference rules:",
            "  #69 age=below10 AND industry=services => facility=advertising",
            "metric mismatches (tolerance 0.011 pp):",
            "  #21 ownership=governmental => facility=about_us: "
            "confidence off by 0.0300 pp, coverage off by 0.0000 pp",
        ]
        assert lines[5] == "extra mined rules (allowed, not published):"

    def test_repeated_mined_rule_names_its_row(self, golden_csv, tmp_path, capsys):
        from siterules.report import RULES_HEADER

        figures = "facility=contact_us,90.00,21.97,19.78,should_have"
        repeated = tmp_path / "repeated.csv"
        repeated.write_text(
            ",".join(RULES_HEADER) + "\n"
            f"1,age=11-29 AND industry=services,{figures}\n"
            f"2,industry=services AND age=11-29,{figures}\n"
        )
        code = main(["validate", "--mined", str(repeated), "--golden", str(golden_csv)])
        assert code == 2
        assert "row 3: duplicate rule" in capsys.readouterr().err

    def test_repeated_reference_rule_names_its_row(self, mined_csv, golden_csv, tmp_path, capsys):
        # the 68 rules, then rule 1 again under a new rule_id
        repeated = tmp_path / "repeated_golden.csv"
        repeated.write_text(
            golden_csv.read_text() + "999,age=below10,facility=about_us,100.00,12.08\n"
        )
        code = main(["validate", "--mined", str(mined_csv), "--golden", str(repeated)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {repeated}: row 70: duplicate rule")
        assert len(err.splitlines()) == 1

    def test_single_antecedent_subset(self, mined_csv, golden_csv, capsys):
        code = main([
            "validate", "--mined", str(mined_csv), "--golden", str(golden_csv),
            "--subset", "single-antecedent",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("matched: 27  missing: 0")

    def test_empty_mined_file_exits_one(self, golden_csv, tmp_path, capsys):
        from siterules.report import RULES_HEADER

        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(RULES_HEADER) + "\n")
        code = main(["validate", "--mined", str(empty), "--golden", str(golden_csv)])
        assert code == 1
        assert "missing: 68" in capsys.readouterr().out

    def test_weak_golden_row_is_parse_error(self, mined_csv, tmp_path, capsys):
        bad = tmp_path / "bad_golden.csv"
        bad.write_text(
            "rule_id,antecedent,consequent,confidence_pct,support_pct\n"
            "1,age=below10,facility=about_us,89.00,12.08\n"
        )
        code = main(["validate", "--mined", str(mined_csv), "--golden", str(bad)])
        assert code == 2
        assert "confidence below 90" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            # 97.95 in Arabic-Indic digits as the confidence
            (3, "\u0669\u0667.\u0669\u0665", "invalid percentage '\u0669\u0667.\u0669\u0665'"),
            # 10 in Arabic-Indic digits with "_" and a space, which int() reads as 10
            (0, "\u0661_\u0660 ", "invalid integer '\u0661_\u0660 '"),
            # 97.95 padded by an ideographic or an ASCII space
            (3, "\u300097.95", "invalid percentage '\\u300097.95'"),
            (3, " 97.95", "invalid percentage ' 97.95'"),
        ],
        ids=["percentage", "rule_id", "ideographic-space", "space"],
    )
    @pytest.mark.parametrize("edit_golden", [True, False])
    def test_non_ascii_digits_name_the_row(
        self, mined_csv, golden_csv, tmp_path, capsys, edit_golden, column, cell, message
    ):
        code = validate_with_row_2(mined_csv, golden_csv, tmp_path, edit_golden, {column: cell})
        assert code == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'edited.csv'}: row 2: {message}\n"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts any number of digits on this Python",
    )
    @pytest.mark.parametrize(
        "column, says", [(0, "integer"), (3, "percentage")], ids=["rule_id", "confidence"]
    )
    @pytest.mark.parametrize("edit_golden", [True, False])
    def test_a_number_too_long_for_int_names_its_cell(
        self, mined_csv, golden_csv, tmp_path, capsys, edit_golden, column, says
    ):
        digits = {column: "1" * 5000}
        code = validate_with_row_2(mined_csv, golden_csv, tmp_path, edit_golden, digits)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'edited.csv'}: row 2: "
            f"{says} {'1' * 20!r}... (5000 characters) too long\n"
        )

    @pytest.mark.parametrize(
        "antecedent, consequent, message",
        [
            ("age=below10 AND age=above30", "facility=about_us", "antecedent repeats an attribute"),
            ("facility=search_inside", "age=below10", "facility item in the antecedent"),
            (
                "age=below10", "ownership=private",
                "consequent 'ownership=private' is not a facility item",
            ),
        ],
        ids=["repeated-attribute", "facility-antecedent", "demographic-consequent"],
    )
    @pytest.mark.parametrize("edit_golden", [True, False])
    def test_rule_the_template_cannot_produce_names_its_row(
        self, mined_csv, golden_csv, tmp_path, capsys, edit_golden, antecedent, consequent, message
    ):
        edits = {1: antecedent, 2: consequent}
        code = validate_with_row_2(mined_csv, golden_csv, tmp_path, edit_golden, edits)
        assert code == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'edited.csv'}: row 2: {message}\n"

    def test_bad_tolerance(self, mined_csv, golden_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "validate", "--mined", str(mined_csv), "--golden", str(golden_csv),
                "--tolerance", "bogus",
            ])
        assert exc.value.code == 2
        assert "argument --tolerance: not a number: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("1/0", "zero denominator: '1/0'"),
            ("-1", "must be non-negative"),
            # forms Fraction() accepts: other scripts' digits, surrounding spaces
            # and, on some Pythons, "_" and spaces around "/"
            ("\u0660", "not a number: '\u0660'"),
            ("1_0", "not a number: '1_0'"),
            (" 0.5", "not a number: ' 0.5'"),
            ("1 / 2", "not a number: '1 / 2'"),
            # Fraction() would build 10**401 and 10**999999999
            ("1e-401", "exponent beyond 400: '1e-401'"),
            ("1e999999999", "exponent beyond 400: '1e999999999'"),
            # int() inside Fraction() would refuse these digits with its own message
            pytest.param(
                "1e-" + "0" * 5000 + "5", "longer than 400 characters (5004)",
                id="5001-digit-exponent",
            ),
            pytest.param(
                "0." + "0" * 5000 + "1", "longer than 400 characters (5003)",
                id="5001-digit-mantissa",
            ),
            # a long value that is no number is echoed only in part
            pytest.param(
                "x" * 5000, "not a number: 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)\n",
                id="5000-character-word",
            ),
        ],
    )
    def test_tolerance_error_names_the_flag(self, mined_csv, golden_csv, capsys, raw, message):
        with pytest.raises(SystemExit) as exc:
            main([
                "validate", "--mined", str(mined_csv), "--golden", str(golden_csv),
                "--tolerance", raw,
            ])
        assert exc.value.code == 2
        assert f"argument --tolerance: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw", ["0.011", "1/100", "+0", "-0", ".5", "5.", "1e-2", "1.5E+1", "011", "1e-400"]
)
def test_ascii_tolerances_read_as_before(raw):
    assert _tolerance(raw) == Fraction(raw)


@pytest.mark.parametrize("raw", ["3", "+3", "03", "0" * 600 + "3"])
def test_ascii_counts_read_as_before(raw):
    assert _positive_int(raw) == int(raw)


def _bad_byte_on_line_3(src: Path, dst: Path, prefix: bytes, newline: bytes) -> Path:
    lines = src.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xe9" + lines[2][1:]
    dst.write_bytes(prefix + newline.join(lines))
    return dst


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "prefix, newline",
        [(b"", b"\n"), (codecs.BOM_UTF8, b"\n"), (b"", b"\r\n"), (b"", b"\r")],
        ids=["lf", "bom", "crlf", "cr"],
    )
    @pytest.mark.parametrize(
        "command, flag", [("mine", "--data"), ("mine", "--schema"), ("validate", "--mined")]
    )
    def test_names_file_and_line(
        self, fixture_dir, mined_csv, golden_csv, tmp_path, capsys, command, flag, prefix, newline
    ):
        files = {
            "--schema": fixture_dir / "schema_appendix_a.txt",
            "--data": fixture_dir / "fixture_data.csv",
            "--mined": mined_csv,
            "--golden": golden_csv,
        }
        bad = files[flag] = _bad_byte_on_line_3(files[flag], tmp_path / "bad", prefix, newline)
        flags = ("--schema", "--data") if command == "mine" else ("--mined", "--golden")
        assert main([command, *(arg for f in flags for arg in (f, str(files[f])))]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
        )


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # string hashing differs per seed, so any output that followed set or
    # frozenset iteration order would differ between the two runs
    outputs = []
    for seed in ("0", "1"):
        env = {
            "PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed,
        }

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-B", "-m", "siterules", *argv],
                capture_output=True, check=True, cwd=REPO_ROOT, env=env,
            ).stdout

        out = tmp_path / seed
        run("fixture", "--out-dir", str(out))
        files = {name: (out / name).read_bytes() for name in (
            "schema_appendix_a.txt", "fixture_data.csv", "construction_report.txt"
        )}
        inputs = (
            "--schema", str(out / "schema_appendix_a.txt"), "--data", str(out / "fixture_data.csv"),
        )
        outputs.append((files, run("mine", *inputs), run("stats", *inputs)))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith(b"rule_id,")


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-B", "-m", "siterules", "fixture", "--out-dir", str(tmp_path / "f")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "f" / "fixture_data.csv").is_file()


_WATCHED = (
    "siterules.corpus", "siterules.validation", "importlib.resources", "tempfile", "pathlib",
    "fractions",
)
_IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from siterules import cli; "
    "code = cli.main(sys.argv[3:]); "
    "print(code, *sorted(set(sys.argv[2].split(',')).intersection(sys.modules)))"
)


def _run_and_list_imports(argv):
    """Run one command in a fresh interpreter with no site packages; return
    its exit code and the watched modules it loaded."""
    result = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", _IMPORT_PROBE, str(REPO_ROOT / "src"),
         ",".join(_WATCHED), *argv],
        capture_output=True, text=True, check=True,
    )
    code, *loaded = result.stdout.splitlines()[-1].split()
    return int(code), loaded


@pytest.mark.parametrize(
    "command, loaded",
    [("mine", []), ("stats", []), ("validate", ["fractions", "siterules.validation"])],
)
def test_each_command_loads_only_what_it_runs(fixture_dir, mined_csv, tmp_path, command, loaded):
    data = ["--schema", str(fixture_dir / "schema_appendix_a.txt")]
    data += ["--data", str(fixture_dir / "fixture_data.csv")]
    golden = REPO_ROOT / "src" / "siterules" / "data" / "appendix_b.csv"
    argv = {
        "mine": ["mine", *data, "--out", str(tmp_path / "rules.csv")],
        "stats": ["stats", *data, "--out", str(tmp_path / "stats.csv")],
        "validate": ["validate", "--mined", str(mined_csv), "--golden", str(golden)],
    }[command]
    assert _run_and_list_imports(argv) == (0, loaded)


def test_fixture_command_loads_corpus(tmp_path):
    # the packaged data is read through the module's loader, not
    # importlib.resources, which would bring pathlib, tempfile and zipfile;
    # and validation, which corpus loads, builds no Fraction
    code, loaded = _run_and_list_imports(["fixture", "--out-dir", str(tmp_path)])
    assert code == 0 and "siterules.corpus" in loaded
    assert not {"importlib.resources", "pathlib", "tempfile", "fractions"} & set(loaded)


_PACKAGE_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import siterules; "
    "bare = sorted(m for m in sys.modules if m.startswith('siterules.')); "
    "import siterules.cli; "
    "print(siterules.__file__); print(*bare); "
    "print(*sorted(m for m in sys.modules if m.startswith('siterules.')))"
)


def test_the_package_alone_loads_no_module():
    # each name is imported from its own module: the package holds only its
    # docstring, and the cli loads the modules its commands share
    result = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", _PACKAGE_PROBE, str(REPO_ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    path, bare, with_cli = result.stdout.splitlines()
    assert Path(path) == REPO_ROOT / "src" / "siterules" / "__init__.py"
    assert bare == ""
    assert with_cli.split() == [
        f"siterules.{name}"
        for name in ("classify", "cli", "datamodel", "engine", "ingest", "report", "rules")
    ]


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_SCHEMA = 'attribute age numeric antecedent bins: 0-10=young, 11-=old\nfacility door "Door"\n'
_DATA = "record_id,age,door\nr1,5,Y\n"


@pytest.mark.parametrize(
    "schema, data, flags, says",
    [
        (
            _SCHEMA + "attribute size categorical antecedent bins: 0-1=a\n", _DATA, [],
            "error: {schema}: line 3: categorical attributes take 'values:'",
        ),
        (
            _SCHEMA + "attribute size numeric antecedent values: a\n", _DATA, [],
            "error: {schema}: line 3: numeric attributes take 'bins:'",
        ),
        (
            _SCHEMA + "attribute size categorical antecedent values: a, , b\n", _DATA, [],
            "error: {schema}: line 3: empty value in list",
        ),
        (
            _SCHEMA, "record_id,age,door,age\nr1,5,Y,5\n", [],
            "error: {data}: row 1: duplicate columns in header",
        ),
        (
            _SCHEMA.split("facility")[0], "record_id,age\nr1,5\n", [],
            "error: {schema}: catalog has no facility items",
        ),
        (
            'facility door "Door"\n', "record_id,door\nr1,Y\n", [],
            "error: {schema}: catalog has no demographic items",
        ),
        (
            _SCHEMA, "record_id,age,door\n", [],
            "error: {data}: cannot derive rules from an empty database",
        ),
        (
            _SCHEMA, _DATA, ["--max-antecedent", "0"],
            "siterules mine: error: argument --max-antecedent: must be a positive integer",
        ),
        (
            _SCHEMA, _DATA, ["--min-support-count", "0"],
            "siterules mine: error: argument --min-support-count: must be a positive integer",
        ),
    ],
    ids=[
        "values", "bins", "empty-value", "duplicate-column", "no-facility", "no-demographic",
        "empty-data", "max-antecedent", "min-support-count",
    ],
)
def test_mine_refusal_says_what_is_wrong(tmp_path, capsys, schema, data, flags, says):
    paths = {"schema": tmp_path / "schema.txt", "data": tmp_path / "data.csv"}
    paths["schema"].write_text(schema, encoding="utf-8")
    paths["data"].write_text(data, encoding="utf-8")
    argv = ["mine", "--schema", str(paths["schema"]), "--data", str(paths["data"]), *flags]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected a flag
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == says.format(**paths)


def test_mine_refuses_an_unknown_format(capsys):
    # argparse's choices are the only formats render_rules is asked for
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--schema", "s.txt", "--data", "d.csv", "--format", "xml"])
    assert exc.value.code == 2
    assert "siterules mine: error: argument --format: invalid choice: 'xml'" in (
        capsys.readouterr().err
    )


def test_stats_refuses_a_schema_with_no_facility_items(tmp_path, capsys):
    # a table with no rows would not tell the user what is wrong
    schema, data = tmp_path / "schema.txt", tmp_path / "data.csv"
    schema.write_text(_SCHEMA.split("facility")[0], encoding="utf-8")
    data.write_text("record_id,age\nr1,5\n", encoding="utf-8")
    assert main(["stats", "--schema", str(schema), "--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {schema}: catalog has no facility items\n"


def test_stats_on_a_schema_with_no_demographic_items_prints_the_total(tmp_path, capsys):
    schema, data = tmp_path / "schema.txt", tmp_path / "data.csv"
    schema.write_text('facility door "Door"\n', encoding="utf-8")
    data.write_text("record_id,door\nr1,Y\nr2,N\n", encoding="utf-8")
    assert main(["stats", "--schema", str(schema), "--data", str(data)]) == 0
    assert capsys.readouterr().out == "facility,total_pct\ndoor,50.00\n"


def test_stats_refusal_of_an_empty_database_names_the_file(tmp_path, capsys):
    schema, data = tmp_path / "schema.txt", tmp_path / "data.csv"
    schema.write_text(_SCHEMA, encoding="utf-8")
    data.write_text("record_id,age,door\n", encoding="utf-8")
    assert main(["stats", "--schema", str(schema), "--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {data}: cannot tabulate an empty database\n"


@pytest.mark.parametrize("empty", ["--mined", "--golden"])
def test_a_rule_file_without_a_header_row_is_named(mined_csv, golden_csv, tmp_path, capsys, empty):
    files = {"--mined": mined_csv, "--golden": golden_csv}
    files[empty] = tmp_path / "empty.csv"
    files[empty].write_text("", encoding="utf-8")
    code = main(["validate", *(arg for flag, path in files.items() for arg in (flag, str(path)))])
    assert code == 2
    assert capsys.readouterr().err == f"error: {files[empty]}: missing header row\n"
