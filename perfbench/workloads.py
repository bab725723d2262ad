"""The benchmark's workloads: how each one sets up, runs a cycle, checks its
outputs and replays a cycle under tracing.

A cycle is the unit a user runs: the four CLI commands of a reproduction,
``mine`` then ``stats`` on one scale file, or ``TransactionDatabase.build``
then ``mine_frequent`` on an in-memory catalog. Untraced cycles call
``cli.main`` (or the two library calls) exactly as a user would; traced
cycles replay the same public calls that ``cli`` makes, one span per call,
and must reproduce the untraced output bytes.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import io
import re
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gen
from siterules import cli, corpus
from siterules.classify import classify_rules
from siterules.datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    MiningConfig,
    Percent,
    Transaction,
    TransactionDatabase,
    build_vertical_index,
)
from siterules.engine import generate_candidates, mine_frequent
from siterules.ingest import (
    parse_golden_rules,
    parse_pct_bp,
    parse_schema,
    parse_transactions,
    render_transactions_csv,
)
from siterules.report import frequency_csv, render_rules, stats_table
from siterules.rules import canonical_sort, derive_rules

GOLDEN_RULES = 68
_VALIDATE_RE = re.compile(r"^matched: (\d+)  missing: (\d+) ")


class Counts(dict):
    """Work counts of one traced cycle; missing keys read as 0."""

    def add(self, key: str, n: int) -> None:
        self[key] = self.get(key, 0) + n


def _timed_cli(argv: list[str]) -> tuple[float, int, str]:
    """Run ``cli.main`` once; returns (seconds, exit code, captured stdout)."""
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


@contextlib.contextmanager
def _capturing_mine_frequent(calls: list):
    """Record every call the package makes to ``mine_frequent`` as
    (args, kwargs, levels), wherever a siterules module has bound the name."""

    def wrapper(*args, **kwargs):
        levels = mine_frequent(*args, **kwargs)
        calls.append((args, kwargs, levels))
        return levels

    bound = [
        (module, name)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("siterules")
        for name, value in list(vars(module).items())
        if value is mine_frequent
    ]
    for module, name in bound:
        setattr(module, name, wrapper)
    try:
        yield calls
    finally:
        for module, name in bound:
            setattr(module, name, mine_frequent)


# ---------------------------------------------------------------------------
# nested work, attributed by rerunning the inner call on the same inputs


def _attribute_build(tr, parent: dict, db: TransactionDatabase, counts: Counts) -> None:
    with tr.span("datamodel.build", parent=parent) as build:
        TransactionDatabase.build(db.catalog, db.transactions, db.excluded_count)
    with tr.span("datamodel.build_vertical_index", parent=build):
        build_vertical_index(db.catalog.n_items, db.transactions)
    counts.add("datamodel.set_bits", sum(v.bit_count() for v in db.vertical_index))


def _attribute_levels(tr, parent: dict, levels, max_size, counts: Counts) -> None:
    """Re-run candidate generation on the returned levels: candidates per
    level against the itemsets kept at that level."""
    for level in levels:
        counts.add(f"engine.kept.k{level.k}", len(level.itemsets))
        if max_size is not None and level.k >= max_size:
            break
        with tr.span("engine.generate_candidates", parent=parent):
            cands = generate_candidates(level)
        counts.add(f"engine.candidates.k{level.k + 1}", len(cands))


def _attribute_derive(tr, parent: dict, db, config, counts: Counts) -> None:
    calls: list = []
    with _capturing_mine_frequent(calls):
        derive_rules(db, config)
    for args, kwargs, levels in calls:
        with tr.span("engine.mine_frequent", parent=parent) as mined:
            mine_frequent(*args, **kwargs)
        bound = inspect.signature(mine_frequent).bind(*args, **kwargs).arguments
        _attribute_levels(tr, mined, levels, bound.get("max_size"), counts)
        counts.add("rules.itemsets_mined", sum(len(level.itemsets) for level in levels))


# ---------------------------------------------------------------------------
# replays of the CLI commands, one span per public call cli makes


def _read(tr, path: str) -> str:
    with tr.span("cli.read"):
        return Path(path).read_text(encoding="utf-8")


def _write(tr, path: Path, text: str) -> None:
    with tr.span("cli.write"):
        path.write_text(text, encoding="utf-8")


def _parse_db(tr, args, counts: Counts):
    schema_text = _read(tr, args.schema)
    with tr.span("ingest.parse_schema"):
        schema = parse_schema(schema_text)
    data_text = _read(tr, args.data)
    with tr.span("ingest.parse_transactions") as parsed:
        db = parse_transactions(schema, data_text)
    counts.add("ingest.rows", db.size + db.excluded_count)
    return schema, db, parsed


def replay_mine(tr, argv: list[str], counts: Counts) -> None:
    with tr.span("cli.main"):
        with tr.span("cli.parse_args"):
            args = cli.build_parser().parse_args(argv)
        schema, db, parsed = _parse_db(tr, args, counts)
        with tr.span("datamodel.MiningConfig"):
            config = MiningConfig(
                min_confidence=Percent.from_basis_points(parse_pct_bp(args.min_conf)),
                max_antecedent_size=args.max_antecedent,
            )
        with tr.span("rules.derive_rules") as derived:
            ruleset = derive_rules(db, config)
        with tr.span("rules.canonical_sort"):
            ruleset = canonical_sort(ruleset)
        with tr.span("classify.classify_rules"):
            classified = classify_rules(ruleset)
        with tr.span("report.render_rules"):
            document = render_rules(schema.catalog, classified, args.format)
        _write(tr, Path(args.out), document)
    _attribute_build(tr, parsed, db, counts)
    _attribute_derive(tr, derived, db, config, counts)
    counts.add("rules.rules_emitted", len(ruleset))
    for entry in classified:
        counts.add(f"classify.{entry.rule_class.label}", 1)


def replay_stats(tr, argv: list[str], counts: Counts) -> None:
    with tr.span("cli.main"):
        with tr.span("cli.parse_args"):
            args = cli.build_parser().parse_args(argv)
        schema, db, parsed = _parse_db(tr, args, counts)
        with tr.span("corpus.study_aggregate_groups"):
            aggregates = corpus.study_aggregate_groups(schema.catalog)
        with tr.span("report.stats_table"):
            table = stats_table(db, aggregates=aggregates)
        with tr.span("report.frequency_csv"):
            document = frequency_csv(table, mode="round")
        _write(tr, Path(args.out), document)
    _attribute_build(tr, parsed, db, counts)


def replay_validate(tr, argv: list[str], counts: Counts) -> tuple[int, str]:
    out = io.StringIO()
    with tr.span("cli.main"):
        with tr.span("cli.parse_args"):
            args = cli.build_parser().parse_args(argv)
        golden_text = _read(tr, args.golden)
        with tr.span("ingest.parse_golden_rules"):
            golden = parse_golden_rules(golden_text)
        mined_text = _read(tr, args.mined)
        with tr.span("corpus.parse_rules_csv"):
            mined = corpus.parse_rules_csv(mined_text)
        with tr.span("corpus.validate_rows_against_golden"):
            report = corpus.validate_rows_against_golden(mined, golden, Fraction(args.tolerance))
        with tr.span("corpus.render_validation"):
            text = report.render()
        with tr.span("cli.write"):
            out.write(text)
    counts.add("corpus.matched", len(report.matched))
    return (0 if report.ok else 1), out.getvalue()


def replay_fixture(tr, argv: list[str], counts: Counts) -> None:
    with tr.span("cli.main"):
        with tr.span("cli.parse_args"):
            args = cli.build_parser().parse_args(argv)
        with tr.span("corpus.study_group_counts"):
            group_counts = corpus.study_group_counts()
        with tr.span("corpus.load_golden_rules"):
            golden = corpus.load_golden_rules()
        with tr.span("corpus.build_fixture") as built:
            result = corpus.build_fixture(group_counts, golden)
        out_dir = Path(args.out_dir)
        with tr.span("cli.write"):
            out_dir.mkdir(parents=True, exist_ok=True)
        with tr.span("corpus.schema_text"):
            schema_text = corpus.schema_text()
        _write(tr, out_dir / "schema_appendix_a.txt", schema_text)
        with tr.span("ingest.render_transactions_csv"):
            data_text = render_transactions_csv(result.database)
        _write(tr, out_dir / "fixture_data.csv", data_text)
        with tr.span("corpus.render_report"):
            report_text = result.report.render()
        _write(tr, out_dir / "construction_report.txt", report_text)
    _attribute_build(tr, built, result.database, counts)
    counts.add("corpus.unmet_cells", len(result.report.unmet_cells))


# ---------------------------------------------------------------------------
# workloads


class CliWorkload:
    """A workload whose cycle is a fixed list of ``cli.main`` invocations.

    Subclasses give ``commands(base)`` (name, argv) pairs writing under
    ``base``, the ``files`` those commands write, and ``check_first``.
    """

    name = ""
    files: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.shape = gen.load_study_shape()

    def commands(self, base: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def _outputs(self, base: Path, stdout: dict) -> dict:
        out = {name: (base / name).read_bytes() for name in self.files}
        out.update(stdout)
        return out

    def cycle(self, tick) -> tuple[dict, dict]:
        """One untraced cycle: per-command seconds and every output. ``tick``
        runs between commands, outside the timed calls."""
        base = self.work / "plain"
        times, stdout = {}, {}
        for name, argv in self.commands(base):
            elapsed, code, text = _timed_cli(argv)
            tick()
            times[name] = elapsed
            stdout[f"{name}.exit"] = str(code).encode()
            stdout[f"{name}.stdout"] = text.encode()
        return times, self._outputs(base, stdout)

    def traced_cycle(self, tr, counts: Counts) -> dict:
        """Replay one cycle under spans; returns outputs comparable to ``cycle``."""
        base = self.work / "traced"
        stdout = {}
        for name, argv in self.commands(base):
            code, text = 0, ""
            gc.collect()
            if name == "mine":
                replay_mine(tr, argv, counts)
            elif name == "stats":
                replay_stats(tr, argv, counts)
            elif name == "validate":
                code, text = replay_validate(tr, argv, counts)
            else:
                replay_fixture(tr, argv, counts)
            stdout[f"{name}.exit"] = str(code).encode()
            stdout[f"{name}.stdout"] = text.encode()
        return self._outputs(base, stdout)

    def _check_study(self, rows: gen.StudyRows, outputs: dict) -> list[str]:
        errors = [
            f"{key} is {value.decode()}"
            for key, value in outputs.items()
            if key.endswith(".exit") and value != b"0"
        ]
        tally = gen.StudyTally(self.shape, rows)
        errors += gen.check_rules_csv(tally, outputs["rules.csv"].decode())
        errors += gen.check_stats_csv(tally, outputs["stats.csv"].decode())
        return errors


class StudyPipeline(CliWorkload):
    """fixture -> mine -> stats -> validate on the reconstructed study fixture."""

    name = "study-pipeline"
    files = (
        "fixture/schema_appendix_a.txt",
        "fixture/fixture_data.csv",
        "fixture/construction_report.txt",
        "rules.csv",
        "stats.csv",
    )
    rows = 91
    ops = 4

    def prepare(self) -> None:
        (self.work / "golden.csv").write_text(corpus.golden_text(), encoding="utf-8")

    def sizes(self) -> dict:
        data = (gen.DATA_DIR / "study_fixture.csv").stat().st_size
        return {"rows": self.rows, "items": self.shape.n_items, "csv_bytes": data}

    def commands(self, base: Path) -> list[tuple[str, list[str]]]:
        fx = base / "fixture"
        schema, data = str(fx / "schema_appendix_a.txt"), str(fx / "fixture_data.csv")
        rules = str(base / "rules.csv")
        return [
            ("fixture", ["fixture", "--out-dir", str(fx)]),
            ("mine", ["mine", "--schema", schema, "--data", data, "--out", rules]),
            ("stats", ["stats", "--schema", schema, "--data", data, "--out", str(base / "stats.csv")]),
            ("validate", ["validate", "--mined", rules, "--golden", str(self.work / "golden.csv")]),
        ]

    def check_first(self, outputs: dict) -> list[str]:
        rows = gen.read_study_csv(self.shape, outputs["fixture/fixture_data.csv"].decode())
        errors = self._check_study(rows, outputs)
        m = _VALIDATE_RE.match(outputs["validate.stdout"].decode())
        if m is None or (int(m[1]), int(m[2])) != (GOLDEN_RULES, 0):
            errors.append(f"validate did not match all {GOLDEN_RULES} reference rules")
        return errors


class StudyScale(CliWorkload):
    """mine then stats on one seeded study-shaped CSV of gen.STUDY_SCALE_ROWS rows."""

    name = "study-scale"
    files = ("rules.csv", "stats.csv")
    rows = gen.STUDY_SCALE_ROWS
    ops = 2

    def prepare(self) -> None:
        self.data = gen.generate_study_scale(self.shape, self.seed)
        (self.work / "schema.txt").write_text(self.shape.text, encoding="utf-8")
        (self.work / "data.csv").write_text(self.data.csv_text, encoding="utf-8")
        for base in ("plain", "traced"):
            (self.work / base).mkdir(exist_ok=True)

    def sizes(self) -> dict:
        return {"rows": self.rows, "items": self.shape.n_items, "csv_bytes": len(self.data.csv_text.encode())}

    def commands(self, base: Path) -> list[tuple[str, list[str]]]:
        io_args = ["--schema", str(self.work / "schema.txt"), "--data", str(self.work / "data.csv")]
        return [
            ("mine", ["mine", *io_args, "--out", str(base / "rules.csv")]),
            ("stats", ["stats", *io_args, "--out", str(base / "stats.csv")]),
        ]

    def check_first(self, outputs: dict) -> list[str]:
        return self._check_study(self.data, outputs)


class EngineDeep:
    """TransactionDatabase.build + mine_frequent(db, 1000) on a seeded
    100k x 64 flat catalog at density 0.2."""

    name = "engine-deep"
    rows = gen.FLAT_ROWS
    ops = 1

    def __init__(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.catalog = ItemCatalog(
            tuple(
                AttributeDef(f"f{i}", AttributeKind.BINARY, ItemClass.FACILITY, ("yes",))
                for i in range(gen.FLAT_ITEMS)
            )
        )

    def prepare(self) -> None:
        self.masks = gen.generate_flat(self.seed)
        self.transactions = [Transaction(f"t{j}", m) for j, m in enumerate(self.masks)]

    def sizes(self) -> dict:
        return {"rows": self.rows, "items": gen.FLAT_ITEMS, "csv_bytes": 0}

    @staticmethod
    def _levels(levels) -> dict:
        shape = [(lv.k, [(ci.items, ci.count) for ci in lv.itemsets]) for lv in levels]
        return {"levels": shape}

    def cycle(self, tick) -> tuple[dict, dict]:
        gc.collect()
        start = perf_counter()
        db = TransactionDatabase.build(self.catalog, self.transactions)
        levels = mine_frequent(db, gen.FLAT_MIN_COUNT)
        elapsed = perf_counter() - start
        tick()
        return {"engine": elapsed}, self._levels(levels)

    def traced_cycle(self, tr, counts: Counts) -> dict:
        with tr.span("datamodel.build") as built:
            db = TransactionDatabase.build(self.catalog, self.transactions)
        with tr.span("engine.mine_frequent") as mined:
            levels = mine_frequent(db, gen.FLAT_MIN_COUNT)
        with tr.span("datamodel.build_vertical_index", parent=built):
            build_vertical_index(db.catalog.n_items, db.transactions)
        counts.add("datamodel.set_bits", sum(v.bit_count() for v in db.vertical_index))
        _attribute_levels(tr, mined, levels, None, counts)
        return self._levels(levels)

    def check_first(self, outputs: dict) -> list[str]:
        return gen.check_flat_levels(self.masks, outputs["levels"], self.seed)


WORKLOADS = {w.name: w for w in (StudyPipeline, StudyScale, EngineDeep)}
