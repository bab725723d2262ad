#!/usr/bin/env python3
"""Benchmark for siterules: three seeded workloads, end-to-end and per-layer metrics.

Run one workload (its own process, one thread, closed loop: the next
command starts when the previous one returns):

    python3 perfbench/run.py --workload study-pipeline --seed 1 --seconds 30 --trace 0

or every workload, each in a child process of its own:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced cycles.
``--trace 1`` interleaves untraced cycles with traced replays, reports the
per-layer metrics and writes the spans to perfbench/out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The package is imported from src/ of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("study-pipeline", "study-scale", "engine-deep")
MIN_CYCLES = 3
# The reference loop takes REF_SECONDS at the reference speed (about the speed
# of the 2-vCPU VM the bounds were set on); see RefClock.
REF_SECONDS = 0.15
TICK_SECONDS = 1.0
MAX_SAMPLES = 4
NEAREST = 7
# Set-ups per run; the median is reported. Each one regenerates the inputs.
SETUPS = 3

END_TO_END = (
    ("cycle_s", "s"),
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("cli", "ingest", "datamodel", "engine", "rules", "classify", "report", "corpus")
# Self time of the spans of one name, per cycle.
SPAN_METRICS = (
    ("ingest.parse_transactions_s", "ingest.parse_transactions"),
    ("ingest.parse_schema_s", "ingest.parse_schema"),
    ("ingest.render_transactions_csv_s", "ingest.render_transactions_csv"),
    ("datamodel.build_s", "datamodel.build"),
    ("datamodel.vertical_index_s", "datamodel.build_vertical_index"),
    ("engine.mine_frequent_s", "engine.mine_frequent"),
    ("engine.generate_candidates_s", "engine.generate_candidates"),
    ("rules.derive_rules_s", "rules.derive_rules"),
    ("rules.canonical_sort_s", "rules.canonical_sort"),
    ("classify.classify_rules_s", "classify.classify_rules"),
    ("report.render_rules_s", "report.render_rules"),
    ("report.stats_table_s", "report.stats_table"),
    ("report.frequency_csv_s", "report.frequency_csv"),
    ("corpus.build_fixture_s", "corpus.build_fixture"),
    ("corpus.parse_rules_csv_s", "corpus.parse_rules_csv"),
    ("corpus.validate_rows_against_golden_s", "corpus.validate_rows_against_golden"),
)
COUNT_METRICS = (
    "ingest.rows",
    "datamodel.set_bits",
    "engine.kept.k1",
    "engine.kept.k2",
    "engine.kept.k3",
    "engine.kept.k4",
    "engine.candidates.k2",
    "engine.candidates.k3",
    "engine.candidates.k4",
    "rules.itemsets_mined",
    "rules.rules_emitted",
    "classify.must_have",
    "classify.should_have",
    "corpus.unmet_cells",
    "corpus.matched",
)
COMMANDS = ("fixture", "mine", "stats", "validate", "engine")


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({name: "s" for name, _ in SPAN_METRICS})
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({"engine.kept_ratio": "ratio", "rules.yield_ratio": "ratio"})
    units.update({f"cmd.{c}_s": "s" for c in COMMANDS})
    units.update({f"trace.{k}_s": "s" for k in ("untraced_cycle", "traced_cycle", "overhead", "ref_loop")})
    return units


def import_package() -> None:
    """Import siterules from this checkout's src/, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import siterules
        import siterules.cli  # noqa: F401  (cli pulls in corpus)
    except ImportError as exc:
        print(f"error: cannot import siterules from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(siterules.__file__).resolve().parents:
        print(f"error: siterules was imported from {siterules.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def summarize(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6f}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"{text}  p{p} {cut:.6f}  n={n}"
    return f"{text}  max {max(values):.6f}  n={n} (too few samples for a tail percentile)"


class RefClock:
    """Scales wall times to the speed of a fixed reference loop.

    The speed of the VM this benchmark was written on drifts, within a run
    and over minutes: one unchanged ``study-scale`` cycle took 4.5 s at one
    time and 7.5 s half an hour later, and the reference loop (refloop.py)
    slowed with it. So the loop is sampled throughout a run, between timed
    blocks, about once per TICK_SECONDS. A block timed around time t is
    reported as ``wall * REF_SECONDS / median(the NEAREST samples to t)``:
    its time on a machine where the loop takes REF_SECONDS. The median of
    several samples keeps the loop's own jitter out of single blocks.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when taken, loop seconds)
        self._last = perf_counter() - TICK_SECONDS
        self.tick()

    @property
    def refs(self) -> list[float]:
        return [seconds for _, seconds in self.samples]

    def tick(self) -> None:
        """Sample the loop once per TICK_SECONDS passed since the last sample
        (at most MAX_SAMPLES at once), so long cycles get as many samples
        per second of run as short ones."""
        due = min(MAX_SAMPLES, int((perf_counter() - self._last) / TICK_SECONDS))
        for _ in range(due):
            child = subprocess.run(
                [sys.executable, str(HERE / "refloop.py")], capture_output=True, text=True, check=True
            )
            self.samples.append((perf_counter(), float(child.stdout)))
        if due:
            self._last = perf_counter()

    def factor(self, when: float) -> float:
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - when))[:NEAREST]
        return REF_SECONDS / statistics.median(seconds for _, seconds in nearest)


class Loop:
    """Closed-loop cycles of one workload with their checks and failure counts."""

    def __init__(self, wl, clock: RefClock) -> None:
        self.wl = wl
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.verified = None  # outputs of the first cycle that passed check_first
        self.times: dict[str, list[float]] = {}  # unscaled seconds per command and per cycle
        self.mids: list[float] = []  # when each timed cycle was half done

    def _check(self, outputs: dict) -> list[str]:
        if self.verified is None:
            errors = self.wl.check_first(outputs)
            if not errors:
                self.verified = outputs
            return errors
        return [f"{key} differs from the first cycle" for key in self.verified
                if outputs.get(key) != self.verified[key]]

    def fail(self, errors: list[str]) -> None:
        self.failed += self.wl.ops
        if len(self.errors) < 20:
            self.errors.extend(errors)

    def untraced(self):
        """One untraced, checked cycle; returns its outputs, or None if it failed."""
        self.attempted += self.wl.ops
        start = perf_counter()
        try:
            times, outputs = self.wl.cycle(self.clock.tick)
            mid = (start + perf_counter()) / 2
            errors = self._check(outputs)
        except Exception:  # a crashing command is a failed operation; keep measuring
            self.fail([traceback.format_exc()])
            return None
        if errors:
            self.fail(errors)
            return None
        for name, seconds in times.items():
            self.times.setdefault(name, []).append(seconds)
        self.times.setdefault("cycle", []).append(sum(times.values()))
        self.mids.append(mid)
        return outputs

    def cycles(self) -> int:
        return len(self.mids)

    def scaled(self) -> dict[str, list[float]]:
        """Every recorded time, scaled to reference speed at its own cycle."""
        factors = [self.clock.factor(mid) for mid in self.mids]
        return {name: [t * f for t, f in zip(raw, factors)] for name, raw in self.times.items()}


def measure(wl, clock: RefClock, seconds: float) -> tuple[Loop, dict]:
    loop = Loop(wl, clock)
    start = perf_counter()
    while loop.cycles() < MIN_CYCLES and loop.attempted < 10 * wl.ops or (
        perf_counter() - start < seconds
    ):
        loop.untraced()
    cycle = statistics.median(loop.scaled()["cycle"]) if loop.cycles() else 0.0
    return loop, {"cycle_s": cycle, "rows_per_s": wl.rows / cycle if cycle else 0.0}


def traced_metrics(tr, run: str, counts: dict) -> dict:
    selfs = tr.self_times(run)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        out[f"{name.split('.', 1)[0]}.self_s"] += seconds
    out.update({metric: selfs.get(span, 0.0) for metric, span in SPAN_METRICS})
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    kept = sum(counts.get(f"engine.kept.k{k}", 0) for k in (2, 3, 4))
    cands = sum(counts.get(f"engine.candidates.k{k}", 0) for k in (2, 3, 4))
    out["engine.kept_ratio"] = kept / cands if cands else 0.0
    mined = counts.get("rules.itemsets_mined", 0)
    out["rules.yield_ratio"] = counts.get("rules.rules_emitted", 0) / mined if mined else 0.0
    out["trace.traced_cycle_s"] = sum(
        s["end"] - s["start"] for s in tr.spans if s["run"] == run and s["parent"] is None
    )
    return out


def measure_traced(wl, clock: RefClock, seconds: float, seed: int) -> tuple[Loop, dict]:
    """Alternate an untraced cycle with a traced replay of it; per-layer
    metrics are medians over the replays."""
    from spans import Tracer
    from workloads import Counts

    loop = Loop(wl, clock)
    tr = Tracer()
    cycles: list[tuple[float, dict]] = []  # (when half done, unscaled metrics)
    start = perf_counter()
    while len(cycles) < MIN_CYCLES and loop.attempted < 20 * wl.ops or (
        perf_counter() - start < seconds
    ):
        plain = loop.untraced()
        tr.run = f"{wl.name}:{seed}:{len(cycles)}"
        counts = Counts()
        loop.attempted += wl.ops
        began = perf_counter()
        try:
            replayed = wl.traced_cycle(tr, counts)
        except Exception:  # as in Loop.untraced: count it and keep measuring
            loop.fail([traceback.format_exc()])
            continue
        finally:
            mid = (began + perf_counter()) / 2
            clock.tick()
        if plain is None or replayed != plain:
            loop.fail([f"traced replay {tr.run} differs from the untraced cycle's output bytes"])
            continue
        cycles.append((mid, traced_metrics(tr, tr.run, counts)))
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    scaled = [
        {k: v * clock.factor(mid) if k.endswith("_s") else v for k, v in metrics.items()}
        for mid, metrics in cycles
    ]
    result = {name: 0.0 for name in per_layer_units()}
    if scaled:
        result.update({name: statistics.median(c[name] for c in scaled) for name in scaled[0]})
    for name, values in loop.scaled().items():
        key = "trace.untraced_cycle_s" if name == "cycle" else f"cmd.{name}_s"
        result[key] = statistics.median(values)
    result["trace.overhead_s"] = result["trace.traced_cycle_s"] - result["trace.untraced_cycle_s"]
    result["trace.ref_loop_s"] = statistics.median(clock.refs)
    return loop, result


def run_one(args) -> int:
    # One CPU for the workload and the reference loop alike: no migrations,
    # and the loop measures the core the workload runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = RefClock()
    start = perf_counter()
    import_package()
    import_s = (perf_counter() - start) * clock.factor((start + perf_counter()) / 2)
    from workloads import WORKLOADS

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        setups = []
        for _ in range(SETUPS):
            clock.tick()
            start = perf_counter()
            wl.prepare()
            setups.append((perf_counter() - start, (start + perf_counter()) / 2))
        if args.trace:
            loop, values = measure_traced(wl, clock, args.seconds, args.seed)
            units = per_layer_units()
        else:
            loop, values = measure(wl, clock, args.seconds)
            inputs = [t * clock.factor(mid) for t, mid in setups]
            values["setup_s"] = import_s + statistics.median(inputs)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sizes = ", ".join(f"{k} {v}" for k, v in wl.sizes().items())
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  ({sizes})")
    print(f"  reference loop {summarize(clock.refs)} s; times are scaled to a loop of {REF_SECONDS} s")
    print(f"  set-up (unscaled): import {import_s:.6f} s, inputs {summarize([t for t, _ in setups])} s")
    scaled = loop.scaled()
    for name, raw in loop.times.items():
        print(f"  {name + '_s':<12} {summarize(scaled[name])} s  (unscaled median {statistics.median(raw):.6f} s)")
    ratio = loop.failed / loop.attempted if loop.attempted else 0.0
    print(f"  failed_ratio {ratio:.6f} ({loop.failed} failed of {loop.attempted} operations)")
    for error in loop.errors:
        print(f"  check failed: {error.rstrip()}")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]!r} {unit}")
    result = {
        "correct": loop.failed == 0 and loop.cycles() > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process, so peak RSS and failures are its own."""
    combined = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
