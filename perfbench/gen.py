"""Seeded input generators and output checks for the benchmark workloads.

Nothing here imports siterules: the checks recount every figure from the
generated rows with their own code, so a defect in the package cannot hide
behind the same defect in its checker.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

# Workload sizes. STUDY_SCALE_ROWS is below the 200k rows of the roadmap so
# that one run of --seconds holds several mine+stats cycles; it stays at the
# 100k floor the benchmark definition allows.
STUDY_SCALE_ROWS = 100_000
STUDY_SCALE_FLIP = 0.02
FLAT_ROWS = 100_000
FLAT_ITEMS = 64
FLAT_DENSITY = Fraction(1, 5)
FLAT_MIN_COUNT = 1000  # 1% floor: 2016 frequent pairs, 41,664 triple candidates
PAIR_SAMPLE = 32

_ATTR_RE = re.compile(r"^attribute\s+(\S+)\s+(numeric|categorical)\s+antecedent\s+(?:values|bins):\s*(.+)$")
_FACILITY_RE = re.compile(r'^facility\s+(\S+)\s+"')
_BIN_RE = re.compile(r"^(\d+)-(\d*)=(\S+)$")


@dataclass(frozen=True)
class StudyShape:
    """The study schema as the generator and the checks need it."""

    text: str
    demographics: tuple[tuple[str, tuple[str, ...]], ...]  # (attribute, labels), declared order
    bins: dict  # numeric attribute -> [(lo, hi or None, label)]
    facilities: tuple[str, ...]

    @property
    def n_items(self) -> int:
        return sum(len(labels) for _, labels in self.demographics) + len(self.facilities)

    def label(self, attribute: str, cell: str) -> str:
        bins = self.bins.get(attribute)
        if bins is None:
            return cell
        value = int(cell)
        for lo, hi, label in bins:
            if lo <= value and (hi is None or value <= hi):
                return label
        raise ValueError(f"{attribute}={cell} falls in no bin")


def load_study_shape() -> StudyShape:
    text = (DATA_DIR / "study_schema.txt").read_text("utf-8")
    demographics, bins, facilities = [], {}, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        m = _ATTR_RE.match(line)
        if m:
            name, kind, body = m.groups()
            parts = [p.strip() for p in body.split(",")]
            if kind == "numeric":
                parsed = [_BIN_RE.match(p).groups() for p in parts]
                bins[name] = [(int(lo), int(hi) if hi else None, lab) for lo, hi, lab in parsed]
                parts = [lab for _, _, lab in parsed]
            demographics.append((name, tuple(parts)))
        elif _FACILITY_RE.match(line):
            facilities.append(_FACILITY_RE.match(line).group(1))
    return StudyShape(text, tuple(demographics), bins, tuple(facilities))


@dataclass(frozen=True)
class StudyRows:
    """A study-shaped transaction file and the rows it encodes.

    ``cells[j]`` is row j's demographic labels in declaration order and
    ``masks[j]`` its facility bits (bit f set iff facility f is present).
    """

    csv_text: str
    cells: list
    masks: list


def read_study_csv(shape: StudyShape, text: str) -> StudyRows:
    """Decode a study transaction CSV (record_id, demographics, facilities)."""
    reader = csv.reader(text.splitlines())
    header = next(reader)
    demo_cols = [header.index(name) for name, _ in shape.demographics]
    fac_cols = [header.index(name) for name in shape.facilities]
    cells, masks = [], []
    for row in reader:
        cells.append(
            tuple(shape.label(name, row[c]) for (name, _), c in zip(shape.demographics, demo_cols))
        )
        masks.append(sum(1 << f for f, c in enumerate(fac_cols) if row[c].strip().upper() in ("Y", "YES", "1")))
    return StudyRows(text, cells, masks)


def generate_study_scale(shape: StudyShape, seed: int) -> StudyRows:
    """Resample the fixture's rows with replacement and flip facility bits.

    Each of the STUDY_SCALE_ROWS x facilities cells flips with probability
    STUDY_SCALE_FLIP; flips are placed by geometric gaps so the cost follows
    the number of flips, not the number of cells. Every row gets a fresh id.
    """
    lines = (DATA_DIR / "study_fixture.csv").read_text("utf-8").splitlines()
    header = next(csv.reader(lines[:1]))
    n_demo = len(shape.demographics)
    if header[1 + n_demo:] != list(shape.facilities):
        raise ValueError("stored fixture columns do not follow the stored schema")
    source = read_study_csv(shape, "\n".join(lines))
    prefixes = [",".join(line.split(",")[1:1 + n_demo]) for line in lines[1:]]

    rng = random.Random(seed)
    n_fac = len(shape.facilities)
    n_rows = STUDY_SCALE_ROWS
    picks = [rng.randrange(len(prefixes)) for _ in range(n_rows)]
    masks = [source.masks[p] for p in picks]
    log_keep = math.log(1.0 - STUDY_SCALE_FLIP)
    pos = -1
    total = n_rows * n_fac
    while True:
        pos += 1 + int(math.log(1.0 - rng.random()) / log_keep)
        if pos >= total:
            break
        row, fac = divmod(pos, n_fac)
        masks[row] ^= 1 << fac

    tails: dict = {}
    out = [lines[0]]
    for j, (p, mask) in enumerate(zip(picks, masks)):
        tail = tails.get(mask)
        if tail is None:
            tail = tails[mask] = ",".join("Y" if mask >> f & 1 else "N" for f in range(n_fac))
        out.append(f"R{j + 1:07d},{prefixes[p]},{tail}")
    return StudyRows("\n".join(out) + "\n", [source.cells[p] for p in picks], masks)


# ---------------------------------------------------------------------------
# study checks: recount from the rows, compare with the rendered CSVs


def _truncate(num: int, den: int) -> str:
    q = 10_000 * num // den
    return f"{q // 100}.{q % 100:02d}"


def _round(num: int, den: int) -> str:
    q = (20_000 * num + den) // (2 * den)
    return f"{q // 100}.{q % 100:02d}"


class StudyTally:
    """Per demographic cell: its row count and each facility's count in it."""

    def __init__(self, shape: StudyShape, rows: StudyRows) -> None:
        self.shape = shape
        self.m = len(rows.masks)
        n_fac = len(shape.facilities)
        size: dict = {}
        per_mask: dict = {}
        # The single pass over the rows: group identical (cell, mask) pairs.
        for key in zip(rows.cells, rows.masks):
            per_mask[key] = per_mask.get(key, 0) + 1
        fac: dict = {}
        for (cell, mask), n in per_mask.items():
            size[cell] = size.get(cell, 0) + n
            counts = fac.setdefault(cell, [0] * n_fac)
            for f in range(n_fac):
                if mask >> f & 1:
                    counts[f] += n
        self.size = size
        self.fac = fac

    def group(self, items) -> tuple[int, list]:
        """Rows matching every (attribute, label) in ``items`` and per-facility joints."""
        index = {name: k for k, (name, _) in enumerate(self.shape.demographics)}
        n, joint = 0, [0] * len(self.shape.facilities)
        for cell, count in self.size.items():
            if all(cell[index[a]] in values for a, values in items):
                n += count
                joint = [x + y for x, y in zip(joint, self.fac[cell])]
        return n, joint


RULES_HEADER = "rule_id,antecedent,consequent,confidence_pct,coverage_pct,support_pct,class"


def expected_rules(tally: StudyTally, max_antecedent: int = 2) -> dict:
    """Every rule of <= max_antecedent demographic items from distinct
    attributes => one facility, with confidence >= 90%, keyed by item sets."""
    items = [(a, v) for a, labels in tally.shape.demographics for v in labels]
    out = {}
    for size in range(1, max_antecedent + 1):
        for ante in itertools.combinations(items, size):
            if len({a for a, _ in ante}) != size:
                continue
            n, joint = tally.group([(a, (v,)) for a, v in ante])
            for f, name in enumerate(tally.shape.facilities):
                if n and joint[f] and 10 * joint[f] >= 9 * n:
                    out[(frozenset(ante), name)] = (n, joint[f])
    return out


def check_rules_csv(tally: StudyTally, text: str) -> list[str]:
    """Recount each emitted rule and confirm none of the expected is missing."""
    lines = text.splitlines()
    if not lines or lines[0] != RULES_HEADER:
        return ["rules CSV header differs"]
    expected = expected_rules(tally)
    errors, seen, prev = [], set(), None
    for k, row in enumerate(csv.reader(lines[1:]), start=1):
        rid, ante_text, cons_text, conf, cov, sup, cls = row
        ante = frozenset(tuple(part.split("=", 1)) for part in ante_text.split(" AND "))
        key = (ante, cons_text.split("=", 1)[1])
        counts = expected.get(key)
        if counts is None:
            errors.append(f"rule {rid} is not a rule of the data: {ante_text} => {cons_text}")
            continue
        if key in seen:
            errors.append(f"rule {rid} repeats {ante_text} => {cons_text}")
        seen.add(key)
        n, joint = counts
        want = [str(k), _truncate(joint, n), _truncate(n, tally.m), _truncate(joint, tally.m),
                "must_have" if 100 * joint >= 95 * n else "should_have"]
        if [rid, conf, cov, sup, cls] != want:
            errors.append(f"rule {rid} reads {[rid, conf, cov, sup, cls]}, recount gives {want}")
        order = (-Fraction(joint, n), len(ante))
        if prev is not None and order < prev:
            errors.append(f"rule {rid} is out of confidence order")
        prev = order
    missing = len(set(expected) - seen)
    if missing:
        errors.append(f"{missing} rules at >=90% confidence are missing")
    return errors


def check_stats_csv(tally: StudyTally, text: str) -> list[str]:
    """Recount every frequency-table cell (rounded two-decimal percentages)."""
    rows = list(csv.reader(text.splitlines()))
    header = rows[0]
    if header[:2] != ["facility", "total_pct"]:
        return ["stats CSV header differs"]
    groups = [tally.group([])]
    for label in header[2:]:
        attr, _, values = label.partition("=")
        groups.append(tally.group([(attr, tuple(values.split("+")))]))
    if [r[0] for r in rows[1:]] != list(tally.shape.facilities):
        return ["stats CSV facility rows differ"]
    errors = []
    for f, row in enumerate(rows[1:]):
        want = [row[0]] + [_round(j[f], n) if n else "" for n, j in groups]
        if row != want:
            errors.append(f"stats row {row[0]} reads {row[1:]}, recount gives {want[1:]}")
    return errors


# ---------------------------------------------------------------------------
# flat catalog for the deep engine workload


def generate_flat(seed: int) -> list[int]:
    """Row bitmasks of a FLAT_ROWS x FLAT_ITEMS catalog in which every item
    occurs in exactly FLAT_DENSITY of the rows, placed uniformly at random."""
    rng = random.Random(seed)
    per_item = round(FLAT_ROWS * FLAT_DENSITY)
    masks = [0] * FLAT_ROWS
    for i in range(FLAT_ITEMS):
        bit = 1 << i
        for j in rng.sample(range(FLAT_ROWS), per_item):
            masks[j] |= bit
    return masks


def check_flat_levels(masks: list, levels: list, seed: int) -> list[str]:
    """``levels`` as [(k, [(items, count), ...]), ...]: sizes 64/2016, every
    single at its exact count, and a seeded sample of pairs by row scan."""
    sizes = [len(itemsets) for _, itemsets in levels]
    n_pairs = FLAT_ITEMS * (FLAT_ITEMS - 1) // 2
    if sizes != [FLAT_ITEMS, n_pairs] or [k for k, _ in levels] != [1, 2]:
        return [f"level sizes {sizes}, expected [{FLAT_ITEMS}, {n_pairs}]"]
    errors = []
    per_item = round(FLAT_ROWS * FLAT_DENSITY)
    singles = dict(levels[0][1])
    if singles != {(i,): per_item for i in range(FLAT_ITEMS)}:
        errors.append("single-item counts differ from the generated occurrences")
    pairs = dict(levels[1][1])
    if set(pairs) != set(itertools.combinations(range(FLAT_ITEMS), 2)):
        errors.append("level 2 is not every pair of items")
        return errors
    for pair in random.Random(seed ^ 0x5EED).sample(sorted(pairs), PAIR_SAMPLE):
        want = (1 << pair[0]) | (1 << pair[1])
        count = sum(1 for m in masks if m & want == want)
        if pairs[pair] != count:
            errors.append(f"pair {pair} counted {pairs[pair]}, row scan gives {count}")
    return errors
