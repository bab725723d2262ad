"""Embedded study corpus: reference schema, transcribed rules, published
frequency targets, and a constraint-based fixture reconstruction.

The original per-company checklist answers were never published; what
survives is the 68-rule reference list (appendix_b.csv), whose support
column pins antecedent group sizes, and a per-facility frequency table.
Single and pairwise group sizes are read from that support column and the
attribute families from the packaged schema (schema_appendix_a.txt); the only
hand-typed tables are the frequency table (``_FREQUENCY_BP``) and the
definition of its group columns (``_GROUP_DEFS``).

``build_fixture`` reconstructs a 91-row database that reproduces every count
those published figures pin down exactly: single and pairwise demographic
group sizes, the joint count implied by each reference rule, and each
facility's overall count. The remaining per-group frequency cells are
satisfied wherever simultaneously possible; the published table is not fully
self-consistent (four rows have a group column that contradicts the row's
own total), so the leftovers are reported, not forced.

All searches are deterministic: cells are enumerated smallest-index-first
and candidate values highest-first, so repeated builds are byte-identical.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from importlib.resources import files
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .datamodel import ItemCatalog, ItemClass, Percent, TransactionDatabase, record
from .engine import count_support
from .ingest import (
    GoldenRule,
    Schema,
    _parse_item_text,
    csv_rows,
    parse_golden_rules,
    parse_pct_bp,
    parse_schema,
)
from .report import RULES_HEADER, format_percent


class InfeasibleFixtureError(Exception):
    """The mandatory fixture constraints admit no database (or embedded data
    failed an integrality check). Indicates a transcription error."""


# ---------------------------------------------------------------------------
# packaged data


def schema_text() -> str:
    return (files("siterules") / "data" / "schema_appendix_a.txt").read_text("utf-8")


def golden_text() -> str:
    return (files("siterules") / "data" / "appendix_b.csv").read_text("utf-8")


def load_study_schema() -> Schema:
    return parse_schema(schema_text())


def load_golden_rules() -> list[GoldenRule]:
    return parse_golden_rules(golden_text())


# ---------------------------------------------------------------------------
# published percentages, in basis points (hundredths of a percent)

M_ACCESSIBLE = 91

# The frequency table's seven demographic group columns. A column's members
# share one attribute, and an attribute's columns partition the database.
_GROUP_DEFS: dict[str, tuple[tuple[str, str], ...]] = {
    "governmental": (("ownership", "governmental"),),
    "private_semiprivate": (("ownership", "private"), ("ownership", "semiprivate")),
    "products": (("industry", "products"),),
    "services": (("industry", "services"),),
    "below10": (("age", "below10"),),
    "11-29": (("age", "11-29"),),
    "above30": (("age", "above30"),),
}

GROUP_COLUMNS = tuple(_GROUP_DEFS)

# Published per-facility presence shares (rounded to two decimals), one row
# per facility: total, then the group columns.
_FREQUENCY_BP = {
    #                      total   gov  p+s   prod  serv  <10  11-29  30+
    "about_us": (9560, 9796, 9286, 9773, 9362, 10000, 9714, 9333),
    "contact_us": (9780, 9592, 10000, 10000, 9574, 10000, 9429, 10000),
    "search_inside": (7473, 7551, 7381, 7273, 7660, 8182, 8571, 6444),
    "english_homepage": (7692, 8980, 6905, 7045, 8298, 3636, 8857, 7778),
    "english_contents": (7473, 8163, 6667, 7045, 7872, 2727, 8857, 7556),
    "related_links": (7692, 8571, 7143, 7045, 8298, 9091, 8286, 6889),
    "news_links": (6813, 6531, 7143, 6364, 7234, 7273, 7429, 6222),
    "personnel_login": (6374, 5306, 7619, 5909, 6809, 8182, 5143, 6889),
    "research_department": (5824, 5714, 5952, 6591, 5106, 5455, 4571, 6889),
    "links_to_others": (7033, 6939, 7143, 6591, 7447, 7273, 8000, 6222),
    "site_map": (7253, 7143, 7143, 6364, 7872, 6364, 7429, 7111),
    "page_titles": (6154, 5510, 6905, 6136, 6170, 6364, 6000, 6222),
    "load_time": (8681, 9184, 8095, 8409, 8936, 8182, 8857, 8889),
    "general_field_intro": (9121, 9592, 8571, 9318, 8936, 8182, 9143, 9333),
    "detailed_description": (5714, 5306, 6190, 5909, 5532, 5455, 5429, 6000),
    "submenus": (7912, 6939, 9048, 7955, 7872, 7273, 7714, 8222),
    "branches_info": (6264, 5714, 6905, 4773, 7660, 6364, 6286, 6222),
    "advertising": (7033, 6735, 7381, 6818, 7234, 7273, 6286, 7556),
    "at_a_glance": (9011, 8776, 9286, 8864, 9149, 9091, 8857, 9111),
    "at_a_glance_english": (6813, 7143, 6429, 5909, 7660, 5455, 7714, 6444),
}


def _derived_count(bp: int, denominator: int, mode: str) -> int:
    """Integer count implied by a published two-decimal percentage.

    The count is the nearest integer to bp*denominator/10000 and must
    reproduce the published figure when re-rendered in the source table's
    mode (truncate for the rule list, round for the frequency table).
    """
    count = (bp * denominator + 5000) // 10000
    in_range = 0 <= count <= denominator
    if not (in_range and parse_pct_bp(format_percent(Percent(count, denominator), mode)) == bp):
        raise InfeasibleFixtureError(
            f"embedded figure {bp / 100:.2f}% of {denominator} fails its integrality check"
        )
    return count


def _rule_counts(g: GoldenRule, m: int) -> tuple[int, int, Fraction]:
    """Antecedent and joint counts implied by a reference rule's published
    support and confidence, with the joint's distance from an integer."""
    n_antecedent = (g.support_bp * m + 5000) // 10000
    scaled = g.confidence_bp * n_antecedent
    joint = (scaled + 5000) // 10000
    return n_antecedent, joint, Fraction(abs(scaled - 10_000 * joint), 10_000)


def _demographic_families() -> list[tuple[str, tuple[str, ...]]]:
    """Each demographic attribute of the study schema with its values."""
    return [
        (a.name, a.values)
        for a in load_study_schema().attributes
        if a.item_class is ItemClass.DEMOGRAPHIC
    ]


@record
class StudyCounts(NamedTuple):
    """Integer counts recovered from the published percentages."""

    m: int
    single_counts: dict
    pair_counts: dict
    facility_counts: dict
    group_sizes: dict


def study_group_counts() -> StudyCounts:
    """Counts recovered from the packaged figures, re-verified on every call.

    Single and pairwise group sizes come from the reference rules' support
    column; the families they must partition come from the study schema. Raises
    :class:`InfeasibleFixtureError` if any published figure stops
    reproducing under its table's rounding mode (i.e. a transcription error).
    """
    shares: dict[frozenset, int] = {}
    for g in load_golden_rules():
        if shares.setdefault(frozenset(g.antecedent_items), g.support_bp) != g.support_bp:
            raise InfeasibleFixtureError(f"rule {g.rule_id}: support contradicts an earlier rule")
    by_key = {key: _derived_count(bp, M_ACCESSIBLE, "truncate") for key, bp in shares.items()}
    families = _demographic_families()
    singles = {(a, v): by_key.get(frozenset({(a, v)}), 0) for a, values in families for v in values}
    for attr, values in families:
        total = sum(singles[(attr, v)] for v in values)
        if total != M_ACCESSIBLE:
            raise InfeasibleFixtureError(f"{attr} group counts sum to {total}, not {M_ACCESSIBLE}")
    pairs = {key: count for key, count in by_key.items() if len(key) == 2}
    for key, count in pairs.items():
        for pair in key:
            if count > singles.get(pair, 0):
                raise InfeasibleFixtureError(f"pair count {count} exceeds its marginal {pair}")

    group_sizes = {"total": M_ACCESSIBLE}
    for column, members in _GROUP_DEFS.items():
        group_sizes[column] = sum(singles[pair] for pair in members)

    facility_counts = {}
    for facility, row in _FREQUENCY_BP.items():
        targets = {"total": _derived_count(row[0], M_ACCESSIBLE, "round")}
        for column, bp in zip(GROUP_COLUMNS, row[1:]):
            targets[column] = _derived_count(bp, group_sizes[column], "round")
        facility_counts[facility] = targets
    return StudyCounts(M_ACCESSIBLE, singles, pairs, facility_counts, group_sizes)


# ---------------------------------------------------------------------------
# arithmetic consistency of the transcribed rules


@record
class ArithmeticCheckEntry(NamedTuple):
    rule_id: int
    antecedent_count: int
    joint_count: int
    deviation: Fraction
    consistent: bool


@record
class ArithmeticReport(NamedTuple):
    entries: tuple[ArithmeticCheckEntry, ...]

    @property
    def violations(self) -> tuple[ArithmeticCheckEntry, ...]:
        return tuple(e for e in self.entries if not e.consistent)

    @property
    def ok(self) -> bool:
        return not self.violations


def arithmetic_consistency_check(
    golden: Sequence[GoldenRule], counts: StudyCounts
) -> ArithmeticReport:
    """Check each transcribed rule's confidence implies a near-integer joint.

    The antecedent count is recovered from the rule's support column; the
    published confidence times that count must land within 0.01 of an
    integer, since a two-decimal truncation of a ratio with denominator at
    most m/2 cannot stray further. Violations signal transcription errors.
    """
    entries = []
    for g in golden:
        n_antecedent, joint, deviation = _rule_counts(g, counts.m)
        consistent = deviation <= Fraction(1, 100)
        entries.append(ArithmeticCheckEntry(g.rule_id, n_antecedent, joint, deviation, consistent))
    return ArithmeticReport(tuple(entries))


# ---------------------------------------------------------------------------
# deterministic integer feasibility search

def _implied_differences(
    constraints: Sequence[tuple[tuple[int, ...], int]],
) -> list[tuple[tuple[int, ...], int]]:
    """``(B - A, t_B - t_A)`` for every pair of constraints whose index set A
    is a proper subset of B, unless B - A is already the index set of a
    constraint or of an earlier difference. One round: differences of
    differences are not added."""
    masks = []
    for idxs, _ in constraints:
        mask = 0
        for j in idxs:
            mask |= 1 << j
        masks.append(mask)
    known = set(masks)
    implied = []
    for a, (_, t_a) in zip(masks, constraints):
        for b, (idxs_b, t_b) in zip(masks, constraints):
            if a & b == a and a != b and b ^ a not in known:
                known.add(b ^ a)
                implied.append((tuple(j for j in idxs_b if not a >> j & 1), t_b - t_a))
    return implied


def _iter_solutions(
    caps: Sequence[Optional[int]],
    constraints: Sequence[tuple[tuple[int, ...], int]],
    start: Optional[Sequence[int]] = None,
) -> Iterator[tuple[int, ...]]:
    """Yield all non-negative integer assignments meeting every constraint.

    Each constraint is (variable index set, exact target sum). Variables are
    assigned in index order, candidate values highest-first, so solutions
    arrive in lexicographically descending order. With ``start``, only the
    solutions lexicographically at or below it are yielded.

    Before the search, each pair of constraints whose index set A is a
    proper subset of B adds the implied difference (B - A, t_B - t_A),
    unless B - A is already a constraint (redundant constraints). Every
    solution of the given constraints meets it, so the solutions are
    unchanged, but it tightens bounds and slack from the first variable on:
    a negative difference admits no solution at all.

    A variable's bound is its cap tightened by the targets of its
    constraints. ``slack[ci]`` is the sum of those bounds over constraint
    ci's unassigned members; entering variable i subtracts its bound from
    each of its constraints' slack and leaving adds it back. Variable i's
    value then lies between each constraint's remaining target less the
    slack of its other unassigned members and the smallest remaining target,
    so a constraint whose last member is assigned meets its target exactly,
    and a node costs O(constraints of i). A constraint whose target is
    negative or above its slack before any assignment admits no solution.

    The search runs in this one loop, with an explicit state per depth:
    ``key[i]`` is None until depth i is entered, and the value in
    ``assignment[i]`` steps down to ``low[i]`` before the depth is left.

    The solutions below variable i depend only on i and the remaining
    targets: bounds are fixed and the slack is a function of which variables
    are unassigned. So once a subtree has been searched to the end without
    a solution, its ``(i, remaining)`` key goes into ``dead`` and the search
    skips it when the key comes up again (nogood recording). Only subtrees
    holding no solution are pruned, so the order of the solutions is
    unchanged. ``dead`` is local to one call: a subtree left early by a
    closed generator records nothing.

    The start bound is exact too. While the prefix assigned so far equals
    ``start``'s (depths up to ``edge``), variable i is capped at
    ``start[i]``; a smaller value leaves every later variable free, since
    the solution is then below ``start`` whatever follows. A capped node
    has searched only part of its subtree, so it never goes into ``dead``;
    it may still be skipped by a key that an uncapped node put there.
    """
    n = len(caps)
    constraints = [*constraints, *_implied_differences(constraints)]
    by_var: list[list[int]] = [[] for _ in range(n)]
    for ci, (idxs, _) in enumerate(constraints):
        for j in idxs:
            by_var[j].append(ci)
    remaining = [t for _, t in constraints]
    bound = []
    for j, cap in enumerate(caps):
        targets = [remaining[ci] for ci in by_var[j]]
        if cap is not None:
            targets.append(cap)
        if not targets:
            raise ValueError(f"variable {j} is unbounded")
        bound.append(min(targets))
    slack = [sum(map(bound.__getitem__, idxs)) for idxs, _ in constraints]
    if any(r < 0 or r > s for r, s in zip(remaining, slack)):
        return
    assignment = [0] * n
    low = [0] * n
    key: list[Optional[tuple[int, tuple[int, ...]]]] = [None] * n
    found_before = [0] * n
    dead: set[tuple[int, tuple[int, ...]]] = set()
    found = 0
    edge = -1 if start is None else 0
    i = 0
    while i >= 0:
        if i == n:
            found += 1
            yield tuple(assignment)
            i -= 1
            continue
        own = by_var[i]
        b = bound[i]
        if key[i] is None:
            # enter depth i
            here = (i, tuple(remaining))
            if here in dead:
                i -= 1
                continue
            found_before[i] = found
            hi = b if i != edge or start[i] > b else start[i]
            lo = 0
            for ci in own:
                slack[ci] -= b
                rem = remaining[ci]
                if rem < hi:
                    hi = rem
                if rem - slack[ci] > lo:
                    lo = rem - slack[ci]
            if hi >= lo:
                key[i] = here
                low[i] = lo
                assignment[i] = hi
                for ci in own:
                    remaining[ci] -= hi
                if i == edge and hi == start[i]:
                    edge = i + 1
                i += 1
                continue
            value = 0  # no value fits: leave depth i at once
        else:
            value = assignment[i]
            if value > low[i]:
                # step down; a value below start[i] leaves later depths uncapped
                assignment[i] = value - 1
                for ci in own:
                    remaining[ci] += 1
                if edge > i:
                    edge = i
                i += 1
                continue
            here = key[i]
            key[i] = None
            assignment[i] = 0
        # leave depth i
        for ci in own:
            slack[ci] += b
            remaining[ci] += value
        if i > edge and found == found_before[i]:
            dead.add(here)
        i -= 1


def _first_solution(caps, constraints, start=None) -> Optional[tuple[int, ...]]:
    return next(_iter_solutions(caps, constraints, start), None)


# ---------------------------------------------------------------------------
# fixture construction


@record
class FamilySumConflict(NamedTuple):
    """The cell completes its attribute's group columns, and the family's
    published column counts do not sum to the facility total."""

    attribute: str
    columns: tuple[tuple[str, int], ...]
    total: int


@record
class SearchInfeasible(NamedTuple):
    """No assignment meets the accepted constraints, each (cell indices,
    target), together with the cell's target."""

    accepted: tuple[tuple[tuple[int, ...], int], ...]


UnmetReason = Union[FamilySumConflict, SearchInfeasible]


@record
class UnmetCell(NamedTuple):
    facility: str
    column: str
    target: int
    achieved: int
    reason: UnmetReason


@record
class ConstructionReport(NamedTuple):
    m: int
    cell_sizes: tuple[tuple[str, int], ...]
    mandatory_rule_targets: int
    frequency_cells_total: int
    unmet_cells: tuple[UnmetCell, ...]

    def render(self) -> str:
        lines = [
            "fixture construction report",
            "===========================",
            f"transactions: {self.m} (excluded rows: 0)",
            "mandatory constraints satisfied: all demographic group counts, "
            f"{self.mandatory_rule_targets} reference-rule joint counts, "
            "all facility totals",
            "demographic cells:",
        ]
        lines += [f"  {label}: {size}" for label, size in self.cell_sizes]
        satisfied = self.frequency_cells_total - len(self.unmet_cells)
        lines.append(
            f"frequency-table group cells: {satisfied} of {self.frequency_cells_total} satisfied"
        )
        if self.unmet_cells:
            lines.append("unmet cells (published figure inconsistent with its row):")
            lines += [
                f"  {u.facility} {u.column}: target {u.target}, achieved {u.achieved}"
                for u in self.unmet_cells
            ]
        return "\n".join(lines) + "\n"


@record
class FixtureResult(NamedTuple):
    database: TransactionDatabase
    report: ConstructionReport


def _demographic_cells(catalog: ItemCatalog) -> list[tuple[tuple[str, str], ...]]:
    demo_attrs = [a for a in catalog.attributes if a.item_class is ItemClass.DEMOGRAPHIC]
    axes = [[(a.name, v) for v in a.values] for a in demo_attrs]
    return [tuple(cell) for cell in itertools.product(*axes)]


def _complete_pair_counts(counts: StudyCounts) -> dict:
    """Fill in unpublished pairwise cells that the marginals force.

    Every pairwise table row/column with a single unknown cell is resolved
    against its published marginal; repeating to a fixpoint leaves only
    genuinely free cells open.
    """
    known = dict(counts.pair_counts)
    families = _demographic_families()

    def resolve(fixed: tuple[str, str], over_attr: str, over_values: Sequence[str]) -> bool:
        keys = [frozenset({fixed, (over_attr, v)}) for v in over_values]
        unknown = [k for k in keys if k not in known]
        partial = sum(known[k] for k in keys if k in known)
        total = counts.single_counts[fixed]
        if not unknown:
            if partial != total:
                raise InfeasibleFixtureError(
                    f"pairwise counts for {fixed} sum to {partial}, expected {total}"
                )
            return False
        if len(unknown) == 1:
            value = total - partial
            if value < 0:
                raise InfeasibleFixtureError(f"pairwise counts for {fixed} overshoot {total}")
            known[unknown[0]] = value
            return True
        return False

    changed = True
    while changed:
        changed = False
        for (attr_a, values_a), (attr_b, values_b) in itertools.combinations(families, 2):
            for va in values_a:
                changed |= resolve((attr_a, va), attr_b, values_b)
            for vb in values_b:
                changed |= resolve((attr_b, vb), attr_a, values_a)
    return known


def _demographic_constraints(
    counts: StudyCounts, cells: Sequence[tuple[tuple[str, str], ...]]
) -> list[tuple[tuple[int, ...], int]]:
    constraints = [(tuple(range(len(cells))), counts.m)]
    for pair, count in counts.single_counts.items():
        idxs = tuple(ci for ci, cell in enumerate(cells) if pair in cell)
        constraints.append((idxs, count))
    for key, count in _complete_pair_counts(counts).items():
        idxs = tuple(ci for ci, cell in enumerate(cells) if key <= set(cell))
        constraints.append((idxs, count))
    return constraints


def _facility_mandatory(
    facility: str,
    counts: StudyCounts,
    golden: Sequence[GoldenRule],
    cells: Sequence[tuple[tuple[str, str], ...]],
    sizes: Sequence[int],
) -> list[tuple[tuple[int, ...], int]]:
    by_cells: dict[tuple[int, ...], int] = {
        tuple(range(len(cells))): counts.facility_counts[facility]["total"]
    }
    for g in golden:
        if g.consequent_item != ("facility", facility):
            continue
        wanted = set(g.antecedent_items)
        idxs = tuple(ci for ci, cell in enumerate(cells) if wanted <= set(cell))
        n_antecedent = sum(sizes[ci] for ci in idxs)
        expected, joint, deviation = _rule_counts(g, counts.m)
        if n_antecedent != expected:
            raise InfeasibleFixtureError(
                f"rule {g.rule_id}: antecedent group holds {n_antecedent} rows, "
                f"published support implies {expected}"
            )
        if deviation > Fraction(1, 100):
            raise InfeasibleFixtureError(
                f"rule {g.rule_id}: confidence implies non-integer joint count"
            )
        if by_cells.setdefault(idxs, joint) != joint:
            raise InfeasibleFixtureError(f"rule {g.rule_id}: conflicting joint targets")
    return list(by_cells.items())


def _column_cells(cells: Sequence[tuple[tuple[str, str], ...]]) -> dict[str, tuple[int, ...]]:
    """Indices of the demographic cells that each group column covers."""
    return {
        column: tuple(
            ci for ci, cell in enumerate(cells) if any(pair in cell for pair in members)
        )
        for column, members in _GROUP_DEFS.items()
    }


def _facility_assignment(
    facility: str,
    counts: StudyCounts,
    mandatory: list[tuple[tuple[int, ...], int]],
    first: tuple[int, ...],
    column_idxs: dict[str, tuple[int, ...]],
    sizes: Sequence[int],
) -> tuple[tuple[int, ...], list[UnmetCell]]:
    """Mandatory constraints plus a greedy, deterministic pass over the
    published group cells, each kept only if the set stays feasible.

    ``first`` is the first solution of the mandatory set. Solutions arrive
    in descending order, so when the current first solution already meets a
    column's target it is also the first solution of the larger set, and
    only a column it misses needs a search. That search starts at
    ``current``: every solution of the larger set is one of the smaller set,
    so none lies above it.
    """
    targets = counts.facility_counts[facility]
    accepted = list(mandatory)
    accepted_columns: set[str] = set()
    current = first
    unmet: list[tuple[str, UnmetReason]] = []

    def family_conflict(candidate: str) -> Optional[FamilySumConflict]:
        # a column that completes its attribute's partition must agree with the total
        attr = _GROUP_DEFS[candidate][0][0]
        family = [c for c, members in _GROUP_DEFS.items() if members[0][0] == attr]
        if all(c in accepted_columns for c in family if c != candidate):
            published = tuple((c, targets[c]) for c in family)
            if sum(count for _, count in published) != targets["total"]:
                return FamilySumConflict(attr, published, targets["total"])
        return None

    for column in GROUP_COLUMNS:
        idxs, target = column_idxs[column], targets[column]
        reason: Optional[UnmetReason] = family_conflict(column)
        if reason is None and sum(current[ci] for ci in idxs) != target:
            solution = _first_solution(sizes, accepted + [(idxs, target)], current)
            if solution is None:
                reason = SearchInfeasible(tuple(accepted))
            else:
                current = solution
        if reason is not None:
            unmet.append((column, reason))
            continue
        accepted.append((idxs, target))
        accepted_columns.add(column)

    unmet_cells = [
        UnmetCell(
            facility,
            column,
            targets[column],
            sum(current[ci] for ci in column_idxs[column]),
            reason,
        )
        for column, reason in unmet
    ]
    return current, unmet_cells


def build_fixture(counts: StudyCounts, golden: Sequence[GoldenRule]) -> FixtureResult:
    """Reconstruct a transaction database consistent with the published data.

    Demographic profiles are assigned first: the search enumerates cell-size
    tables meeting every published single and pairwise count and takes the
    first one under which every facility's mandatory constraint set stays
    feasible. Facility bits are then assigned per cell, and within a cell the
    first rows (by record id) carry each facility.
    """
    catalog = load_study_schema().catalog
    cells = _demographic_cells(catalog)
    facilities = [a.name for a in catalog.attributes if a.item_class is ItemClass.FACILITY]
    unknown = {g.consequent_item[1] for g in golden} - set(facilities)
    if unknown:
        raise InfeasibleFixtureError(f"reference rules name unknown facilities: {sorted(unknown)}")

    demographic = _demographic_constraints(counts, cells)
    caps: list[Optional[int]] = [None] * len(cells)
    sizes: Optional[tuple[int, ...]] = None
    mandatory_sets: dict[str, list] = {}
    for table in _iter_solutions(caps, demographic):
        mandatory_sets = {
            f: _facility_mandatory(f, counts, golden, cells, table) for f in facilities
        }
        first: dict[str, tuple[int, ...]] = {}
        for f, constraint_set in mandatory_sets.items():
            solution = _first_solution(table, constraint_set)
            if solution is None:
                break
            first[f] = solution
        else:
            sizes = table
            break
    if sizes is None:
        raise InfeasibleFixtureError("no demographic table admits the mandatory constraints")

    column_idxs = _column_cells(cells)
    assignments = {}
    unmet: list[UnmetCell] = []
    rule_targets = 0
    for facility in facilities:
        rule_targets += len(mandatory_sets[facility]) - 1  # total is not a rule target
        assignment, facility_unmet = _facility_assignment(
            facility, counts, mandatory_sets[facility], first[facility], column_idxs, sizes
        )
        assignments[facility] = assignment
        unmet.extend(facility_unmet)

    record_ids: list[str] = []
    masks: list[int] = []
    for ci, cell in enumerate(cells):
        base = 0
        for pair in cell:
            base |= 1 << catalog.item_id(*pair)
        facility_bits = [
            (catalog.item_id(f, "yes"), assignments[f][ci]) for f in facilities
        ]
        for k in range(sizes[ci]):
            members = base
            for item_id, quota in facility_bits:
                if k < quota:
                    members |= 1 << item_id
            record_ids.append(f"C{len(record_ids) + 1:03d}")
            masks.append(members)
    db = TransactionDatabase.from_columns(catalog, record_ids, masks, excluded_count=0)

    _verify_fixture(db, counts, golden)
    report = ConstructionReport(
        m=counts.m,
        cell_sizes=tuple(
            (" ".join(f"{a}={v}" for a, v in cell), sizes[ci]) for ci, cell in enumerate(cells)
        ),
        mandatory_rule_targets=rule_targets,
        frequency_cells_total=len(facilities) * len(GROUP_COLUMNS),
        unmet_cells=tuple(unmet),
    )
    return FixtureResult(db, report)


def _verify_fixture(
    db: TransactionDatabase, counts: StudyCounts, golden: Sequence[GoldenRule]
) -> None:
    catalog = db.catalog
    for (attr, value), expected in counts.single_counts.items():
        if count_support(db, (catalog.item_id(attr, value),)) != expected:
            raise InfeasibleFixtureError(f"fixture lost demographic count {attr}={value}")
    for facility, targets in counts.facility_counts.items():
        if count_support(db, (catalog.item_id(facility, "yes"),)) != targets["total"]:
            raise InfeasibleFixtureError(f"fixture lost facility total for {facility}")
    for g in golden:
        antecedent = [catalog.resolve_pair(p) for p in g.antecedent_items]
        _, joint, _ = _rule_counts(g, counts.m)
        if count_support(db, antecedent + [catalog.resolve_pair(g.consequent_item)]) != joint:
            raise InfeasibleFixtureError(f"fixture lost the joint count of rule {g.rule_id}")


def study_aggregate_groups(catalog: ItemCatalog) -> list[tuple[str, tuple[int, ...]]]:
    """The merged ownership column of the published frequency table, when the
    catalog carries the study's ownership values."""
    wanted = _GROUP_DEFS["private_semiprivate"]
    if all(catalog.has_item(a, v) for a, v in wanted):
        return [
            (
                "ownership=private+semiprivate",
                tuple(catalog.item_id(a, v) for a, v in wanted),
            )
        ]
    return []


# ---------------------------------------------------------------------------
# validation against the reference rules


@record
class MinedRuleRow(NamedTuple):
    """One row of a rendered rules CSV, as re-read for validation."""

    rule_id: int
    antecedent_items: tuple[tuple[str, str], ...]
    consequent_item: tuple[str, str]
    confidence_bp: int
    coverage_bp: int
    support_bp: int
    class_label: str

    @property
    def key(self) -> tuple[frozenset, tuple[str, str]]:
        return (frozenset(self.antecedent_items), self.consequent_item)


def _rule_text(rule: Union[GoldenRule, MinedRuleRow]) -> str:
    antecedent = " AND ".join(f"{a}={v}" for a, v in rule.antecedent_items)
    attr, value = rule.consequent_item
    return f"{antecedent} => {attr}={value}"


def parse_rules_csv(text: str) -> list[MinedRuleRow]:
    """Re-read a rendered rules CSV; a malformed or repeated rule names its row."""
    reader = csv_rows(text, ValueError)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("missing header row") from None
    if header != RULES_HEADER:
        raise ValueError(f"expected header {','.join(RULES_HEADER)}")
    rows = []
    seen: set[tuple[frozenset, tuple[str, str]]] = set()
    for rowno, row in enumerate(reader, start=2):
        if len(row) != len(RULES_HEADER):
            raise ValueError(f"row {rowno}: expected {len(RULES_HEADER)} cells")
        try:
            mined = MinedRuleRow(
                rule_id=int(row[0]),
                antecedent_items=tuple(_parse_item_text(part) for part in row[1].split(" AND ")),
                consequent_item=_parse_item_text(row[2]),
                confidence_bp=parse_pct_bp(row[3]),
                coverage_bp=parse_pct_bp(row[4]),
                support_bp=parse_pct_bp(row[5]),
                class_label=row[6],
            )
        except ValueError as exc:
            raise ValueError(f"row {rowno}: {exc}") from None
        if len(set(mined.antecedent_items)) != len(mined.antecedent_items):
            raise ValueError(f"row {rowno}: malformed antecedent (repeated item)")
        if mined.key in seen:
            raise ValueError(f"row {rowno}: duplicate rule {_rule_text(mined)}")
        seen.add(mined.key)
        rows.append(mined)
    return rows


@record
class MetricMismatch(NamedTuple):
    golden: GoldenRule
    mined: MinedRuleRow
    confidence_delta_pp: Fraction
    coverage_delta_pp: Fraction


@record
class ValidationReport(NamedTuple):
    matched: tuple[tuple[GoldenRule, MinedRuleRow], ...]
    missing: tuple[GoldenRule, ...]
    extra: tuple[MinedRuleRow, ...]
    metric_mismatches: tuple[MetricMismatch, ...]
    tolerance_pp: Fraction

    @property
    def ok(self) -> bool:
        return not self.missing and not self.metric_mismatches

    def render(self) -> str:
        lines = [
            f"matched: {len(self.matched)}  missing: {len(self.missing)}  "
            f"extra: {len(self.extra)}  metric mismatches: {len(self.metric_mismatches)}"
        ]
        if self.missing:
            lines.append("missing reference rules:")
            lines += [
                f"  #{g.rule_id} {_rule_text(g)}"
                for g in self.missing
            ]
        if self.metric_mismatches:
            lines.append(f"metric mismatches (tolerance {float(self.tolerance_pp)} pp):")
            for mm in self.metric_mismatches:
                lines.append(
                    f"  #{mm.golden.rule_id} {_rule_text(mm.mined)}: "
                    f"confidence off by {float(mm.confidence_delta_pp):.4f} pp, "
                    f"coverage off by {float(mm.coverage_delta_pp):.4f} pp"
                )
        if self.extra:
            lines.append("extra mined rules (allowed, not published):")
            lines += [
                f"  {_rule_text(r)} (confidence {r.confidence_bp / 100:.2f}, "
                f"coverage {r.coverage_bp / 100:.2f})"
                for r in self.extra
            ]
        return "\n".join(lines) + "\n"


def validate_rows_against_golden(
    rows: Iterable[MinedRuleRow],
    golden: Sequence[GoldenRule],
    tolerance_pp: Fraction,
) -> ValidationReport:
    """Match the rows of a rendered rules CSV against the reference list.

    A reference rule is matched when a row has the same antecedent set and
    consequent; the match is clean when the row's two-decimal confidence and
    coverage sit within ``tolerance_pp`` percentage points of the published
    figures. Surplus mined rules are listed, never failed: the reference
    list only covers what its authors printed.
    """
    if tolerance_pp < 0:
        raise ValueError("tolerance must be non-negative")
    by_key = {row.key: row for row in rows}
    matched = []
    missing = []
    mismatches = []
    for g in golden:
        row = by_key.pop(g.key, None)
        if row is None:
            missing.append(g)
            continue
        matched.append((g, row))
        confidence_delta = Fraction(abs(row.confidence_bp - g.confidence_bp), 100)
        coverage_delta = Fraction(abs(row.coverage_bp - g.support_bp), 100)
        if confidence_delta > tolerance_pp or coverage_delta > tolerance_pp:
            mismatches.append(MetricMismatch(g, row, confidence_delta, coverage_delta))
    return ValidationReport(
        tuple(matched), tuple(missing), tuple(by_key.values()), tuple(mismatches), tolerance_pp
    )
