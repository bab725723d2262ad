"""Embedded study corpus: reference schema, transcribed rules, published
frequency targets, and a constraint-based fixture reconstruction.

The original per-company checklist answers were never published; what
survives is the 68-rule reference list (appendix_b.csv), whose support
column pins antecedent group sizes, and a per-facility frequency table.
Single and pairwise group sizes are read from that support column and the
attribute families from the packaged schema (schema_appendix_a.txt); the only
hand-typed tables are the frequency table (``_FREQUENCY_BP``) and the
definition of its group columns (``report.GROUP_DEFS``).

``build_fixture`` reconstructs a 91-row database that reproduces every count
those published figures pin down exactly: single and pairwise demographic
group sizes, the joint count implied by each reference rule, and each
facility's overall count. The remaining per-group frequency cells are
satisfied wherever simultaneously possible; the published table is not fully
self-consistent (four rows have a group column that contradicts the row's
own total), so the leftovers are reported, not forced.

The demographic table (each profile's row count) is the first one, in the
search's order, under which every facility's mandatory set (its total and
its reference rules' joint counts) has a solution. The facility searches
decide it: a table whose mandatory sets all pass the root test of
``_root_bounds`` is taken unless some facility's pass finds no solution,
so no search is spent on the table alone.

All searches are deterministic: cells are enumerated smallest-index-first
and candidate values highest-first, so repeated builds are byte-identical.

Of the CLI commands only ``fixture`` loads this module. Reading a rules CSV
back and matching it against the reference list is ``siterules.validation``.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .datamodel import ItemCatalog, ItemClass, TransactionDatabase
from .engine import count_support
from .ingest import GoldenRule, parse_golden_rules, parse_schema
from .report import GROUP_COLUMNS, GROUP_DEFS, percent_bp

# kept under these names because perfbench/workloads.py calls them from here
from .report import study_aggregate_groups  # noqa: F401
from .validation import parse_rules_csv, validate_rows_against_golden  # noqa: F401


class InfeasibleFixtureError(Exception):
    """The mandatory fixture constraints admit no database (or embedded data
    failed an integrality check). Indicates a transcription error."""


# ---------------------------------------------------------------------------
# packaged data


def _data_text(name: str) -> str:
    # what pkgutil.get_data does, without importing pkgutil: the loader reads
    # the file, from a directory or a zip archive alike
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path).decode("utf-8")


def schema_text() -> str:
    return _data_text("schema_appendix_a.txt")


def golden_text() -> str:
    return _data_text("appendix_b.csv")


def load_golden_rules() -> list[GoldenRule]:
    return parse_golden_rules(golden_text())


# ---------------------------------------------------------------------------
# published percentages, in basis points (hundredths of a percent)

M_ACCESSIBLE = 91

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
    if not (0 <= count <= denominator and percent_bp(count, denominator, mode) == bp):
        raise InfeasibleFixtureError(
            f"embedded figure {bp / 100:.2f}% of {denominator} fails its integrality check"
        )
    return count


# the furthest a consistent rule's joint may lie from an integer: 0.01, in
# ten-thousandths. Truncating joint/n to two decimals leaves n times the
# printed confidence less than n/10000 below the joint, under 0.01 for any
# n <= m; a rule further off holds a transcription error.
_MAX_DEVIATION = 100


def _rule_counts(g: GoldenRule, m: int) -> tuple[int, int, int]:
    """Antecedent and joint counts implied by a reference rule's published
    support and confidence, with the joint's distance from an integer in
    ten-thousandths."""
    n_antecedent = (g.support_bp * m + 5000) // 10000
    scaled = g.confidence_bp * n_antecedent
    joint = (scaled + 5000) // 10000
    return n_antecedent, joint, abs(scaled - 10_000 * joint)


def _demographic_families(catalog: ItemCatalog) -> list[tuple[str, tuple[str, ...]]]:
    """Each demographic attribute of the catalog with its values."""
    return [
        (a.name, a.values) for a in catalog.attributes if a.item_class is ItemClass.DEMOGRAPHIC
    ]


class StudyCounts(NamedTuple):
    """Integer counts recovered from the published percentages, with the
    study catalog and reference rules they were read from."""

    m: int
    single_counts: dict
    pair_counts: dict
    facility_counts: dict
    group_sizes: dict
    catalog: ItemCatalog
    golden: tuple[GoldenRule, ...]


def study_group_counts() -> StudyCounts:
    """Counts recovered from the packaged figures, re-verified on every call.

    Single and pairwise group sizes come from the reference rules' support
    column; the families they must partition come from the study schema. Raises
    :class:`InfeasibleFixtureError` if any published figure stops
    reproducing under its table's rounding mode (i.e. a transcription error).
    """
    golden = tuple(load_golden_rules())
    catalog = parse_schema(schema_text()).catalog
    shares: dict[frozenset, int] = {}
    for g in golden:
        if shares.setdefault(frozenset(g.antecedent_items), g.support_bp) != g.support_bp:
            raise InfeasibleFixtureError(f"rule {g.rule_id}: support contradicts an earlier rule")
    by_key = {key: _derived_count(bp, M_ACCESSIBLE, "truncate") for key, bp in shares.items()}
    families = _demographic_families(catalog)
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
    for column, members in GROUP_DEFS.items():
        group_sizes[column] = sum(singles[pair] for pair in members)

    facility_counts = {}
    for facility, row in _FREQUENCY_BP.items():
        targets = {"total": _derived_count(row[0], M_ACCESSIBLE, "round")}
        for column, bp in zip(GROUP_COLUMNS, row[1:]):
            targets[column] = _derived_count(bp, group_sizes[column], "round")
        facility_counts[facility] = targets
    return StudyCounts(M_ACCESSIBLE, singles, pairs, facility_counts, group_sizes, catalog, golden)


# ---------------------------------------------------------------------------
# deterministic integer feasibility search


def _root_bounds(
    caps: Sequence[int],
    constraints: Sequence[tuple[tuple[int, ...], int]],
) -> Optional[tuple[list[list[int]], list[int], list[int]]]:
    """The search's state before its first node, or None when that state
    already rules out every solution.

    Returns ``by_var`` (each variable's constraint indices), ``bound`` (each
    variable's cap tightened by the targets of its constraints) and
    ``slack`` (each constraint's summed bounds). A constraint whose target is
    negative or above its slack admits no solution, and None is returned.
    """
    by_var: list[list[int]] = [[] for _ in caps]
    for ci, (idxs, _) in enumerate(constraints):
        for j in idxs:
            by_var[j].append(ci)
    targets = [t for _, t in constraints]
    bound = [min([cap, *map(targets.__getitem__, by_var[j])]) for j, cap in enumerate(caps)]
    slack = [sum(map(bound.__getitem__, idxs)) for idxs, _ in constraints]
    if any(t < 0 or t > s for t, s in zip(targets, slack)):
        return None
    return by_var, bound, slack


def _iter_solutions(
    caps: Sequence[int],
    constraints: Sequence[tuple[tuple[int, ...], int]],
) -> Iterator[tuple[int, ...]]:
    """Yield all non-negative integer assignments meeting every constraint.

    Each constraint is (variable index set, exact target sum). Variables are
    assigned in index order, candidate values highest-first, so solutions
    arrive in lexicographically descending order.

    A variable's bound is its cap tightened by the targets of its
    constraints. ``slack[ci]`` is the sum of those bounds over constraint
    ci's unassigned members; entering variable i subtracts its bound from
    each of its constraints' slack and leaving adds it back. Variable i's
    value then lies between each constraint's remaining target less the
    slack of its other unassigned members and the smallest remaining target,
    so a constraint whose last member is assigned meets its target exactly,
    and a node costs O(constraints of i). The starting state and its test
    are ``_root_bounds``: a system that fails it yields nothing.

    The search runs in this one loop, with an explicit state per depth:
    ``key[i]`` is None until depth i is entered, and the value in
    ``assignment[i]`` steps down to ``low[i]`` before the depth is left.

    The solutions below variable i depend only on i and the remaining
    targets: bounds are fixed and the slack is a function of which variables
    are unassigned. So once a subtree has been searched to the end without
    a solution, its remaining targets go into ``dead[i]`` and the search
    skips the subtree when they come up again at depth i (nogood
    recording). Only subtrees holding no solution are pruned, so the order
    of the solutions is unchanged. ``dead`` is local to one call: a subtree
    left early by a closed generator records nothing.

    A variable whose bound is 0 (an empty cell, or one in a constraint with
    target 0) is 0 in every solution, so it takes no depth: the search runs
    over the other variables only, and each solution is scattered back into
    a full-length tuple.
    """
    root = _root_bounds(caps, constraints)
    if root is None:
        return
    by_var, bound, slack = root
    remaining = [t for _, t in constraints]
    order = [j for j, b in enumerate(bound) if b]
    depth_own = [by_var[j] for j in order]
    depth_bound = [bound[j] for j in order]
    depths = len(order)
    solution = [0] * len(caps)
    assignment = [0] * depths
    low = [0] * depths
    key: list[Optional[tuple[int, ...]]] = [None] * depths
    found_before = [0] * depths
    dead: list[set[tuple[int, ...]]] = [set() for _ in range(depths)]
    found = 0
    i = 0
    while i >= 0:
        if i == depths:
            found += 1
            for j, value in zip(order, assignment):
                solution[j] = value
            yield tuple(solution)
            i -= 1
            continue
        own = depth_own[i]
        b = depth_bound[i]
        if key[i] is None:
            # enter depth i
            here = tuple(remaining)
            if here in dead[i]:
                i -= 1
                continue
            found_before[i] = found
            hi = b
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
                i += 1
                continue
            value = 0  # no value fits: leave depth i at once
        else:
            value = assignment[i]
            if value > low[i]:
                assignment[i] = value - 1
                for ci in own:
                    remaining[ci] += 1
                i += 1
                continue
            here = key[i]
            key[i] = None
            assignment[i] = 0
        # leave depth i
        for ci in own:
            slack[ci] += b
            remaining[ci] += value
        if found == found_before[i]:
            dead[i].add(here)
        i -= 1


def _first_solution(caps, constraints) -> Optional[tuple[int, ...]]:
    return next(_iter_solutions(caps, constraints), None)


# ---------------------------------------------------------------------------
# fixture construction


class FamilySumConflict(NamedTuple):
    """The cell completes its attribute's group columns, and the family's
    published column counts do not sum to the facility total."""

    attribute: str
    columns: tuple[tuple[str, int], ...]
    total: int


class SearchInfeasible(NamedTuple):
    """No assignment meets the accepted constraints, each (cell indices,
    target), together with the cell's target."""

    accepted: tuple[tuple[tuple[int, ...], int], ...]


UnmetReason = Union[FamilySumConflict, SearchInfeasible]


class UnmetCell(NamedTuple):
    facility: str
    column: str
    target: int
    achieved: int
    reason: UnmetReason


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


class FixtureResult(NamedTuple):
    database: TransactionDatabase
    report: ConstructionReport


def _demographic_cells(catalog: ItemCatalog) -> list[tuple[tuple[str, str], ...]]:
    axes = [[(attr, v) for v in values] for attr, values in _demographic_families(catalog)]
    return [tuple(cell) for cell in itertools.product(*axes)]


def _complete_pair_counts(counts: StudyCounts) -> dict:
    """Fill in unpublished pairwise cells that the marginals force.

    Every pairwise table row/column with a single unknown cell is resolved
    against its published marginal; repeating to a fixpoint leaves only
    genuinely free cells open.
    """
    known = dict(counts.pair_counts)
    families = _demographic_families(counts.catalog)

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
    rules: Sequence[GoldenRule],
    cell_sets: Sequence[frozenset[tuple[str, str]]],
    pinned: dict[tuple[int, ...], int],
) -> list[tuple[tuple[int, ...], int]]:
    """The facility's total and the joint count of each of ``rules`` (its
    reference rules), as (cell indices, target); ``cell_sets`` holds each
    demographic cell's items. ``pinned`` maps the cell indices of each
    demographic constraint to its target; every rule's antecedent group must
    be one of them, at the size its published support implies, so the set
    holds under every demographic table."""
    by_cells: dict[tuple[int, ...], int] = {
        tuple(range(len(cell_sets))): counts.facility_counts[facility]["total"]
    }
    for g in rules:
        wanted = set(g.antecedent_items)
        idxs = tuple(ci for ci, cell in enumerate(cell_sets) if wanted <= cell)
        expected, joint, deviation = _rule_counts(g, counts.m)
        if pinned.get(idxs) != expected:
            raise InfeasibleFixtureError(
                f"rule {g.rule_id}: the demographic counts do not pin its antecedent group "
                f"at the {expected} rows its published support implies"
            )
        if deviation > _MAX_DEVIATION:
            raise InfeasibleFixtureError(
                f"rule {g.rule_id}: confidence implies non-integer joint count"
            )
        if by_cells.setdefault(idxs, joint) != joint:
            raise InfeasibleFixtureError(f"rule {g.rule_id}: conflicting joint targets")
    return list(by_cells.items())


# each group column's attribute, and that attribute's columns in GROUP_COLUMNS order
_COLUMN_FAMILY = {
    column: (attr, tuple(c for c, m in GROUP_DEFS.items() if m[0][0] == attr))
    for column, ((attr, _), *_) in GROUP_DEFS.items()
}


def _column_cells(cells: Sequence[tuple[tuple[str, str], ...]]) -> dict[str, tuple[int, ...]]:
    """Indices of the demographic cells that each group column covers."""
    return {
        column: tuple(
            ci for ci, cell in enumerate(cells) if any(pair in cell for pair in members)
        )
        for column, members in GROUP_DEFS.items()
    }


def _facility_assignment(
    facility: str,
    targets: dict[str, int],
    mandatory: list[tuple[tuple[int, ...], int]],
    column_idxs: dict[str, tuple[int, ...]],
    sizes: Sequence[int],
) -> Optional[tuple[tuple[int, ...], list[UnmetCell]]]:
    """Mandatory constraints plus a greedy, deterministic pass over the
    published group cells in ``GROUP_COLUMNS`` order, each kept only if the
    set stays feasible. A cell that completes its attribute's group columns
    and disagrees with the facility total is a family conflict, left out
    without a search.

    One search decides the whole pass when it can. The plan is the first
    undecided column and every later one the greedy keeps if each search
    succeeds: all but the family conflicts, each decided with the earlier
    planned columns kept. If the accepted set plus the plan has a solution,
    each greedy step tests a subset of that feasible set, so the greedy
    keeps exactly the plan, and the plan's first solution is its result.
    Only when there is none is the first undecided column searched alone,
    and the pass goes on from the next one. A set equal to the last one
    whose search failed (a plan of one column, or a column whose cells and
    target repeat the last one's) fails again without a search.

    ``targets`` holds the facility's published counts. The result,
    ``current``, is the accepted set's first solution (``mandatory``'s when
    no search succeeds); unmet cells read their achieved counts from it.
    ``mandatory`` is searched alone only when the first plan has no
    solution, and its solution is then the fallback ``current``; when it has
    none either, every set the pass could search contains it, and the pass
    returns None. The first column shares its family with a later one, so
    it is never a family conflict and the first plan is always searched.
    """
    accepted = list(mandatory)
    accepted_columns: list[str] = []
    current: Optional[tuple[int, ...]] = None
    unmet: list[tuple[str, UnmetReason]] = []
    failed = None  # the last set whose search found no solution

    def search(constraints: list) -> Optional[tuple[int, ...]]:
        nonlocal failed
        solution = None if constraints == failed else _first_solution(sizes, constraints)
        if solution is None:
            failed = constraints
        return solution

    def family_conflict(candidate: str, kept: list[str]) -> Optional[FamilySumConflict]:
        # a column that completes its attribute's partition must agree with the total
        attr, family = _COLUMN_FAMILY[candidate]
        if all(c in kept for c in family if c != candidate):
            published = tuple((c, targets[c]) for c in family)
            if sum(count for _, count in published) != targets["total"]:
                return FamilySumConflict(attr, published, targets["total"])
        return None

    for k, column in enumerate(GROUP_COLUMNS):
        reason: Optional[UnmetReason] = family_conflict(column, accepted_columns)
        if reason is None:
            plan = [column]
            conflicts = []
            for later in GROUP_COLUMNS[k + 1:]:
                conflict = family_conflict(later, accepted_columns + plan)
                if conflict is None:
                    plan.append(later)
                else:
                    conflicts.append((later, conflict))
            planned = [(column_idxs[c], targets[c]) for c in plan]
            solution = search(accepted + planned)
            if solution is not None:
                current = solution
                unmet += conflicts
                break
            if current is None:
                current = _first_solution(sizes, mandatory)
                if current is None:
                    return None
            solution = search(accepted + planned[:1])
            if solution is None:
                reason = SearchInfeasible(tuple(accepted))
            else:
                current = solution
                accepted.append(planned[0])
                accepted_columns.append(column)
                continue
        unmet.append((column, reason))

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


def _facility_passes(
    facilities: Sequence[str],
    counts: StudyCounts,
    mandatory_sets: dict[str, list[tuple[tuple[int, ...], int]]],
    column_idxs: dict[str, tuple[int, ...]],
    sizes: Sequence[int],
) -> Optional[dict[str, tuple[tuple[int, ...], list[UnmetCell]]]]:
    """Each facility's pass under the demographic table ``sizes``, or None
    when some facility's mandatory set has no solution under it: first by
    the root test of every set, then by a pass that finds none."""
    if any(_root_bounds(sizes, s) is None for s in mandatory_sets.values()):
        return None
    passes = {}
    for facility in facilities:
        result = _facility_assignment(
            facility, counts.facility_counts[facility], mandatory_sets[facility], column_idxs,
            sizes,
        )
        if result is None:
            return None
        passes[facility] = result
    return passes


def build_fixture(counts: StudyCounts, golden: Sequence[GoldenRule]) -> FixtureResult:
    """Reconstruct a transaction database consistent with the published data.

    Demographic profiles are assigned first: the search enumerates cell-size
    tables meeting every published single and pairwise count and takes the
    first one under which every facility's mandatory constraint set has a
    solution. The mandatory sets are built once, since they do not depend on
    the table. The facility searches decide the table: a table is skipped
    when some mandatory set fails the root test (``_root_bounds``), and
    otherwise each facility's group columns are decided by
    ``_facility_assignment``, in one search when its columns fit together
    (as every study facility's do). A solution of that search solves the
    mandatory set too, so the set is searched alone only when the pass's
    first search fails, and the table is rejected when it has no solution.
    On the study data the first table fails one facility's root test and the
    second is taken: 20 searches in all. Facility bits are assigned per
    cell, and within a cell the first rows (by record id) carry each
    facility.
    """
    catalog = counts.catalog
    cells = _demographic_cells(catalog)
    facilities = [a.name for a in catalog.attributes if a.item_class is ItemClass.FACILITY]
    unknown = {g.consequent_item[1] for g in golden} - set(facilities)
    if unknown:
        raise InfeasibleFixtureError(f"reference rules name unknown facilities: {sorted(unknown)}")
    rules_of: dict[tuple[str, str], list[GoldenRule]] = {}
    for g in golden:
        rules_of.setdefault(g.consequent_item, []).append(g)

    demographic = _demographic_constraints(counts, cells)
    pinned = dict(demographic)
    cell_sets = [frozenset(cell) for cell in cells]
    mandatory_sets = {
        f: _facility_mandatory(f, counts, rules_of.get(("facility", f), ()), cell_sets, pinned)
        for f in facilities
    }
    column_idxs = _column_cells(cells)
    for sizes in _iter_solutions([counts.m] * len(cells), demographic):
        passes = _facility_passes(facilities, counts, mandatory_sets, column_idxs, sizes)
        if passes is not None:
            break
    else:
        raise InfeasibleFixtureError("no demographic table admits the mandatory constraints")

    unmet = [u for f in facilities for u in passes[f][1]]
    facility_quotas = [(1 << catalog.item_id(f, "yes"), passes[f][0]) for f in facilities]
    record_ids: list[str] = []
    masks: list[int] = []
    for ci, cell in enumerate(cells):
        base = 0
        for pair in cell:
            base |= 1 << catalog.item_id(*pair)
        facility_bits = [(bit, quotas[ci]) for bit, quotas in facility_quotas]
        for k in range(sizes[ci]):
            members = base
            for bit, quota in facility_bits:
                if k < quota:
                    members |= bit
            record_ids.append(f"C{len(record_ids) + 1:03d}")
            masks.append(members)
    db = TransactionDatabase.from_columns(catalog, record_ids, masks, excluded_count=0)

    _verify_fixture(db, counts, golden)
    report = ConstructionReport(
        m=counts.m,
        cell_sizes=tuple(
            (" ".join(f"{a}={v}" for a, v in cell), sizes[ci]) for ci, cell in enumerate(cells)
        ),
        # each set's first constraint is the facility total, not a rule target
        mandatory_rule_targets=sum(len(s) - 1 for s in mandatory_sets.values()),
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
