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
facility's overall count. Every published per-group frequency cell holds too,
except where an attribute's published columns do not sum to the facility
total (four rows of the table): that family's last column is listed as a
family-sum conflict, not forced. A facility whose other cells admit no
assignment is an error that names it.

The demographic table (each profile's row count) is the first one, in the
search's order, under which every facility's mandatory set (its total and its
reference rules' joint counts) has a solution; the plan searches decide it.

All searches are deterministic: cells are enumerated smallest-index-first
and candidate values highest-first, so repeated builds are byte-identical.

Of the CLI commands only ``fixture`` loads this module. Reading a rules CSV
back and matching it against the reference list is ``siterules.validation``.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator, NamedTuple, Optional, Sequence

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
) -> Optional[tuple[list[list[int]], list[int]]]:
    """The search's state before its first node, or None when that state
    already rules out every solution.

    Returns ``by_var`` (each variable's constraint indices) and ``bound``
    (each variable's cap tightened by the targets of its constraints). A
    constraint whose target is negative or above its slack (the summed
    bounds of its members) admits no solution, and None is returned.
    """
    by_var: list[list[int]] = [[] for _ in caps]
    for ci, (idxs, _) in enumerate(constraints):
        for j in idxs:
            by_var[j].append(ci)
    targets = [t for _, t in constraints]
    bound = [min([cap, *map(targets.__getitem__, by_var[j])]) for j, cap in enumerate(caps)]
    for idxs, t in constraints:
        if t < 0 or t > sum(map(bound.__getitem__, idxs)):
            return None
    return by_var, bound


def _iter_solutions(
    caps: Sequence[int],
    constraints: Sequence[tuple[tuple[int, ...], int]],
) -> Iterator[tuple[int, ...]]:
    """Yield all non-negative integer assignments meeting every constraint,
    in lexicographically descending order: the root test of
    ``_root_bounds``, then ``_search`` from the root it computes. A system
    that fails the root test yields nothing."""
    root = _root_bounds(caps, constraints)
    if root is not None:
        yield from _search(root, constraints)


def _search(
    root: tuple[list[list[int]], list[int]],
    constraints: Sequence[tuple[tuple[int, ...], int]],
) -> Iterator[tuple[int, ...]]:
    """Yield every solution of ``constraints`` below ``root``, the state
    ``_root_bounds`` computed for them.

    Each constraint is (variable index set, exact target sum). Variables are
    assigned in index order, candidate values highest-first, so solutions
    arrive in lexicographically descending order.

    A variable's bound is its cap tightened by the targets of its
    constraints. The slack of constraint ci at the depth of variable i is
    the sum of those bounds over ci's members assigned deeper; since the
    order is fixed, it depends only on the depth, so ``depth_slack`` holds
    it once per depth for each constraint of the depth's variable. Variable
    i's value lies between each constraint's remaining target less that
    slack and the smallest remaining target, so a constraint whose last
    member is assigned meets its target exactly, and a node costs
    O(constraints of i).

    The search runs in this one loop, with an explicit state per depth:
    ``key[i]`` is None until depth i is entered, and the value in
    ``assignment[i]`` steps down to ``low[i]`` before the depth is left.

    The solutions below variable i depend only on i and the remaining
    targets, since bounds and slacks are fixed per depth. So once a subtree
    has been searched to the end without a solution, its remaining targets
    go into ``dead[i]`` and the search skips the subtree when they come up
    again at depth i (nogood recording). Only subtrees holding no solution
    are pruned, so the order of the solutions is unchanged. ``dead`` is
    local to one call: a subtree left early by a closed generator records
    nothing.

    A variable whose bound is 0 (an empty cell, or one in a constraint with
    target 0) is 0 in every solution, so it takes no depth: the search runs
    over the other variables only, and each solution is scattered back into
    a full-length tuple.
    """
    by_var, bound = root
    remaining = [t for _, t in constraints]
    order = [j for j, b in enumerate(bound) if b]
    depth_own = [by_var[j] for j in order]
    depth_bound = [bound[j] for j in order]
    depths = len(order)
    depth_slack: list[list[tuple[int, int]]] = [[] for _ in range(depths)]
    below = [0] * len(constraints)
    for i in reversed(range(depths)):
        depth_slack[i] = [(ci, below[ci]) for ci in depth_own[i]]
        for ci in depth_own[i]:
            below[ci] += depth_bound[i]
    solution = [0] * len(bound)
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
        if key[i] is None:
            # enter depth i
            here = tuple(remaining)
            if here in dead[i]:
                i -= 1
                continue
            hi = depth_bound[i]
            lo = 0
            for ci, slack in depth_slack[i]:
                rem = remaining[ci]
                if rem < hi:
                    hi = rem
                if rem - slack > lo:
                    lo = rem - slack
            if hi < lo:
                # no value fits: leave depth i at once
                dead[i].add(here)
                i -= 1
                continue
            key[i] = here
            found_before[i] = found
            low[i] = lo
            assignment[i] = hi
            for ci in depth_own[i]:
                remaining[ci] -= hi
            i += 1
            continue
        value = assignment[i]
        if value > low[i]:
            assignment[i] = value - 1
            for ci in depth_own[i]:
                remaining[ci] += 1
            i += 1
            continue
        # leave depth i
        for ci in depth_own[i]:
            remaining[ci] += value
        if found == found_before[i]:
            dead[i].add(key[i])
        key[i] = None
        i -= 1


# ---------------------------------------------------------------------------
# fixture construction


class FamilySumConflict(NamedTuple):
    """The cell is its attribute's last group column, and the family's
    published column counts do not sum to the facility total."""

    attribute: str
    columns: tuple[tuple[str, int], ...]
    total: int


class UnmetCell(NamedTuple):
    facility: str
    column: str
    target: int
    achieved: int
    reason: FamilySumConflict


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
    holds under every demographic table. A pinned group other than the whole
    table is the cells of one demographic item or pair, and each study
    attribute has two values or more, so no other antecedent has those
    cells: two rules of one facility with one group would be one rule
    twice, which the reference reader refuses, and no group gets two
    targets."""
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
        by_cells[idxs] = joint
    return list(by_cells.items())


# each demographic attribute's group columns, in GROUP_COLUMNS order
_FAMILIES = {
    attr: tuple(c for c in GROUP_COLUMNS if GROUP_DEFS[c][0][0] == attr)
    for attr in dict.fromkeys(GROUP_DEFS[c][0][0] for c in GROUP_COLUMNS)
}


def _column_cells(cells: Sequence[tuple[tuple[str, str], ...]]) -> dict[str, tuple[int, ...]]:
    """Indices of the demographic cells that each group column covers."""
    return {
        column: tuple(
            ci for ci, cell in enumerate(cells) if any(pair in cell for pair in members)
        )
        for column, members in GROUP_DEFS.items()
    }


Constraints = list[tuple[tuple[int, ...], int]]


def _facility_plan(
    targets: dict[str, int], mandatory: Constraints, column_idxs: dict[str, tuple[int, ...]]
) -> tuple[Constraints, list[FamilySumConflict]]:
    """The facility's mandatory set plus each published group column, in
    ``GROUP_COLUMNS`` order, but the last column of each attribute whose
    published columns do not sum to the facility total: those are returned as
    family-sum conflicts. ``targets`` holds the facility's published counts.

    The mandatory set's first constraint, its total, is left out when the
    columns of an attribute in the plan partition exactly its cells and their
    targets sum to its target. The plan then implies it: its remaining target
    is always the sum of those columns', so it never narrows a cell's range
    and adds nothing to a nogood key, and the search visits the same nodes in
    the same order without it.
    """
    left_out = {}
    for attr, family in _FAMILIES.items():
        published = tuple((c, targets[c]) for c in family)
        if sum(count for _, count in published) != targets["total"]:
            left_out[family[-1]] = FamilySumConflict(attr, published, targets["total"])
    (total_idxs, total), *rules = mandatory
    implied = any(
        family[-1] not in left_out
        and sorted(j for c in family for j in column_idxs[c]) == sorted(total_idxs)
        and sum(targets[c] for c in family) == total
        for family in _FAMILIES.values()
    )
    columns = [(column_idxs[c], targets[c]) for c in GROUP_COLUMNS if c not in left_out]
    conflicts = [left_out[c] for c in GROUP_COLUMNS if c in left_out]
    return (rules if implied else mandatory) + columns, conflicts


def _facility_passes(
    plans: dict[str, tuple[Constraints, list[FamilySumConflict]]],
    mandatory_sets: dict[str, Constraints],
    sizes: Sequence[int],
) -> Optional[dict[str, Optional[tuple[int, ...]]]]:
    """Each facility's first plan solution under the demographic table
    ``sizes`` (None where the plan has none), or None when a mandatory set has
    none: it fails the root test, or its plan and then itself find none.

    Each root test runs at most once, and its root is handed to ``_search``.
    A plan holds its mandatory set (or, with the total left out, implies it)
    under bounds no looser, so a plan that passes the root test implies that
    its set does: the set's own root test runs only where its plan's fails,
    or where its plan's search finds nothing. The plans' root tests, and the
    sets' where a plan's fails, run before any search, so a table refused by
    one costs no search.
    """
    roots = {}
    for facility, (plan, _) in plans.items():
        root = _root_bounds(sizes, plan)
        set_root = None if root is not None else _root_bounds(sizes, mandatory_sets[facility])
        if root is None and set_root is None:
            return None
        roots[facility] = root, set_root
    passes = {}
    for facility, (plan, _) in plans.items():
        root, set_root = roots[facility]
        solution = None if root is None else next(_search(root, plan), None)
        if solution is None:
            mandatory = mandatory_sets[facility]
            # a plan that passed its root test left the set's to run here,
            # and the set passes it too
            set_root = set_root or _root_bounds(sizes, mandatory)
            if next(_search(set_root, mandatory), None) is None:
                return None
        passes[facility] = solution
    return passes


def build_fixture(counts: StudyCounts, golden: Sequence[GoldenRule]) -> FixtureResult:
    """Reconstruct a transaction database consistent with the published data.

    The demographic table is the first cell-size table, in the search's order,
    that meets every published single and pairwise count and under which every
    facility's mandatory set has a solution (``_facility_passes``). On the
    study data the second table is taken, after 20 searches, one per facility
    plan, and 29 root tests: the table search's own, eight on the first table
    (six plans pass, then the seventh plan and its mandatory set fail), and
    one per plan on the second. Raises :class:`InfeasibleFixtureError` naming
    the facilities whose plan has no solution under it. Within a cell, the
    first rows (by record id) carry each facility.
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
    plans = {
        f: _facility_plan(counts.facility_counts[f], mandatory_sets[f], column_idxs)
        for f in facilities
    }
    for sizes in _iter_solutions([counts.m] * len(cells), demographic):
        solutions = _facility_passes(plans, mandatory_sets, sizes)
        if solutions is not None:
            break
    else:
        raise InfeasibleFixtureError("no demographic table admits the mandatory constraints")
    failed = [f for f, solution in solutions.items() if solution is None]
    if failed:
        raise InfeasibleFixtureError(
            f"the published group columns admit no assignment for: {', '.join(failed)}"
        )

    unmet = []
    for f in facilities:
        for conflict in plans[f][1]:
            column, target = conflict.columns[-1]
            achieved = sum(solutions[f][ci] for ci in column_idxs[column])
            unmet.append(UnmetCell(f, column, target, achieved, conflict))
    facility_quotas = [(1 << catalog.item_id(f, "yes"), solutions[f]) for f in facilities]
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
    # the ids are distinct, and each row sets one item of each demographic
    # attribute: the rows are what the constructor trusts them to be
    db = TransactionDatabase(catalog, record_ids, masks)

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
        # build_fixture refused a consequent that names no facility
        items = [catalog.item_id(*p) for p in g.antecedent_items]
        items.append(catalog.item_id(g.consequent_item[1], "yes"))
        _, joint, _ = _rule_counts(g, counts.m)
        if count_support(db, items) != joint:
            raise InfeasibleFixtureError(f"fixture lost the joint count of rule {g.rule_id}")
