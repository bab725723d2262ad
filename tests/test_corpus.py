import inspect
import itertools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siterules import corpus
from siterules.datamodel import ItemClass
from siterules.engine import count_support
from siterules.ingest import GoldenRule, parse_pct_bp, parse_transactions, render_transactions_csv
from siterules.report import GROUP_COLUMNS, GROUP_DEFS, format_percent, stats_table


class TestPaperCounts:
    def test_published_group_counts(self, counts):
        assert counts.m == 91
        singles, pairs = counts.single_counts, counts.pair_counts
        assert singles[("ownership", "governmental")] == 49
        assert singles[("age", "below10")] == 11
        assert singles[("age", "11-29")] == 35
        assert singles[("age", "above30")] == 45
        assert singles[("industry", "products")] == 44
        assert pairs[frozenset({("age", "11-29"), ("ownership", "governmental")})] == 20
        assert frozenset({("age", "below10"), ("ownership", "governmental")}) not in pairs

    def test_families_partition_the_population(self, counts):
        singles = counts.single_counts
        assert sum(singles[("age", v)] for v in ("below10", "11-29", "above30")) == 91
        assert sum(singles[("ownership", v)] for v in ("governmental", "private", "semiprivate")) == 91
        assert sum(singles[("industry", v)] for v in ("products", "services")) == 91

    def test_facility_totals(self, counts):
        assert counts.facility_counts["about_us"]["total"] == 87
        assert counts.facility_counts["contact_us"]["total"] == 89
        assert counts.facility_counts["about_us"]["governmental"] == 48
        assert counts.group_sizes["private_semiprivate"] == 42

    def test_integrality_check_rejects_corrupt_figures(self):
        # 93.00% of 11 would require 10.23 rows
        with pytest.raises(corpus.InfeasibleFixtureError, match="integrality"):
            corpus._derived_count(9300, 11, "truncate")

    def test_derived_count_modes(self):
        assert corpus._derived_count(9795, 49, "truncate") == 48
        assert corpus._derived_count(9796, 49, "round") == 48
        assert corpus._derived_count(1208, 91, "truncate") == 11

    @given(
        bp=st.integers(-100, 10_100),
        denominator=st.integers(1, 10**6),
        mode=st.sampled_from(["truncate", "round"]),
    )
    @settings(max_examples=300)
    def test_derived_count_as_the_rendered_round_trip(self, bp, denominator, mode):
        # a count is accepted when its figure, rendered and read back, is bp
        count = (bp * denominator + 5000) // 10000
        expected = 0 <= count <= denominator and (
            parse_pct_bp(format_percent(count, denominator, mode)) == bp
        )
        try:
            got = corpus._derived_count(bp, denominator, mode)
        except corpus.InfeasibleFixtureError:
            assert not expected
        else:
            assert expected and got == count

    def test_conflicting_support_rejected(self, monkeypatch):
        # rules 1 and 2 share the antecedent age=below10; 13.18% of 91 is integral
        original = corpus.golden_text()
        text = original.replace(
            "2,age=below10,facility=contact_us,100.00,12.08",
            "2,age=below10,facility=contact_us,100.00,13.18",
        )
        assert text != original
        monkeypatch.setattr(corpus, "golden_text", lambda: text)
        with pytest.raises(corpus.InfeasibleFixtureError, match="rule 2: support contradicts"):
            corpus.study_group_counts()

    def test_value_without_single_rule_fails_family_sum(self, monkeypatch):
        lines = corpus.golden_text().splitlines(keepends=True)
        kept = [line for line in lines if line.split(",")[1] != "age=below10"]
        assert len(kept) < len(lines)
        monkeypatch.setattr(corpus, "golden_text", lambda: "".join(kept))
        with pytest.raises(corpus.InfeasibleFixtureError, match="age group counts sum to 80"):
            corpus.study_group_counts()

    def test_group_columns_partition_each_attribute(self, study_schema):
        for members in GROUP_DEFS.values():
            assert len({attr for attr, _ in members}) == 1, members
        for attr in study_schema.catalog.attributes:
            if attr.item_class is not ItemClass.DEMOGRAPHIC:
                continue
            covered = [v for ms in GROUP_DEFS.values() for a, v in ms if a == attr.name]
            assert sorted(covered) == sorted(attr.values), attr.name
        # the plan reads each attribute's columns in GROUP_COLUMNS order
        families = corpus._FAMILIES
        assert [c for family in families.values() for c in family] == list(GROUP_COLUMNS)
        assert all(GROUP_DEFS[c][0][0] == attr for attr, cs in families.items() for c in cs)


class TestArithmeticConsistency:
    def test_rule_counts_of_published_rules(self, golden):
        # rule 23: 38.46% of 91 sites is 35, and 97.14% of 35 is 34;
        # rule 68: 21.97% of 91 is 20, and 90.00% of 20 is 18
        by_id = {g.rule_id: g for g in golden}
        for rule_id, expected in ((23, (35, 34)), (68, (20, 18))):
            g = by_id[rule_id]
            n_antecedent = (g.support_bp * 91 + 5000) // 10000
            joint = (g.confidence_bp * n_antecedent + 5000) // 10000
            assert (n_antecedent, joint) == expected
            assert corpus._rule_counts(g, 91)[:2] == expected

    def test_fabricated_rule_refused(self, counts, golden):
        # 93.00% of the 11 sites aged below 10 would be 10.23 sites
        fake = GoldenRule(99, (("age", "below10"),), ("facility", "about_us"), 9300, 1208)
        message = "^rule 99: confidence implies non-integer joint count$"
        with pytest.raises(corpus.InfeasibleFixtureError, match=message):
            corpus.build_fixture(counts, [*golden, fake])


class TestGoldenAsRules:
    def test_counts_recovered(self, golden):
        (r21,) = [g for g in golden if g.rule_id == 21]
        antecedent_count, joint_count, _ = corpus._rule_counts(r21, corpus.M_ACCESSIBLE)
        assert (antecedent_count, joint_count, corpus.M_ACCESSIBLE) == (49, 48, 91)
        assert r21.consequent_item == ("facility", "about_us")


@st.composite
def small_systems(draw):
    """Up to six variables with caps 0-8 and one to four exact-sum
    constraints with targets up to 6, so a variable's bound is sometimes its
    cap and sometimes a target."""
    n = draw(st.integers(1, 6))
    caps = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    members = st.lists(st.integers(0, n - 1), unique=True).map(lambda idxs: tuple(sorted(idxs)))
    constraints = draw(st.lists(st.tuples(members, st.integers(-1, 6)), min_size=1, max_size=4))
    return caps, constraints


@st.composite
def overlapping_systems(draw):
    """Four to eight variables with caps 0-3 and two to five exact-sum
    constraints, each sharing a variable with the one before it. Variables 0
    and 1 sit in the same constraints, so swapping their values reaches the
    same remaining targets, and a subtree found empty is met again. Targets
    are a hidden assignment's sums, each moved by at most one."""
    n = draw(st.integers(4, 8))
    caps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    hidden = [draw(st.integers(0, cap)) for cap in caps]
    constraints = []
    for _ in range(draw(st.integers(2, 5))):
        idxs = set(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)))
        if constraints:
            idxs.add(draw(st.sampled_from(constraints[-1][0])))
        if idxs & {0, 1}:
            idxs |= {0, 1}
        target = sum(hidden[j] for j in idxs) + draw(st.integers(-1, 1))
        constraints.append((tuple(sorted(idxs)), max(0, target)))
    return caps, constraints


def brute_force_solutions(caps, constraints):
    """Every solution, by trying every value up to each variable's cap or
    the smallest target of its constraints, in ascending order."""
    ranges = []
    for j, cap in enumerate(caps):
        limits = [t for idxs, t in constraints if j in idxs]
        ranges.append(range(min([cap, *limits]) + 1))
    return [
        values
        for values in itertools.product(*ranges)
        if all(sum(values[j] for j in idxs) == t for idxs, t in constraints)
    ]


@st.composite
def facility_systems(draw):
    """One facility's pass on two to five cells of size 0-3. A hidden
    assignment meets the mandatory set (the total and up to two joint
    counts); each cell is in at most one group column of each attribute
    (in the study, exactly one), and each column target is the hidden count
    moved by at most one, so some columns cannot be met and some families
    disagree with the total."""
    n = draw(st.integers(2, 5))
    sizes = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    hidden = [draw(st.integers(0, size)) for size in sizes]
    subsets = st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(
        lambda idxs: tuple(sorted(idxs))
    )
    mandatory = [(tuple(range(n)), sum(hidden))]
    for idxs in draw(st.lists(subsets, max_size=2)):
        mandatory.append((idxs, sum(hidden[j] for j in idxs)))
    column_idxs = {}
    for attr in dict.fromkeys(members[0][0] for members in GROUP_DEFS.values()):
        family = [c for c in GROUP_COLUMNS if GROUP_DEFS[c][0][0] == attr]
        owner = draw(st.lists(st.sampled_from([*family, None]), min_size=n, max_size=n))
        for column in family:
            column_idxs[column] = tuple(j for j in range(n) if owner[j] == column)
    targets = {"total": sum(hidden)}
    for column in GROUP_COLUMNS:
        moved = sum(hidden[j] for j in column_idxs[column]) + draw(st.sampled_from((0, 0, -1, 1)))
        targets[column] = max(0, moved)
    return sizes, mandatory, column_idxs, targets


@st.composite
def moved_mandatory_systems(draw):
    """``facility_systems`` with each mandatory target moved by at most one,
    so some mandatory sets have no solution."""
    sizes, mandatory, column_idxs, targets = draw(facility_systems())
    moved = [(idxs, max(0, t + draw(st.sampled_from((0, -1, 1))))) for idxs, t in mandatory]
    return sizes, moved, column_idxs, targets


def family_conflicts(targets):
    """The last column of each attribute whose published columns do not sum
    to the facility total, with its family-sum conflict, in
    ``GROUP_COLUMNS`` order."""
    left_out = {}
    for attr in {members[0][0] for members in GROUP_DEFS.values()}:
        family = [c for c in GROUP_COLUMNS if GROUP_DEFS[c][0][0] == attr]
        published = tuple((c, targets[c]) for c in family)
        if sum(t for _, t in published) != targets["total"]:
            left_out[family[-1]] = corpus.FamilySumConflict(attr, published, targets["total"])
    return {c: left_out[c] for c in GROUP_COLUMNS if c in left_out}


def total_is_implied(targets, mandatory, column_idxs):
    """Whether some attribute with no family-sum conflict has columns that
    cover each cell of the mandatory total once and sum to its target."""
    (total_idxs, total), left_out = mandatory[0], family_conflicts(targets)
    for attr in {members[0][0] for members in GROUP_DEFS.values()}:
        family = [c for c in GROUP_COLUMNS if GROUP_DEFS[c][0][0] == attr]
        if set(family) & set(left_out):
            continue
        covered = [j for c in family for j in column_idxs[c]]
        if sorted(covered) == sorted(total_idxs) and sum(targets[c] for c in family) == total:
            return True
    return False


def expected_plan(targets, mandatory, column_idxs):
    """The plan, written out: the mandatory set, less its total where the
    plan implies it, plus every group column in ``GROUP_COLUMNS`` order but
    the family-sum conflicts, with those."""
    left_out = family_conflicts(targets)
    kept = mandatory[1:] if total_is_implied(targets, mandatory, column_idxs) else mandatory
    plan = list(kept) + [(column_idxs[c], targets[c]) for c in GROUP_COLUMNS if c not in left_out]
    return plan, list(left_out.values())


class TestSearch:
    @given(small_systems())
    @settings(max_examples=300, deadline=None)
    def test_yields_every_solution_in_descending_order(self, system):
        caps, constraints = system
        solutions = list(corpus._iter_solutions(caps, constraints))
        assert solutions == brute_force_solutions(caps, constraints)[::-1]
        if any(t < 0 for _, t in constraints):
            assert solutions == []

    @given(overlapping_systems())
    @settings(max_examples=200, deadline=None)
    def test_overlapping_systems_yield_every_solution(self, system):
        # dead (variable, remaining targets) states recur here; skipping them
        # must leave the full enumeration and its order unchanged
        caps, constraints = system
        solutions = list(corpus._iter_solutions(caps, constraints))
        assert solutions == brute_force_solutions(caps, constraints)[::-1]

    @given(overlapping_systems())
    @settings(max_examples=100, deadline=None)
    def test_calls_share_no_state(self, system):
        caps, constraints = system
        expected = brute_force_solutions(caps, constraints)[::-1]
        first = corpus._iter_solutions(caps, constraints)
        head = next(first, None)
        assert list(corpus._iter_solutions(caps, constraints)) == expected
        assert list(corpus._iter_solutions(caps, constraints)) == expected
        # a generator left open after its first solution still yields the rest
        assert ([] if head is None else [head, *first]) == expected
        # one closed after its first solution leaves the next call whole
        closed = corpus._iter_solutions(caps, constraints)
        next(closed, None)
        closed.close()
        assert list(corpus._iter_solutions(caps, constraints)) == expected

    @given(small_systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_inner_target_above_outer_yields_nothing(self, system, data):
        # A < B with t_A > t_B: each of A's members takes at most what is left
        # of t_B, so the slack bound leaves the last one no value meeting t_A
        caps, constraints = system
        outer = data.draw(st.lists(st.integers(0, len(caps) - 1), min_size=1, unique=True))
        inner = data.draw(st.lists(st.sampled_from(outer), unique=True, max_size=len(outer) - 1))
        target = data.draw(st.integers(0, 6))
        system = constraints + [
            (tuple(sorted(outer)), target),
            (tuple(sorted(inner)), target + data.draw(st.integers(1, 3))),
        ]
        assert list(corpus._iter_solutions(caps, system)) == []
        assert brute_force_solutions(caps, system) == []


def facility_mandatory(facility, counts, golden, cells, pinned):
    """``corpus._facility_mandatory`` over the reference rules whose consequent
    is ``facility``, with the demographic cells as sets, as the build calls it."""
    rules = [g for g in golden if g.consequent_item == ("facility", facility)]
    cell_sets = [frozenset(cell) for cell in cells]
    return corpus._facility_mandatory(facility, counts, rules, cell_sets, pinned)


class TestBuildFixture:
    def test_shape(self, fixture_db):
        assert fixture_db.size == 91
        assert fixture_db.excluded_count == 0

    def test_pairwise_cell_with_full_facility(self, fixture_db):
        catalog = fixture_db.catalog
        group = (
            catalog.item_id("age", "11-29"),
            catalog.item_id("ownership", "governmental"),
        )
        assert count_support(fixture_db, group) == 20
        joint = group + (catalog.item_id("general_field_intro", "yes"),)
        assert count_support(fixture_db, joint) == 20

    def test_governmental_about_us(self, fixture_db):
        catalog = fixture_db.catalog
        gov = catalog.item_id("ownership", "governmental")
        about = catalog.item_id("about_us", "yes")
        assert count_support(fixture_db, (gov,)) == 49
        assert count_support(fixture_db, (gov, about)) == 48

    def test_every_reference_rule_count_holds(self, fixture_db, golden, counts):
        catalog = fixture_db.catalog
        for g in golden:
            antecedent = [catalog.item_id(*p) for p in g.antecedent_items]
            n_a = count_support(fixture_db, antecedent)
            assert n_a == (g.support_bp * counts.m + 5000) // 10000, g.rule_id
            joint = antecedent + [catalog.item_id(g.consequent_item[1], "yes")]
            expected = (g.confidence_bp * n_a + 5000) // 10000
            assert count_support(fixture_db, joint) == expected, g.rule_id

    def test_facility_totals_hold(self, fixture_db, counts):
        catalog = fixture_db.catalog
        for facility, targets in counts.facility_counts.items():
            fid = catalog.item_id(facility, "yes")
            assert count_support(fixture_db, (fid,)) == targets["total"], facility

    def test_unmet_cells_are_the_inconsistent_published_ones(self, fixture_result):
        unmet = {(u.facility, u.column) for u in fixture_result.report.unmet_cells}
        assert unmet == {
            ("load_time", "above30"),
            ("site_map", "private_semiprivate"),
            ("site_map", "services"),
            ("site_map", "above30"),
            ("english_homepage", "private_semiprivate"),
            ("related_links", "private_semiprivate"),
        }
        for u in fixture_result.report.unmet_cells:
            assert abs(u.target - u.achieved) <= 3

    def test_unmet_cells_are_family_sum_conflicts(self, fixture_result):
        conflict = corpus.FamilySumConflict
        ownership = ("governmental", "private_semiprivate")
        age = ("below10", "11-29", "above30")
        reasons = {(u.facility, u.column): u.reason for u in fixture_result.report.unmet_cells}
        assert reasons == {
            ("site_map", "private_semiprivate"): conflict(
                "ownership", tuple(zip(ownership, (35, 30))), 66
            ),
            ("site_map", "services"): conflict(
                "industry", (("products", 28), ("services", 37)), 66
            ),
            ("site_map", "above30"): conflict("age", tuple(zip(age, (7, 26, 32))), 66),
            ("english_homepage", "private_semiprivate"): conflict(
                "ownership", tuple(zip(ownership, (44, 29))), 70
            ),
            ("related_links", "private_semiprivate"): conflict(
                "ownership", tuple(zip(ownership, (42, 30))), 70
            ),
            ("load_time", "above30"): conflict("age", tuple(zip(age, (9, 31, 40))), 79),
        }

    def test_unreachable_column_is_an_error(self, counts, golden):
        # 50 governmental sites with about_us, in a group of 49
        facility_counts = dict(counts.facility_counts)
        facility_counts["about_us"] = dict(facility_counts["about_us"], governmental=50)
        edited = counts._replace(facility_counts=facility_counts)
        message = "^the published group columns admit no assignment for: about_us$"
        with pytest.raises(corpus.InfeasibleFixtureError, match=message):
            corpus.build_fixture(edited, golden)

    def test_unpinned_antecedent_group_rejected(self, counts, golden, catalog):
        # no demographic count pins a three-item group, so no table would fix its size
        cells = corpus._demographic_cells(catalog)
        pinned = dict(corpus._demographic_constraints(counts, cells))
        items = (("age", "above30"), ("industry", "products"), ("ownership", "private"))
        extra = GoldenRule(99, items, ("facility", "about_us"), 10000, 110)
        with pytest.raises(corpus.InfeasibleFixtureError, match="rule 99: the demographic counts"):
            facility_mandatory("about_us", counts, [*golden, extra], cells, pinned)

    @given(facility_systems())
    @settings(max_examples=200, deadline=None)
    def test_plan_is_every_column_but_the_family_conflicts(self, system):
        sizes, mandatory, column_idxs, targets = system
        plan = corpus._facility_plan(targets, mandatory, column_idxs)
        assert plan == expected_plan(targets, mandatory, column_idxs)

    @given(st.one_of(facility_systems(), moved_mandatory_systems()))
    # the ownership columns partition both cells and their targets sum to the
    # published total, 0, but not to the mandatory total, 1: left out, the
    # total would let (0, 0) solve a plan that has no solution
    @example((
        (1, 1),
        [((0, 1), 1)],
        {**dict.fromkeys(GROUP_COLUMNS, ()), "governmental": (0,), "private_semiprivate": (1,)},
        dict.fromkeys(["total", *GROUP_COLUMNS], 0),
    ))
    @settings(max_examples=300, deadline=None)
    def test_total_is_left_out_only_where_the_plan_implies_it(self, system):
        sizes, mandatory, column_idxs, targets = system
        plan, _ = corpus._facility_plan(targets, mandatory, column_idxs)
        if total_is_implied(targets, mandatory, column_idxs):
            assert plan[: len(mandatory) - 1] == mandatory[1:]
            assert brute_force_solutions(sizes, plan) == brute_force_solutions(
                sizes, [mandatory[0], *plan]
            )
        else:
            # a family's columns miss a cell, or sum to another target
            assert plan[: len(mandatory)] == mandatory

    @given(moved_mandatory_systems())
    # every column is out of reach, so the plan has no solution and the
    # mandatory set alone is searched
    @example((
        (1, 1),
        [((0, 1), 1)],
        dict.fromkeys(GROUP_COLUMNS, ()),
        dict.fromkeys(["total", *GROUP_COLUMNS], 1),
    ))
    @settings(max_examples=300, deadline=None)
    def test_pass_is_the_highest_plan_solution(self, system):
        # None, rejecting the table, exactly when the mandatory set has no
        # solution; else the plan's highest solution, or None when it has none
        sizes, mandatory, column_idxs, targets = system
        plan = corpus._facility_plan(targets, mandatory, column_idxs)
        passes = corpus._facility_passes({"f": plan}, {"f": mandatory}, sizes)
        if not brute_force_solutions(sizes, mandatory):
            assert passes is None
            return
        solutions = brute_force_solutions(sizes, plan[0])
        assert passes == {"f": solutions[-1] if solutions else None}

    def test_every_one_cell_edit_meets_its_cells_or_names_the_facility(self, counts, golden):
        # each group cell of each facility moved by one: the build either
        # meets every published cell but the family-sum conflicts, recounted
        # on the database, or refuses naming the edited facility
        refused = 0
        for facility, column, step in itertools.product(
            counts.facility_counts, GROUP_COLUMNS, (-1, 1)
        ):
            facility_counts = dict(counts.facility_counts)
            moved = facility_counts[facility][column] + step
            facility_counts[facility] = dict(facility_counts[facility], **{column: moved})
            edited = counts._replace(facility_counts=facility_counts)
            try:
                result = corpus.build_fixture(edited, golden)
            except corpus.InfeasibleFixtureError as exc:
                assert str(exc).endswith(f"for: {facility}"), (facility, column, step)
                refused += 1
                continue
            db, catalog = result.database, result.database.catalog
            unmet = {(u.facility, u.column): u for u in result.report.unmet_cells}
            expected = set()
            for f, targets in facility_counts.items():
                fid = catalog.item_id(f, "yes")
                for c, conflict in family_conflicts(targets).items():
                    expected.add((f, c))
                    assert unmet[(f, c)].reason == conflict
                for c in GROUP_COLUMNS:
                    achieved = sum(
                        count_support(db, (fid, catalog.item_id(*pair))) for pair in GROUP_DEFS[c]
                    )
                    if (f, c) in unmet:
                        assert unmet[(f, c)].achieved == achieved
                    else:
                        assert achieved == targets[c], (facility, column, step, f, c)
            assert set(unmet) == expected
        # 37 edits leave their facility's plan with no solution; 243 build
        assert refused == 37

    def test_table_is_the_first_that_admits_every_mandatory_set(
        self, counts, golden, catalog, fixture_result
    ):
        # the rule, written out: the first demographic table under which
        # every facility's mandatory set has a solution
        cells = corpus._demographic_cells(catalog)
        demographic = corpus._demographic_constraints(counts, cells)
        pinned = dict(demographic)
        mandatory_sets = [
            facility_mandatory(f, counts, golden, cells, pinned) for f in counts.facility_counts
        ]
        tables = corpus._iter_solutions([counts.m] * len(cells), demographic)
        first = next(tables)
        expected = next(
            sizes for sizes in itertools.chain([first], tables)
            if all(next(corpus._iter_solutions(sizes, s), None) is not None for s in mandatory_sets)
        )
        assert tuple(size for _, size in fixture_result.report.cell_sizes) == expected
        # the first table is refused, by the root test alone
        assert expected != first
        assert any(corpus._root_bounds(first, s) is None for s in mandatory_sets)

    def test_one_assignment_search_per_facility(self, counts, golden, monkeypatch):
        # every study plan has a solution under the table taken, and the
        # rejected first table costs no search, so a build starts the search
        # loop 21 times: the table search, then each facility's plan, once
        plans, calls = [], []
        facility_plan, search = corpus._facility_plan, corpus._search

        def plan(*args):
            result = facility_plan(*args)
            plans.append(result[0])
            return result

        def searched(root, constraints):
            calls.append(constraints)
            return search(root, constraints)

        monkeypatch.setattr(corpus, "_facility_plan", plan)
        monkeypatch.setattr(corpus, "_search", searched)
        corpus.build_fixture(counts, golden)
        assert len(plans) == len(counts.facility_counts) == 20
        assert calls[1:] == plans

    def test_root_tests_per_build(self, counts, golden, monkeypatch):
        # the table search's, then per table one per plan, and a mandatory
        # set's only where its plan's fails: six plans pass on the first
        # table, the seventh fails and so does its set, and the 20 plans
        # pass on the second
        tested = []
        root_bounds = corpus._root_bounds

        def root(caps, constraints):
            result = root_bounds(caps, constraints)
            tested.append(result is not None)
            return result

        monkeypatch.setattr(corpus, "_root_bounds", root)
        corpus.build_fixture(counts, golden)
        assert tested == [True] * 7 + [False] * 2 + [True] * 20

    def test_a_set_root_test_runs_once_where_its_plan_fails(self, counts, golden, monkeypatch):
        # 50 governmental sites with about_us, in a group of 49: about_us's
        # plan fails its root test, and its mandatory set's root, tested in
        # the first loop, is handed to the set's search rather than tested
        # again, so no root test repeats
        facility_counts = dict(counts.facility_counts)
        facility_counts["about_us"] = dict(facility_counts["about_us"], governmental=50)
        edited = counts._replace(facility_counts=facility_counts)
        tested = []
        root_bounds = corpus._root_bounds

        def root(caps, constraints):
            tested.append((tuple(caps), repr(constraints)))
            return root_bounds(caps, constraints)

        monkeypatch.setattr(corpus, "_root_bounds", root)
        message = "^the published group columns admit no assignment for: about_us$"
        with pytest.raises(corpus.InfeasibleFixtureError, match=message):
            corpus.build_fixture(edited, golden)
        assert len(tested) == len(set(tested)) == 31

    def test_search_loop_turns(self, counts, golden):
        # the table search and the 20 plan searches together: a change to
        # the search's pruning or to what it is asked moves these counts
        lines, start = inspect.getsourcelines(corpus._search)
        stripped = [line.strip() for line in lines]
        loop = start + stripped.index("while i >= 0:")
        entry = start + stripped.index("here = tuple(remaining)")
        code = corpus._search.__code__
        turns = entries = 0

        def count_turns(frame, event, arg):
            nonlocal turns, entries
            if event == "line":
                turns += frame.f_lineno == loop
                entries += frame.f_lineno == entry
            return count_turns

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: count_turns if frame.f_code is code else None)
        try:
            corpus.build_fixture(counts, golden)
        finally:
            sys.settrace(previous)
        assert (turns, entries) == (8297, 4286)

    def test_deterministic_rebuild(self, counts, golden, fixture_result):
        again = corpus.build_fixture(counts, golden)
        assert render_transactions_csv(again.database) == render_transactions_csv(
            fixture_result.database
        )
        assert again.report.render() == fixture_result.report.render()

    def test_fixture_round_trips_through_csv(self, study_schema, fixture_db):
        text = render_transactions_csv(fixture_db)
        again = parse_transactions(study_schema, text)
        assert again.vertical_index == fixture_db.vertical_index
        assert again.excluded_count == 0

    def test_report_mentions_every_cell_family(self, fixture_result):
        text = fixture_result.report.render()
        assert "transactions: 91" in text
        assert "68 reference-rule joint counts" in text
        assert "134 of 140 satisfied" in text


class TestStatsAgainstPublishedTable:
    def test_totals_reproduce_published_column(self, fixture_db, counts):
        table = stats_table(fixture_db)
        total_index = [c.label for c in table.columns].index("total")
        for row in table.rows:
            bp = corpus._FREQUENCY_BP[row.facility][0]
            rendered = format_percent(*row.cells[total_index], "round")
            assert rendered == f"{bp // 100}.{bp % 100:02d}", row.facility
