from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siterules import corpus
from siterules.classify import classify_rules
from siterules.datamodel import Rule, RuleClass


def tier(joint, antecedent):
    """The tier ``classify_rules`` gives a rule of these counts."""
    (classified,) = classify_rules([Rule((0,), (1,), antecedent, joint, antecedent)])
    return classified.rule_class


def expected_tier(joint, antecedent):
    """The tiers written out: >= 95% must-have, >= 90% should-have."""
    if joint * 100 >= 95 * antecedent:
        return RuleClass.MUST_HAVE
    if joint * 100 >= 90 * antecedent:
        return RuleClass.SHOULD_HAVE
    return RuleClass.REJECTED


class TestTiers:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (48, 49, RuleClass.MUST_HAVE),    # ~97.95
            (18, 19, RuleClass.SHOULD_HAVE),  # ~94.73
            (95, 100, RuleClass.MUST_HAVE),   # boundary
            (90, 100, RuleClass.SHOULD_HAVE), # boundary
            (8999, 10_000, RuleClass.REJECTED),
            (9499, 10_000, RuleClass.SHOULD_HAVE),
            (1, 1, RuleClass.MUST_HAVE),
            (0, 1, RuleClass.REJECTED),
        ],
    )
    def test_boundaries(self, num, den, expected):
        assert tier(num, den) is expected

    @given(st.integers(0, 200), st.integers(1, 200), st.integers(0, 200), st.integers(1, 200))
    @settings(max_examples=200)
    def test_monotone(self, a, b, c, d):
        a, c = min(a, b), min(c, d)
        low, high = sorted([(a, b), (c, d)], key=lambda pair: Fraction(*pair))
        assert tier(*low) <= tier(*high)

    @given(st.integers(0, 100), st.integers(1, 100), st.integers(1, 7))
    @settings(max_examples=200)
    def test_scaling_invariance(self, a, b, k):
        a = min(a, b)
        assert tier(a, b) is tier(k * a, k * b)

    @given(st.integers(1, 10**12), st.fractions(0, 1, max_denominator=10**6))
    @example(1, Fraction(19, 20))
    @example(10**12, Fraction(9, 10))
    @example(7, Fraction(949_999, 10**6))
    @example(3, Fraction(899_999, 10**6))
    @settings(max_examples=300)
    def test_tiers_match_exact_ratios(self, scale, ratio):
        antecedent = ratio.denominator * scale
        joint = ratio.numerator * scale
        if ratio >= Fraction(95, 100):
            expected = RuleClass.MUST_HAVE
        elif ratio >= Fraction(90, 100):
            expected = RuleClass.SHOULD_HAVE
        else:
            expected = RuleClass.REJECTED
        assert tier(joint, antecedent) is expected


class TestPartition:
    def test_golden_set_tiers(self, golden):
        counts = [corpus._rule_counts(g, corpus.M_ACCESSIBLE)[:2] for g in golden]
        tiers = [tier(joint, n_antecedent) for n_antecedent, joint in counts]
        tier_order = (RuleClass.MUST_HAVE, RuleClass.SHOULD_HAVE, RuleClass.REJECTED)
        assert [tiers.count(c) for c in tier_order] == [33, 35, 0]


@st.composite
def rules_near_the_floors(draw):
    """A rule whose confidence lies within a few counts of 90% or 95%."""
    n_antecedent = draw(st.integers(1, 10**6))
    floor = draw(st.sampled_from([90, 95]))
    joint = n_antecedent * floor // 100 + draw(st.integers(-3, 3))
    joint = min(max(joint, 0), n_antecedent)
    return Rule((0,), (1,), n_antecedent, joint, n_antecedent)


class TestClassifyRules:
    @given(st.lists(rules_near_the_floors(), max_size=20))
    @settings(max_examples=200)
    def test_tiers_by_cross_multiplication(self, rules):
        classified = classify_rules(rules)
        assert [c.rule for c in classified] == rules
        for k, rule in enumerate(rules):
            expected = expected_tier(rule.joint_count, rule.antecedent_count)
            assert classified[k].rule_class is expected
