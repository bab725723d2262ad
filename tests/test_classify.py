import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siterules.classify import classify_confidence, classify_rules
from siterules.datamodel import Percent, Rule, RuleClass


class TestClassifyConfidence:
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
        assert classify_confidence(Percent(num, den)) is expected

    @given(st.integers(0, 200), st.integers(1, 200), st.integers(0, 200), st.integers(1, 200))
    @settings(max_examples=200)
    def test_monotone(self, a, b, c, d):
        a, c = min(a, b), min(c, d)
        low, high = sorted([Percent(a, b), Percent(c, d)])
        assert classify_confidence(low) <= classify_confidence(high)

    @given(st.integers(0, 100), st.integers(1, 100), st.integers(1, 7))
    @settings(max_examples=200)
    def test_scaling_invariance(self, a, b, k):
        a = min(a, b)
        assert classify_confidence(Percent(a, b)) is classify_confidence(Percent(k * a, k * b))


class TestPartition:
    def test_golden_set_tiers(self, golden):
        tiers = [classify_confidence(Percent.from_basis_points(g.confidence_bp)) for g in golden]
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
    def test_tiers_as_classify_confidence(self, rules):
        classified = classify_rules(rules)
        assert [c.rule for c in classified] == rules
        for k, rule in enumerate(rules):
            assert classified[k].rule_class is classify_confidence(rule.confidence)
