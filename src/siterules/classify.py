"""Priority tiering of rules by exact confidence.

Confidence of at least 95% makes a rule a must-have; at least 90% but below
95% a should-have; anything weaker is rejected. The 90-95 band is half-open
at the top so the two accepted tiers partition [90%, 100%] with no gap.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .datamodel import Rule, RuleClass

# the tier floors, in hundredths of a percent
MUST_HAVE_BP = 9500
SHOULD_HAVE_BP = 9000


class ClassifiedRule(NamedTuple):
    rule: Rule
    rule_class: RuleClass


def _tier(joint: int, antecedent: int) -> RuleClass:
    """Tier of the confidence ``joint / antecedent``, by cross-multiplication."""
    if joint * 10_000 >= MUST_HAVE_BP * antecedent:
        return RuleClass.MUST_HAVE
    if joint * 10_000 >= SHOULD_HAVE_BP * antecedent:
        return RuleClass.SHOULD_HAVE
    return RuleClass.REJECTED


def classify_rules(rules: Iterable[Rule]) -> tuple[ClassifiedRule, ...]:
    """Classify every rule, preserving the input order."""
    return tuple(ClassifiedRule(r, _tier(r.joint_count, r.antecedent_count)) for r in rules)
