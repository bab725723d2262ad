"""Template-constrained rule derivation and canonical ordering.

Rules are read off the frequent itemsets of at most ``max_antecedent_size``
+ 1 items, and of no more items than there are demographic attributes plus
one: one holding exactly one facility item y, whose remainder A is then
all demographic, yields the candidate rule A => y. The rule's counts are exact,
taken from the mined itemset counts, so every metric derives from integers.
"""

from __future__ import annotations

from typing import Iterable

from .datamodel import ItemClass, MiningConfig, Rule, TransactionDatabase
from .engine import mine_frequent


def derive_rules(
    db: TransactionDatabase,
    config: MiningConfig = MiningConfig(),
) -> tuple[Rule, ...]:
    """Mine all demographic => facility rules reaching the configured thresholds.

    Frequent itemsets are mined with the configured support count as the
    frequency floor, so a rule is emitted iff its joint itemset occurs at
    least ``min_support_count`` times and its confidence reaches
    ``min_confidence``. The catalog lays facility items out last, so mining
    is bounded at the first facility id: only all-demographic itemsets (the
    antecedents) and those with one facility item, last (the joint itemsets),
    are counted.

    The database is non-empty and its catalog holds items of both classes:
    ``mine`` refuses any other input before it mines.
    """
    catalog = db.catalog
    first_facility = catalog.ids_of_class(ItemClass.FACILITY)[0]

    # a transaction holds at most one item of each demographic attribute, so
    # no antecedent is longer than the number of those attributes
    n_demographic = sum(a.item_class is ItemClass.DEMOGRAPHIC for a in catalog.attributes)
    levels = mine_frequent(
        db,
        config.min_support_count,
        max_size=min(config.max_antecedent_size, n_demographic) + 1,
        leaf_from=first_facility,
    )
    counts = {ci.items: ci.count for level in levels for ci in level.itemsets}
    # joint / antecedent >= floor, cross-multiplied
    floor_num = config.min_confidence.numerator
    floor_den = config.min_confidence.denominator

    rules: list[Rule] = []
    for level in levels[1:]:
        for ci in level.itemsets:
            consequent = ci.items[-1]
            if consequent < first_facility:
                continue
            antecedent = ci.items[:-1]
            n_antecedent = counts[antecedent]
            if ci.count * floor_den < floor_num * n_antecedent:
                continue
            rules.append(Rule(antecedent, (consequent,), n_antecedent, ci.count, db.size))
    return tuple(rules)


def canonical_sort(rules: Iterable[Rule]) -> tuple[Rule, ...]:
    """Order rules by confidence (descending, exact), then antecedent size,
    then antecedent item ids, then consequent item ids. Total and stable.

    Confidence is compared as the integer ``joint * s // antecedent``, with
    ``s`` the square of the largest antecedent count N among the rules. The
    key is exact: two different ratios a/b and c/d with b, d <= N differ by
    at least 1/(b*d) >= 1/s, so scaled by s they lie at least 1 apart and
    their floors keep their order, while equal ratios scale to equal keys.
    """
    ordered = list(rules)
    s = max([r.antecedent_count for r in ordered], default=1) ** 2
    ordered.sort(
        key=lambda r: (
            -(r.joint_count * s // r.antecedent_count),
            len(r.antecedent),
            r.antecedent,
            r.consequent,
        )
    )
    return tuple(ordered)
