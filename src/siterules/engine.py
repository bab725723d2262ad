"""Level-wise frequent-itemset mining over vertical bit vectors.

Raw transactions are touched once, when the database's vertical index is
built; all counting afterwards is word-level intersection plus popcount on
per-item transaction bitsets. Candidates come grouped by their size-k
prefix; each group's prefix bitset is built once, as the intersection of
its items' vectors, and each candidate is counted by intersecting it with
one item vector. No bitset outlives its prefix group, so working memory
holds a couple of bitsets, whatever the number of frequent itemsets.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .datamodel import Frozen, TransactionDatabase, record


@record
class CountedItemset(NamedTuple):
    items: tuple[int, ...]
    count: int


class FrequentLevel(Frozen):
    """All frequent itemsets of one size (``itemsets``), sorted
    lexicographically by item ids."""

    __slots__ = _fields = ("k", "itemsets")
    k: int
    itemsets: tuple[CountedItemset, ...]

    def __init__(self, k: int, itemsets: tuple[CountedItemset, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "itemsets", itemsets)


def count_support(db: TransactionDatabase, items: Iterable[int]) -> int:
    """Number of transactions containing every item of ``items``.

    The empty itemset is contained in every transaction, so its count is the
    database size.
    """
    ids = tuple(items)
    n = db.catalog.n_items
    for i in ids:
        if not 0 <= i < n:
            raise ValueError(f"item id {i} outside catalog of size {n}")
    if not ids:
        return db.size
    vec = db.vertical_index[ids[0]]
    for i in ids[1:]:
        vec &= db.vertical_index[i]
    return vec.bit_count()


def generate_candidates(
    level: FrequentLevel, *, leaf_from: Optional[int] = None
) -> list[tuple[int, ...]]:
    """Join frequent k-itemsets sharing their first k-1 items, then prune.

    A join result survives only if every size-k subset is itself frequent.
    With ``leaf_from`` set, an itemset whose last item id is at least
    ``leaf_from`` is never the left side of a join, so no candidate holds two
    such items. Input must be sorted lexicographically; output is sorted and
    duplicate free by construction.
    """
    sets = [ci.items for ci in level.itemsets]
    frequent = set(sets)
    out: list[tuple[int, ...]] = []
    for i, left in enumerate(sets):
        if leaf_from is not None and left[-1] >= leaf_from:
            continue
        prefix = left[:-1]
        for j in range(i + 1, len(sets)):
            right = sets[j]
            if right[:-1] != prefix:
                break
            cand = left + (right[-1],)
            # left and right are the two drop-one subsets keeping the shared
            # prefix; the remaining ones drop an item inside the prefix.
            for p in range(len(cand) - 2):
                if cand[:p] + cand[p + 1:] not in frequent:
                    break
            else:
                out.append(cand)
    return out


def mine_frequent(
    db: TransactionDatabase,
    min_count: int,
    max_size: Optional[int] = None,
    *,
    leaf_from: Optional[int] = None,
) -> list[FrequentLevel]:
    """All frequent itemsets, level by level, up to ``max_size`` if given.

    Level 1 holds every item whose vector popcount reaches ``min_count``;
    each further level is generated by join+prune and counted by
    intersection with the item vectors. Candidates sharing a prefix (their
    first k items) arrive together, so each prefix's bitset is built once
    per group from the item vectors, and nothing of a level is stored but
    its counts.
    Returns only the non-empty levels. Output is deterministic regardless of
    transaction order.

    With ``leaf_from`` set, only itemsets holding at most one item id of at
    least ``leaf_from`` (necessarily their last) are mined; these are exactly
    the frequent itemsets of that shape. The shape is anti-monotone: every
    subset of such an itemset has it too, so the subset prune stays exact.
    """
    if db.size == 0:
        raise ValueError("cannot mine an empty database")
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    index = db.vertical_index
    singles = [
        CountedItemset((i,), vec.bit_count())
        for i, vec in enumerate(index)
        if vec.bit_count() >= min_count
    ]
    levels: list[FrequentLevel] = []
    current = FrequentLevel(1, tuple(singles))

    while current.itemsets:
        levels.append(current)
        if max_size is not None and current.k >= max_size:
            break
        kept = []
        prefix: tuple[int, ...] = ()
        vec = 0
        for cand in generate_candidates(current, leaf_from=leaf_from):
            left = cand[:-1]
            if left != prefix:
                vec = index[left[0]]
                for i in left[1:]:
                    vec &= index[i]
                prefix = left
            count = (vec & index[cand[-1]]).bit_count()
            if count >= min_count:
                kept.append(CountedItemset(cand, count))
        current = FrequentLevel(current.k + 1, tuple(kept))
    return levels
