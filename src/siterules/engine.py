"""Level-wise frequent-itemset mining over vertical bit vectors.

Raw transactions are touched once, when the database's vertical index is
built; all counting afterwards is word-level intersection plus popcount on
per-item transaction bitsets. The join gives each frequent k-itemset it
extends the sorted list of last items that survive the prune (one set
intersection per prefix item); that itemset's bitset is built once, as the
intersection of its items' vectors, and each candidate is counted by
intersecting it with one item vector. No bitset outlives its left itemset,
so working memory holds a couple of bitsets, whatever the number of
frequent itemsets.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .datamodel import TransactionDatabase


class CountedItemset(NamedTuple):
    items: tuple[int, ...]
    count: int


class FrequentLevel(NamedTuple):
    """All frequent itemsets of one size (``itemsets``), sorted
    lexicographically by item ids."""

    k: int
    itemsets: tuple[CountedItemset, ...]


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


def _joins(
    level: FrequentLevel, leaf_from: Optional[int]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each k-itemset ``left`` of ``level`` that starts a join, with the
    sorted last items ``y`` whose candidate ``left + (y,)`` survives the prune.

    The level's itemsets sharing a prefix (all but their last item) form one
    sorted run of last items. A join pairs ``left`` with every later itemset
    of its run. A drop-one subset of ``left + (y,)`` that keeps the prefix is
    ``left`` or its partner; the one that drops prefix item p is frequent iff
    ``y`` is a last item of the run whose prefix is ``left`` without p, so
    each prefix item prunes by one set intersection. Only lefts with a
    surviving candidate are yielded, in level order.
    """
    runs: dict[tuple[int, ...], list[int]] = {}
    for ci in level.itemsets:
        runs.setdefault(ci.items[:-1], []).append(ci.items[-1])
    for prefix, lasts in runs.items():
        for n, last in enumerate(lasts):
            # lasts ascend, so every later left also ends in a leaf item
            if leaf_from is not None and last >= leaf_from:
                break
            ys = lasts[n + 1:]
            left = prefix + (last,)
            if prefix and ys:
                keep = set(ys)
                for p in range(len(prefix)):
                    keep.intersection_update(runs.get(left[:p] + left[p + 1:], ()))
                ys = sorted(keep)
            if ys:
                yield left, ys


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
    return [left + (y,) for left, ys in _joins(level, leaf_from) for y in ys]


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
    intersection with the item vectors. Each itemset that starts a join
    arrives once with the last items of its surviving candidates, so its
    bitset is built once from the item vectors, each candidate costs one
    intersection and a popcount, and a candidate's tuple is built only if it
    is kept. Nothing of a level is stored but its counts.
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
    singles = []
    for i, vec in enumerate(index):
        count = vec.bit_count()
        if count >= min_count:
            singles.append(CountedItemset((i,), count))
    levels: list[FrequentLevel] = []
    current = FrequentLevel(1, tuple(singles))

    while current.itemsets:
        levels.append(current)
        if max_size is not None and current.k >= max_size:
            break
        kept = []
        for left, ys in _joins(current, leaf_from):
            vec = index[left[0]]
            for i in left[1:]:
                vec &= index[i]
            for y in ys:
                count = (vec & index[y]).bit_count()
                if count >= min_count:
                    kept.append(CountedItemset(left + (y,), count))
        current = FrequentLevel(current.k + 1, tuple(kept))
    return levels
