"""Rendering: two-decimal percent formatting, frequency tables, rule output.

Two formatting modes exist because the published tables this package
reproduces mix conventions: the detailed rule list truncates to two decimals
while the frequency table rounds. Rule output therefore defaults to truncate
and frequency tables to round. All rendering is byte-deterministic.
"""

from __future__ import annotations

from typing import Iterable, Literal, NamedTuple, Optional, Sequence

from .classify import ClassifiedRule
from .datamodel import ItemCatalog, ItemClass, RuleClass, TransactionDatabase

FormatMode = Literal["truncate", "round"]


def percent_bp(numerator: int, denominator: int, mode: FormatMode = "truncate") -> int:
    """``numerator / denominator`` in hundredths of a percent, as an integer.

    ``truncate`` drops everything beyond the second decimal; ``round`` rounds
    half away from zero. Every two-decimal figure the package writes or
    checks is this number.
    """
    scaled = 10_000 * numerator
    if mode == "truncate":
        return scaled // denominator
    return (2 * scaled + denominator) // (2 * denominator)


def format_percent(numerator: int, denominator: int, mode: FormatMode = "truncate") -> str:
    """Render ``numerator / denominator`` as a percentage with exactly two
    decimals (:func:`percent_bp`); pure integer arithmetic either way."""
    bp = percent_bp(numerator, denominator, mode)
    return f"{bp // 100}.{bp % 100:02d}"


class GroupColumn(NamedTuple):
    """One frequency-table column: a label and the item ids whose union of
    transactions forms the group. Aggregates merge several items."""

    label: str
    item_ids: tuple[int, ...]


class FrequencyRow(NamedTuple):
    facility: str
    cells: tuple[Optional[tuple[int, int]], ...]


class FrequencyTable(NamedTuple):
    columns: tuple[GroupColumn, ...]
    rows: tuple[FrequencyRow, ...]


def stats_table(
    db: TransactionDatabase,
    aggregates: Sequence[tuple[str, Sequence[int]]] = (),
) -> FrequencyTable:
    """Per-facility presence shares: overall, then per demographic group.

    The cell for facility f and group g is the pair (count(f and g),
    count(g)); the overall column's group is the whole database. A group
    with no members yields ``None``, which renders as an empty cell.
    ``aggregates`` adds merged columns (label, item ids) whose members are
    the union of the listed items' transactions. The database is non-empty:
    ``stats`` refuses an empty one.
    """
    catalog = db.catalog
    columns = [GroupColumn("total", ())]
    columns += [
        GroupColumn(catalog.item_label(i), (i,))
        for i in catalog.ids_of_class(ItemClass.DEMOGRAPHIC)
    ]
    columns += [GroupColumn(label, tuple(ids)) for label, ids in aggregates]

    all_mask = (1 << db.size) - 1
    group_vectors = [
        all_mask if not col.item_ids else _union_vector(db, col.item_ids) for col in columns
    ]
    groups = [(gvec, gvec.bit_count()) for gvec in group_vectors]
    rows = []
    for fid in catalog.ids_of_class(ItemClass.FACILITY):
        fvec = db.vertical_index[fid]
        cells = [
            ((fvec & gvec).bit_count(), size) if size else None for gvec, size in groups
        ]
        rows.append(FrequencyRow(catalog.items[fid].attribute, tuple(cells)))
    return FrequencyTable(tuple(columns), tuple(rows))


def _union_vector(db: TransactionDatabase, ids: Sequence[int]) -> int:
    vec = 0
    for i in ids:
        vec |= db.vertical_index[i]
    return vec


def frequency_csv(table: FrequencyTable, mode: FormatMode = "round") -> str:
    """CSV form of a frequency table; empty groups render as empty cells."""
    header = ["facility", "total_pct"] + [col.label for col in table.columns[1:]]
    lines = [",".join(header)]
    for row in table.rows:
        rendered = ["" if c is None else format_percent(*c, mode) for c in row.cells]
        lines.append(",".join([row.facility] + rendered))
    return "\n".join(lines) + "\n"


# The published frequency table's seven demographic group columns. A
# column's members share one attribute, and an attribute's columns partition
# the database.
GROUP_DEFS: dict[str, tuple[tuple[str, str], ...]] = {
    "governmental": (("ownership", "governmental"),),
    "private_semiprivate": (("ownership", "private"), ("ownership", "semiprivate")),
    "products": (("industry", "products"),),
    "services": (("industry", "services"),),
    "below10": (("age", "below10"),),
    "11-29": (("age", "11-29"),),
    "above30": (("age", "above30"),),
}

GROUP_COLUMNS = tuple(GROUP_DEFS)


def study_aggregate_groups(catalog: ItemCatalog) -> list[tuple[str, tuple[int, ...]]]:
    """The merged ownership column of the published frequency table, when the
    catalog carries the study's ownership values."""
    wanted = GROUP_DEFS["private_semiprivate"]
    if all(catalog.has_item(a, v) for a, v in wanted):
        return [
            (
                "ownership=private+semiprivate",
                tuple(catalog.item_id(a, v) for a, v in wanted),
            )
        ]
    return []


RULES_HEADER = [
    "rule_id",
    "antecedent",
    "consequent",
    "confidence_pct",
    "coverage_pct",
    "support_pct",
    "class",
]


def render_rules(
    catalog: ItemCatalog,
    classified: Iterable[ClassifiedRule],
    fmt: Literal["csv", "text"] = "csv",
) -> str:
    """Serialize classified rules; ids are 1-based positions in the input.

    CSV percentages use truncate mode to match the convention of the
    published rule list. The text format is an aligned table of the same
    fields.
    """
    labels = [catalog.item_label(i) for i in range(catalog.n_items)]
    tiers = {tier: tier.label for tier in RuleClass}
    rows = []
    for k, entry in enumerate(classified, start=1):
        rule = entry.rule
        joint, antecedent, size = rule.joint_count, rule.antecedent_count, rule.db_size
        rows.append(
            [
                str(k),
                " AND ".join([labels[i] for i in rule.antecedent]),
                labels[rule.consequent[0]],
                format_percent(joint, antecedent),
                format_percent(antecedent, size),
                format_percent(joint, size),
                tiers[entry.rule_class],
            ]
        )
    if fmt == "csv":
        lines = [",".join(RULES_HEADER)] + [",".join(row) for row in rows]
        return "\n".join(lines) + "\n"
    widths = [
        max([len(RULES_HEADER[c])] + [len(row[c]) for row in rows])
        for c in range(len(RULES_HEADER))
    ]
    def line(parts: Sequence[str]) -> str:
        return "  ".join(p.ljust(w) for p, w in zip(parts, widths)).rstrip()
    out = [line(RULES_HEADER), line(["-" * w for w in widths])]
    out += [line(row) for row in rows]
    return "\n".join(out) + "\n"

