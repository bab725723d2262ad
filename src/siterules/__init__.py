"""Constrained association-rule mining over website-facility checklist data.

The package mines demographic => facility rules with exact integer-ratio
metrics, tiers them by confidence, renders reproduction-grade reports, and
ships a reconstructed study corpus to validate the whole pipeline against a
published 68-rule reference list.
"""

from .classify import ClassifiedRule, classify_confidence, classify_rules
from .datamodel import (
    AttributeDef,
    AttributeKind,
    ItemCatalog,
    ItemClass,
    ItemDef,
    MiningConfig,
    Percent,
    Rule,
    RuleClass,
    Transaction,
    TransactionDatabase,
)
from .engine import CountedItemset, FrequentLevel, count_support, generate_candidates, mine_frequent
from .ingest import (
    GoldenRule,
    Schema,
    bin_numeric,
    parse_golden_rules,
    parse_schema,
    parse_transactions,
    render_transactions_csv,
)
from .report import format_percent, frequency_csv, render_rules, stats_table
from .rules import canonical_sort, derive_rules

__version__ = "0.1.0"

__all__ = [
    "AttributeDef",
    "AttributeKind",
    "ClassifiedRule",
    "CountedItemset",
    "FrequentLevel",
    "GoldenRule",
    "ItemCatalog",
    "ItemClass",
    "ItemDef",
    "MiningConfig",
    "Percent",
    "Rule",
    "RuleClass",
    "Schema",
    "Transaction",
    "TransactionDatabase",
    "bin_numeric",
    "canonical_sort",
    "classify_confidence",
    "classify_rules",
    "count_support",
    "derive_rules",
    "format_percent",
    "frequency_csv",
    "generate_candidates",
    "mine_frequent",
    "parse_golden_rules",
    "parse_schema",
    "parse_transactions",
    "render_rules",
    "render_transactions_csv",
    "stats_table",
]
