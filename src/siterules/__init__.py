"""Constrained association-rule mining over website-facility checklist data.

The package mines demographic => facility rules with exact integer-ratio
metrics, tiers them by confidence, renders reproduction-grade reports, and
ships a reconstructed study corpus to validate the whole pipeline against a
published 68-rule reference list.

Each name is imported from its own module (``siterules.rules``,
``siterules.corpus``, ...); importing the package alone loads none of them.
"""
