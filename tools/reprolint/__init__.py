"""reprolint: AST-based static analysis for simulation-correctness invariants.

Usage::

    python -m tools.reprolint                  # text report, exit 1 on errors
    python -m tools.reprolint --format=json
    python -m tools.reprolint --list-rules
    python -m tools.reprolint --update-baseline

See ``docs/INTERNALS.md`` ("Invariants and how they're enforced") for the
invariant <-> rule <-> sanitizer map and ``README.md`` for the pragma and
baseline workflow.
"""

from .engine import (DEFAULT_BASELINE, REGISTRY, Finding, Report, Rule,
                     load_baseline, rule, run, save_baseline)
from . import rules as _builtin_rules  # noqa: F401  (registers the rules)

__all__ = ["DEFAULT_BASELINE", "REGISTRY", "Finding", "Report", "Rule",
           "load_baseline", "rule", "run", "save_baseline"]
