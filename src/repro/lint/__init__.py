"""simlint: a static analyzer for the repo's own DES discipline.

Every scaling claim this reproduction makes rests on deterministic
simulation: goldens are byte-identical, bench scenarios pin exact event
counts, and chaos is a pure function of the seed.  Those invariants
used to be guarded only *dynamically* -- a stray ``time.time()``, an
unseeded ``random.Random()`` or set-ordered iteration in a report path
slipped through until a golden flaked.  simlint enforces the rules
*statically*, before runtime ever sees a violation:

* :mod:`repro.lint.framework` -- the rule registry, pragma-based
  suppression (``# simlint: allow[rule-id] -- reason``), per-path rule
  configuration, file discovery and text/JSON rendering;
* :mod:`repro.lint.rules` -- the repo-specific rule catalog (wall-clock
  bans in sim-clock code, seeded + namespaced RNG, sorted directory
  listings, no set-order iteration, no float ``==`` on sim timestamps,
  no mutable defaults in spec layers, no swallowed kernel failures,
  the telemetry null-object wall);
* :mod:`repro.lint.cli` -- the ``presto lint`` entry point with an
  exit-code gate for CI.

The analyzer is stdlib-``ast`` only (no third-party dependency), in the
same spirit as ``tools/diagnosis_coverage.py``.  See ``docs/lint.md``
for the rule catalog and the pragma syntax.
"""

from __future__ import annotations

from .framework import (
    DEFAULT_CONFIG,
    Finding,
    LintConfig,
    PathRules,
    Rule,
    RULES,
    findings_to_json,
    lint_file,
    lint_paths,
    lint_source,
    render_text,
    rule_catalog,
)
from . import rules as _rules  # noqa: F401  (registers the catalog)

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "PathRules",
    "Rule",
    "RULES",
    "findings_to_json",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_text",
    "rule_catalog",
]
