"""Static analysis: paper-grounded diagnostics and pipeline invariants.

Two layers:

- **Program lints** (:mod:`repro.analysis.lints`): what does the
  optimizer see in this program?  Errors for violated pipeline
  preconditions (safety, arity, stratification, a defined query),
  warnings for almost-certain mistakes (undefined body predicates,
  unreachable rules, Cartesian products), and infos for the paper's
  optimizations as they will apply (existential positions / Lemma 2.2,
  boolean subqueries / Lemma 3.1, the Theorem 3.3 monadic rewrite).
- **Abstract interpretation** (:mod:`repro.analysis.absint` +
  :mod:`repro.analysis.domains`): a monotone-framework fixpoint
  analyzer over the adorned program's SCC condensation running three
  domains — typed sorts (DL018–DL020), measured cardinality sketches
  (DL021–DL022), and boundedness/derivability (DL023–DL024).  The CLI
  front end is ``repro analyze``.
- **Pass-contract sanitizer** (:mod:`repro.analysis.validate`): each
  pipeline pass publishes an invariant over its output (adornment
  consistency, partition-ness of the component split, arity coherence
  after projection, hidden-link canonicality of argument projections,
  plan slot-map coherence); ``optimize(..., validate=True)`` — the CLI
  ``--validate`` flag — asserts them after every pass and raises a
  structured :class:`InvariantViolation` naming the pass and the rule.

The CLI front end is ``repro lint``; the oracle suites arm the
sanitizer so every differential run also checks pipeline contracts.
"""

from .absint import AnalysisResult, analyze_program, default_domains
from .diagnostics import CODES, CodeInfo, Diagnostic, LintReport, Severity
from .domains import (
    BoundednessDomain,
    CardinalityDomain,
    SortDomain,
    load_profiles,
    save_profiles,
)
from .lints import adorn_or_none, lint_program, warning_lints
from .validate import (
    InvariantViolation,
    check_adorned_program,
    check_argument_projections,
    check_compiled_program,
    check_component_partition,
    check_pass,
    check_split_anchoring,
    validate_result,
)

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "LintReport",
    "Severity",
    "lint_program",
    "warning_lints",
    "adorn_or_none",
    "AnalysisResult",
    "analyze_program",
    "default_domains",
    "SortDomain",
    "CardinalityDomain",
    "BoundednessDomain",
    "save_profiles",
    "load_profiles",
    "InvariantViolation",
    "check_adorned_program",
    "check_argument_projections",
    "check_compiled_program",
    "check_component_partition",
    "check_pass",
    "check_split_anchoring",
    "validate_result",
]
