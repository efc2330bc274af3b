"""The paper's contribution: optimizing existential Datalog queries.

Sub-modules follow the paper's structure:

- :mod:`~repro.core.adornment` — section 2 (existential adornments);
- :mod:`~repro.core.components` — section 3.1 (boolean subqueries / cut);
- :mod:`~repro.core.projection` — section 3.2 (projection pushing);
- :mod:`~repro.core.unit_rules`, :mod:`~repro.core.argument_projection`,
  :mod:`~repro.core.deletion` — section 5 (rule deletion under uniform
  query equivalence);
- :mod:`~repro.core.uniform_equivalence` — Sagiv's decidable baseline;
- :mod:`~repro.core.optimistic` — Theorem 5.2 (optimistic derivations);
- :mod:`~repro.core.pipeline` — the phases composed end-to-end.
"""

from .adornment import (
    Adornment,
    AdornedLiteral,
    AdornedProgram,
    AdornedRule,
    adorn,
    adorned_name,
    query_adornment,
    split_adorned,
)
from .argument_projection import (
    ArgumentProjection,
    head_body_projection,
    identity_projection,
    program_projections,
    query_rooted_summaries,
    summary_closure,
)
from .components import ComponentSplit, split_components
from .deletion import (
    Deletion,
    DeletionReport,
    cascade,
    chase_deletable,
    delete_rules,
    lemma51_deletable,
    lemma53_deletable,
)
from .optimistic import (
    WILDCARD,
    optimistic_answer,
    optimistic_fixpoint,
    theorem52_deletable,
)
from .pipeline import OptimizationResult, optimize
from .projection import project_literal, push_projections
from .subsumption import (
    delete_subsumed,
    homomorphism,
    minimize_rule_bodies,
    subsumed_by_some,
    theta_subsumes,
)
from .uniform_equivalence import (
    literal_deletable_uniform,
    minimize_uniform,
    rule_deletable_uniform,
    uniformly_contains,
    uniformly_equivalent,
)
from .unit_rules import (
    UnitRuleReport,
    add_covering_unit_rules,
    covering_unit_rule,
    is_unit_rule,
)

__all__ = [
    "Adornment",
    "AdornedLiteral",
    "AdornedProgram",
    "AdornedRule",
    "adorn",
    "adorned_name",
    "query_adornment",
    "split_adorned",
    "ArgumentProjection",
    "head_body_projection",
    "identity_projection",
    "program_projections",
    "query_rooted_summaries",
    "summary_closure",
    "ComponentSplit",
    "split_components",
    "Deletion",
    "DeletionReport",
    "cascade",
    "chase_deletable",
    "delete_rules",
    "lemma51_deletable",
    "lemma53_deletable",
    "WILDCARD",
    "optimistic_answer",
    "optimistic_fixpoint",
    "theorem52_deletable",
    "OptimizationResult",
    "optimize",
    "project_literal",
    "push_projections",
    "delete_subsumed",
    "homomorphism",
    "minimize_rule_bodies",
    "subsumed_by_some",
    "theta_subsumes",
    "literal_deletable_uniform",
    "minimize_uniform",
    "rule_deletable_uniform",
    "uniformly_contains",
    "uniformly_equivalent",
    "UnitRuleReport",
    "add_covering_unit_rules",
    "covering_unit_rule",
    "is_unit_rule",
]
