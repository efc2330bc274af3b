"""Datalog substrate: terms, AST, parser, storage, and static analysis.

This package implements everything the paper assumes as background
(section 1.1): function-free Horn rules, programs ``P = (Q, EDB, IDB)``,
and the structural notions (chain programs, derivation trees live in
:mod:`repro.engine.provenance`) the optimizations are stated over.
"""

from .ast import Atom, Program, Rule, Span, atom, rule
from .database import Database, Relation
from .errors import (
    ArityError,
    DerivedInputError,
    DurabilityError,
    EvaluationError,
    ParseError,
    RecoveryError,
    ReproError,
    SafetyError,
    TransformError,
    ValidationError,
)
from .parser import (
    load_facts,
    parse,
    parse_atom,
    parse_rule,
    read_facts,
    split_facts,
)
from .terms import Constant, FreshVariables, Term, Variable, fresh_variable, term
from .unify import Substitution, skolemize, unify

__all__ = [
    "Atom",
    "Program",
    "Rule",
    "Span",
    "atom",
    "rule",
    "Database",
    "Relation",
    "Constant",
    "Variable",
    "Term",
    "term",
    "fresh_variable",
    "FreshVariables",
    "parse",
    "parse_atom",
    "parse_rule",
    "split_facts",
    "read_facts",
    "load_facts",
    "Substitution",
    "unify",
    "skolemize",
    "ReproError",
    "ParseError",
    "ValidationError",
    "ArityError",
    "DerivedInputError",
    "SafetyError",
    "EvaluationError",
    "DurabilityError",
    "RecoveryError",
    "TransformError",
]
