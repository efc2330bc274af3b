"""Bottom-up evaluation engine: plans, fixpoints, provenance, statistics.

Public entry point: :func:`evaluate`.

>>> from repro.datalog import parse, Database
>>> from repro.engine import evaluate
>>> program = parse('''
...     tc(X, Y) :- edge(X, Y).
...     tc(X, Y) :- edge(X, Z), tc(Z, Y).
...     ?- tc(1, Y).
... ''')
>>> db = Database.from_dict({"edge": [(1, 2), (2, 3)]})
>>> sorted(evaluate(program, db).answers())
[(2,), (3,)]
"""

from .cost import (
    AdaptiveReplanner,
    BoundCostModel,
    RelationProfile,
    bucket_size,
    profile_database,
    rule_intermediate_bound,
)
from .durability import (
    DurabilityConfig,
    DurableLog,
    WriteAheadLog,
    list_snapshots,
    load_snapshot,
    read_wal,
)
from .evaluator import (
    EngineOptions,
    EvalResult,
    answers_of,
    evaluate,
    run_prepared,
    working_database,
)
from .incremental import IncrementalSession
from .recovery import RecoveryReport, recover
from .prepared import (
    PreparedProgram,
    clear_prepared_cache,
    prepare,
    prepared_cache_stats,
)
from .faults import (
    WAL_CRASH_POINTS,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    InjectedUnitError,
    WalCrash,
    parse_fault_specs,
)
from .governor import Governor, Guard, ResourceExhausted
from .kernel import (
    KernelError,
    clear_kernel_cache,
    kernel_cache_stats,
    kernel_source,
    rule_kernel,
)
from .plan import CompiledRule, DeltaIndex, LiteralPlan, compile_rule, order_body
from .provenance import DerivationTree, Justification, derivation_tree
from .scheduler import EvalUnit, build_units, run_seeded_unit
from .statistics import EvalStats
from .topdown import TopDownResult, evaluate_topdown

__all__ = [
    "EngineOptions",
    "EvalResult",
    "evaluate",
    "run_prepared",
    "working_database",
    "answers_of",
    "IncrementalSession",
    "DurabilityConfig",
    "DurableLog",
    "WriteAheadLog",
    "read_wal",
    "load_snapshot",
    "list_snapshots",
    "recover",
    "RecoveryReport",
    "WalCrash",
    "WAL_CRASH_POINTS",
    "PreparedProgram",
    "prepare",
    "prepared_cache_stats",
    "clear_prepared_cache",
    "Governor",
    "Guard",
    "ResourceExhausted",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedUnitError",
    "parse_fault_specs",
    "CompiledRule",
    "DeltaIndex",
    "LiteralPlan",
    "compile_rule",
    "order_body",
    "BoundCostModel",
    "AdaptiveReplanner",
    "RelationProfile",
    "profile_database",
    "bucket_size",
    "rule_intermediate_bound",
    "KernelError",
    "kernel_source",
    "rule_kernel",
    "kernel_cache_stats",
    "clear_kernel_cache",
    "DerivationTree",
    "Justification",
    "derivation_tree",
    "EvalUnit",
    "build_units",
    "run_seeded_unit",
    "EvalStats",
    "TopDownResult",
    "evaluate_topdown",
]
