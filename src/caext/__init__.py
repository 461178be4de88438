"""caext: an SMT solver for the quantifier-free theory of extensional
arrays with constant-array initializers, over finite index and element
sorts.

The solver decides satisfiability by lemmas on demand: a ground core
enumerates candidate interpretations of the scalar skeleton, and an
array engine propagates reads and constant-array defaults through
store chains and equalities, refuting bad candidates with theory
lemmas until the formula is solved or refuted.
"""

from .engine import (
    Configuration,
    ConflictInfo,
    SolveResult,
    SolveStats,
    build_model,
    check_conflicts,
    check_sat,
    init_steps,
    propagate_fixpoint,
)
from .errors import (
    BoundsExceeded,
    CaextError,
    IllDefinedModel,
    InternalError,
    ParseError,
    ResourceLimit,
    SortError,
    SortMismatch,
    UnassignedConstant,
    UndefinedStep,
    UnknownSymbolError,
)
from .flatten import FlatResult, flatten
from .ground import solve_ground
from .parser import Script, parse
from .printer import print_model, print_script, print_term
from .model import (
    ArrayValue,
    Model,
    ValidationResult,
    complete_model,
    eval_term,
    validate_model,
    zero_value,
)
from .oracle import (
    OracleResult,
    ValidityResult,
    interpretation_count,
    oracle_solve,
    oracle_valid,
)
from .terms import (
    Kind,
    Sort,
    SortKind,
    Term,
    TermManager,
    domain_size,
    free_constants,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration", "ConflictInfo", "SolveResult", "SolveStats",
    "build_model", "check_conflicts", "check_sat", "init_steps",
    "propagate_fixpoint",
    "BoundsExceeded", "CaextError", "IllDefinedModel", "InternalError",
    "ParseError", "ResourceLimit", "SortError", "SortMismatch",
    "UnassignedConstant", "UndefinedStep", "UnknownSymbolError",
    "FlatResult", "flatten",
    "solve_ground",
    "Script", "parse",
    "print_model", "print_script", "print_term",
    "ArrayValue", "Model", "ValidationResult", "complete_model", "eval_term",
    "validate_model", "zero_value",
    "OracleResult", "ValidityResult",
    "interpretation_count", "oracle_solve", "oracle_valid",
    "Kind", "Sort", "SortKind", "Term", "TermManager", "domain_size",
    "free_constants", "substitute",
    "__version__",
]
