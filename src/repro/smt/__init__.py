"""repro.smt — a from-scratch SMT substrate for the HAT type checker.

The paper discharges its verification conditions with Z3; this package
provides the equivalent functionality used by the reproduction:

* :mod:`repro.smt.sorts` / :mod:`repro.smt.terms` — hash-consed many-sorted
  terms and formulas,
* :mod:`repro.smt.cnf` / :mod:`repro.smt.backends` — Tseitin conversion and
  the incremental DPLL SAT core behind it,
* :mod:`repro.smt.euf` / :mod:`repro.smt.arith` / :mod:`repro.smt.theory` —
  congruence closure, linear integer arithmetic and their combination,
* :mod:`repro.smt.axioms` — ground instantiation of method-predicate lemmas,
* :mod:`repro.smt.solver` — the lazy-SMT facade used everywhere else.
"""

from .sorts import BOOL, INT, Sort, sort, uninterpreted
from .terms import (
    FuncDecl,
    Term,
    add,
    and_,
    apply,
    atoms,
    bool_const,
    data_const,
    declare,
    eq,
    evaluate,
    forall,
    ge,
    gt,
    iff,
    implies,
    int_const,
    is_atom,
    le,
    lt,
    mul,
    neg,
    not_,
    or_,
    sub,
    substitute,
    var,
    FALSE,
    TRUE,
)
from .axioms import Axiom, axiom
from .solver import Solver, SolverStats, is_satisfiable, is_valid

__all__ = [
    "BOOL",
    "INT",
    "Sort",
    "sort",
    "uninterpreted",
    "FuncDecl",
    "Term",
    "add",
    "and_",
    "apply",
    "atoms",
    "bool_const",
    "data_const",
    "declare",
    "eq",
    "evaluate",
    "forall",
    "ge",
    "gt",
    "iff",
    "implies",
    "int_const",
    "is_atom",
    "le",
    "lt",
    "mul",
    "neg",
    "not_",
    "or_",
    "sub",
    "substitute",
    "var",
    "FALSE",
    "TRUE",
    "Axiom",
    "axiom",
    "Solver",
    "SolverStats",
    "is_satisfiable",
    "is_valid",
]
