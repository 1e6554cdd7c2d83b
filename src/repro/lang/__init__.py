"""repro.lang — the λᴱ core calculus: syntax, front-end and interpreter.

The interpreter is :mod:`repro.lang.interp`; checking a program never runs
it, so the package does not import it.
"""

from . import ast
from .ast import (
    Branch,
    Const,
    Expr,
    Fix,
    FunctionDef,
    Lambda,
    LetApp,
    LetIn,
    LetOp,
    LetPure,
    Match,
    Program,
    Ret,
    Value,
    Var,
    count_branches,
    count_operator_applications,
    free_variables,
)
from .desugar import (
    BUILTIN_PURE_OPS,
    DesugarError,
    Desugarer,
    Resolution,
    desugar_expression,
    desugar_program,
)
from .lexer import LexError, Token, tokenize
from .parser import parse_expression, parse_program

__all__ = [
    "ast",
    "Branch",
    "Const",
    "Expr",
    "Fix",
    "FunctionDef",
    "Lambda",
    "LetApp",
    "LetIn",
    "LetOp",
    "LetPure",
    "Match",
    "Program",
    "Ret",
    "Value",
    "Var",
    "count_branches",
    "count_operator_applications",
    "free_variables",
    "BUILTIN_PURE_OPS",
    "DesugarError",
    "Desugarer",
    "Resolution",
    "desugar_expression",
    "desugar_program",
    "LexError",
    "Token",
    "tokenize",
    "parse_expression",
    "parse_program",
]
