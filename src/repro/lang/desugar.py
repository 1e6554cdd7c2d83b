"""Lowering the Mini-ML surface syntax into the MNF core calculus.

The transformation performs the usual A-normalisation plus two
simplifications that keep the HAT type checker small:

* nested lets are flattened, so the bound computation of every ``LetIn`` is a
  plain value (``Ret``) — library calls, pure applications and function calls
  each get their own ``LetOp`` / ``LetPure`` / ``LetApp`` binding;
* a ``let x = match ... in e`` is distributed over the match arms, so control
  flow only ever branches at ``Match`` nodes whose continuations are complete
  method suffixes (this is also what makes the paper's per-path checking —
  rule ChkMatch — straightforward).

Application heads are classified against the effectful-operator registry and
the table of pure primitives supplied by the caller; anything else is a
function call (``LetApp``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from ..record import Record
from . import ast
from . import parser as surface

#: Pure primitives that are always available, mirroring Fig. 2's `op`.
BUILTIN_PURE_OPS = (
    "==",
    "<>",
    "<",
    "<=",
    ">",
    ">=",
    "+",
    "-",
    "&&",
    "||",
    "not",
)


class DesugarError(ValueError):
    """Raised when the surface program cannot be lowered."""


class Resolution(Record):
    """How application heads are classified during lowering."""

    __slots__ = ("effectful_ops", "pure_ops")

    def __init__(self, effectful_ops: frozenset[str], pure_ops: frozenset[str]) -> None:
        self.effectful_ops = effectful_ops
        self.pure_ops = pure_ops

    @staticmethod
    def make(
        effectful_ops: Iterable[str] = (),
        pure_ops: Iterable[str] = (),
    ) -> "Resolution":
        return Resolution(
            effectful_ops=frozenset(effectful_ops),
            pure_ops=frozenset(pure_ops) | frozenset(BUILTIN_PURE_OPS),
        )


class _FreshNames:
    def __init__(self, prefix: str = "tmp") -> None:
        self._counter = itertools.count()
        self._prefix = prefix

    def fresh(self, hint: str = "") -> str:
        suffix = f"_{hint}" if hint else ""
        return f"{self._prefix}{next(self._counter)}{suffix}"


# ---------------------------------------------------------------------------
# Renaming (capture avoidance when continuations are pushed under binders)
# ---------------------------------------------------------------------------


def rename_variable(node, old: str, new: str):
    """Rename free occurrences of ``old`` to ``new`` in a core AST node."""
    if isinstance(node, ast.Const):
        return node
    if isinstance(node, ast.Var):
        return ast.Var(new) if node.name == old else node
    if isinstance(node, ast.Lambda):
        if node.param == old:
            return node
        return ast.Lambda(node.param, node.param_type, rename_variable(node.body, old, new))
    if isinstance(node, ast.Fix):
        if node.name == old:
            return node
        return ast.Fix(node.name, rename_variable(node.body, old, new))
    if isinstance(node, ast.Ret):
        return ast.Ret(rename_variable(node.value, old, new))
    if isinstance(node, (ast.LetOp, ast.LetPure)):
        cls = type(node)
        args = tuple(rename_variable(a, old, new) for a in node.args)
        body = node.body if node.name == old else rename_variable(node.body, old, new)
        return cls(node.name, node.op, args, body)
    if isinstance(node, ast.LetApp):
        func = rename_variable(node.func, old, new)
        args = tuple(rename_variable(a, old, new) for a in node.args)
        body = node.body if node.name == old else rename_variable(node.body, old, new)
        return ast.LetApp(node.name, func, args, body)
    if isinstance(node, ast.LetIn):
        bound = rename_variable(node.bound, old, new)
        body = node.body if node.name == old else rename_variable(node.body, old, new)
        return ast.LetIn(node.name, bound, body)
    if isinstance(node, ast.Match):
        scrutinee = rename_variable(node.scrutinee, old, new)
        branches = []
        for branch in node.branches:
            if old in branch.binders:
                branches.append(branch)
            else:
                branches.append(
                    ast.Branch(branch.constructor, branch.binders, rename_variable(branch.body, old, new))
                )
        return ast.Match(scrutinee, tuple(branches))
    raise TypeError(f"unexpected node {node!r}")


class Desugarer:
    """Stateful lowering of one surface program / expression."""

    def __init__(self, resolution: Resolution) -> None:
        self.resolution = resolution
        self.names = _FreshNames()

    # -- public API --------------------------------------------------------------
    def lower_program(self, program: surface.SProgram) -> ast.Program:
        definitions = []
        for definition in program.definitions:
            definitions.append(self.lower_definition(definition))
        return ast.Program(tuple(definitions))

    def lower_definition(self, definition: surface.SDefinition) -> ast.FunctionDef:
        body = self.lower(definition.body)
        return ast.FunctionDef(
            name=definition.name,
            params=definition.params,
            return_type=definition.return_type,
            body=body,
            recursive=definition.recursive,
        )

    # -- the lowering itself -------------------------------------------------------
    def lower(self, expr: surface.Surface) -> ast.Expr:
        if isinstance(expr, surface.SUnit):
            return ast.Ret(ast.UNIT)
        if isinstance(expr, surface.SBool):
            return ast.Ret(ast.TRUE if expr.value else ast.FALSE)
        if isinstance(expr, surface.SInt):
            return ast.Ret(ast.Const(expr.value))
        if isinstance(expr, surface.SString):
            return ast.Ret(ast.Const(expr.value))
        if isinstance(expr, surface.SVar):
            return ast.Ret(ast.Var(expr.name))
        if isinstance(expr, surface.SFun):
            return ast.Ret(ast.Lambda(expr.param, expr.param_type, self.lower(expr.body)))
        if isinstance(expr, surface.SLet):
            bound = self.lower(expr.bound)
            body = self.lower(expr.body)
            return self.bind(bound, expr.name, body)
        if isinstance(expr, surface.SSeq):
            first = self.lower(expr.first)
            second = self.lower(expr.second)
            return self.bind(first, self.names.fresh("seq"), second)
        if isinstance(expr, surface.SIf):
            bindings: list[tuple[str, ast.Expr]] = []
            condition = self.lower_to_value(expr.condition, bindings)
            match_expr = ast.Match(
                condition,
                (
                    ast.Branch("true", (), self.lower(expr.then_branch)),
                    ast.Branch("false", (), self.lower(expr.else_branch)),
                ),
            )
            return self.wrap(bindings, match_expr)
        if isinstance(expr, surface.SMatch):
            bindings = []
            scrutinee = self.lower_to_value(expr.scrutinee, bindings)
            branches = tuple(
                ast.Branch(arm.constructor, arm.binders, self.lower(arm.body))
                for arm in expr.arms
            )
            return self.wrap(bindings, ast.Match(scrutinee, branches))
        if isinstance(expr, surface.SApp):
            return self.lower_application(expr)
        raise DesugarError(f"cannot lower surface expression {expr!r}")

    def lower_application(self, expr: surface.SApp) -> ast.Expr:
        bindings: list[tuple[str, ast.Expr]] = []
        args = tuple(self.lower_to_value(a, bindings) for a in expr.args)
        result_name = self.names.fresh("r")
        tail = ast.Ret(ast.Var(result_name))

        head = expr.func
        if isinstance(head, surface.SVar):
            name = head.name
            if name in self.resolution.effectful_ops:
                call: ast.Expr = ast.LetOp(result_name, name, args, tail)
                return self.wrap(bindings, call)
            if name in self.resolution.pure_ops:
                call = ast.LetPure(result_name, name, args, tail)
                return self.wrap(bindings, call)
            func_value: ast.Value = ast.Var(name)
        else:
            func_value = self.lower_to_value(head, bindings)
        call = ast.LetApp(result_name, func_value, args, tail)
        return self.wrap(bindings, call)

    def lower_to_value(
        self, expr: surface.Surface, bindings: list[tuple[str, ast.Expr]]
    ) -> ast.Value:
        if isinstance(expr, surface.SUnit):
            return ast.UNIT
        if isinstance(expr, surface.SBool):
            return ast.TRUE if expr.value else ast.FALSE
        if isinstance(expr, surface.SInt):
            return ast.Const(expr.value)
        if isinstance(expr, surface.SString):
            return ast.Const(expr.value)
        if isinstance(expr, surface.SVar) and expr.name not in self.resolution.effectful_ops:
            return ast.Var(expr.name)
        if isinstance(expr, surface.SFun):
            return ast.Lambda(expr.param, expr.param_type, self.lower(expr.body))
        computation = self.lower(expr)
        if isinstance(computation, ast.Ret):
            return computation.value
        name = self.names.fresh("v")
        bindings.append((name, computation))
        return ast.Var(name)

    # -- plumbing --------------------------------------------------------------------
    def wrap(self, bindings: list[tuple[str, ast.Expr]], tail: ast.Expr) -> ast.Expr:
        result = tail
        for name, computation in reversed(bindings):
            result = self.bind(computation, name, result)
        return result

    def bind(self, computation: ast.Expr, name: str, continuation: ast.Expr) -> ast.Expr:
        """Sequence ``computation`` before ``continuation``, binding its result to ``name``.

        Keeps the program in the flattened MNF shape: ``LetIn`` only ever binds
        values, and match distributes over subsequent code.
        """
        if isinstance(computation, ast.Ret):
            return ast.LetIn(name, computation, continuation)
        if isinstance(computation, (ast.LetOp, ast.LetPure, ast.LetApp, ast.LetIn)):
            binder = computation.name
            continuation = self._avoid_capture(binder, continuation, computation)
            rebound = self.bind(computation.body, name, continuation)
            if isinstance(computation, ast.LetOp):
                return ast.LetOp(computation.name, computation.op, computation.args, rebound)
            if isinstance(computation, ast.LetPure):
                return ast.LetPure(computation.name, computation.op, computation.args, rebound)
            if isinstance(computation, ast.LetApp):
                return ast.LetApp(computation.name, computation.func, computation.args, rebound)
            return ast.LetIn(computation.name, computation.bound, rebound)
        if isinstance(computation, ast.Match):
            branches = tuple(
                ast.Branch(
                    branch.constructor,
                    branch.binders,
                    self.bind(branch.body, name, continuation),
                )
                for branch in computation.branches
            )
            return ast.Match(computation.scrutinee, branches)
        raise DesugarError(f"cannot sequence computation {computation!r}")

    def _avoid_capture(
        self, binder: str, continuation: ast.Expr, computation: ast.Expr
    ) -> ast.Expr:
        """``continuation`` will be placed under ``binder``; rename if it clashes."""
        if binder not in ast.free_variables(continuation):
            return continuation
        # The continuation references an *outer* variable with the same name as
        # this intermediate binder, so rename the binder instead — but since
        # the binder occurs inside `computation`, it is simpler (and safe) to
        # rename the continuation's free variable away only when the binder was
        # introduced by us.  Intermediate binders are always fresh, so a clash
        # can only involve user-written lets; rename the inner binder.
        fresh = self.names.fresh(binder)
        raise DesugarError(
            f"shadowing of {binder!r} across a sequenced computation is not supported; "
            f"rename one of the bindings (suggested fresh name: {fresh})"
        )


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def desugar_program(
    source: str,
    *,
    effectful_ops: Iterable[str] = (),
    pure_ops: Iterable[str] = (),
) -> ast.Program:
    resolution = Resolution.make(effectful_ops, pure_ops)
    parsed = surface.parse_program(source)
    return Desugarer(resolution).lower_program(parsed)


def desugar_expression(
    source: str,
    *,
    effectful_ops: Iterable[str] = (),
    pure_ops: Iterable[str] = (),
) -> ast.Expr:
    resolution = Resolution.make(effectful_ops, pure_ops)
    parsed = surface.parse_expression(source)
    return Desugarer(resolution).lower(parsed)
