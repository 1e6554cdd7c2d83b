"""A trace-based interpreter for the MNF core calculus.

Implements the operational semantics of Fig. 3: evaluation is performed under
an *effect context* (a trace of previous events); each effectful operator
consults the trace through a library model (the ``α ⊨ op v̄ ⇓ v`` judgement)
and appends the event it produces.  The interpreter is used by the example
programs and by the property-based tests that check, dynamically, that
verified methods preserve their representation invariants (the paper's
Corollary 4.9).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Protocol, Sequence

from ..record import FrozenRecord, Record
# StuckError lives beside Trace so the library models can raise it without
# loading the interpreter; it stays importable from here
from ..sfa.events import Event, StuckError, Trace  # noqa: F401
from . import ast


class EffectModel(Protocol):
    """The semantics of a stateful library, given by trace inspection."""

    def apply(self, op: str, trace: Trace, args: Sequence[object]) -> object:
        """The result of ``op args`` under effect context ``trace``.

        Must raise :class:`StuckError` when no reduction rule applies.
        """


class Closure(FrozenRecord):
    """A function value paired with its defining environment."""

    __slots__ = ("param", "body", "env")

    def __init__(self, param: str, body: ast.Expr, env: Mapping[str, object]) -> None:
        self.param = param
        self.body = body
        self.env = env

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<closure {self.param}>"


class DataValue(FrozenRecord):
    """A constructed datum ``C(v̄)`` (used by list/tree style libraries)."""

    __slots__ = ("constructor", "fields")

    def __init__(self, constructor: str, fields: tuple[object, ...] = ()) -> None:
        self.constructor = constructor
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.fields:
            return self.constructor
        return f"{self.constructor}({', '.join(map(repr, self.fields))})"


#: Default implementations of the built-in pure operators.
BUILTIN_PURE_IMPLS: dict[str, Callable[..., object]] = {
    "==": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
    "not": lambda a: not a,
}


class EvalResult(Record):
    __slots__ = ("value", "trace", "emitted")

    def __init__(self, value: object, trace: Trace, emitted: Trace) -> None:
        self.value = value
        self.trace = trace
        #: the events emitted by this evaluation (suffix of ``trace``)
        self.emitted = emitted


class Interpreter:
    """Evaluates λᴱ programs under an effect model."""

    def __init__(
        self,
        effect_model: EffectModel,
        pure_ops: Mapping[str, Callable[..., object]] | None = None,
        *,
        max_steps: int = 100000,
    ) -> None:
        self.effect_model = effect_model
        self.pure_ops = dict(BUILTIN_PURE_IMPLS)
        if pure_ops:
            self.pure_ops.update(pure_ops)
        self.max_steps = max_steps
        self._steps = 0

    # -- values ----------------------------------------------------------------------
    def eval_value(self, value: ast.Value, env: Mapping[str, object]) -> object:
        if isinstance(value, ast.Const):
            return value.value
        if isinstance(value, ast.Var):
            if value.name not in env:
                raise StuckError(f"unbound variable {value.name!r}")
            return env[value.name]
        if isinstance(value, ast.Lambda):
            return Closure(value.param, value.body, dict(env))
        if isinstance(value, ast.Fix):
            lam = value.body
            closure_env = dict(env)
            closure = Closure(lam.param, lam.body, closure_env)
            closure_env[value.name] = closure
            return closure
        raise TypeError(f"unexpected value {value!r}")

    # -- computations -----------------------------------------------------------------
    def run(
        self,
        expr: ast.Expr,
        env: Mapping[str, object] | None = None,
        trace: Trace | None = None,
    ) -> EvalResult:
        """Evaluate ``expr`` under ``trace``; returns the value and traces."""
        self._steps = 0
        initial = trace if trace is not None else Trace()
        try:
            value, final = self._eval(expr, dict(env or {}), initial)
        except RecursionError as exc:
            raise StuckError("evaluation exceeded Python's recursion depth") from exc
        emitted = Trace(final.events[len(initial) :])
        return EvalResult(value=value, trace=final, emitted=emitted)

    def call(
        self,
        function: object,
        args: Sequence[object],
        trace: Trace | None = None,
    ) -> EvalResult:
        """Apply a closure (curried) to ``args`` under ``trace``."""
        initial = trace if trace is not None else Trace()
        current = initial
        value = function
        try:
            for arg in args:
                if not isinstance(value, Closure):
                    raise StuckError(f"cannot apply non-function value {value!r}")
                env = dict(value.env)
                env[value.param] = arg
                value, current = self._eval(value.body, env, current)
        except RecursionError as exc:
            raise StuckError("evaluation exceeded Python's recursion depth") from exc
        emitted = Trace(current.events[len(initial) :])
        return EvalResult(value=value, trace=current, emitted=emitted)

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise StuckError("evaluation exceeded the step budget (diverging program?)")

    def _eval(self, expr: ast.Expr, env: dict[str, object], trace: Trace) -> tuple[object, Trace]:
        self._tick()
        if isinstance(expr, ast.Ret):
            return self.eval_value(expr.value, env), trace
        if isinstance(expr, ast.LetPure):
            impl = self.pure_ops.get(expr.op)
            if impl is None:
                raise StuckError(f"no implementation for pure operator {expr.op!r}")
            args = [self.eval_value(a, env) for a in expr.args]
            result = impl(*args)
            new_env = dict(env)
            new_env[expr.name] = result
            return self._eval(expr.body, new_env, trace)
        if isinstance(expr, ast.LetOp):
            args = [self.eval_value(a, env) for a in expr.args]
            result = self.effect_model.apply(expr.op, trace, args)
            new_trace = trace.append(Event(expr.op, tuple(args), result))
            new_env = dict(env)
            new_env[expr.name] = result
            return self._eval(expr.body, new_env, new_trace)
        if isinstance(expr, ast.LetApp):
            func = self.eval_value(expr.func, env)
            args = [self.eval_value(a, env) for a in expr.args]
            value: object = func
            current = trace
            for arg in args:
                if not isinstance(value, Closure):
                    raise StuckError(f"cannot apply non-function value {value!r}")
                call_env = dict(value.env)
                call_env[value.param] = arg
                value, current = self._eval(value.body, call_env, current)
            new_env = dict(env)
            new_env[expr.name] = value
            return self._eval(expr.body, new_env, current)
        if isinstance(expr, ast.LetIn):
            value, current = self._eval(expr.bound, env, trace)
            new_env = dict(env)
            new_env[expr.name] = value
            return self._eval(expr.body, new_env, current)
        if isinstance(expr, ast.Match):
            scrutinee = self.eval_value(expr.scrutinee, env)
            branch, bound_values = self._select_branch(expr, scrutinee)
            new_env = dict(env)
            new_env.update(zip(branch.binders, bound_values))
            return self._eval(branch.body, new_env, trace)
        raise TypeError(f"unexpected computation {expr!r}")

    def _select_branch(self, expr: ast.Match, scrutinee: object) -> tuple[ast.Branch, tuple]:
        for branch in expr.branches:
            if branch.constructor == "true" and scrutinee is True:
                return branch, ()
            if branch.constructor == "false" and scrutinee is False:
                return branch, ()
            if branch.constructor == "unit" and scrutinee == ():
                return branch, ()
            if isinstance(scrutinee, DataValue) and scrutinee.constructor == branch.constructor:
                if len(branch.binders) != len(scrutinee.fields):
                    raise StuckError(
                        f"constructor {branch.constructor} expects {len(scrutinee.fields)} "
                        f"fields, pattern binds {len(branch.binders)}"
                    )
                return branch, scrutinee.fields
        raise StuckError(f"no match arm for scrutinee {scrutinee!r}")


# ---------------------------------------------------------------------------
# Running whole programs / modules
# ---------------------------------------------------------------------------


def module_environment(
    program: ast.Program,
    interpreter: Interpreter,
) -> dict[str, object]:
    """Evaluate the top-level definitions of a module into closures.

    Later definitions may reference earlier ones (and themselves when
    declared ``rec``), mirroring OCaml module initialisation order.
    """
    env: dict[str, object] = {}
    for definition in program.definitions:
        value = interpreter.eval_value(definition.as_value(), env)
        env[definition.name] = value
    return env
