"""Abstract syntax of λᴱ, the core calculus of the paper (Fig. 2).

Programs are kept in *monadic normal form* (MNF): every intermediate
computation is named by a ``let``, the branches of a ``match`` are
computations, and operator/function arguments are values.  The surface
Mini-ML syntax accepted by :mod:`repro.lang.parser` is lowered into this form
by :mod:`repro.lang.desugar`.

Two syntactic classes exist, mirroring the paper:

* **values** — constants, variables, lambdas and fixpoints,
* **computations** — value returns, let-bound pure/effectful operator
  applications, function applications, sequenced computations and pattern
  matches.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..record import FrozenRecord

# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Value(FrozenRecord):
    """Base class of value forms."""

    __slots__ = ()

    def walk(self) -> Iterator["Node"]:
        yield self


class Expr(FrozenRecord):
    """Base class of computation forms."""

    __slots__ = ()

    def walk(self) -> Iterator["Node"]:
        yield self


Node = Value | Expr


class Const(Value):
    """A literal constant: ``()``, booleans, integers, or a named datum.

    Named data (e.g. the root path ``"/"``) carry the surface string; their
    logical sort is resolved against the library declarations during
    verification.
    """

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __repr__(self) -> str:
        if self.value == ():
            return "()"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value)


UNIT = Const(())
TRUE = Const(True)
FALSE = Const(False)


class Var(Value):
    """A program variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


class Lambda(Value):
    """``fun (x : ty) -> body``; the annotation is a surface type name."""

    __slots__ = ("param", "param_type", "body")

    def __init__(self, param: str, param_type: Optional[str], body: "Expr") -> None:
        self.param = param
        self.param_type = param_type
        self.body = body

    def __repr__(self) -> str:
        annotation = f" : {self.param_type}" if self.param_type else ""
        return f"(fun ({self.param}{annotation}) -> {self.body!r})"

    def walk(self) -> Iterator[Node]:
        yield self
        yield from self.body.walk()


class Fix(Value):
    """``fix f. fun x -> e`` — a recursive function value."""

    __slots__ = ("name", "body")

    def __init__(self, name: str, body: Lambda) -> None:
        self.name = name
        self.body = body

    def __repr__(self) -> str:
        return f"(fix {self.name}. {self.body!r})"

    def walk(self) -> Iterator[Node]:
        yield self
        yield from self.body.walk()


# ---------------------------------------------------------------------------
# Computations
# ---------------------------------------------------------------------------


class Ret(Expr):
    """A value used as a (pure, effect-free) computation."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return repr(self.value)

    def walk(self) -> Iterator[Node]:
        yield self
        yield from self.value.walk()


class LetOp(Expr):
    """``let x = op v̄ in e`` — an effectful library operator application."""

    __slots__ = ("name", "op", "args", "body")

    def __init__(self, name: str, op: str, args: tuple[Value, ...], body: Expr) -> None:
        self.name = name
        self.op = op
        self.args = args
        self.body = body

    def __repr__(self) -> str:
        rendered = " ".join(repr(a) for a in self.args)
        return f"let {self.name} = {self.op} {rendered} in\n{self.body!r}"

    def walk(self) -> Iterator[Node]:
        yield self
        for arg in self.args:
            yield from arg.walk()
        yield from self.body.walk()


class LetPure(Expr):
    """``let x = opₚ v̄ in e`` — a pure primitive operator application."""

    __slots__ = ("name", "op", "args", "body")

    def __init__(self, name: str, op: str, args: tuple[Value, ...], body: Expr) -> None:
        self.name = name
        self.op = op
        self.args = args
        self.body = body

    def __repr__(self) -> str:
        rendered = " ".join(repr(a) for a in self.args)
        return f"let {self.name} = {self.op} {rendered} in\n{self.body!r}"

    def walk(self) -> Iterator[Node]:
        yield self
        for arg in self.args:
            yield from arg.walk()
        yield from self.body.walk()


class LetApp(Expr):
    """``let x = v v̄ in e`` — application of a function value."""

    __slots__ = ("name", "func", "args", "body")

    def __init__(self, name: str, func: Value, args: tuple[Value, ...], body: Expr) -> None:
        self.name = name
        self.func = func
        self.args = args
        self.body = body

    def __repr__(self) -> str:
        rendered = " ".join(repr(a) for a in self.args)
        return f"let {self.name} = {self.func!r} {rendered} in\n{self.body!r}"

    def walk(self) -> Iterator[Node]:
        yield self
        yield from self.func.walk()
        for arg in self.args:
            yield from arg.walk()
        yield from self.body.walk()


class LetIn(Expr):
    """``let x = e₁ in e₂`` with a computation on the right-hand side."""

    __slots__ = ("name", "bound", "body")

    def __init__(self, name: str, bound: Expr, body: Expr) -> None:
        self.name = name
        self.bound = bound
        self.body = body

    def __repr__(self) -> str:
        return f"let {self.name} = {self.bound!r} in\n{self.body!r}"

    def walk(self) -> Iterator[Node]:
        yield self
        yield from self.bound.walk()
        yield from self.body.walk()


class Branch(FrozenRecord):
    """One arm of a ``match``: constructor name, binders and body."""

    __slots__ = ("constructor", "binders", "body")

    def __init__(self, constructor: str, binders: tuple[str, ...], body: Expr) -> None:
        self.constructor = constructor
        self.binders = binders
        self.body = body

    def walk(self) -> Iterator[Node]:
        yield from self.body.walk()


class Match(Expr):
    """``match v with | d ȳ -> e ...``."""

    __slots__ = ("scrutinee", "branches")

    def __init__(self, scrutinee: Value, branches: tuple[Branch, ...]) -> None:
        self.scrutinee = scrutinee
        self.branches = branches

    def __repr__(self) -> str:
        arms = " ".join(
            f"| {b.constructor} {' '.join(b.binders)} -> {b.body!r}" for b in self.branches
        )
        return f"match {self.scrutinee!r} with {arms}"

    def walk(self) -> Iterator[Node]:
        yield self
        yield from self.scrutinee.walk()
        for branch in self.branches:
            yield from branch.walk()


# ---------------------------------------------------------------------------
# Top-level programs
# ---------------------------------------------------------------------------


class FunctionDef(FrozenRecord):
    """A top-level binding ``let [rec] f (x : t) ... : t = body``."""

    __slots__ = ("name", "params", "return_type", "body", "recursive")

    def __init__(
        self,
        name: str,
        params: tuple[tuple[str, Optional[str]], ...],
        return_type: Optional[str],
        body: Expr,
        recursive: bool = False,
    ) -> None:
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.recursive = recursive

    def as_value(self) -> Value:
        """The function as a λᴱ value (nested lambdas, wrapped in fix if recursive)."""
        params = list(self.params)
        if not params:
            params = [("_unit", "unit")]
        inner: Value = Lambda(params[-1][0], params[-1][1], self.body)
        for param, annotation in reversed(params[:-1]):
            inner = Lambda(param, annotation, Ret(inner))
        if self.recursive:
            if not isinstance(inner, Lambda):  # pragma: no cover - defensive
                raise TypeError("recursive definitions must be functions")
            return Fix(self.name, inner)
        return inner


class Program(FrozenRecord):
    """A module: an ordered list of top-level function definitions."""

    __slots__ = ("definitions",)

    def __init__(self, definitions: tuple[FunctionDef, ...]) -> None:
        self.definitions = definitions

    def __getitem__(self, name: str) -> FunctionDef:
        for definition in self.definitions:
            if definition.name == name:
                return definition
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(d.name == name for d in self.definitions)

    def names(self) -> list[str]:
        return [d.name for d in self.definitions]


# ---------------------------------------------------------------------------
# Metrics used by the evaluation tables
# ---------------------------------------------------------------------------


def count_branches(expr: Expr) -> int:
    """Number of control-flow paths through a method body (#Branch)."""
    if isinstance(expr, Match):
        return sum(count_branches(branch.body) for branch in expr.branches)
    if isinstance(expr, (LetOp, LetPure, LetApp)):
        return count_branches(expr.body)
    if isinstance(expr, LetIn):
        return max(1, count_branches(expr.bound)) * count_branches(expr.body)
    return 1


def count_operator_applications(expr: Expr) -> int:
    """Number of built-in operator/function applications (#App)."""
    total = 0
    for node in expr.walk():
        if isinstance(node, (LetOp, LetPure, LetApp)):
            total += 1
    return total


def free_variables(node: Node, bound: frozenset[str] = frozenset()) -> set[str]:
    """Free program variables of a value or computation."""
    if isinstance(node, Const):
        return set()
    if isinstance(node, Var):
        return set() if node.name in bound else {node.name}
    if isinstance(node, Lambda):
        return free_variables(node.body, bound | {node.param})
    if isinstance(node, Fix):
        return free_variables(node.body, bound | {node.name})
    if isinstance(node, Ret):
        return free_variables(node.value, bound)
    if isinstance(node, (LetOp, LetPure)):
        out = set()
        for arg in node.args:
            out |= free_variables(arg, bound)
        return out | free_variables(node.body, bound | {node.name})
    if isinstance(node, LetApp):
        out = free_variables(node.func, bound)
        for arg in node.args:
            out |= free_variables(arg, bound)
        return out | free_variables(node.body, bound | {node.name})
    if isinstance(node, LetIn):
        return free_variables(node.bound, bound) | free_variables(
            node.body, bound | {node.name}
        )
    if isinstance(node, Match):
        out = free_variables(node.scrutinee, bound)
        for branch in node.branches:
            out |= free_variables(branch.body, bound | set(branch.binders))
        return out
    raise TypeError(f"unexpected node {node!r}")
