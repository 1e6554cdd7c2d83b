"""Parser for the Mini-ML surface syntax.

The parser produces a small *surface* AST (defined here) which
:mod:`repro.lang.desugar` lowers into the MNF core calculus of
:mod:`repro.lang.ast`.  The grammar covers what the benchmark ADTs need:
top-level (possibly recursive) function definitions, ``let``/``in``,
``if``/``then``/``else``, ``match`` on data constructors, anonymous
functions, application, sequencing with ``;`` and the usual infix operators.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..record import FrozenRecord
from .lexer import LexError, Token, TokenStream, tokenize

# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


class Surface(FrozenRecord):
    """Base class of surface expressions."""

    __slots__ = ()


class SUnit(Surface):
    __slots__ = ()


class SBool(Surface):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value


class SInt(Surface):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class SString(Surface):
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value


class SVar(Surface):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class SApp(Surface):
    __slots__ = ("func", "args")

    def __init__(self, func: Surface, args: tuple[Surface, ...]) -> None:
        self.func = func
        self.args = args


class SIf(Surface):
    __slots__ = ("condition", "then_branch", "else_branch")

    def __init__(self, condition: Surface, then_branch: Surface, else_branch: Surface) -> None:
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch


class SLet(Surface):
    __slots__ = ("name", "bound", "body")

    def __init__(self, name: str, bound: Surface, body: Surface) -> None:
        self.name = name
        self.bound = bound
        self.body = body


class SSeq(Surface):
    __slots__ = ("first", "second")

    def __init__(self, first: Surface, second: Surface) -> None:
        self.first = first
        self.second = second


class SFun(Surface):
    __slots__ = ("param", "param_type", "body")

    def __init__(self, param: str, param_type: Optional[str], body: Surface) -> None:
        self.param = param
        self.param_type = param_type
        self.body = body


class SMatchArm(FrozenRecord):
    __slots__ = ("constructor", "binders", "body")

    def __init__(self, constructor: str, binders: tuple[str, ...], body: Surface) -> None:
        self.constructor = constructor
        self.binders = binders
        self.body = body


class SMatch(Surface):
    __slots__ = ("scrutinee", "arms")

    def __init__(self, scrutinee: Surface, arms: tuple[SMatchArm, ...]) -> None:
        self.scrutinee = scrutinee
        self.arms = arms


class SDefinition(FrozenRecord):
    __slots__ = ("name", "params", "return_type", "body", "recursive")

    def __init__(
        self,
        name: str,
        params: tuple[tuple[str, Optional[str]], ...],
        return_type: Optional[str],
        body: Surface,
        recursive: bool,
    ) -> None:
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.recursive = recursive


class SProgram(FrozenRecord):
    __slots__ = ("definitions",)

    def __init__(self, definitions: tuple[SDefinition, ...]) -> None:
        self.definitions = definitions


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMPARISON_OPS = {"==": "==", "=": "==", "<>": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class Parser:
    def __init__(self, source: str) -> None:
        self.stream = TokenStream(tokenize(source))

    # -- programs -----------------------------------------------------------------
    def parse_program(self) -> SProgram:
        definitions: list[SDefinition] = []
        while not self.stream.exhausted:
            definitions.append(self.parse_definition())
        return SProgram(tuple(definitions))

    def parse_definition(self) -> SDefinition:
        self.stream.expect("keyword", "let")
        recursive = self.stream.accept("keyword", "rec") is not None
        name = self.stream.expect("ident").text
        params: list[tuple[str, Optional[str]]] = []
        while not self.stream.at("symbol", "=") and not self.stream.at("symbol", ":"):
            params.append(self._parse_param())
        return_type: Optional[str] = None
        if self.stream.accept("symbol", ":"):
            return_type = self._parse_type_name()
        self.stream.expect("symbol", "=")
        body = self.parse_expr()
        return SDefinition(name, tuple(params), return_type, body, recursive)

    def _parse_param(self) -> tuple[str, Optional[str]]:
        if self.stream.accept("symbol", "("):
            if self.stream.accept("symbol", ")"):
                return ("_unit", "unit")
            name = self.stream.expect("ident").text
            annotation: Optional[str] = None
            if self.stream.accept("symbol", ":"):
                annotation = self._parse_type_name()
            self.stream.expect("symbol", ")")
            return (name, annotation)
        return (self.stream.expect("ident").text, None)

    def _parse_type_name(self) -> str:
        token = self.stream.peek()
        if token.kind == "ident":
            return self.stream.next().text
        if token.kind == "keyword" and token.text in ("true", "false"):
            raise LexError("expected a type name", token.line, token.column)
        # allow `unit`, `bool`, `int` which lex as identifiers already
        raise LexError(f"expected a type name, found {token.text!r}", token.line, token.column)

    # -- expressions ---------------------------------------------------------------
    def parse_expr(self) -> Surface:
        if self.stream.at("keyword", "let"):
            return self._parse_let()
        if self.stream.at("keyword", "if"):
            return self._parse_if()
        if self.stream.at("keyword", "fun"):
            return self._parse_fun()
        if self.stream.at("keyword", "match"):
            return self._parse_match()
        return self._parse_seq()

    def _parse_let(self) -> Surface:
        self.stream.expect("keyword", "let")
        name = self.stream.expect("ident").text
        self.stream.expect("symbol", "=")
        bound = self.parse_expr()
        self.stream.expect("keyword", "in")
        body = self.parse_expr()
        return SLet(name, bound, body)

    def _parse_if(self) -> Surface:
        self.stream.expect("keyword", "if")
        condition = self.parse_expr()
        self.stream.expect("keyword", "then")
        then_branch = self.parse_expr()
        self.stream.expect("keyword", "else")
        else_branch = self.parse_expr()
        return SIf(condition, then_branch, else_branch)

    def _parse_fun(self) -> Surface:
        self.stream.expect("keyword", "fun")
        param, annotation = self._parse_param()
        self.stream.expect("symbol", "->")
        body = self.parse_expr()
        return SFun(param, annotation, body)

    def _parse_match(self) -> Surface:
        self.stream.expect("keyword", "match")
        scrutinee = self.parse_expr()
        self.stream.expect("keyword", "with")
        arms: list[SMatchArm] = []
        while self.stream.accept("symbol", "|"):
            arms.append(self._parse_arm())
        if not arms:
            token = self.stream.peek()
            raise LexError("match expression needs at least one arm", token.line, token.column)
        return SMatch(scrutinee, tuple(arms))

    def _parse_arm(self) -> SMatchArm:
        token = self.stream.peek()
        if token.kind == "keyword" and token.text in ("true", "false"):
            self.stream.next()
            constructor = token.text
            binders: tuple[str, ...] = ()
        elif token.kind == "symbol" and token.text == "(":
            self.stream.next()
            self.stream.expect("symbol", ")")
            constructor = "unit"
            binders = ()
        else:
            constructor = self.stream.expect("ident").text
            names: list[str] = []
            while self.stream.at("ident") and not self.stream.at("symbol", "->"):
                names.append(self.stream.next().text)
            binders = tuple(names)
        self.stream.expect("symbol", "->")
        body = self.parse_expr()
        return SMatchArm(constructor, binders, body)

    def _parse_seq(self) -> Surface:
        first = self._parse_or()
        if self.stream.accept("symbol", ";"):
            second = self.parse_expr()
            return SSeq(first, second)
        return first

    def _parse_or(self) -> Surface:
        left = self._parse_and()
        while self.stream.at("symbol", "||") or self.stream.at("keyword", "or"):
            self.stream.next()
            right = self._parse_and()
            left = SApp(SVar("||"), (left, right))
        return left

    def _parse_and(self) -> Surface:
        left = self._parse_comparison()
        while self.stream.at("symbol", "&&") or self.stream.at("keyword", "and"):
            self.stream.next()
            right = self._parse_comparison()
            left = SApp(SVar("&&"), (left, right))
        return left

    def _parse_comparison(self) -> Surface:
        left = self._parse_additive()
        token = self.stream.peek()
        if token.kind == "symbol" and token.text in _COMPARISON_OPS:
            self.stream.next()
            right = self._parse_additive()
            return SApp(SVar(_COMPARISON_OPS[token.text]), (left, right))
        return left

    def _parse_additive(self) -> Surface:
        left = self._parse_application()
        while self.stream.at("symbol", "+") or self.stream.at("symbol", "-"):
            op = self.stream.next().text
            right = self._parse_application()
            left = SApp(SVar(op), (left, right))
        return left

    def _parse_application(self) -> Surface:
        if self.stream.at("keyword", "not"):
            self.stream.next()
            operand = self._parse_application()
            return SApp(SVar("not"), (operand,))
        head = self._parse_atom()
        args: list[Surface] = []
        while self._at_atom_start():
            args.append(self._parse_atom())
        if args:
            return SApp(head, tuple(args))
        return head

    def _at_atom_start(self) -> bool:
        token = self.stream.peek()
        if token.kind in ("ident", "int", "string"):
            return True
        if token.kind == "keyword" and token.text in ("true", "false", "begin", "not"):
            return token.text != "not"
        if token.kind == "symbol" and token.text == "(":
            return True
        return False

    def _parse_atom(self) -> Surface:
        token = self.stream.peek()
        if token.kind == "int":
            self.stream.next()
            return SInt(int(token.text))
        if token.kind == "string":
            self.stream.next()
            return SString(token.text)
        if token.kind == "keyword" and token.text in ("true", "false"):
            self.stream.next()
            return SBool(token.text == "true")
        if token.kind == "keyword" and token.text == "begin":
            self.stream.next()
            inner = self.parse_expr()
            self.stream.expect("keyword", "end")
            return inner
        if token.kind == "ident":
            self.stream.next()
            return SVar(token.text)
        if token.kind == "symbol" and token.text == "(":
            self.stream.next()
            if self.stream.accept("symbol", ")"):
                return SUnit()
            inner = self.parse_expr()
            self.stream.expect("symbol", ")")
            return inner
        raise LexError(f"unexpected token {token.text!r}", token.line, token.column)


def parse_program(source: str) -> SProgram:
    return Parser(source).parse_program()


def parse_expression(source: str) -> Surface:
    parser = Parser(source)
    expr = parser.parse_expr()
    if not parser.stream.exhausted:
        token = parser.stream.peek()
        raise LexError(f"unexpected trailing input {token.text!r}", token.line, token.column)
    return expr
