"""Hash-consed terms and formulas for the SMT substrate.

Terms form a single algebra covering both first-order terms (variables,
constants, uninterpreted function applications, linear arithmetic) and
formulas (boolean connectives, comparisons, universally quantified axioms).
Every node is interned, so structural equality is pointer equality and terms
can be freely used as dictionary keys.

The smart constructors perform light normalisation (flattening of ``and`` /
``or``, absorption of ``true`` / ``false``, double-negation elimination,
constant folding on ground arithmetic) which keeps downstream components —
CNF conversion, literal collection for automata minterms — small and
predictable.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from ..record import FrozenRecord
from .sorts import BOOL, INT, Sort

# ---------------------------------------------------------------------------
# Function declarations
# ---------------------------------------------------------------------------


class FuncDecl(FrozenRecord):
    """An uninterpreted function or method-predicate symbol."""

    __slots__ = ("name", "arg_sorts", "result_sort", "is_method_predicate")

    def __init__(
        self,
        name: str,
        arg_sorts: tuple[Sort, ...],
        result_sort: Sort,
        is_method_predicate: bool = False,
    ) -> None:
        self.name = name
        self.arg_sorts = arg_sorts
        self.result_sort = result_sort
        self.is_method_predicate = is_method_predicate

    def __repr__(self) -> str:  # pragma: no cover - trivial
        args = ", ".join(s.name for s in self.arg_sorts)
        return f"{self.name}({args}) -> {self.result_sort.name}"

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


_DECL_CACHE: dict[tuple[str, tuple[Sort, ...], Sort], FuncDecl] = {}


def declare(
    name: str,
    arg_sorts: Sequence[Sort],
    result_sort: Sort,
    *,
    method_predicate: bool = False,
) -> FuncDecl:
    """Declare (or fetch) a function symbol.

    Redeclaration with an incompatible signature raises ``ValueError``.
    """
    key = (name, tuple(arg_sorts), result_sort)
    for (other_name, other_args, other_res), decl in _DECL_CACHE.items():
        if other_name == name and (other_args, other_res) != (key[1], key[2]):
            raise ValueError(
                f"function {name} already declared with a different signature"
            )
    existing = _DECL_CACHE.get(key)
    if existing is not None:
        return existing
    decl = FuncDecl(name, tuple(arg_sorts), result_sort, method_predicate)
    _DECL_CACHE[key] = decl
    return decl


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

# Node kinds.  Formula-valued kinds always have sort BOOL.
VAR = "var"
INT_CONST = "int"
BOOL_CONST = "bool"
DATA_CONST = "data"  # named constant of an uninterpreted sort
APP = "app"
NOT = "not"
AND = "and"
OR = "or"
IMPLIES = "implies"
IFF = "iff"
EQ = "eq"
LT = "lt"
LE = "le"
ADD = "add"
SUB = "sub"
NEG = "neg"
MUL = "mul"  # multiplication by an integer literal (kept linear)
FORALL = "forall"

_ARITH_KINDS = {ADD, SUB, NEG, MUL, INT_CONST}
_CONNECTIVES = {NOT, AND, OR, IMPLIES, IFF}


class Term:
    """An interned term.  Instances must be created via the constructors below."""

    __slots__ = ("kind", "sort", "children", "payload", "_id", "__weakref__")

    _counter = itertools.count()

    def __init__(self, kind: str, sort: Sort, children: tuple["Term", ...], payload):
        self.kind = kind
        self.sort = sort
        self.children = children
        self.payload = payload
        self._id = next(Term._counter)

    # Interning guarantees pointer equality for structurally equal terms, so
    # the default identity-based __eq__/__hash__ are what we want.

    @property
    def term_id(self) -> int:
        return self._id

    # -- convenience observers -------------------------------------------------
    @property
    def is_true(self) -> bool:
        return self.kind == BOOL_CONST and self.payload is True

    @property
    def is_false(self) -> bool:
        return self.kind == BOOL_CONST and self.payload is False

    @property
    def is_formula(self) -> bool:
        return self.sort is BOOL

    @property
    def name(self) -> str:
        if self.kind == VAR or self.kind == DATA_CONST:
            return self.payload[0]
        if self.kind == APP:
            return self.payload.name
        raise AttributeError(f"term of kind {self.kind} has no name")

    @property
    def decl(self) -> FuncDecl:
        if self.kind != APP:
            raise AttributeError("not an application")
        return self.payload

    @property
    def value(self):
        if self.kind in (INT_CONST, BOOL_CONST):
            return self.payload
        raise AttributeError("not a literal constant")

    def __repr__(self) -> str:
        return pretty(self)

    # -- traversal ---------------------------------------------------------------
    def walk(self) -> Iterator["Term"]:
        """Pre-order traversal (descends under quantifiers)."""
        stack = [self]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node._id in seen:
                continue
            seen.add(node._id)
            yield node
            stack.extend(node.children)

    def free_vars(self) -> set["Term"]:
        """All free variables in the term (quantified variables are excluded)."""
        bound: set[Term] = set()
        out: set[Term] = set()
        _free_vars(self, bound, out)
        return out


def _free_vars(term: Term, bound: set[Term], out: set[Term]) -> None:
    if term.kind == VAR:
        if term not in bound:
            out.add(term)
        return
    if term.kind == FORALL:
        binders = set(term.payload)
        newly = binders - bound
        bound |= newly
        _free_vars(term.children[0], bound, out)
        bound -= newly
        return
    for child in term.children:
        _free_vars(child, bound, out)


_TERM_CACHE: dict[tuple, Term] = {}


def _intern(kind: str, sort: Sort, children: tuple[Term, ...], payload) -> Term:
    if kind == APP:
        payload_key: object = payload
    elif kind == FORALL:
        payload_key = tuple(v._id for v in payload)
    else:
        payload_key = payload
    key = (kind, sort.name, tuple(c._id for c in children), payload_key)
    existing = _TERM_CACHE.get(key)
    if existing is not None:
        return existing
    term = Term(kind, sort, children, payload)
    _TERM_CACHE[key] = term
    return term


# ---------------------------------------------------------------------------
# Constructors: atoms and constants
# ---------------------------------------------------------------------------

TRUE = _intern(BOOL_CONST, BOOL, (), True)
FALSE = _intern(BOOL_CONST, BOOL, (), False)


def var(name: str, sort: Sort) -> Term:
    """A free variable.  Variables with the same name and sort are identical."""
    return _intern(VAR, sort, (), (name, sort.name))


def int_const(value: int) -> Term:
    return _intern(INT_CONST, INT, (), int(value))


def bool_const(value: bool) -> Term:
    return TRUE if value else FALSE


def data_const(name: str, sort: Sort) -> Term:
    """A named constant of an uninterpreted sort (e.g. the root path)."""
    if not sort.is_uninterpreted:
        raise ValueError("data_const requires an uninterpreted sort")
    return _intern(DATA_CONST, sort, (), (name, sort.name))


def apply(decl: FuncDecl, *args: Term) -> Term:
    if len(args) != decl.arity:
        raise ValueError(f"{decl.name} expects {decl.arity} arguments, got {len(args)}")
    for arg, expected in zip(args, decl.arg_sorts):
        if arg.sort is not expected:
            raise ValueError(
                f"argument {arg!r} of {decl.name} has sort {arg.sort.name}, "
                f"expected {expected.name}"
            )
    return _intern(APP, decl.result_sort, tuple(args), decl)


# ---------------------------------------------------------------------------
# Constructors: boolean connectives
# ---------------------------------------------------------------------------


def _require_formula(*terms: Term) -> None:
    for t in terms:
        if not t.is_formula:
            raise ValueError(f"expected a formula, got {t!r} of sort {t.sort.name}")


def not_(phi: Term) -> Term:
    _require_formula(phi)
    if phi.is_true:
        return FALSE
    if phi.is_false:
        return TRUE
    if phi.kind == NOT:
        return phi.children[0]
    return _intern(NOT, BOOL, (phi,), None)


def and_(*phis: Term) -> Term:
    _require_formula(*phis)
    flat: list[Term] = []
    seen: set[int] = set()
    for phi in phis:
        parts = phi.children if phi.kind == AND else (phi,)
        for part in parts:
            if part.is_false:
                return FALSE
            if part.is_true or part._id in seen:
                continue
            seen.add(part._id)
            flat.append(part)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda t: t._id)
    return _intern(AND, BOOL, tuple(flat), None)


def or_(*phis: Term) -> Term:
    _require_formula(*phis)
    flat: list[Term] = []
    seen: set[int] = set()
    for phi in phis:
        parts = phi.children if phi.kind == OR else (phi,)
        for part in parts:
            if part.is_true:
                return TRUE
            if part.is_false or part._id in seen:
                continue
            seen.add(part._id)
            flat.append(part)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda t: t._id)
    return _intern(OR, BOOL, tuple(flat), None)


def implies(lhs: Term, rhs: Term) -> Term:
    _require_formula(lhs, rhs)
    if lhs.is_true:
        return rhs
    if lhs.is_false or rhs.is_true:
        return TRUE
    if rhs.is_false:
        return not_(lhs)
    return _intern(IMPLIES, BOOL, (lhs, rhs), None)


def iff(lhs: Term, rhs: Term) -> Term:
    _require_formula(lhs, rhs)
    if lhs is rhs:
        return TRUE
    if lhs.is_true:
        return rhs
    if rhs.is_true:
        return lhs
    if lhs.is_false:
        return not_(rhs)
    if rhs.is_false:
        return not_(lhs)
    return _intern(IFF, BOOL, (lhs, rhs), None)


def forall(variables: Sequence[Term], body: Term) -> Term:
    _require_formula(body)
    for v in variables:
        if v.kind != VAR:
            raise ValueError("forall binders must be variables")
    if not variables:
        return body
    return _intern(FORALL, BOOL, (body,), tuple(variables))


# ---------------------------------------------------------------------------
# Constructors: atoms over terms
# ---------------------------------------------------------------------------


def eq(lhs: Term, rhs: Term) -> Term:
    if lhs.sort is not rhs.sort:
        raise ValueError(
            f"cannot equate terms of different sorts {lhs.sort.name} / {rhs.sort.name}"
        )
    if lhs is rhs:
        return TRUE
    if lhs.kind == INT_CONST and rhs.kind == INT_CONST:
        return bool_const(lhs.payload == rhs.payload)
    if lhs.kind == BOOL_CONST and rhs.kind == BOOL_CONST:
        return bool_const(lhs.payload == rhs.payload)
    if lhs.kind == DATA_CONST and rhs.kind == DATA_CONST:
        return bool_const(lhs.payload == rhs.payload)
    if lhs.is_formula and rhs.is_formula:
        return iff(lhs, rhs)
    # orient for canonicity
    if rhs._id < lhs._id:
        lhs, rhs = rhs, lhs
    return _intern(EQ, BOOL, (lhs, rhs), None)


def _require_int(*terms: Term) -> None:
    for t in terms:
        if t.sort is not INT:
            raise ValueError(f"expected an Int term, got {t!r}")


def lt(lhs: Term, rhs: Term) -> Term:
    _require_int(lhs, rhs)
    if lhs.kind == INT_CONST and rhs.kind == INT_CONST:
        return bool_const(lhs.payload < rhs.payload)
    return _intern(LT, BOOL, (lhs, rhs), None)


def le(lhs: Term, rhs: Term) -> Term:
    _require_int(lhs, rhs)
    if lhs is rhs:
        return TRUE
    if lhs.kind == INT_CONST and rhs.kind == INT_CONST:
        return bool_const(lhs.payload <= rhs.payload)
    return _intern(LE, BOOL, (lhs, rhs), None)


def gt(lhs: Term, rhs: Term) -> Term:
    return lt(rhs, lhs)


def ge(lhs: Term, rhs: Term) -> Term:
    return le(rhs, lhs)


def add(*terms: Term) -> Term:
    _require_int(*terms)
    const = 0
    rest: list[Term] = []
    for t in terms:
        if t.kind == INT_CONST:
            const += t.payload
        else:
            rest.append(t)
    if not rest:
        return int_const(const)
    parts = tuple(rest + ([int_const(const)] if const else []))
    if len(parts) == 1:
        return parts[0]
    return _intern(ADD, INT, parts, None)


def sub(lhs: Term, rhs: Term) -> Term:
    _require_int(lhs, rhs)
    if lhs.kind == INT_CONST and rhs.kind == INT_CONST:
        return int_const(lhs.payload - rhs.payload)
    return _intern(SUB, INT, (lhs, rhs), None)


def neg(term: Term) -> Term:
    _require_int(term)
    if term.kind == INT_CONST:
        return int_const(-term.payload)
    return _intern(NEG, INT, (term,), None)


def mul(coeff: int, term: Term) -> Term:
    _require_int(term)
    if coeff == 0:
        return int_const(0)
    if coeff == 1:
        return term
    if term.kind == INT_CONST:
        return int_const(coeff * term.payload)
    return _intern(MUL, INT, (term,), coeff)


# ---------------------------------------------------------------------------
# Substitution and pretty printing
# ---------------------------------------------------------------------------


def substitute(term: Term, mapping: dict[Term, Term]) -> Term:
    """Simultaneously substitute variables (or arbitrary subterms) in ``term``."""
    if not mapping:
        return term
    cache: dict[int, Term] = {}

    def go(node: Term) -> Term:
        hit = mapping.get(node)
        if hit is not None:
            return hit
        cached = cache.get(node._id)
        if cached is not None:
            return cached
        if not node.children:
            cache[node._id] = node
            return node
        new_children = tuple(go(c) for c in node.children)
        if all(a is b for a, b in zip(new_children, node.children)):
            result = node
        else:
            result = _rebuild(node, new_children)
        cache[node._id] = result
        return result

    return go(term)


def _rebuild(node: Term, children: tuple[Term, ...]) -> Term:
    kind = node.kind
    if kind == APP:
        return apply(node.payload, *children)
    if kind == NOT:
        return not_(children[0])
    if kind == AND:
        return and_(*children)
    if kind == OR:
        return or_(*children)
    if kind == IMPLIES:
        return implies(*children)
    if kind == IFF:
        return iff(*children)
    if kind == EQ:
        return eq(*children)
    if kind == LT:
        return lt(*children)
    if kind == LE:
        return le(*children)
    if kind == ADD:
        return add(*children)
    if kind == SUB:
        return sub(*children)
    if kind == NEG:
        return neg(children[0])
    if kind == MUL:
        return mul(node.payload, children[0])
    if kind == FORALL:
        return forall(node.payload, children[0])
    raise AssertionError(f"unexpected kind {kind}")


_INFIX = {EQ: "==", LT: "<", LE: "<=", ADD: "+", SUB: "-", IMPLIES: "==>", IFF: "<=>"}


def pretty(term: Term) -> str:
    kind = term.kind
    if kind == VAR or kind == DATA_CONST:
        return term.payload[0]
    if kind == INT_CONST:
        return str(term.payload)
    if kind == BOOL_CONST:
        return "true" if term.payload else "false"
    if kind == APP:
        if not term.children:
            return term.payload.name
        return f"{term.payload.name}({', '.join(pretty(c) for c in term.children)})"
    if kind == NOT:
        return f"!({pretty(term.children[0])})"
    if kind == AND:
        return "(" + " && ".join(pretty(c) for c in term.children) + ")"
    if kind == OR:
        return "(" + " || ".join(pretty(c) for c in term.children) + ")"
    if kind in _INFIX:
        lhs, rhs = term.children
        return f"({pretty(lhs)} {_INFIX[kind]} {pretty(rhs)})"
    if kind == NEG:
        return f"-({pretty(term.children[0])})"
    if kind == MUL:
        return f"{term.payload}*{pretty(term.children[0])}"
    if kind == FORALL:
        binders = ", ".join(v.payload[0] for v in term.payload)
        return f"(forall {binders}. {pretty(term.children[0])})"
    raise AssertionError(f"unexpected kind {kind}")


# ---------------------------------------------------------------------------
# Literal / atom utilities shared with the SFA minterm machinery
# ---------------------------------------------------------------------------


def is_atom(term: Term) -> bool:
    """An atom is a boolean term with no boolean connectives at the root."""
    return term.is_formula and term.kind not in _CONNECTIVES and term.kind != FORALL


def atoms(term: Term) -> set[Term]:
    """All atoms occurring in a (quantifier-free) formula."""
    out: set[Term] = set()

    def go(node: Term) -> None:
        if is_atom(node):
            if node.kind != BOOL_CONST:
                out.add(node)
            return
        if node.kind == FORALL:
            go(node.children[0])
            return
        for child in node.children:
            go(child)

    go(term)
    return out


def evaluate(term: Term, assignment: dict[Term, bool]) -> Optional[bool]:
    """Evaluate a formula under a (partial) truth assignment to its atoms.

    Returns ``None`` when the assignment does not determine the value.
    """
    if term.is_true:
        return True
    if term.is_false:
        return False
    if is_atom(term):
        return assignment.get(term)
    if term.kind == NOT:
        inner = evaluate(term.children[0], assignment)
        return None if inner is None else not inner
    if term.kind == AND:
        result: Optional[bool] = True
        for child in term.children:
            val = evaluate(child, assignment)
            if val is False:
                return False
            if val is None:
                result = None
        return result
    if term.kind == OR:
        result = False
        for child in term.children:
            val = evaluate(child, assignment)
            if val is True:
                return True
            if val is None:
                result = None
        return result
    if term.kind == IMPLIES:
        lhs = evaluate(term.children[0], assignment)
        rhs = evaluate(term.children[1], assignment)
        if lhs is False or rhs is True:
            return True
        if lhs is True and rhs is False:
            return False
        return None
    if term.kind == IFF:
        lhs = evaluate(term.children[0], assignment)
        rhs = evaluate(term.children[1], assignment)
        if lhs is None or rhs is None:
            return None
        return lhs == rhs
    raise ValueError(f"cannot evaluate {term!r}")
