"""The persistent key-value store library (Sec. 2 / Example 3.1 / Example 4.2).

Operators::

    put    : Key -> Value -> unit
    exists : Key -> bool
    get    : Key -> Value

The HAT signatures mirror Example 4.2: ``put`` runs in any context and
appends exactly one ``put`` event; ``exists`` is an intersection type whose
two cases discriminate on whether the key has been put before; ``get``
requires the key to exist.  When the ADT's invariant depends on *what kind*
of value is currently stored (the FileSystem benchmark), ``get`` can be
declared as an intersection over a partition of the value sort described by
method predicates (``isDir`` / ``isFile`` / ``isDel``), which corresponds to
a library signature specialised by the library developer as discussed in
Sec. 4.1.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .. import smt
from ..smt.sorts import BOOL, UNIT, Sort
from ..sfa import symbolic
from ..sfa.events import StuckError
from ..sfa.signatures import EventSignature, OperatorRegistry
from ..sfa.symbolic import Sfa
from ..types.context import BuiltinContext, PureOpContext
from ..types.rtypes import FunType, HatType, Intersection, RefinementType, base, nu
from .base import Library

#: A "kind" case for ``get``: a name plus a qualifier builder over the value term.
KindCase = tuple[str, Callable[[smt.Term], smt.Term]]


def exists_predicate(operators: OperatorRegistry, key: smt.Term) -> Sfa:
    """P_exists(key) ≐ ♦⟨put ∼key _⟩."""
    put = operators["put"]
    return symbolic.eventually(symbolic.event_pinned(put, {"key": key}))


def stored_kind_predicate(
    operators: OperatorRegistry,
    key: smt.Term,
    positive: Callable[[smt.Term], smt.Term],
    negative: Callable[[smt.Term], smt.Term],
) -> Sfa:
    """♦(⟨put ∼key v | pos(v)⟩ ∧ ◯ □ ¬⟨put ∼key v | neg(v)⟩).

    The paper's ``P_isDir`` / ``P_isFile`` shapes: the key has been stored with
    a value satisfying ``pos`` and never re-stored afterwards with a value
    satisfying ``neg``.
    """
    put = operators["put"]
    key_var, value_var = put.arg_vars
    established = symbolic.event(put, smt.and_(smt.eq(key_var, key), positive(value_var)))
    violated = symbolic.event(put, smt.and_(smt.eq(key_var, key), negative(value_var)))
    return symbolic.eventually(
        symbolic.and_(established, symbolic.next_(symbolic.globally(symbolic.not_(violated))))
    )


def _single_event(precondition: Sfa, event: Sfa) -> Sfa:
    """``precondition ; (event ∧ LAST)`` — the common postcondition shape."""
    return symbolic.concat(precondition, symbolic.and_(event, symbolic.last()))


def make_kvstore(
    key_sort: Sort,
    value_sort: Sort,
    *,
    name: str = "KVStore",
    get_kinds: Sequence[KindCase] | None = None,
) -> Library:
    """Build the KVStore library over the given key and value sorts."""
    operators = OperatorRegistry()
    put = operators.declare("put", [("key", key_sort), ("value", value_sort)], UNIT)
    exists = operators.declare("exists", [("key", key_sort)], BOOL)
    get = operators.declare("get", [("key", key_sort)], value_sort)

    key_param = smt.var("key", key_sort)
    value_param = smt.var("value", value_sort)
    delta = BuiltinContext()

    # put : key -> value -> [⊤*] unit [⊤* ; ⟨put ∼key ∼value⟩ ∧ LAST]
    put_event = symbolic.event_pinned(put, {"key": key_param, "value": value_param})
    delta.add(
        "put",
        FunType(
            "key",
            base(key_sort),
            FunType(
                "value",
                base(value_sort),
                HatType(
                    precondition=symbolic.any_trace(),
                    result=base(UNIT),
                    postcondition=_single_event(symbolic.any_trace(), put_event),
                ),
            ),
        ),
    )

    # exists : key -> ([P_exists] {ν=true} [...]) ⊓ ([¬P_exists] {ν=false} [...])
    p_exists = exists_predicate(operators, key_param)
    exists_true = symbolic.event_pinned(exists, {"key": key_param}, result=smt.TRUE)
    exists_false = symbolic.event_pinned(exists, {"key": key_param}, result=smt.FALSE)
    delta.add(
        "exists",
        FunType(
            "key",
            base(key_sort),
            Intersection(
                (
                    HatType(
                        precondition=p_exists,
                        result=RefinementType(BOOL, smt.eq(nu(BOOL), smt.TRUE)),
                        postcondition=_single_event(p_exists, exists_true),
                    ),
                    HatType(
                        precondition=symbolic.not_(p_exists),
                        result=RefinementType(BOOL, smt.eq(nu(BOOL), smt.FALSE)),
                        postcondition=_single_event(symbolic.not_(p_exists), exists_false),
                    ),
                )
            ),
        ),
    )

    # get : key -> ...
    if get_kinds:
        cases = []
        for _, qualifier in get_kinds:
            others = [q for n, q in get_kinds if q is not qualifier]
            negative = lambda v, others=others: smt.or_(*(o(v) for o in others))
            precondition = stored_kind_predicate(operators, key_param, qualifier, negative)
            result = RefinementType(value_sort, qualifier(nu(value_sort)))
            get_event = symbolic.event(
                get,
                smt.and_(
                    smt.eq(get.arg_vars[0], key_param), qualifier(get.result_var)
                ),
            )
            cases.append(
                HatType(
                    precondition=precondition,
                    result=result,
                    postcondition=_single_event(precondition, get_event),
                )
            )
        get_type: object = Intersection(tuple(cases))
    else:
        get_event = symbolic.event_pinned(get, {"key": key_param})
        get_type = HatType(
            precondition=p_exists,
            result=base(value_sort),
            postcondition=_single_event(p_exists, get_event),
        )
    delta.add("get", FunType("key", base(key_sort), get_type))

    # -- concrete trace semantics (Example 3.1) -----------------------------------------
    def put_rule(trace, args):
        return ()

    def exists_rule(trace, args):
        key = args[0]
        return trace.any_event("put", lambda e: e.args[0] == key)

    def get_rule(trace, args):
        key = args[0]
        event = trace.last_event("put", lambda e: e.args[0] == key)
        if event is None:
            raise StuckError(f"get on a key that was never put: {key!r}")
        return event.args[1]

    return Library(
        name=name,
        operators=operators,
        delta=delta,
        pure_ops=PureOpContext(),
        model_rules={"put": put_rule, "exists": exists_rule, "get": get_rule},
    )
