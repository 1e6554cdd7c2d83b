"""Common infrastructure for backing stateful libraries.

A :class:`Library` bundles everything a benchmark needs to talk about one
stateful API:

* the operator signatures (for the automata layer),
* the HAT signatures Δ of the effectful operators (Example 4.2),
* the pure helper functions / method predicates and their FOL axioms,
* named constants of the uninterpreted sorts,
* a trace-based effect model (the ``α ⊨ op v̄ ⇓ v`` rules of Example 3.1) and
  concrete interpretations of the method predicates, used by the interpreter
  and the dynamic invariant checks.

Libraries can be combined with :func:`merge_libraries` when an ADT is built
on several stateful APIs at once (e.g. MinSet = Set + MemCell).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from .. import smt
from ..record import Record
from ..sfa.events import StuckError, Trace
from ..sfa.signatures import EventSignature, OperatorRegistry
from ..types.context import BuiltinContext, PureOpContext
from ..types.rtypes import Type

if TYPE_CHECKING:
    from ..lang.interp import EffectModel


class Library(Record):
    """A stateful backing library, both specification- and model-side."""

    __slots__ = (
        "name", "operators", "delta", "pure_ops", "axioms", "constants", "model_rules",
        "pure_impls", "predicate_impls",
    )

    def __init__(
        self,
        name: str,
        operators: OperatorRegistry,
        delta: BuiltinContext,
        pure_ops: PureOpContext,
        axioms: tuple[smt.Axiom, ...] = (),
        constants: Optional[dict[str, smt.Term]] = None,
        model_rules: Optional[dict[str, Callable[[Trace, Sequence[object]], object]]] = None,
        pure_impls: Optional[dict[str, Callable[..., object]]] = None,
        predicate_impls: Optional[dict[str, Callable[..., object]]] = None,
    ) -> None:
        self.name = name
        self.operators = operators
        self.delta = delta
        self.pure_ops = pure_ops
        self.axioms = axioms
        self.constants = {} if constants is None else constants
        #: op name -> callable(trace, args) -> result
        self.model_rules = {} if model_rules is None else model_rules
        #: pure function / method predicate name -> concrete implementation
        self.pure_impls = {} if pure_impls is None else pure_impls
        #: method predicate name -> concrete implementation (for trace acceptance)
        self.predicate_impls = {} if predicate_impls is None else predicate_impls

    # -- effect model -------------------------------------------------------------
    def model(self) -> EffectModel:
        return _RuleBasedModel(self.name, dict(self.model_rules))

    def interpretation(self) -> dict[str, Callable[..., object]]:
        """Concrete meanings of pure functions and predicates (for `sfa.accepts`)."""
        out = dict(self.pure_impls)
        out.update(self.predicate_impls)
        return out

    def effectful_op_names(self) -> list[str]:
        return self.operators.names()


class _RuleBasedModel:
    """An :class:`EffectModel` assembled from per-operator rules."""

    def __init__(self, name: str, rules: Mapping[str, Callable[[Trace, Sequence[object]], object]]):
        self._name = name
        self._rules = dict(rules)

    def apply(self, op: str, trace: Trace, args: Sequence[object]) -> object:
        rule = self._rules.get(op)
        if rule is None:
            raise StuckError(f"library {self._name} has no semantics for operator {op!r}")
        return rule(trace, args)


def merge_libraries(name: str, *libraries: Library) -> Library:
    """Combine several libraries into one (disjoint operator names required)."""
    operators = OperatorRegistry()
    delta = BuiltinContext()
    pure_ops = PureOpContext()
    axioms: list[smt.Axiom] = []
    constants: dict[str, smt.Term] = {}
    model_rules: dict[str, Callable[[Trace, Sequence[object]], object]] = {}
    pure_impls: dict[str, Callable[..., object]] = {}
    predicate_impls: dict[str, Callable[..., object]] = {}

    for library in libraries:
        for signature in library.operators:
            operators.add(signature)
        for op in library.delta.operators():
            delta.add(op, library.delta[op])
        for pure_name in library.pure_ops.names():
            pure_ops.add(library.pure_ops[pure_name])
        axioms.extend(library.axioms)
        constants.update(library.constants)
        model_rules.update(library.model_rules)
        pure_impls.update(library.pure_impls)
        predicate_impls.update(library.predicate_impls)

    return Library(
        name=name,
        operators=operators,
        delta=delta,
        pure_ops=pure_ops,
        axioms=tuple(axioms),
        constants=constants,
        model_rules=model_rules,
        pure_impls=pure_impls,
        predicate_impls=predicate_impls,
    )
