"""The persistent memory-cell library (Example 4.3): ``read`` / ``write``."""

from __future__ import annotations

from .. import smt
from ..smt.sorts import INT, UNIT, Sort
from ..lang.interp import StuckError
from ..sfa import symbolic
from ..sfa.signatures import OperatorRegistry
from ..sfa.symbolic import Sfa
from ..types.context import BuiltinContext, PureOpContext
from ..types.rtypes import FunType, HatType, base
from .base import Library


def ever_written_predicate(operators: OperatorRegistry) -> Sfa:
    """♦⟨write _⟩ — the cell has been initialised."""
    return symbolic.eventually(symbolic.event(operators["write"]))


def _single_event(precondition: Sfa, event: Sfa) -> Sfa:
    return symbolic.concat(precondition, symbolic.and_(event, symbolic.last()))


def make_memcell(value_sort: Sort = INT, *, name: str = "MemCell") -> Library:
    operators = OperatorRegistry()
    write = operators.declare("write", [("v", value_sort)], UNIT)
    read = operators.declare("read", [], value_sort)

    v_param = smt.var("v", value_sort)
    delta = BuiltinContext()

    delta.add(
        "write",
        FunType(
            "v",
            base(value_sort),
            HatType(
                precondition=symbolic.any_trace(),
                result=base(UNIT),
                postcondition=_single_event(
                    symbolic.any_trace(), symbolic.event_pinned(write, {"v": v_param})
                ),
            ),
        ),
    )

    initialised = ever_written_predicate(operators)
    delta.add(
        "read",
        HatType(
            precondition=initialised,
            result=base(value_sort),
            postcondition=_single_event(initialised, symbolic.event(read)),
        ),
    )

    def write_rule(trace, args):
        return ()

    def read_rule(trace, args):
        event = trace.last_event("write")
        if event is None:
            raise StuckError("read from an uninitialised cell")
        return event.args[0]

    return Library(
        name=name,
        operators=operators,
        delta=delta,
        pure_ops=PureOpContext(),
        model_rules={"write": write_rule, "read": read_rule},
    )
