"""Concrete effect events and traces.

The operational semantics of λᴱ (Fig. 3 of the paper) is defined over traces:
finite lists of events ``op v̄ = v`` recording each effectful call together
with its result.  This module provides the runtime representation of those
traces, used by the interpreter, by the dynamic invariant checker and by the
property-based tests that validate the Fundamental Theorem empirically.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from ..record import FrozenRecord


class StuckError(RuntimeError):
    """Raised when evaluation gets stuck (e.g. ``get`` on an absent key): no
    rule of a library's effect model reduces ``op v̄`` under the trace."""


class Event(FrozenRecord):
    """A single effect event ``op args = result``."""

    __slots__ = ("op", "args", "result")

    def __init__(self, op: str, args: tuple[Any, ...], result: Any) -> None:
        self.op = op
        self.args = args
        self.result = result

    def __str__(self) -> str:
        rendered_args = " ".join(repr(a) for a in self.args)
        return f"{self.op} {rendered_args} = {self.result!r}".replace("  ", " ")


class Trace:
    """An immutable sequence of events with the paper's list operations."""

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._events = tuple(events)

    # -- construction -------------------------------------------------------------
    @staticmethod
    def empty() -> "Trace":
        return Trace()

    def append(self, event: Event) -> "Trace":
        return Trace(self._events + (event,))

    def extend(self, other: "Trace") -> "Trace":
        return Trace(self._events + other._events)

    # -- observation --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index) -> Event:
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        inner = "; ".join(str(e) for e in self._events)
        return f"[{inner}]"

    @property
    def events(self) -> tuple[Event, ...]:
        return self._events

    def suffix(self, start: int) -> "Trace":
        return Trace(self._events[start:])

    # -- queries used by the concrete library models -------------------------------
    def last_event(self, op: str, predicate=None) -> Optional[Event]:
        """The most recent event of operator ``op`` satisfying ``predicate``."""
        for event in reversed(self._events):
            if event.op == op and (predicate is None or predicate(event)):
                return event
        return None

    def any_event(self, op: str, predicate=None) -> bool:
        return self.last_event(op, predicate) is not None

    def filter(self, op: str) -> list[Event]:
        return [e for e in self._events if e.op == op]


def event(op: str, *args: Any, result: Any = ()) -> Event:
    """Convenience constructor: ``event("put", key, value, result=())``."""
    return Event(op, tuple(args), result)
