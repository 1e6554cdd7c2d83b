"""repro.sfa — symbolic finite automata for Hoare Automata Types.

Public surface:

* :mod:`repro.sfa.events` — concrete events and traces,
* :mod:`repro.sfa.signatures` — effectful operator signatures,
* :mod:`repro.sfa.symbolic` — the symbolic automata formula algebra (events,
  guards, boolean/temporal/regular connectives, the derived ♦ □ LAST forms),
* :mod:`repro.sfa.alphabet` — minterm construction / alphabet transformation,
* :mod:`repro.sfa.derivatives` — nullability and the derivative-step memo,
* :mod:`repro.sfa.batch` — the inclusion decider (a transition-table walk),
* :mod:`repro.sfa.inclusion` — the Algorithm-1 inclusion checker.
"""

from .events import Event, Trace, event
from .signatures import EventSignature, OperatorRegistry
from .symbolic import (
    BOT,
    TOP,
    Sfa,
    accepts,
    and_,
    any_event,
    any_trace,
    concat,
    eventually,
    event as sym_event,
    event_pinned,
    globally,
    guard,
    implies,
    last,
    next_,
    not_,
    or_,
    seq,
    single,
    size,
    substitute,
    until,
)
from .alphabet import Alphabet, AlphabetStats, Character, build_alphabets, collect_literals
from .derivatives import nullable
from .inclusion import InclusionChecker, InclusionResult, InclusionStats

__all__ = [
    "Event",
    "Trace",
    "event",
    "EventSignature",
    "OperatorRegistry",
    "BOT",
    "TOP",
    "Sfa",
    "accepts",
    "and_",
    "any_event",
    "any_trace",
    "concat",
    "eventually",
    "sym_event",
    "event_pinned",
    "globally",
    "guard",
    "implies",
    "last",
    "next_",
    "not_",
    "or_",
    "seq",
    "single",
    "size",
    "substitute",
    "until",
    "Alphabet",
    "AlphabetStats",
    "Character",
    "build_alphabets",
    "collect_literals",
    "nullable",
    "InclusionChecker",
    "InclusionResult",
    "InclusionStats",
]
