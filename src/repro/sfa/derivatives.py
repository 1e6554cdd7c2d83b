"""Brzozowski derivatives of symbolic automata: the pieces the walk shares.

Once the alphabet transformation has produced a finite set of characters
(minterms), the language of a symbolic LTLf/regex formula becomes regular
over that alphabet, and derivatives decide it without an explicit automaton:

* the states are (hash-consed, ACI-normalised) formulas,
* the transition on a character is the derivative of the state formula with
  respect to that character (:meth:`repro.sfa.batch.TransitionTable.row`),
* a state is accepting iff its formula is *nullable* (accepts the empty
  trace).

This matches the role of ``AlphaTrans`` + FA construction in the paper's
Algorithm 1/2 while never materialising the automata.  The module holds what
the table walk shares: :func:`nullable`, qualifier evaluation under a minterm,
and the resource error.
"""

from __future__ import annotations

from typing import Mapping

from .. import smt
from ..smt.terms import Term
from . import symbolic
from .symbolic import Sfa


class CompilationError(RuntimeError):
    """Raised when a derivative walk exceeds its budget or cannot evaluate."""


def nullable(formula: Sfa) -> bool:
    """Does the formula accept the empty trace?"""
    kind = formula.kind
    if kind == symbolic.K_TOP:
        return True
    if kind in (symbolic.K_BOT, symbolic.K_EVENT, symbolic.K_GUARD, symbolic.K_NEXT, symbolic.K_UNTIL):
        return False
    if kind == symbolic.K_NOT:
        return not nullable(formula.children[0])
    if kind == symbolic.K_AND:
        return all(nullable(c) for c in formula.children)
    if kind == symbolic.K_OR:
        return any(nullable(c) for c in formula.children)
    if kind == symbolic.K_CONCAT:
        return nullable(formula.children[0]) and nullable(formula.children[1])
    raise AssertionError(kind)


def _evaluate_qualifier(phi: Term, truth: Mapping[Term, bool]) -> bool:
    value = smt.evaluate(phi, dict(truth))
    if value is None:
        missing = [a for a in smt.atoms(phi) if a not in truth]
        raise CompilationError(
            f"qualifier {phi!r} is not determined by the minterm assignment; "
            f"missing literals: {missing}"
        )
    return value
