"""A portable encoding of one proof obligation, for the dispatch queue.

Obligations are hash-consed in-memory objects: their identity (``term_id``,
``sfa_id``) cannot cross a process boundary, but their structure can.
:func:`encode` writes an obligation's hypotheses, lhs and rhs as one
JSON-safe DAG — term nodes, then SFA nodes, each listed after its children
and naming them by DAG-local position — and :func:`decode` re-interns that
DAG through the interning primitives (``terms._intern`` /
``symbolic._intern``), never the smart constructors, so no normalisation can
reshape a node on the way back.  In a process that already holds the nodes,
``decode(encode(o))`` therefore returns the identical objects; anywhere else
it rebuilds an obligation with the same
:func:`~repro.store.fingerprint.obligation_digest` (see Filliâtre & Conchon,
"Type-Safe Modular Hash-Consing", ML 2006).

Function symbols travel by value (name, sorts, method-predicate flag); event
signatures travel by name and resolve against the benchmark's
:class:`~repro.sfa.signatures.OperatorRegistry` on decode.  A dispatch queue
item carries the encoding plus the :class:`StoreContext` its verdict is
recorded under as one compact JSON text (:func:`lease_payload` /
:func:`decode_payload`): the store server passes it through without parsing
it, so neither side holds the DAG as nested objects while it is queued.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from ..sfa import symbolic
from ..sfa.signatures import OperatorRegistry
from ..sfa.symbolic import Sfa
from ..smt import terms
from ..smt.sorts import sort as sort_named
from ..smt.terms import FuncDecl, Term
from ..store.obligation_store import StoreContext
from .obligations import Obligation

#: Bump whenever the record layout below changes: a worker refuses (and
#: leaves to the coordinator) any encoding it cannot read.
CODEC_VERSION = "obligation-dag-1"

_TERM_KINDS = frozenset({
    terms.VAR, terms.INT_CONST, terms.BOOL_CONST, terms.DATA_CONST, terms.APP,
    terms.NOT, terms.AND, terms.OR, terms.IMPLIES, terms.IFF, terms.EQ,
    terms.LT, terms.LE, terms.ADD, terms.SUB, terms.NEG, terms.MUL, terms.FORALL,
})
_SFA_KINDS = frozenset({
    symbolic.K_TOP, symbolic.K_BOT, symbolic.K_EVENT, symbolic.K_GUARD,
    symbolic.K_NOT, symbolic.K_AND, symbolic.K_OR, symbolic.K_CONCAT,
    symbolic.K_NEXT, symbolic.K_UNTIL,
})


class CodecError(ValueError):
    """An obligation encoding this build cannot decode."""


class _Encoder:
    """One obligation's DAG, built children-first with shared nodes once."""

    def __init__(self) -> None:
        self.decls: list[list] = []
        self.terms: list[list] = []
        self.sfas: list[list] = []
        self._decl_index: dict[FuncDecl, int] = {}
        self._term_index: dict[Term, int] = {}
        self._sfa_index: dict[Sfa, int] = {}

    def decl(self, decl: FuncDecl) -> int:
        index = self._decl_index.get(decl)
        if index is None:
            index = self._decl_index[decl] = len(self.decls)
            self.decls.append([
                decl.name,
                [s.name for s in decl.arg_sorts],
                decl.result_sort.name,
                decl.is_method_predicate,
            ])
        return index

    def term(self, term: Term) -> int:
        index = self._term_index.get(term)
        if index is not None:
            return index
        children = [self.term(child) for child in term.children]
        kind = term.kind
        if kind == terms.APP:
            payload: object = self.decl(term.payload)
        elif kind == terms.FORALL:
            payload = [self.term(binder) for binder in term.payload]
        elif kind in (terms.VAR, terms.DATA_CONST):
            payload = list(term.payload)
        else:  # an int/bool literal, a MUL coefficient, or None
            payload = term.payload
        index = self._term_index[term] = len(self.terms)
        self.terms.append([kind, term.sort.name, children, payload])
        return index

    def sfa(self, formula: Sfa) -> int:
        index = self._sfa_index.get(formula)
        if index is not None:
            return index
        children = [self.sfa(child) for child in formula.children]
        kind = formula.kind
        if kind == symbolic.K_EVENT:
            signature, qualifier = formula.payload
            payload: object = [signature.name, self.term(qualifier)]
        elif kind == symbolic.K_GUARD:
            payload = self.term(formula.payload)
        else:
            payload = None
        index = self._sfa_index[formula] = len(self.sfas)
        self.sfas.append([kind, children, payload])
        return index


def encode(obligation: Obligation) -> dict:
    """The obligation as a JSON-safe DAG (see the module docstring)."""
    encoder = _Encoder()
    hypotheses = [encoder.term(h) for h in obligation.hypotheses]
    lhs = encoder.sfa(obligation.lhs)
    rhs = encoder.sfa(obligation.rhs)
    return {
        "version": CODEC_VERSION,
        "kind": obligation.kind,
        "provenance": obligation.provenance,
        "failure_message": obligation.failure_message,
        "index": obligation.index,
        "decls": encoder.decls,
        "terms": encoder.terms,
        "sfas": encoder.sfas,
        "hypotheses": hypotheses,
        "lhs": lhs,
        "rhs": rhs,
    }


def decode(record: dict, operators: OperatorRegistry) -> Obligation:
    """Re-intern an :func:`encode` record; raises :class:`CodecError`.

    Event signatures resolve by name against ``operators`` (the emitting
    benchmark's registry).  A wrong version tag, an unknown signature and a
    malformed record are all refused with a message naming the cause.
    """
    version = record.get("version") if isinstance(record, dict) else None
    if version != CODEC_VERSION:
        raise CodecError(
            f"unsupported obligation codec version {version!r} "
            f"(this build reads {CODEC_VERSION!r})"
        )
    try:
        decls = [
            FuncDecl(name, tuple(sort_named(s) for s in arg_sorts), sort_named(result), bool(flag))
            for name, arg_sorts, result, flag in record["decls"]
        ]
        nodes: list[Term] = []
        for kind, sort_name, children, payload in record["terms"]:
            if kind not in _TERM_KINDS:
                raise CodecError(f"unknown term kind {kind!r}")
            if kind == terms.APP:
                payload = decls[payload]
            elif kind == terms.FORALL:
                payload = tuple(nodes[i] for i in payload)
            elif kind in (terms.VAR, terms.DATA_CONST):
                payload = tuple(payload)
            nodes.append(terms._intern(
                kind, sort_named(sort_name), tuple(nodes[i] for i in children), payload
            ))
        formulas: list[Sfa] = []
        for kind, children, payload in record["sfas"]:
            if kind not in _SFA_KINDS:
                raise CodecError(f"unknown SFA kind {kind!r}")
            if kind == symbolic.K_EVENT:
                name, qualifier = payload
                signature = operators.get(name)
                if signature is None:
                    raise CodecError(
                        f"unknown event signature {name!r}: not in the "
                        f"benchmark's operator registry ({', '.join(operators.names())})"
                    )
                payload = (signature, nodes[qualifier])
            elif kind == symbolic.K_GUARD:
                payload = nodes[payload]
            formulas.append(symbolic._intern(
                kind, tuple(formulas[i] for i in children), payload
            ))
        return Obligation(
            kind=record["kind"],
            hypotheses=tuple(nodes[i] for i in record["hypotheses"]),
            lhs=formulas[record["lhs"]],
            rhs=formulas[record["rhs"]],
            provenance=record["provenance"],
            failure_message=record["failure_message"],
            index=record["index"],
        )
    except CodecError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed obligation encoding: {exc!r}") from exc


def lease_payload(obligation: Obligation, context: StoreContext) -> str:
    """A queue item's payload: the encoding plus the verdict's store context."""
    record = {"obligation": encode(obligation), "context": asdict(context)}
    return json.dumps(record, separators=(",", ":"))


def decode_payload(
    payload: Optional[str], operators: OperatorRegistry
) -> tuple[Obligation, StoreContext]:
    """Invert :func:`lease_payload`; raises :class:`CodecError`."""
    if not isinstance(payload, str):
        raise CodecError("queue item carries no obligation payload")
    try:
        record = json.loads(payload)
        context = record["context"]
        if not all(isinstance(value, str) for value in context.values()):
            raise TypeError("store context fields must be strings")
        store_context = StoreContext(**context)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CodecError(f"malformed obligation payload: {exc!r}") from exc
    return decode(record.get("obligation"), operators), store_context
