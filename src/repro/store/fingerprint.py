"""Stable content fingerprints for the persistent obligation store.

The in-memory identities used by the engine's dedupe (``term_id`` /
``sfa_id``) are interning-order dependent: the same formula built in another
process — or merely later in the same process — receives different ids, and
the smart constructors order the children of commutative connectives *by*
those ids.  Anything persisted to disk therefore needs a digest computed from
structure alone, with commutative connectives hashed order-insensitively so
that ``and(a, b)`` and ``and(b, a)`` coincide no matter which interning order
produced them (the ``eq`` constructor likewise orients its operands by id, so
equalities are hashed symmetrically too).

Digests are memoised by object id, which is sound because hash-consed terms
and formulas are immortal (the interning caches hold strong references).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence, Union

from ..sfa import symbolic
from ..sfa.alphabet import resolve_max_literals
from ..sfa.signatures import EventSignature, OperatorRegistry
from ..sfa.symbolic import Sfa
from ..smt import terms
from ..smt.axioms import Axiom
from ..smt.terms import Term

#: Bump when the digest definition (not the store layout) changes: every old
#: fingerprint becomes unreachable, which is exactly what a semantics change
#: to the hashing must do.
FINGERPRINT_VERSION = "fp1"

#: Term kinds whose operands are semantically unordered: their child digests
#: are sorted before hashing (the smart constructors order them by interning
#: id, which is not stable across processes).
_COMMUTATIVE_TERM_KINDS = frozenset({terms.AND, terms.OR, terms.EQ, terms.IFF, terms.ADD})

_COMMUTATIVE_SFA_KINDS = frozenset({symbolic.K_AND, symbolic.K_OR})

_SEP = "\x1f"


def _digest(*parts: str) -> str:
    payload = _SEP.join(parts).encode("utf-8", "backslashreplace")
    return hashlib.sha256(payload).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_TERM_MEMO: dict[int, str] = {}


def term_digest(term: Term) -> str:
    """A structural content address for a hash-consed term."""
    cached = _TERM_MEMO.get(term.term_id)
    if cached is not None:
        return cached
    kind = term.kind
    if kind in (terms.VAR, terms.DATA_CONST):
        name, sort_name = term.payload
        result = _digest(kind, name, sort_name)
    elif kind in (terms.INT_CONST, terms.BOOL_CONST):
        result = _digest(kind, repr(term.payload))
    else:
        children = [term_digest(c) for c in term.children]
        if kind in _COMMUTATIVE_TERM_KINDS:
            children.sort()
        if kind == terms.APP:
            decl = term.payload
            head = _digest(
                "decl",
                decl.name,
                *(s.name for s in decl.arg_sorts),
                decl.result_sort.name,
            )
        elif kind == terms.FORALL:
            head = _digest("binders", *sorted(term_digest(v) for v in term.payload))
        elif kind == terms.MUL:
            head = repr(term.payload)
        else:
            head = ""
        result = _digest(kind, term.sort.name, head, *children)
    _TERM_MEMO[term.term_id] = result
    return result


# ---------------------------------------------------------------------------
# Symbolic automata
# ---------------------------------------------------------------------------

_SFA_MEMO: dict[int, str] = {}


def signature_digest(signature: EventSignature) -> str:
    return _digest(
        "sig",
        signature.name,
        *signature.arg_names,
        *(s.name for s in signature.arg_sorts),
        signature.result_sort.name,
    )


def sfa_digest(formula: Sfa) -> str:
    """A structural content address for a hash-consed SFA formula."""
    cached = _SFA_MEMO.get(formula.sfa_id)
    if cached is not None:
        return cached
    kind = formula.kind
    if kind in (symbolic.K_TOP, symbolic.K_BOT):
        result = _digest(kind)
    elif kind == symbolic.K_EVENT:
        signature, phi = formula.payload
        result = _digest(kind, signature_digest(signature), term_digest(phi))
    elif kind == symbolic.K_GUARD:
        result = _digest(kind, term_digest(formula.payload))
    else:
        children = [sfa_digest(c) for c in formula.children]
        if kind in _COMMUTATIVE_SFA_KINDS:
            children.sort()
        result = _digest(kind, *children)
    _SFA_MEMO[formula.sfa_id] = result
    return result


# ---------------------------------------------------------------------------
# Obligations
# ---------------------------------------------------------------------------


def obligation_digest(obligation) -> str:
    """The persistent counterpart of ``Obligation.fingerprint()``.

    Mirrors its semantics exactly — hypotheses as an unordered set plus the
    two automata; kind and provenance deliberately excluded, because
    isomorphic queries share one verdict no matter where they were emitted.
    Memoised on the (frozen) obligation itself: with a store attached, the
    batch prefetch, the store lookup and a dispatch coordinator's misses
    query all need the digest in one batch.
    """
    cached = getattr(obligation, "_digest", None)
    if cached is not None:
        return cached
    result = _digest(
        FINGERPRINT_VERSION,
        "obligation",
        *sorted(term_digest(h) for h in obligation.hypotheses),
        sfa_digest(obligation.lhs),
        sfa_digest(obligation.rhs),
    )
    try:
        object.__setattr__(obligation, "_digest", result)
    except AttributeError:  # pragma: no cover - slotted/odd obligation stand-ins
        pass
    return result


# ---------------------------------------------------------------------------
# Specifications and libraries (the dependency-index keys)
# ---------------------------------------------------------------------------


def type_digest(ty) -> str:
    """Content address for the refinement-type layer (spec parameter types)."""
    from ..types import rtypes

    if isinstance(ty, rtypes.RefinementType):
        return _digest("ref", ty.sort.name, term_digest(ty.qualifier))
    if isinstance(ty, rtypes.HatType):
        return _digest(
            "hat",
            sfa_digest(ty.precondition),
            type_digest(ty.result),
            sfa_digest(ty.postcondition),
        )
    if isinstance(ty, rtypes.Intersection):
        return _digest("inter", *(type_digest(case) for case in ty.cases))
    if isinstance(ty, rtypes.FunType):
        return _digest("fun", ty.param_name, type_digest(ty.param_type), type_digest(ty.result))
    if isinstance(ty, rtypes.GhostArrow):
        return _digest("ghost-arrow", ty.name, ty.sort.name, type_digest(ty.body))
    raise TypeError(f"cannot fingerprint type {ty!r}")


#: Identity-keyed digest memos.  Spec and library objects are immutable in
#: practice and re-digested constantly — once per method check, once per
#: checker construction — so their digests are cached per *object*.  The memo
#: holds a strong reference to the keyed object, which is what makes ``id()``
#: a sound key (the id cannot be recycled while the entry lives); the caps
#: below just bound a pathological churn of throwaway objects.
_SPEC_DIGEST_MEMO: dict[int, tuple[object, str]] = {}
#: (id(operators), id(axioms)) -> (operators, axioms, constants key, digest)
_LIBRARY_DIGEST_MEMO: dict[tuple[int, int], tuple] = {}
_IDENTITY_MEMO_CAP = 4096


def spec_digest(spec) -> str:
    """Content address of one method's HAT signature (dependency-index key)."""
    cached = _SPEC_DIGEST_MEMO.get(id(spec))
    if cached is not None and cached[0] is spec:
        return cached[1]
    parts = [FINGERPRINT_VERSION, "spec", spec.name]
    for ghost_name, ghost_sort in spec.ghosts:
        parts.append(_digest("ghost", ghost_name, ghost_sort.name))
    for param_name, param_type in spec.params:
        parts.append(_digest("param", param_name, type_digest(param_type)))
    parts.append(sfa_digest(spec.precondition))
    parts.append(type_digest(spec.result))
    parts.append(sfa_digest(spec.postcondition))
    result = _digest(*parts)
    if len(_SPEC_DIGEST_MEMO) >= _IDENTITY_MEMO_CAP:
        _SPEC_DIGEST_MEMO.clear()
    _SPEC_DIGEST_MEMO[id(spec)] = (spec, result)
    return result


def axiom_digest(ax: Axiom) -> str:
    return _digest(
        "axiom",
        ax.name,
        *sorted(term_digest(v) for v in ax.variables),
        term_digest(ax.body),
    )


def library_digest(
    operators: OperatorRegistry,
    axioms: Sequence[Axiom] = (),
    constants: Optional[dict] = None,
) -> str:
    """Content address of a backing library's logical surface.

    Covers the operator signatures (the SFA alphabet), the FOL axioms of the
    pure helpers, and the named constants — everything an obligation's meaning
    can depend on beyond its own formulas.

    Memoised per ``(operators, axioms)`` object identity (constants are
    compared by their interned term ids): one checker run digests the same
    library once, no matter how many per-method engines and fingerprints sit
    on top of it.
    """
    constants_key = tuple(
        sorted((name, term.term_id) for name, term in (constants or {}).items())
    )
    memo_key = (id(operators), id(axioms))
    cached = _LIBRARY_DIGEST_MEMO.get(memo_key)
    if cached is not None:
        pinned_operators, pinned_axioms, pinned_constants, digest = cached
        if pinned_operators is operators and pinned_axioms is axioms and (
            pinned_constants == constants_key
        ):
            return digest
    parts = [FINGERPRINT_VERSION, "library"]
    parts.extend(sorted(signature_digest(sig) for sig in operators))
    parts.extend(sorted(axiom_digest(ax) for ax in axioms))
    for name in sorted(constants or {}):
        parts.append(_digest("const", name, term_digest(constants[name])))
    result = _digest(*parts)
    if len(_LIBRARY_DIGEST_MEMO) >= _IDENTITY_MEMO_CAP:
        _LIBRARY_DIGEST_MEMO.clear()
    _LIBRARY_DIGEST_MEMO[memo_key] = (operators, axioms, constants_key, result)
    return result


def environment_fingerprint(
    operators: OperatorRegistry,
    axioms: Sequence[Axiom] = (),
    *,
    filter_unsat_minterms: bool = True,
    max_literals: Optional[int] = None,
) -> str:
    """The *semantic environment* a verdict (and its counters) depends on.

    A store entry is only reusable under the exact same discharge semantics:
    the library's logical surface plus every checker/solver knob that steers
    the alphabet transformation.  The inclusion walk itself has no knobs —
    it is the single decider.  Which process discharged an obligation is deliberately absent —
    the determinism contract says it never changes any obligation-derived
    counter.  Scheduling order and the cross-obligation memos are absent for
    the same reason, and the recorded *cost* records are advisory
    measurements, so they live outside the fingerprint too.
    """
    return _digest(
        FINGERPRINT_VERSION,
        "env",
        library_digest(operators, axioms),
        repr(bool(filter_unsat_minterms)),
        repr(resolve_max_literals(max_literals, filter_unsat_minterms)),
        # The slot where a SAT-core name used to go.  There is one core now,
        # but the literal stays so stores written before keep answering.
        "dpll",
    )
