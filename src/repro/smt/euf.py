"""Proof-producing, backtrackable congruence closure for EUF.

The solver receives a conjunction of ground literals (atoms with a polarity)
and decides whether they are consistent in EUF.  Method predicates are
handled by treating an asserted atom ``p(t)`` as the equation ``p(t) = true``
(resp. ``false``), so congruent predicate applications with opposite
polarities produce a conflict through the ordinary closure rules.

Distinct integer literals and distinct named data constants are treated as
pairwise different, matching the constant folding performed by
``repro.smt.terms.eq``.  Constants are interned, so two distinct constant
terms always denote distinct values.

The closure follows Nieuwenhuis & Oliveras, "Fast Congruence Closure and
Extensions" (Inf. & Comput. 2007): classes merge by size, a signature table
keyed by ``(symbol, child representatives)`` finds congruent applications
through per-class use-lists, and a proof forest records why each merge
happened — an input equation, or the congruence of two applications.  A
conflict is explained by the input literals on the proof path of its clash
only, so the lazy loop's blocking clauses are as strong as the closure can
make them.

The closure is **backtrackable**.  Terms are registered once, before any
literal is asserted, and stay registered; every change a literal's
assertion makes (merges, signature-table entries, disequalities, the clash)
goes on an undo log, and :meth:`CongruenceClosure.pop` rewinds it to a
checkpoint.  :func:`check_euf` keeps one checkpoint per asserted literal:
given a closure that already holds a prefix of the new conjunction — as the
lazy loop's consecutive checks on one SAT trail do — it pops back to the
longest shared prefix and asserts only the literals after it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from ..record import Record
from . import terms
from .terms import Term

_CONSTANT_KINDS = (terms.INT_CONST, terms.DATA_CONST, terms.BOOL_CONST)
#: a Bool-sorted atom of one of these kinds is the equation ``atom = true``
_BOOL_ATOM_KINDS = (terms.APP, terms.VAR)


class EufResult(Record):
    """Outcome of a congruence-closure run."""

    __slots__ = ("consistent", "conflict")

    def __init__(self, consistent: bool, conflict: list[tuple[Term, bool]]) -> None:
        self.consistent = consistent
        #: the input literals (as passed in, in input order) on the explanation
        #: path of the first clash: the equations that merged a disequality's
        #: sides, or two distinct constants (``true = false`` included), plus
        #: the disequality itself; empty when consistent.
        self.conflict = conflict


class _Congruence:
    """A proof-forest label: two applications merged by congruence."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: int, rhs: int) -> None:
        self.lhs = lhs
        self.rhs = rhs


class CongruenceClosure:
    """A backtrackable congruence closure that explains its merges.

    Nodes are numbered in registration order (children before parents), and
    every per-class list is appended in the order merges happen, so which
    clash is found first and how it is explained never depend on term ids.
    ``reason`` arguments are opaque tags that :meth:`conflict_reasons`
    hands back.

    :meth:`register` must run while no checkpoint is open:
    a term registered then is part of every state a later :meth:`pop`
    restores.  Asserting an unregistered term registers it on the spot,
    which is only allowed with no checkpoint open either.
    """

    def __init__(self) -> None:
        self._node: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._children: list[tuple[int, ...]] = []
        # per node: its function symbol's name (None unless an application);
        # ``terms.declare`` gives every name one signature, and a name hashes
        # far faster than the declaration
        self._symbol: list[Optional[str]] = []
        # per node: its class representative
        self._rep: list[int] = []
        # per representative: members; and, for the classes that have any,
        # the class's constant, the applications using a member as an
        # argument and the indices of the disequalities with a side in it
        self._members: list[list[int]] = []
        self._constant: dict[int, int] = {}
        self._uses: dict[int, list[int]] = {}
        self._diseqs: dict[int, list[int]] = {}
        self._signatures: dict[tuple, int] = {}
        # proof forest: per node, its parent (-1 at a root) and the edge label
        self._proof_parent: list[int] = []
        self._proof_label: list[object] = []
        self._disequalities: list[tuple[int, int, object]] = []
        self._pending: deque[tuple[int, int, object]] = deque()
        #: the first clash: two nodes forced equal, plus the disequality's
        #: reason (``None`` for a clash of two constants)
        self._clash: Optional[tuple[int, int, object]] = None
        #: undo log: one entry per merge, signature-table insertion and
        #: disequality since the oldest open checkpoint
        self._undo: list[tuple] = []
        #: per open checkpoint: (undo-log length, disequality count, whether
        #: the closure was clash-free)
        self._checkpoints: list[tuple[int, int, bool]] = []
        #: the literals :func:`check_euf` asserted, one checkpoint each
        self.literals: list[tuple[Term, bool]] = []
        #: the atoms whose terms :meth:`register_atom` registered
        self._atoms: set[Term] = set()

    # -- registration -------------------------------------------------------------
    def register(self, term: Term) -> int:
        """The node of ``term``, registering it (children first) if it is new."""
        node = self._node.get(term)
        if node is not None:
            return node
        if self._checkpoints:
            raise RuntimeError("terms are registered only while no checkpoint is open")
        children = tuple([self.register(child) for child in term.children])
        node = len(self._terms)
        self._node[term] = node
        self._terms.append(term)
        self._children.append(children)
        symbol = term.payload.name if term.kind == terms.APP else None
        self._symbol.append(symbol)
        self._rep.append(node)
        self._members.append([node])
        if term.kind in _CONSTANT_KINDS:
            self._constant[node] = node
        self._proof_parent.append(-1)
        self._proof_label.append(None)
        if symbol is not None:
            rep = self._rep
            for child in children:
                self._uses.setdefault(rep[child], []).append(node)
            signature = (symbol, *[rep[child] for child in children])
            other = self._signatures.get(signature)
            if other is None:
                self._signatures[signature] = node
            else:
                self._pending.append((node, other, _Congruence(node, other)))
                self._propagate()
        return node

    def register_atom(self, atom: Term) -> None:
        """Register the terms asserting ``atom`` (either polarity) touches."""
        if atom not in self._atoms:
            for term in _euf_terms(atom):
                self.register(term)
            self._atoms.add(atom)

    # -- checkpoints --------------------------------------------------------------
    def push(self) -> None:
        """Open a checkpoint that :meth:`pop` can return to."""
        self._checkpoints.append(
            (len(self._undo), len(self._disequalities), self._clash is None)
        )

    def pop(self, depth: int) -> None:
        """Undo every change made since checkpoint ``depth`` was opened.

        Leaves ``depth`` checkpoints open.  Undoing a merge cuts its proof
        edge, in whichever direction rerooting left it; the rerooting itself
        stays, and a rerooted tree proves the same equalities.
        """
        if depth >= len(self._checkpoints):
            return
        undo_length, diseq_count, clash_free = self._checkpoints[depth]
        del self._checkpoints[depth:]
        undo = self._undo
        rep, members = self._rep, self._members
        while len(undo) > undo_length:
            entry = undo.pop()
            if entry[0] == 0:  # a signature-table insertion
                del self._signatures[entry[1]]
                continue
            if entry[0] == 1:  # a disequality's two use entries
                self._diseqs[entry[1]].pop()
                self._diseqs[entry[2]].pop()
                continue
            (
                _, lhs, rhs, lhs_rep, rhs_rep, member_count, constant, constant_set,
                diseqs, diseq_count_rhs, uses, use_count,
            ) = entry
            # cut the merge's proof edge; a later merge's rerooting may have
            # turned it around
            if self._proof_parent[lhs] != rhs:
                lhs = rhs
            self._proof_parent[lhs] = -1
            self._proof_label[lhs] = None
            kept = members[rhs_rep]
            moved = kept[member_count:]
            del kept[member_count:]
            members[lhs_rep] = moved
            for member in moved:
                rep[member] = lhs_rep
            if constant is not None:
                self._constant[lhs_rep] = constant
                if constant_set:
                    del self._constant[rhs_rep]
            if diseqs is not None:
                del self._diseqs[rhs_rep][diseq_count_rhs:]
                self._diseqs[lhs_rep] = diseqs
            if uses is not None:
                del self._uses[rhs_rep][use_count:]
                self._uses[lhs_rep] = uses
        del self._disequalities[diseq_count:]
        if clash_free:
            self._clash = None
        del self.literals[depth:]

    # -- merging ------------------------------------------------------------------
    def assert_equal(self, lhs: Term, rhs: Term, reason: object = None) -> None:
        lhs_node, rhs_node = self.register(lhs), self.register(rhs)
        self._pending.append((lhs_node, rhs_node, reason))
        self._propagate()

    def assert_distinct(self, lhs: Term, rhs: Term, reason: object = None) -> None:
        lhs_node, rhs_node = self.register(lhs), self.register(rhs)
        index = len(self._disequalities)
        self._disequalities.append((lhs_node, rhs_node, reason))
        lhs_rep, rhs_rep = self._rep[lhs_node], self._rep[rhs_node]
        if lhs_rep == rhs_rep:
            self._record_clash(lhs_node, rhs_node, reason)
            return
        self._diseqs.setdefault(lhs_rep, []).append(index)
        self._diseqs.setdefault(rhs_rep, []).append(index)
        if self._checkpoints:
            self._undo.append((1, lhs_rep, rhs_rep))

    def _record_clash(self, lhs: int, rhs: int, reason: object) -> None:
        if self._clash is None:
            self._clash = (lhs, rhs, reason)

    def _propagate(self) -> None:
        """Merge every pending pair, queueing the congruences each merge makes."""
        pending = self._pending
        rep = self._rep
        members = self._members
        signatures = self._signatures
        # with no checkpoint open nothing can be undone, so nothing is logged
        undo = self._undo if self._checkpoints else None
        while pending:
            lhs, rhs, label = pending.popleft()
            lhs_rep, rhs_rep = rep[lhs], rep[rhs]
            if lhs_rep == rhs_rep:
                continue
            if len(members[lhs_rep]) > len(members[rhs_rep]):
                lhs, rhs, lhs_rep, rhs_rep = rhs, lhs, rhs_rep, lhs_rep
            # the smaller class (lhs's) joins rhs's; its proof tree is
            # rerooted at lhs and hung under rhs by the merge's label
            self._reroot(lhs)
            self._proof_parent[lhs] = rhs
            self._proof_label[lhs] = label
            member_count = len(members[rhs_rep])
            for member in members[lhs_rep]:
                rep[member] = rhs_rep
            members[rhs_rep].extend(members[lhs_rep])
            members[lhs_rep] = []
            constant = self._constant.pop(lhs_rep, None)
            constant_set = False
            if constant is not None:
                other = self._constant.setdefault(rhs_rep, constant)
                constant_set = other == constant
                if other != constant:
                    self._record_clash(constant, other, None)
            diseqs = self._diseqs.pop(lhs_rep, None)
            diseq_count = 0
            if diseqs is not None:
                for index in diseqs:
                    first, second, reason = self._disequalities[index]
                    if rep[first] == rep[second]:
                        self._record_clash(first, second, reason)
                target = self._diseqs.setdefault(rhs_rep, [])
                diseq_count = len(target)
                target.extend(diseqs)
            uses = self._uses.pop(lhs_rep, None)
            use_count = 0
            if uses is not None:
                users = self._uses.setdefault(rhs_rep, [])
                use_count = len(users)
            if undo is not None:
                undo.append((
                    2, lhs, rhs, lhs_rep, rhs_rep, member_count, constant, constant_set,
                    diseqs, diseq_count, uses, use_count,
                ))
            if uses is None:
                continue  # no application has an argument in the class
            for app in uses:
                signature = (
                    self._symbol[app], *[rep[child] for child in self._children[app]]
                )
                other = signatures.get(signature)
                if other is None:
                    signatures[signature] = app
                    if undo is not None:
                        undo.append((0, signature))
                elif rep[other] != rep[app]:
                    pending.append((app, other, _Congruence(app, other)))
            users.extend(uses)

    def _reroot(self, node: int) -> None:
        """Reverse the proof-forest path from ``node`` so it becomes the root."""
        parent, label = self._proof_parent, self._proof_label
        previous, previous_label = -1, None
        while node >= 0:
            following, following_label = parent[node], label[node]
            parent[node], label[node] = previous, previous_label
            previous, previous_label = node, following_label
            node = following

    # -- explanation --------------------------------------------------------------
    def _explain(self, lhs: int, rhs: int) -> list[object]:
        parent, label = self._proof_parent, self._proof_label
        reasons: list[object] = []
        explained: set[int] = set()  # nodes whose outgoing proof edge is used
        todo = [(lhs, rhs)]
        while todo:
            first, second = todo.pop()
            if first == second:
                continue
            ancestors = set()
            node = first
            while node >= 0:
                ancestors.add(node)
                node = parent[node]
            common = second
            while common not in ancestors:
                common = parent[common]
            for node in (first, second):
                while node != common:
                    if node not in explained:
                        explained.add(node)
                        edge = label[node]
                        if edge.__class__ is _Congruence:
                            todo.extend(
                                zip(self._children[edge.lhs], self._children[edge.rhs])
                            )
                        elif edge is not None:
                            reasons.append(edge)
                    node = parent[node]
        return reasons

    def conflict_reasons(self) -> Optional[list[object]]:
        """The reasons explaining the first clash, or ``None`` if consistent."""
        if self._clash is None:
            return None
        lhs, rhs, reason = self._clash
        reasons = self._explain(lhs, rhs)
        if reason is not None:
            reasons.append(reason)
        return reasons

    # -- observers ----------------------------------------------------------------
    def are_equal(self, lhs: Term, rhs: Term) -> bool:
        return self._rep[self.register(lhs)] == self._rep[self.register(rhs)]

    def is_consistent(self) -> bool:
        return self._clash is None

    def classes(self) -> dict[Term, list[Term]]:
        """The current partition, keyed by representative, in registration order."""
        out: dict[Term, list[Term]] = {}
        for node, term in enumerate(self._terms):
            out.setdefault(self._terms[self._rep[node]], []).append(term)
        return out


def _euf_terms(atom: Term) -> tuple[Term, ...]:
    """The terms asserting ``atom`` (either polarity) touches; () outside EUF."""
    if atom.kind == terms.EQ:
        return atom.children
    if atom.kind in _BOOL_ATOM_KINDS and atom.sort is terms.BOOL:
        return (atom, terms.TRUE, terms.FALSE)
    return ()


def check_euf(
    literals: Iterable[tuple[Term, bool]],
    closure: Optional[CongruenceClosure] = None,
) -> EufResult:
    """Decide consistency of a conjunction of EUF literals.

    ``literals`` are pairs of an atom and the polarity with which it is
    asserted.  Atoms that are not in the EUF fragment (arithmetic comparisons)
    are ignored here and handled by :mod:`repro.smt.arith`.  The literals are
    asserted in order and the first clash stops the run; its explanation is
    returned in input order.

    ``closure`` is a closure an earlier call left behind (a fresh one when
    omitted).  It keeps the literals it holds: the call pops back to the
    longest prefix they share with ``literals`` and asserts the rest.  When
    a literal's atom is not registered yet, it pops to the base, registers
    every new atom of ``literals`` in input order and asserts them all
    again; a caller that knows its atoms up front registers them first
    (:meth:`CongruenceClosure.register_atom`).
    """
    literal_list = list(literals)
    if closure is None:
        closure = CongruenceClosure()
    asserted = closure.literals
    shared = 0
    limit = min(len(asserted), len(literal_list))
    while shared < limit and asserted[shared] == literal_list[shared]:
        shared += 1
    known = closure._atoms
    fresh = [atom for atom, _ in literal_list[shared:] if atom not in known]
    if fresh:
        shared = 0
    closure.pop(shared)
    for atom in fresh:
        closure.register_atom(atom)
    for index in range(shared, len(literal_list)):
        if closure._clash is not None:
            break
        literal = literal_list[index]
        closure.push()
        asserted.append(literal)
        atom, value = literal
        if atom.kind == terms.EQ:
            lhs, rhs = atom.children
            if value:
                closure.assert_equal(lhs, rhs, index)
            else:
                closure.assert_distinct(lhs, rhs, index)
        elif atom.kind in _BOOL_ATOM_KINDS and atom.sort is terms.BOOL:
            closure.assert_equal(atom, terms.TRUE if value else terms.FALSE, index)
    reasons = closure.conflict_reasons()
    if reasons is None:
        return EufResult(consistent=True, conflict=[])
    return EufResult(
        consistent=False,
        conflict=[literal_list[position] for position in sorted(reasons)],
    )


def implied_int_equalities(
    literals: Iterable[tuple[Term, bool]],
    extra_terms: Iterable[Term] = (),
) -> list[tuple[Term, Term]]:
    """Equalities between integer-sorted terms implied by the EUF literals.

    Used by the theory combinator to feed EUF consequences into the linear
    arithmetic solver (a light-weight form of Nelson–Oppen propagation).
    ``extra_terms`` are terms appearing only in arithmetic atoms; registering
    them lets congruence (e.g. ``size(v) = size(w)`` from ``v = w``) reach the
    arithmetic solver.
    """
    closure = CongruenceClosure()
    for term in extra_terms:
        closure.register(term)
    for atom, value in literals:
        if atom.kind == terms.EQ and value:
            closure.assert_equal(*atom.children)
        elif atom.kind == terms.APP and atom.sort.is_bool:
            closure.assert_equal(atom, terms.TRUE if value else terms.FALSE)
    out: list[tuple[Term, Term]] = []
    for rep, members in closure.classes().items():
        int_members = [m for m in members if m.sort.is_int]
        for i in range(1, len(int_members)):
            out.append((int_members[0], int_members[i]))
    return out
