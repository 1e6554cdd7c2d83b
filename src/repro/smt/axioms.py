"""Universally quantified axioms over method predicates and their instantiation.

Marple's qualifiers may use *method predicates* — uninterpreted boolean
functions such as ``isDir`` or ``isRoot`` — whose semantics is given by a
small set of first-order lemmas (Sec. 6 of the paper, e.g.
``forall x. isDir(x) ==> not isDel(x)``).  To keep the solver's job
quantifier-free we ground these axioms over the terms that actually occur in
a query, in a bounded number of rounds so axioms that introduce new terms
(such as ``parent(p)``) get a chance to fire on them as well.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ..record import FrozenRecord
from . import terms
from .terms import Term
from .sorts import Sort


class Axiom(FrozenRecord):
    """A named universally quantified lemma."""

    __slots__ = ("name", "variables", "body")

    def __init__(self, name: str, variables: tuple[Term, ...], body: Term) -> None:
        for v in variables:
            if v.kind != terms.VAR:
                raise ValueError("axiom binders must be variables")
        self.name = name
        self.variables = variables
        self.body = body

    @property
    def formula(self) -> Term:
        return terms.forall(self.variables, self.body)


def axiom(name: str, variables: Sequence[Term], body: Term) -> Axiom:
    return Axiom(name, tuple(variables), body)


def ground_terms_by_sort(formulas: Iterable[Term]) -> dict[Sort, set[Term]]:
    """Collect ground (variable-free or free-variable) non-boolean subterms.

    Free variables of the query count as ground witnesses: they denote fixed
    (if unknown) individuals, so axioms must hold for them.
    """
    out: dict[Sort, set[Term]] = {}
    for formula in formulas:
        for node in formula.walk():
            if node.sort.is_bool:
                continue
            if node.kind in (terms.VAR, terms.DATA_CONST, terms.APP, terms.INT_CONST):
                out.setdefault(node.sort, set()).add(node)
    return out


def instantiate(
    axioms: Sequence[Axiom],
    query_formulas: Sequence[Term],
    *,
    rounds: int = 2,
    max_instances: int = 4000,
) -> list[Term]:
    """Ground the axioms over terms occurring in the query.

    Returns a list of quantifier-free instances.  Instantiation runs for
    ``rounds`` passes so that terms introduced by earlier instances (for
    example ``parent(p)``) can trigger further instantiations.
    """
    instances: list[Term] = []
    seen: set[Term] = set()
    pool: list[Term] = list(query_formulas)

    for _ in range(max(1, rounds)):
        universe = ground_terms_by_sort(pool)
        new_instances: list[Term] = []
        for ax in axioms:
            candidate_lists: list[list[Term]] = []
            feasible = True
            for binder in ax.variables:
                candidates = sorted(universe.get(binder.sort, set()), key=lambda t: t.term_id)
                if not candidates:
                    feasible = False
                    break
                candidate_lists.append(candidates)
            if not feasible:
                continue
            for combo in itertools.product(*candidate_lists):
                mapping = dict(zip(ax.variables, combo))
                instance = terms.substitute(ax.body, mapping)
                if instance.is_true or instance in seen:
                    continue
                seen.add(instance)
                new_instances.append(instance)
                if len(seen) >= max_instances:
                    break
            if len(seen) >= max_instances:
                break
        if not new_instances:
            break
        instances.extend(new_instances)
        pool = list(query_formulas) + instances
        if len(seen) >= max_instances:
            break
    return instances
