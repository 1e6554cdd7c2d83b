"""Linear integer arithmetic via Fourier–Motzkin elimination.

The arithmetic reasoning needed by the benchmark qualifiers is modest:
comparisons between program variables and constants (``v < el``,
``len >= 0``, ``x == y + 1``).  Constraints are normalised to the form
``sum(coeff * atom) + const <= 0`` over exact rationals; strict inequalities
over integer coefficients are tightened to non-strict ones.  Satisfiability
is decided by eliminating variables one at a time.

Fourier–Motzkin over the rationals is sound for refutation: if it reports
``inconsistent`` the constraints have no integer solution either.  It may
report ``consistent`` for a system that is only rationally feasible; in the
HAT pipeline that direction merely keeps an extra automaton character or
rejects a subtyping obligation, so verification stays sound (never accepts a
bad program).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from ..record import FrozenRecord
from . import terms
from .terms import Term

#: A linear expression: mapping from atomic term to coefficient, plus constant.
LinExpr = tuple[dict[Term, Fraction], Fraction]


class NonLinearError(ValueError):
    """Raised when a term cannot be interpreted as a linear expression."""


def linearize(term: Term) -> LinExpr:
    """Interpret an Int-sorted term as a linear expression.

    Uninterpreted subterms (variables, function applications) become atomic
    "variables" of the expression.
    """
    if term.sort is not terms.INT:
        raise NonLinearError(f"{term!r} is not an Int term")
    kind = term.kind
    if kind == terms.INT_CONST:
        return {}, Fraction(term.payload)
    if kind in (terms.VAR, terms.APP, terms.DATA_CONST):
        return {term: Fraction(1)}, Fraction(0)
    if kind == terms.ADD:
        coeffs: dict[Term, Fraction] = {}
        const = Fraction(0)
        for child in term.children:
            child_coeffs, child_const = linearize(child)
            const += child_const
            for atom, coeff in child_coeffs.items():
                coeffs[atom] = coeffs.get(atom, Fraction(0)) + coeff
        return _prune(coeffs), const
    if kind == terms.SUB:
        lhs_coeffs, lhs_const = linearize(term.children[0])
        rhs_coeffs, rhs_const = linearize(term.children[1])
        coeffs = dict(lhs_coeffs)
        for atom, coeff in rhs_coeffs.items():
            coeffs[atom] = coeffs.get(atom, Fraction(0)) - coeff
        return _prune(coeffs), lhs_const - rhs_const
    if kind == terms.NEG:
        coeffs, const = linearize(term.children[0])
        return {a: -c for a, c in coeffs.items()}, -const
    if kind == terms.MUL:
        coeffs, const = linearize(term.children[0])
        factor = Fraction(term.payload)
        return _prune({a: c * factor for a, c in coeffs.items()}), const * factor
    raise NonLinearError(f"cannot linearise {term!r}")


def _prune(coeffs: dict[Term, Fraction]) -> dict[Term, Fraction]:
    return {a: c for a, c in coeffs.items() if c != 0}


class Constraint(FrozenRecord):
    """``sum(coeffs) + const <= 0`` (or ``< 0`` when ``strict``)."""

    __slots__ = ("coeffs", "const", "strict")

    def __init__(
        self,
        coeffs: tuple[tuple[Term, Fraction], ...],
        const: Fraction,
        strict: bool,
    ) -> None:
        self.coeffs = coeffs
        self.const = const
        self.strict = strict

    @staticmethod
    def make(coeffs: dict[Term, Fraction], const: Fraction, strict: bool) -> "Constraint":
        items = tuple(sorted(coeffs.items(), key=lambda kv: kv[0].term_id))
        # integer tightening: a < 0 with integral coefficients means a <= -1
        if strict and all(c.denominator == 1 for _, c in items) and const.denominator == 1:
            return Constraint(items, const + 1, False)
        return Constraint(items, const, strict)

    def coeff_dict(self) -> dict[Term, Fraction]:
        return dict(self.coeffs)

    def is_ground(self) -> bool:
        return not self.coeffs

    def ground_holds(self) -> bool:
        if self.strict:
            return self.const < 0
        return self.const <= 0


def atom_to_constraints(atom: Term, value: bool) -> Optional[list[list[Constraint]]]:
    """Translate an asserted comparison atom to constraints.

    The result is in conjunctive normal form over constraints: a list of
    disjunctions, each of which is a list of constraints (disequalities need a
    two-way split).  Returns ``None`` when the atom is not arithmetic.
    """
    kind = atom.kind
    if kind == terms.EQ:
        lhs, rhs = atom.children
        if lhs.sort is not terms.INT:
            return None
        diff_coeffs, diff_const = _difference(lhs, rhs)
        if value:
            return [
                [Constraint.make(diff_coeffs, diff_const, strict=False)],
                [Constraint.make(_negate(diff_coeffs), -diff_const, strict=False)],
            ]
        return [
            [
                Constraint.make(diff_coeffs, diff_const, strict=True),
                Constraint.make(_negate(diff_coeffs), -diff_const, strict=True),
            ]
        ]
    if kind in (terms.LT, terms.LE):
        lhs, rhs = atom.children
        diff_coeffs, diff_const = _difference(lhs, rhs)
        if kind == terms.LT:
            if value:  # lhs - rhs < 0
                return [[Constraint.make(diff_coeffs, diff_const, strict=True)]]
            # not (lhs < rhs)  <=>  rhs - lhs <= 0
            return [[Constraint.make(_negate(diff_coeffs), -diff_const, strict=False)]]
        if value:  # lhs - rhs <= 0
            return [[Constraint.make(diff_coeffs, diff_const, strict=False)]]
        # not (lhs <= rhs)  <=>  rhs - lhs < 0
        return [[Constraint.make(_negate(diff_coeffs), -diff_const, strict=True)]]
    return None


def _difference(lhs: Term, rhs: Term) -> tuple[dict[Term, Fraction], Fraction]:
    lhs_coeffs, lhs_const = linearize(lhs)
    rhs_coeffs, rhs_const = linearize(rhs)
    coeffs = dict(lhs_coeffs)
    for atom, coeff in rhs_coeffs.items():
        coeffs[atom] = coeffs.get(atom, Fraction(0)) - coeff
    return _prune(coeffs), lhs_const - rhs_const


def _negate(coeffs: dict[Term, Fraction]) -> dict[Term, Fraction]:
    return {a: -c for a, c in coeffs.items()}


def _fm_consistent(constraints: list[Constraint]) -> bool:
    """Fourier–Motzkin feasibility test over the rationals."""
    constraints = list(constraints)
    while True:
        for constraint in constraints:
            if constraint.is_ground() and not constraint.ground_holds():
                return False
        variables = {atom for c in constraints for atom, _ in c.coeffs}
        if not variables:
            return True
        # eliminate the variable with the fewest pos*neg combinations
        def cost(variable: Term) -> int:
            pos = sum(1 for c in constraints if c.coeff_dict().get(variable, 0) > 0)
            neg = sum(1 for c in constraints if c.coeff_dict().get(variable, 0) < 0)
            return pos * neg

        target = min(variables, key=lambda v: (cost(v), v.term_id))
        upper: list[Constraint] = []  # coeff > 0
        lower: list[Constraint] = []  # coeff < 0
        rest: list[Constraint] = []
        for c in constraints:
            coeff = c.coeff_dict().get(target, Fraction(0))
            if coeff > 0:
                upper.append(c)
            elif coeff < 0:
                lower.append(c)
            else:
                rest.append(c)
        new_constraints = rest
        for up in upper:
            for low in lower:
                up_coeffs, low_coeffs = up.coeff_dict(), low.coeff_dict()
                a = up_coeffs[target]
                b = -low_coeffs[target]
                combined: dict[Term, Fraction] = {}
                for atom, coeff in up_coeffs.items():
                    combined[atom] = combined.get(atom, Fraction(0)) + coeff * b
                for atom, coeff in low_coeffs.items():
                    combined[atom] = combined.get(atom, Fraction(0)) + coeff * a
                combined.pop(target, None)
                const = up.const * b + low.const * a
                new_constraints.append(
                    Constraint.make(_prune(combined), const, up.strict or low.strict)
                )
        if len(new_constraints) > 4000:
            # Safety valve: give up and declare (rationally) consistent, which
            # is the sound direction for the verification pipeline.
            return True
        constraints = new_constraints


def check_arith(
    literals: Iterable[tuple[Term, bool]],
    extra_equalities: Iterable[tuple[Term, Term]] = (),
) -> bool:
    """Decide consistency of the arithmetic fragment of the given literals.

    ``extra_equalities`` are equalities between Int-sorted terms propagated
    from the EUF solver.
    """
    cnf: list[list[Constraint]] = []
    try:
        for atom, value in literals:
            translated = atom_to_constraints(atom, value)
            if translated is not None:
                cnf.extend(translated)
        for lhs, rhs in extra_equalities:
            coeffs, const = _difference(lhs, rhs)
            cnf.append([Constraint.make(coeffs, const, strict=False)])
            cnf.append([Constraint.make(_negate(coeffs), -const, strict=False)])
    except NonLinearError:
        return True  # cannot refute: stay sound by reporting consistent

    return _check_cnf(cnf, [])


def _check_cnf(cnf: list[list[Constraint]], chosen: list[Constraint]) -> bool:
    if not cnf:
        return _fm_consistent(chosen)
    first, rest = cnf[0], cnf[1:]
    for option in first:
        if _check_cnf(rest, chosen + [option]):
            return True
    return False
