"""The bidirectional HAT type checker (Sec. 5.2, Fig. 15).

``Checker.check_method`` verifies one ADT method against its
:class:`~repro.typecheck.spec.MethodSpec`.  The algorithm walks the MNF body
while maintaining the *current context automaton* ``A`` — the SFA describing
every trace that can have happened up to this program point — exactly as the
algorithmic rules do:

* ``ChkEOpApp``: a library call looks up Δ, checks the arguments, verifies
  that the context is covered by the operator's precondition cases, and
  continues once per intersection case with ``(A ; □⟨⊤⟩) ∧ A_i'`` as the new
  context automaton;
* ``ChkApp``: calls to other ADT methods (and thunks) use their declared HATs
  the same way;
* ``ChkMatch``: each arm is checked under the corresponding path condition,
  and arms whose contexts are logically infeasible are discharged vacuously
  (the subsumption to an empty denotation);
* at every leaf (``ChkSub`` + ``TEPur``): the returned value is checked
  against the result refinement type with an SMT query and the accumulated
  context automaton is checked for inclusion in the postcondition automaton —
  for representation invariants this is the ``L(I ; new events) ⊆ L(I)``
  obligation of Sec. 2.

The leaf inclusions never steer the walk, so they are deferred:
``Checker.emit_method`` walks the body and returns the method's pending
obligations, and ``Checker.finish_method`` decides them through the
obligation engine's one discharge step.  ``check_method`` is the two in a
row; a corpus run emits every method first and then finishes them in emit
order (a dispatch coordinator once its worker fleet has filled the store).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .. import smt
from ..obs import trace
from ..obs.logs import get_logger
from ..record import Record
from ..smt.sorts import BOOL, INT, Sort, UNIT
from ..engine import ObligationEngine, ObligationSet
from ..lang import ast
from ..sfa import symbolic
from ..sfa.alphabet import AlphabetError
from ..sfa.derivatives import CompilationError
from ..smt.solver import SolverError, SolverStats
from ..sfa.inclusion import InclusionChecker, InclusionStats
from ..sfa.signatures import OperatorRegistry
from ..sfa.symbolic import Sfa
from ..store.fingerprint import library_digest, spec_digest
from ..store.obligation_store import ObligationStore, StoreContext
from ..types.context import BuiltinContext, PureOpContext, TypingContext, TypingError
from ..types.rtypes import (
    FunType,
    GhostArrow,
    HatType,
    Intersection,
    RefinementType,
    Type,
    base,
    cases_of,
    function_signature,
    nu,
    singleton,
)
from ..types.subtyping import SubtypingEngine
from .abduction import abduce_ghosts
from .spec import MethodSpec
from .stats import MethodResult, MethodStats

logger = get_logger("checker")


class CheckFailure(Exception):
    """Raised internally when a proof obligation fails; reported in the result."""


@dataclass
class CheckerConfig:
    """The paper's three ablation knobs.

    The two that steer the alphabet transformation (``filter_unsat_minterms``
    and ``max_literals``) key the store's environment fingerprint.
    """

    filter_unsat_minterms: bool = True
    prune_infeasible_branches: bool = True
    #: None = the default budget (24, or 14 without ``filter_unsat_minterms``)
    max_literals: Optional[int] = None


class PendingMethod(Record):
    """A method whose body has been walked and whose obligations await discharge.

    :meth:`Checker.emit_method` returns it and :meth:`Checker.finish_method`
    decides it.  The counters are the walk's own (inline) deltas, so methods
    emitted before any of them is finished are still billed exactly once.
    """

    __slots__ = (
        "definition", "method", "obligations", "inline_error", "solver", "inclusion",
        "store_context", "seconds",
    )

    def __init__(
        self,
        definition: ast.FunctionDef,
        method: str,
        obligations: ObligationSet,
        inline_error: Optional[str],
        solver: SolverStats,
        inclusion: InclusionStats,
        store_context: Optional[StoreContext],
        seconds: float,
    ) -> None:
        self.definition = definition
        self.method = method
        self.obligations = obligations
        #: the walk's own failure (a failed inline check or typing error), if any
        self.inline_error = inline_error
        self.solver = solver
        self.inclusion = inclusion
        self.store_context = store_context
        #: wall time of the invalidation and the walk
        self.seconds = seconds


class Checker:
    """Verifies ADT methods implemented over a stateful library."""

    def __init__(
        self,
        *,
        operators: OperatorRegistry,
        delta: BuiltinContext,
        pure_ops: PureOpContext,
        axioms: Sequence[smt.Axiom] = (),
        constants: Mapping[str, smt.Term] | None = None,
        config: CheckerConfig | None = None,
        store: ObligationStore | None = None,
        store_scope: str = "",
    ) -> None:
        self.operators = operators
        self.delta = delta
        self.pure_ops = pure_ops
        self.constants = dict(constants or {})
        self.config = config or CheckerConfig()
        self.store = store
        self.store_scope = store_scope or "adhoc"
        #: dependency-index key for everything obligations of this checker
        #: were derived from besides the method specs themselves
        self._library_digest = (
            library_digest(operators, axioms, self.constants) if store is not None else ""
        )
        self.solver = smt.Solver(axioms=list(axioms))
        # Inline queries that steer the walk (HAT subtyping, ghost abduction)
        # still go through this shared checker; deferred leaf obligations are
        # discharged by the obligation engine below.  Both build every
        # alphabet on a fresh solver under these axioms.
        self.inclusion = InclusionChecker(
            self.solver,
            operators,
            filter_unsat_minterms=self.config.filter_unsat_minterms,
            max_literals=self.config.max_literals,
        )
        self.engine = SubtypingEngine(self.solver, self.inclusion)
        self.obligation_engine = ObligationEngine(
            operators,
            axioms,
            filter_unsat_minterms=self.config.filter_unsat_minterms,
            max_literals=self.config.max_literals,
            store=store,
            # Deliberately NOT self._library_digest: the dependency record
            # includes the constant table, the environment fingerprint never
            # has (every other store path computes the constants-free digest,
            # and existing stores key on it).  The term and formula digest
            # memos make the recomputation cheap either way.
        )
        self._obligations: Optional[ObligationSet] = None

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def run_diagnostics(self) -> dict:
        """Run-level diagnostics (not per-method counters): the engine's counters.

        Reuse bookkeeping only: none of these values feeds a deterministic
        table.
        """
        return {"engine": self.obligation_engine.stats.as_dict()}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def check_method(
        self,
        definition: ast.FunctionDef,
        spec: MethodSpec,
        module_specs: Mapping[str, MethodSpec] | None = None,
    ) -> MethodResult:
        """Verify ``definition`` against ``spec``: walk the body, then discharge.

        ``module_specs`` provides HAT signatures for the other methods of the
        same module (including ``definition`` itself when it is recursive).
        """
        with trace.span(
            "method", cat="method", scope=self.store_scope or "", method=spec.name
        ):
            return self.finish_method(self.emit_method(definition, spec, module_specs))

    def emit_method(
        self,
        definition: ast.FunctionDef,
        spec: MethodSpec,
        module_specs: Mapping[str, MethodSpec] | None = None,
    ) -> PendingMethod:
        """Walk ``definition`` against ``spec``, collecting its obligations.

        Inline queries (HAT subtyping, ghost abduction) are decided during
        the walk; deferred leaf obligations never steer it, so nothing is
        discharged here.  With a store, the method's stale entries are
        invalidated first (the session queues the key, sends it with its
        next read or write, and credits the dropped count to the method).
        """
        start = time.perf_counter()
        solver_before = self.solver.stats.snapshot()
        inclusion_before = self.inclusion.stats.snapshot()

        store_context: Optional[StoreContext] = None
        if self.store is not None:
            # digest the spec as *declared* (before renaming its parameters to
            # this implementation's): known-bad variants rename parameters, and
            # an alpha-renaming must not read as a spec edit and ping-pong the
            # invalidation between a method and its negative variant
            digest = spec_digest(spec)
            self.store.invalidate_stale(
                self.store_scope, spec.name, digest, self._library_digest
            )
            store_context = StoreContext(
                scope=self.store_scope,
                method=spec.name,
                spec_digest=digest,
                library_digest=self._library_digest,
            )
        spec = spec.rename_params([name for name, _ in definition.params])
        self._module_specs = dict(module_specs or {})
        self._module_specs.setdefault(spec.name, spec)
        self._module_specs.setdefault(definition.name, spec)

        gamma = TypingContext()
        for ghost_name, ghost_sort in spec.ghosts:
            gamma = gamma.bind(ghost_name, base(ghost_sort))
        for param_name, param_type in spec.params:
            gamma = gamma.bind(param_name, param_type)

        obligations = self._obligations = ObligationSet(method=spec.name)
        inline_error: Optional[str] = None
        try:
            with trace.span("emit", cat="emit", method=spec.name):
                self._check(
                    gamma, spec.precondition, definition.body, spec.result, spec.postcondition
                )
        except (CheckFailure, TypingError) as exc:
            inline_error = str(exc)
        except (AlphabetError, CompilationError, SolverError) as exc:
            # The inline design stopped at the first failing obligation; with
            # deferral the walk continues past it, so an inline query further
            # down may hit a resource limit on a context that would never
            # have been reached.  Report it as a failed check rather than
            # crashing — if an emitted obligation also failed, that (earlier)
            # failure wins in finish_method, matching the old first-failure
            # semantics.
            inline_error = f"resource limit while checking: {exc}"
        finally:
            self._obligations = None
        return PendingMethod(
            definition=definition,
            method=spec.name,
            obligations=obligations,
            inline_error=inline_error,
            solver=self.solver.stats.since(solver_before),
            inclusion=self.inclusion.stats.since(inclusion_before),
            store_context=store_context,
            seconds=time.perf_counter() - start,
        )

    def finish_method(self, pending: PendingMethod) -> MethodResult:
        """Discharge ``pending``'s obligations and report the method.

        One discharge step (memo → store → discharge) decides every
        obligation; per-obligation counters are billed to this method on
        top of its walk's own.
        """
        start = time.perf_counter()
        solver_before = self.solver.stats.snapshot()
        inclusion_before = self.inclusion.stats.snapshot()
        engine_before = self.obligation_engine.stats.snapshot()
        outcomes = self.obligation_engine.discharge_all(
            pending.obligations,
            solver_stats=self.solver.stats,
            inclusion_stats=self.inclusion.stats,
            store_context=pending.store_context,
        )

        # Inline failures abort the walk, so every emitted obligation precedes
        # them in walk order: the earliest failing obligation (if any) is the
        # same first failure the inline design would have reported.
        failure = min(
            (outcome for outcome in outcomes.values() if outcome.failed),
            key=lambda outcome: outcome.obligation.index,
            default=None,
        )
        error: Optional[str] = None
        counterexample: Optional[list[str]] = None
        if failure is not None:
            if failure.error is not None:
                error = (
                    f"resource limit while discharging "
                    f"{failure.obligation.provenance}: {failure.error}"
                )
            else:
                error = failure.obligation.failure_message
                if failure.counterexample:
                    counterexample = list(failure.counterexample)
                    witness_text = " ; ".join(failure.counterexample)
                    error = f"{error} [counterexample trace: {witness_text}]"
        elif pending.inline_error is not None:
            error = pending.inline_error

        solver = pending.solver.snapshot()
        solver.merge(self.solver.stats.since(solver_before))
        inclusion = pending.inclusion.snapshot()
        inclusion.merge(self.inclusion.stats.since(inclusion_before))
        engine = self.obligation_engine.stats.since(engine_before)
        definition = pending.definition
        stats = MethodStats(
            method=pending.method,
            branches=ast.count_branches(definition.body),
            operator_applications=ast.count_operator_applications(definition.body),
            obligations=len(pending.obligations),
            smt_queries=solver.queries,
            smt_cache_hits=solver.cache_hits,
            sat_conflicts=solver.sat_conflicts,
            sat_decisions=solver.sat_decisions,
            sat_propagations=solver.sat_propagations,
            encodings=solver.encodings,
            theory_checks=solver.theory_checks,
            fa_inclusion_checks=inclusion.fa_inclusion_checks,
            alphabet_builds=inclusion.alphabet_builds,
            prod_states=inclusion.prod_states,
            store_hits=engine.store_hits,
            smt_time_seconds=solver.time_seconds,
            fa_time_seconds=inclusion.fa_time_seconds,
            total_time_seconds=pending.seconds + time.perf_counter() - start,
        )
        if inclusion.automata_built:
            stats.average_fa_size = inclusion.total_transitions / inclusion.automata_built
        if self.store is not None:
            self.store.note_method(
                self.store_scope,
                pending.method,
                hits=engine.store_hits,
                misses=engine.store_misses,
            )
            self.store.flush()
        logger.debug(
            "%s.%s: %s",
            self.store_scope or "?",
            pending.method,
            "verified" if error is None else f"failed ({error})",
        )
        return MethodResult(
            method=pending.method,
            verified=error is None,
            error=error,
            counterexample=counterexample,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Value handling
    # ------------------------------------------------------------------
    def value_term(
        self, gamma: TypingContext, value: ast.Value, expected_sort: Optional[Sort] = None
    ) -> smt.Term:
        """The logical encoding of a value (Fig. 4's value literals)."""
        if isinstance(value, ast.Var):
            return gamma.term_of(value.name)
        if isinstance(value, ast.Const):
            payload = value.value
            if isinstance(payload, bool):
                return smt.bool_const(payload)
            if isinstance(payload, int):
                return smt.int_const(payload)
            if payload == ():
                return smt.data_const("unit", UNIT)
            if isinstance(payload, str):
                if payload in self.constants:
                    return self.constants[payload]
                if expected_sort is None or not expected_sort.is_uninterpreted:
                    raise TypingError(
                        f"cannot determine the sort of string constant {payload!r}; "
                        "declare it in the benchmark's constant table"
                    )
                return smt.data_const(payload, expected_sort)
        raise TypingError(f"value {value!r} has no logical encoding (is it a function?)")

    def value_sort(self, gamma: TypingContext, value: ast.Value) -> Optional[Sort]:
        if isinstance(value, ast.Var):
            ty = gamma.lookup(value.name)
            return ty.sort if isinstance(ty, RefinementType) else None
        if isinstance(value, ast.Const):
            if isinstance(value.value, bool):
                return BOOL
            if isinstance(value.value, int):
                return INT
            if value.value == ():
                return UNIT
            if isinstance(value.value, str) and value.value in self.constants:
                return self.constants[value.value].sort
        return None

    # ------------------------------------------------------------------
    # Pure operator typing
    # ------------------------------------------------------------------
    _COMPARISONS = {"<": smt.lt, "<=": smt.le, ">": smt.gt, ">=": smt.ge}

    def pure_result_type(
        self, gamma: TypingContext, op: str, args: Sequence[ast.Value]
    ) -> RefinementType:
        if op in ("==", "<>"):
            lhs_sort = self.value_sort(gamma, args[0]) or self.value_sort(gamma, args[1])
            terms = [self.value_term(gamma, a, lhs_sort) for a in args]
            relation = smt.eq(terms[0], terms[1])
            if op == "<>":
                relation = smt.not_(relation)
            return RefinementType(BOOL, smt.iff(nu(BOOL), relation))
        if op in self._COMPARISONS:
            terms = [self.value_term(gamma, a, INT) for a in args]
            return RefinementType(BOOL, smt.iff(nu(BOOL), self._COMPARISONS[op](*terms)))
        if op in ("+", "-"):
            terms = [self.value_term(gamma, a, INT) for a in args]
            combined = smt.add(*terms) if op == "+" else smt.sub(*terms)
            return RefinementType(INT, smt.eq(nu(INT), combined))
        if op in ("&&", "||"):
            terms = [self.value_term(gamma, a, BOOL) for a in args]
            combined = smt.and_(*terms) if op == "&&" else smt.or_(*terms)
            return RefinementType(BOOL, smt.iff(nu(BOOL), combined))
        if op == "not":
            term = self.value_term(gamma, args[0], BOOL)
            return RefinementType(BOOL, smt.iff(nu(BOOL), smt.not_(term)))
        spec = self.pure_ops[op]
        terms = [
            self.value_term(gamma, a, sort) for a, sort in zip(args, spec.arg_sorts)
        ]
        return spec.result_type(terms)

    # ------------------------------------------------------------------
    # The bidirectional walk
    # ------------------------------------------------------------------
    def _check(
        self,
        gamma: TypingContext,
        context_automaton: Sfa,
        expr: ast.Expr,
        result_type: Union[RefinementType, FunType],
        postcondition: Sfa,
    ) -> None:
        if self.config.prune_infeasible_branches and gamma.is_infeasible(self.solver):
            return  # the denotation of Γ is empty: the path is dead (vacuous)

        if isinstance(expr, ast.Ret):
            self._check_return(gamma, context_automaton, expr.value, result_type, postcondition)
            return

        if isinstance(expr, ast.LetIn):
            if not isinstance(expr.bound, ast.Ret):
                raise TypingError(
                    "internal error: LetIn with a non-value binding survived desugaring"
                )
            self._check_let_value(gamma, context_automaton, expr, result_type, postcondition)
            return

        if isinstance(expr, ast.LetPure):
            bound_type = self.pure_result_type(gamma, expr.op, expr.args)
            new_gamma = gamma.bind(expr.name, bound_type)
            self._check(new_gamma, context_automaton, expr.body, result_type, postcondition)
            return

        if isinstance(expr, ast.LetOp):
            self._check_effectful_call(gamma, context_automaton, expr, result_type, postcondition)
            return

        if isinstance(expr, ast.LetApp):
            self._check_function_call(gamma, context_automaton, expr, result_type, postcondition)
            return

        if isinstance(expr, ast.Match):
            self._check_match(gamma, context_automaton, expr, result_type, postcondition)
            return

        raise TypingError(f"unsupported computation form {type(expr).__name__}")

    # -- leaves ------------------------------------------------------------------------
    def _check_return(
        self,
        gamma: TypingContext,
        context_automaton: Sfa,
        value: ast.Value,
        result_type: Union[RefinementType, FunType],
        postcondition: Sfa,
    ) -> None:
        if isinstance(result_type, FunType):
            self._check_returned_function(gamma, value, result_type)
        else:
            term = self.value_term(gamma, value, result_type.sort)
            if not self.engine.value_has_type(gamma, term, result_type):
                raise CheckFailure(
                    f"returned value {value!r} does not satisfy the result type {result_type!r}"
                )
        assert self._obligations is not None
        self._obligations.emit(
            "postcondition",
            gamma.hypotheses(),
            context_automaton,
            postcondition,
            provenance=f"{self._obligations.method}: return-site postcondition",
            failure_message=(
                "the accumulated effect context is not included in the postcondition "
                "automaton (the representation invariant may be violated)"
            ),
        )

    def _check_returned_function(
        self, gamma: TypingContext, value: ast.Value, expected: FunType
    ) -> None:
        """Check a returned thunk/closure against a function type."""
        if isinstance(value, ast.Var):
            actual = gamma.lookup(value.name)
            if not isinstance(actual, FunType):
                raise CheckFailure(f"{value.name} is not function-typed")
            if not self._funtype_subtype(gamma, actual, expected):
                raise CheckFailure(
                    f"function-typed value {value.name} does not match {expected!r}"
                )
            return
        if isinstance(value, ast.Lambda):
            if not isinstance(expected.result, (HatType, Intersection)):
                raise TypingError("returned closures must carry a HAT result type")
            param_type = expected.param_type
            if not isinstance(param_type, RefinementType):
                raise TypingError("higher-order closure parameters are not supported")
            inner_gamma = gamma.bind(value.param, param_type)
            for case in cases_of(expected.result):
                self._check(
                    inner_gamma, case.precondition, value.body, case.result, case.postcondition
                )
            return
        raise CheckFailure(f"cannot check value {value!r} against function type {expected!r}")

    def _funtype_subtype(self, gamma: TypingContext, sub: FunType, sup: FunType) -> bool:
        if not isinstance(sub.result, (HatType, Intersection)) or not isinstance(
            sup.result, (HatType, Intersection)
        ):
            return repr(sub) == repr(sup)
        sub_cases = cases_of(sub.result)
        sup_cases = cases_of(sup.result)
        return all(
            any(self.engine.hat_subtype(gamma, sc, pc) for sc in sub_cases) for pc in sup_cases
        )

    # -- let value ----------------------------------------------------------------------
    def _check_let_value(
        self,
        gamma: TypingContext,
        context_automaton: Sfa,
        expr: ast.LetIn,
        result_type: Union[RefinementType, FunType],
        postcondition: Sfa,
    ) -> None:
        assert isinstance(expr.bound, ast.Ret)
        value = expr.bound.value
        if isinstance(value, (ast.Lambda, ast.Fix)):
            raise TypingError(
                "locally bound closures need a type annotation; "
                "return them directly or lift them to a module-level definition"
            )
        if isinstance(value, ast.Var):
            bound_ty = gamma.lookup(value.name)
            if isinstance(bound_ty, (FunType, GhostArrow)):
                new_gamma = gamma.bind(expr.name, bound_ty)
                self._check(new_gamma, context_automaton, expr.body, result_type, postcondition)
                return
        sort = self.value_sort(gamma, value)
        term = self.value_term(gamma, value, sort)
        new_gamma = gamma.bind(expr.name, singleton(term.sort, term))
        self._check(new_gamma, context_automaton, expr.body, result_type, postcondition)

    # -- effectful operator application (ChkEOpApp) ----------------------------------------
    def _check_effectful_call(
        self,
        gamma: TypingContext,
        context_automaton: Sfa,
        expr: ast.LetOp,
        result_type: Union[RefinementType, FunType],
        postcondition: Sfa,
    ) -> None:
        op_type = self.delta[expr.op]
        ghosts, params, effect = function_signature(op_type)
        if len(params) != len(expr.args):
            raise TypingError(
                f"{expr.op} expects {len(params)} arguments, got {len(expr.args)}"
            )

        substitution: dict[smt.Term, smt.Term] = {}
        for (param_name, param_type), arg in zip(params, expr.args):
            arg_term = self.value_term(gamma, arg, param_type.sort)
            if not self.engine.value_has_type(gamma, arg_term, param_type):
                raise CheckFailure(
                    f"argument {arg!r} of {expr.op} does not satisfy {param_type!r}"
                )
            substitution[smt.var(param_name, param_type.sort)] = arg_term

        gamma, ghost_substitution = abduce_ghosts(
            self, gamma, context_automaton, ghosts, effect, substitution
        )
        substitution.update(ghost_substitution)

        cases = [case.substitute(substitution) for case in cases_of(effect)]
        self._check_cases(
            gamma, context_automaton, expr.name, expr.op, cases, expr.body, result_type, postcondition
        )

    def _check_cases(
        self,
        gamma: TypingContext,
        context_automaton: Sfa,
        binder: str,
        call_description: str,
        cases: Sequence[HatType],
        body: ast.Expr,
        result_type: Union[RefinementType, FunType],
        postcondition: Sfa,
        single_event: bool = True,
    ) -> None:
        """Common continuation for operator and function calls.

        ``single_event`` is true for effectful operator applications (which
        append exactly one event per STEffOp) and false for calls to other
        ADT methods or thunks, which may append arbitrarily many events.
        """
        precondition_union = symbolic.or_(*(case.precondition for case in cases))
        assert self._obligations is not None
        self._obligations.emit(
            "coverage",
            gamma.hypotheses(),
            context_automaton,
            precondition_union,
            provenance=(
                f"{self._obligations.method}: precondition coverage of {call_description}"
            ),
            failure_message=(
                f"the effect context does not satisfy the precondition of {call_description}"
            ),
        )
        # Each effectful operator appends exactly one event (STEffOp), so the
        # new context is "the old context followed by exactly one event",
        # intersected with the operator's postcondition automaton.  This is the
        # precise rendering of the paper's (A ; □⟨⊤⟩) ∧ A'_i frame: pinning the
        # appended suffix to a single event keeps the fact that the *entire*
        # previous history satisfied A, which the existential split of ';'
        # would otherwise lose.
        if single_event:
            suffix = symbolic.and_(symbolic.any_event(), symbolic.last())
        else:
            suffix = symbolic.any_trace()
        frame = symbolic.concat(context_automaton, suffix)
        for case in cases:
            new_gamma = gamma.bind(binder, case.result)
            new_context = symbolic.and_(frame, case.postcondition)
            self._check(new_gamma, new_context, body, result_type, postcondition)

    # -- function / method / thunk application (ChkApp) --------------------------------------
    def _check_function_call(
        self,
        gamma: TypingContext,
        context_automaton: Sfa,
        expr: ast.LetApp,
        result_type: Union[RefinementType, FunType],
        postcondition: Sfa,
    ) -> None:
        if not isinstance(expr.func, ast.Var):
            raise TypingError("only named functions and thunk variables can be applied")
        name = expr.func.name

        if name in gamma and isinstance(gamma.lookup(name), FunType):
            self._check_thunk_call(gamma, context_automaton, expr, result_type, postcondition)
            return

        spec = self._module_specs.get(name)
        if spec is None:
            raise TypingError(f"no HAT signature for function {name!r}")

        substitution: dict[smt.Term, smt.Term] = {}
        thunk_bindings: dict[str, FunType] = {}
        if len(spec.params) != len(expr.args):
            raise TypingError(
                f"{name} expects {len(spec.params)} arguments, got {len(expr.args)}"
            )
        for (param_name, param_type), arg in zip(spec.params, expr.args):
            if isinstance(param_type, FunType):
                if not isinstance(arg, ast.Var):
                    raise TypingError("function-typed arguments must be variables")
                actual = gamma.lookup(arg.name)
                if not isinstance(actual, FunType) or not self._funtype_subtype(
                    gamma, actual, param_type
                ):
                    raise CheckFailure(
                        f"argument {arg.name} does not satisfy the thunk type {param_type!r}"
                    )
                continue
            arg_term = self.value_term(gamma, arg, param_type.sort)
            if not self.engine.value_has_type(gamma, arg_term, param_type):
                raise CheckFailure(
                    f"argument {arg!r} of {name} does not satisfy {param_type!r}"
                )
            substitution[smt.var(param_name, param_type.sort)] = arg_term

        # Ghost variables of the callee: instantiate with the caller's variable
        # of the same name when it exists (the typical recursive-helper case),
        # otherwise leave them universally quantified by binding them fresh.
        for ghost_name, ghost_sort in spec.ghosts:
            ghost_var = smt.var(ghost_name, ghost_sort)
            if ghost_name in gamma:
                substitution[ghost_var] = gamma.term_of(ghost_name)
            else:
                gamma = gamma.bind(ghost_name, base(ghost_sort))
                substitution[ghost_var] = ghost_var

        mapped = dict(substitution)
        callee_result = (
            spec.result.substitute(mapped)
            if isinstance(spec.result, RefinementType)
            else spec.result
        )
        case = HatType(
            precondition=symbolic.substitute(spec.precondition, mapped),
            result=callee_result if isinstance(callee_result, RefinementType) else base(UNIT),
            postcondition=symbolic.substitute(spec.postcondition, mapped),
        )
        if isinstance(callee_result, FunType):
            # function-returning methods (e.g. LazySet's thunk constructors)
            assert self._obligations is not None
            self._obligations.emit(
                "precondition",
                gamma.hypotheses(),
                context_automaton,
                case.precondition,
                provenance=f"{self._obligations.method}: precondition of call to {name}",
                failure_message=(
                    f"the effect context does not satisfy the precondition of {name}"
                ),
            )
            frame = symbolic.concat(context_automaton, symbolic.any_trace())
            new_context = symbolic.and_(frame, case.postcondition)
            new_gamma = gamma.bind(expr.name, callee_result)
            self._check(new_gamma, new_context, expr.body, result_type, postcondition)
            return

        self._check_cases(
            gamma,
            context_automaton,
            expr.name,
            name,
            [case],
            expr.body,
            result_type,
            postcondition,
            single_event=False,
        )

    def _check_thunk_call(
        self,
        gamma: TypingContext,
        context_automaton: Sfa,
        expr: ast.LetApp,
        result_type: Union[RefinementType, FunType],
        postcondition: Sfa,
    ) -> None:
        thunk_type = gamma.lookup(expr.func.name)
        assert isinstance(thunk_type, FunType)
        if not isinstance(thunk_type.result, (HatType, Intersection)):
            raise TypingError("thunk types must have a HAT result")
        if len(expr.args) != 1:
            raise TypingError("thunks take exactly one (unit) argument")
        cases = list(cases_of(thunk_type.result))
        self._check_cases(
            gamma,
            context_automaton,
            expr.name,
            expr.func.name,
            cases,
            expr.body,
            result_type,
            postcondition,
            single_event=False,
        )

    # -- pattern matching (ChkMatch) -------------------------------------------------------
    def _check_match(
        self,
        gamma: TypingContext,
        context_automaton: Sfa,
        expr: ast.Match,
        result_type: Union[RefinementType, FunType],
        postcondition: Sfa,
    ) -> None:
        scrutinee_sort = self.value_sort(gamma, expr.scrutinee)
        scrutinee = self.value_term(gamma, expr.scrutinee, scrutinee_sort)
        for branch in expr.branches:
            if branch.constructor == "true":
                condition = smt.eq(scrutinee, smt.TRUE)
            elif branch.constructor == "false":
                condition = smt.eq(scrutinee, smt.FALSE)
            elif branch.constructor == "unit":
                condition = smt.TRUE
            else:
                raise TypingError(
                    f"pattern matching on constructor {branch.constructor!r} is not "
                    "supported; benchmark ADTs interact with libraries through their "
                    "effectful operators instead of concrete constructors"
                )
            if branch.binders:
                raise TypingError("boolean/unit patterns cannot bind variables")
            branch_gamma = gamma.assume(condition)
            self._check(branch_gamma, context_automaton, branch.body, result_type, postcondition)
