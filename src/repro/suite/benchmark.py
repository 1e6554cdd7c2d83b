"""The benchmark-suite abstraction: an ADT implementation plus its specification.

Each entry of the paper's evaluation corpus (Table 1) is represented by an
:class:`AdtBenchmark`: the Mini-ML sources of the ADT methods, the backing
library, the representation invariant, and per-method HAT specifications.
Known-incorrect variants (such as §2's ``addbad``) are carried alongside so
the evaluation can confirm they are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from .. import smt
from ..lang import ast
from ..lang.desugar import desugar_program
from ..obs import trace
from ..libraries.base import Library
from ..sfa import symbolic
from ..sfa.symbolic import Sfa
from ..typecheck.checker import Checker, CheckerConfig
from ..typecheck.spec import MethodSpec
from ..typecheck.stats import AdtStats, MethodResult

if TYPE_CHECKING:
    from ..lang.interp import Interpreter


@dataclass
class AdtBenchmark:
    """One row of the evaluation corpus."""

    adt: str
    library_name: str
    library: Library
    source: str
    invariant_description: str
    invariant: Sfa
    ghosts: tuple[tuple[str, object], ...]
    specs: dict[str, MethodSpec]
    #: method name -> (source text, spec name) for variants that must be rejected
    negative_variants: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: extra named constants used by the sources
    constants: dict[str, smt.Term] = field(default_factory=dict)
    #: maximum number of literals the inclusion checker may enumerate
    max_literals: int = 14
    #: rough cost marker: benchmarks flagged slow are skipped by quick runs
    slow: bool = False

    # -- derived artefacts -----------------------------------------------------------
    @property
    def key(self) -> str:
        return f"{self.adt}/{self.library_name}"

    @property
    def invariant_size(self) -> int:
        return symbolic.size(self.invariant)

    @property
    def num_ghosts(self) -> int:
        return len(self.ghosts)

    @cached_property
    def program(self) -> ast.Program:
        return self.parse_variant(self.source)

    def parse_variant(self, source: str) -> ast.Program:
        # the front end's share of the emit phase, attributed in a trace
        with trace.span("desugar", cat="emit", benchmark=self.key):
            return desugar_program(
                source,
                effectful_ops=self.library.effectful_op_names(),
                pure_ops=self.library.pure_ops.names(),
            )

    def make_checker(self, config: Optional[CheckerConfig] = None, *, store=None) -> Checker:
        from dataclasses import replace

        from ..sfa.alphabet import resolve_max_literals

        config = config or CheckerConfig()
        # the benchmark's max_literals is a floor on top of the default
        # budget; derive a fresh config rather than mutating the caller's
        # (one CheckerConfig is commonly reused across benchmarks)
        resolved = resolve_max_literals(config.max_literals, config.filter_unsat_minterms)
        config = replace(config, max_literals=max(resolved, self.max_literals))
        all_constants = dict(self.library.constants)
        all_constants.update(self.constants)
        return Checker(
            operators=self.library.operators,
            delta=self.library.delta,
            pure_ops=self.library.pure_ops,
            axioms=self.library.axioms,
            constants=all_constants,
            config=config,
            store=store,
            store_scope=self.key,
        )

    # -- verification ------------------------------------------------------------------
    def verify_method(self, method: str, checker: Optional[Checker] = None) -> MethodResult:
        checker = checker or self.make_checker()
        definition = self.program[method]
        return checker.check_method(definition, self.specs[method], self.specs)

    def verify_all(self, checker: Optional[Checker] = None) -> AdtStats:
        """Verify every method: emit them all, read the store once, then
        finish them in order — the phases a corpus run goes through, so the
        methods' invalidation keys ride one batched ``invalidate`` op."""
        checker = checker or self.make_checker()
        pending = [
            checker.emit_method(definition, spec, self.specs)
            for definition, spec in self.checks(negative_variants=False)
        ]
        checker.obligation_engine.prefetch([method.obligations for method in pending])
        return self.adt_stats([checker.finish_method(method) for method in pending])

    def checks(
        self, negative_variants: bool = True
    ) -> Iterator[tuple[ast.FunctionDef, MethodSpec]]:
        """What a corpus run checks, in order: ``(definition, spec)`` pairs.

        Every method against its own spec, then (with ``negative_variants``)
        each known-bad variant against the spec it must fail.  Variants are
        parsed lazily, in check order.
        """
        for method, spec in self.specs.items():
            yield self.program[method], spec
        if negative_variants:
            for name, (source, spec_name) in self.negative_variants.items():
                yield self.parse_variant(source)[name], self.specs[spec_name]

    def adt_stats(self, results: Sequence[MethodResult]) -> AdtStats:
        """The benchmark's row, from its methods' results in spec order."""
        stats = AdtStats(
            adt=self.adt,
            library=self.library_name,
            num_methods=len(self.specs),
            num_ghosts=self.num_ghosts,
            invariant_size=self.invariant_size,
        )
        for result in results:
            stats.method_results.append(result)
            stats.total_time_seconds += result.stats.total_time_seconds
            stats.all_verified = stats.all_verified and result.verified
        return stats

    def verify_negative_variant(self, name: str, checker: Optional[Checker] = None) -> MethodResult:
        """Check a known-bad variant; callers assert the result is *not* verified."""
        checker = checker or self.make_checker()
        source, spec_name = self.negative_variants[name]
        program = self.parse_variant(source)
        return checker.check_method(program[name], self.specs[spec_name], self.specs)

    # -- dynamic execution (used by examples and property tests) --------------------------
    # (the interpreter is imported here, not at module level: a check never loads it)
    def interpreter(self) -> Interpreter:
        from ..lang.interp import Interpreter

        return Interpreter(self.library.model(), self.library.pure_impls)

    def module(self, interpreter: Optional[Interpreter] = None) -> dict[str, object]:
        from ..lang.interp import module_environment

        interpreter = interpreter or self.interpreter()
        return module_environment(self.program, interpreter)
