"""Which functions of the checker belong to which layer, and the metrics
derived from what their wrappers measured.

Every target is named where its caller looks it up: a function imported
with ``from x import f`` into module ``m`` is wrapped as ``m.f``; methods are
wrapped on their class.  Only public entry points of each layer are named,
plus the class methods the layer's callers go through.
"""

from __future__ import annotations

from statistics import median

from tracer import Tracer


# -- probes: read a call's outcome into counters ---------------------------------------
def _solver_probe(tracer, args, kwargs):
    stats = args[0].stats
    hits = stats.cache_hits

    def after(_result):
        tracer.count("smt.cache_hits" if stats.cache_hits > hits else "smt.queries")

    return after


def _lookup_probe(tracer, args, kwargs):
    def after(entry):
        if entry is not None:
            tracer.count("store.lookup_hits")

    return after


def _memo_probe(tracer, args, kwargs):
    def after(result):
        _alphabets, built = result
        tracer.count("sfa.alphabet_builds" if built else "sfa.alphabet_replays")

    return after


def _derivative_cache_probe(tracer, args, kwargs):
    def after(found):
        tracer.count("sfa.derivative_hits" if found is not None else "sfa.derivative_misses")

    return after


def _row_probe(tracer, args, kwargs):
    table = args[0]
    before = table.rows_built

    def after(_row):
        tracer.count("sfa.rows_built", table.rows_built - before)

    return after


def _rpc_probe(tracer, args, kwargs):
    backend = args[0]
    calls, reused = backend.rpc_calls, backend.rpc_reused

    def after(_result):
        tracer.count("store.rpcs", backend.rpc_calls - calls)
        tracer.count("store.rpc_reused", backend.rpc_reused - reused)

    return after


def _queue_status_probe(tracer, args, kwargs):
    """The coordinator's drain loop: its first poll opens the virtual
    ``dispatch.drain`` frame, the first ``remaining == 0`` reply closes it
    and opens ``dispatch.join_wait`` (closed when assembly starts)."""
    after_rpc = _rpc_probe(tracer, args, kwargs)
    if "dispatch.drain_start" not in tracer.marks:
        tracer.mark("dispatch.drain_start")
        tracer.open_frame("dispatch.drain")

    def after(status):
        after_rpc(status)
        tracer.count("dispatch.drain_polls")
        if status.get("remaining", 0) == 0 and tracer.top_layer() == "dispatch.drain":
            tracer.mark("dispatch.drained")
            tracer.close_frame()
            tracer.open_frame("dispatch.join_wait")

    return after


def _complete_probe(tracer, args, kwargs):
    after_rpc = _rpc_probe(tracer, args, kwargs)

    def after(result):
        after_rpc(result)
        tracer.stamp("worker.last_complete")

    return after


def _assemble_probe(tracer, args, kwargs):
    if tracer.top_layer() == "dispatch.join_wait":
        tracer.close_frame()
    return None


#: (target, layer, counter, probe) — the counter counts outermost calls
TARGETS = (
    # lang: parsing + desugaring of method sources (lazily, on first use)
    ("repro.suite.benchmark.desugar_program", "lang.desugar", "lang.desugar_calls", None),
    # typecheck: the emit walk of one method (its children are wrapped below)
    ("repro.typecheck.checker.Checker.check_method", "typecheck", "typecheck.methods", None),
    # engine: schedule + discharge of a method's obligation batch
    ("repro.engine.scheduler.ObligationEngine.discharge_all", "engine.discharge", "engine.batches", None),
    ("repro.engine.obligations.ObligationSet.schedule", "engine.schedule", "engine.schedules", None),
    # sfa: alphabet (minterm) construction
    ("repro.sfa.alphabet.AlphabetMemo.alphabets_for", "sfa.alphabet", "sfa.alphabets_for", _memo_probe),
    ("repro.sfa.inclusion.build_alphabets", "sfa.alphabet", "sfa.build_alphabets", None),
    # sfa: the inclusion walk over derivative / transition-table products
    ("repro.sfa.inclusion.lazy_inclusion_search", "sfa.walk", "sfa.walks", None),
    ("repro.engine.scheduler.discharge_group", "sfa.walk", "sfa.walks", None),
    ("repro.sfa.inclusion.compile_dfa", "sfa.walk", "sfa.walks", None),
    ("repro.sfa.batch.TransitionTable.row", "sfa.walk", "sfa.row_calls", _row_probe),
    ("repro.sfa.derivatives.derivative", "sfa.walk", "sfa.derivatives", None),
    ("repro.sfa.derivatives.DerivativeCache.lookup", "sfa.walk", "sfa.derivative_lookups",
     _derivative_cache_probe),
    # smt: queries, CNF encoding, SAT core, theory combination
    ("repro.smt.solver.Solver.is_satisfiable", "smt.query", "smt.calls", _solver_probe),
    ("repro.smt.solver.Solver.enumerate_models", "smt.query", "smt.calls", _solver_probe),
    ("repro.smt.cnf.CnfBuilder.assert_formula", "smt.cnf", "smt.cnf_calls", None),
    ("repro.smt.cnf.to_cnf", "smt.cnf", "smt.cnf_calls", None),
    ("repro.smt.backends.dpll.SatSolver.solve", "smt.sat", "smt.sat_calls", None),
    ("repro.smt.backends.dpll.SatSolver.solve_partial", "smt.sat", "smt.sat_calls", None),
    ("repro.smt.backends.dpll.SatSolver.is_satisfiable", "smt.sat", "smt.sat_calls", None),
    ("repro.smt.backends.cdcl.CdclSolver.solve", "smt.sat", "smt.sat_calls", None),
    ("repro.smt.backends.cdcl.CdclSolver.solve_partial", "smt.sat", "smt.sat_calls", None),
    ("repro.smt.backends.cdcl.CdclSolver.is_satisfiable", "smt.sat", "smt.sat_calls", None),
    ("repro.smt.solver.check_theory", "smt.theory", "smt.theory_calls", None),
    ("repro.smt.euf.check_euf", "smt.euf", "smt.euf_calls", None),
    ("repro.smt.arith.check_arith", "smt.arith", "smt.arith_calls", None),
    # store: open, read, write, fingerprint
    ("repro.store.obligation_store.ObligationStore.__init__", "store.open", "store.opens", None),
    ("repro.store.obligation_store.ObligationStore.lookup", "store.lookup", "store.lookups",
     _lookup_probe),
    ("repro.store.obligation_store.ObligationStore.prefetch", "store.lookup", "store.prefetches", None),
    ("repro.store.obligation_store.ObligationStore.flush", "store.flush", "store.flushes", None),
    ("repro.store.obligation_store.ObligationStore.commit_run", "store.flush", "store.commits", None),
    ("repro.engine.scheduler.obligation_digest", "store.fingerprint", "store.fingerprints", None),
    # store: the remote transport (dispatch only)
    *(
        (f"repro.store.remote.RemoteStoreBackend.{name}", "store.rpc", f"store.rpc.{name}", _rpc_probe)
        for name in (
            "handshake", "lookup", "cost_hints", "append_entries", "compact",
            "invalidate", "commit_run", "gc", "enqueue", "lease", "extend", "stats",
        )
    ),
    ("repro.store.remote.RemoteStoreBackend.complete", "store.rpc", "store.rpc.complete",
     _complete_probe),
    ("repro.store.remote.RemoteStoreBackend.queue_status", "store.rpc", "store.rpc.queue_status",
     _queue_status_probe),
    # dispatch: the coordinator's phases (drain and join_wait are virtual)
    ("repro.engine.dispatch.run_benchmark", "dispatch.collect", "dispatch.collect_walks", None),
    ("repro.engine.dispatch.run_evaluation", "dispatch.assemble", "dispatch.assemblies",
     _assemble_probe),
    # evaluation: table rendering
    ("repro.evaluation.tables.table1", "evaluation.tables", "evaluation.tables", None),
    ("repro.evaluation.tables.table3", "evaluation.tables", "evaluation.tables", None),
    ("repro.evaluation.tables.table4", "evaluation.tables", "evaluation.tables", None),
)

#: benchmark construction: every factory of the registry's table
FACTORY_TABLE = "repro.suite.registry.BENCHMARK_FACTORIES"
#: targets that recurse through their own global name (see Tracer.wrap)
RECURSIVE = {"repro.sfa.derivatives.derivative"}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets the program no longer has
    (their layer then reads 0, and the traced run names them)."""
    missing = []
    tracer.wrap_sequence(FACTORY_TABLE, "suite.build", "suite.benchmarks")
    for target, layer, counter, probe in TARGETS:
        try:
            tracer.wrap(target, layer, counter, probe, recursive=target in RECURSIVE)
        except (ImportError, AttributeError, KeyError):
            missing.append(target)
    return missing


# -- metrics ---------------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: name -> unit, in report order (BENCHMARK.json's per_layer list)
PER_LAYER_UNITS = {
    "suite.build_s": "s",
    "lang.desugar_s": "s",
    "typecheck.check_method_s": "s",
    "typecheck.emit_self_s": "s",
    "typecheck.methods": "count",
    "engine.discharge_s": "s",
    "engine.schedule_s": "s",
    "engine.obligations": "count",
    "sfa.alphabet_s": "s",
    "sfa.alphabet_builds": "count",
    "sfa.alphabet_replay_ratio": "ratio",
    "sfa.walk_s": "s",
    "sfa.walks": "count",
    "sfa.rows_built": "count",
    "sfa.derivatives": "count",
    "sfa.derivative_hit_ratio": "ratio",
    "sfa.prod_states": "count",
    "smt.query_s": "s",
    "smt.queries": "count",
    "smt.cache_hit_ratio": "ratio",
    "smt.sat_queries_billed": "count",
    "smt.cnf_s": "s",
    "smt.sat_s": "s",
    "smt.sat_calls": "count",
    "smt.conflicts": "count",
    "smt.theory_s": "s",
    "smt.theory_calls": "count",
    "smt.euf_s": "s",
    "smt.arith_s": "s",
    "store.open_s": "s",
    "store.lookup_s": "s",
    "store.lookups": "count",
    "store.hit_ratio": "ratio",
    "store.flush_s": "s",
    "store.fingerprint_s": "s",
    "store.rpc_s": "s",
    "store.rpcs": "count",
    "store.rpc_reused_ratio": "ratio",
    "store.server_op_s": "s",
    "dispatch.collect_s": "s",
    "dispatch.drain_s": "s",
    "dispatch.drain_polls": "count",
    "dispatch.drain_lag_s": "s",
    "dispatch.join_wait_s": "s",
    "dispatch.assemble_s": "s",
    "dispatch.enqueued": "count",
    "worker.items": "count",
    "worker.idle_polls": "count",
    "worker.idle_tail_s": "s",
    "queue.reclaimed": "count",
    "evaluation.tables_s": "s",
    "failed_frac": "ratio",
    "bench.attributed_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
}

#: wrapper counts that must repeat exactly across traced samples (the
#: report counts ``sample.py`` sums must repeat across every phase)
TRACED_COUNTS = ("smt.queries", "sfa.rows_built")


def per_layer(trace: dict, report_counts: dict, dispatch: dict) -> dict[str, float]:
    """The per-layer metrics of one traced sample.

    ``trace`` is the merged snapshot of the sample's processes (cold and
    warm phase, forked workers included); ``report_counts`` the cold
    report's summed ``#Obl``/``#SAT``/``#Confl``/``#Prod``; ``dispatch`` the
    coordinator-side dispatch facts (empty outside ``dispatch``).
    """
    own = trace.get("self", {})
    inclusive = trace.get("inclusive", {})
    counts = trace.get("counts", {})

    def c(name: str) -> float:
        return counts.get(name, 0)

    def s(layer: str) -> float:
        return own.get(layer, 0.0)

    rpcs = c("store.rpcs")
    derivative_lookups = c("sfa.derivative_hits") + c("sfa.derivative_misses")
    workers = dispatch.get("workers", [])
    return {
        "suite.build_s": s("suite.build"),
        "lang.desugar_s": s("lang.desugar"),
        "typecheck.check_method_s": inclusive.get("typecheck", 0.0),
        "typecheck.emit_self_s": s("typecheck"),
        "typecheck.methods": c("typecheck.methods"),
        "engine.discharge_s": s("engine.discharge"),
        "engine.schedule_s": s("engine.schedule"),
        "engine.obligations": report_counts["engine.obligations"],
        "sfa.alphabet_s": s("sfa.alphabet"),
        "sfa.alphabet_builds": c("sfa.alphabet_builds") + c("sfa.build_alphabets"),
        "sfa.alphabet_replay_ratio": _ratio(c("sfa.alphabet_replays"), c("sfa.alphabets_for")),
        "sfa.walk_s": s("sfa.walk"),
        "sfa.walks": c("sfa.walks"),
        "sfa.rows_built": c("sfa.rows_built"),
        "sfa.derivatives": c("sfa.derivatives"),
        "sfa.derivative_hit_ratio": _ratio(c("sfa.derivative_hits"), derivative_lookups),
        "sfa.prod_states": report_counts["sfa.prod_states"],
        "smt.query_s": s("smt.query"),
        "smt.queries": c("smt.queries"),
        "smt.cache_hit_ratio": _ratio(c("smt.cache_hits"), c("smt.calls")),
        "smt.sat_queries_billed": report_counts["smt.sat_queries_billed"],
        "smt.cnf_s": s("smt.cnf"),
        "smt.sat_s": s("smt.sat"),
        "smt.sat_calls": c("smt.sat_calls"),
        "smt.conflicts": report_counts["smt.conflicts"],
        "smt.theory_s": s("smt.theory"),
        "smt.theory_calls": c("smt.theory_calls"),
        "smt.euf_s": s("smt.euf"),
        "smt.arith_s": s("smt.arith"),
        "store.open_s": s("store.open"),
        "store.lookup_s": s("store.lookup"),
        "store.lookups": c("store.lookups"),
        "store.hit_ratio": _ratio(c("store.lookup_hits"), c("store.lookups")),
        "store.flush_s": s("store.flush"),
        "store.fingerprint_s": s("store.fingerprint"),
        "store.rpc_s": s("store.rpc"),
        "store.rpcs": rpcs,
        "store.rpc_reused_ratio": _ratio(c("store.rpc_reused"), rpcs),
        "store.server_op_s": dispatch.get("server_op_s", 0.0),
        "dispatch.collect_s": inclusive.get("dispatch.collect", 0.0),
        "dispatch.drain_s": inclusive.get("dispatch.drain", 0.0),
        "dispatch.drain_polls": c("dispatch.drain_polls"),
        "dispatch.drain_lag_s": dispatch.get("drain_lag_s", 0.0),
        "dispatch.join_wait_s": inclusive.get("dispatch.join_wait", 0.0),
        "dispatch.assemble_s": inclusive.get("dispatch.assemble", 0.0),
        "dispatch.enqueued": dispatch.get("enqueued", 0),
        "worker.items": sum(w["stats"].get("items", 0) for w in workers),
        "worker.idle_polls": sum(w["stats"].get("idle_polls", 0) for w in workers),
        "worker.idle_tail_s": max((w["idle_tail_s"] for w in workers), default=0.0),
        "queue.reclaimed": dispatch.get("reclaimed", 0),
        "evaluation.tables_s": s("evaluation.tables"),
    }


def largest_self(trace: dict, top: int = 3) -> list[tuple[str, float]]:
    own = trace.get("self", {})
    return sorted(own.items(), key=lambda item: -item[1])[:top]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of a sample list."""
    if len(values) < 2:
        return (values[0] if values else 0.0), 0.0
    from statistics import quantiles

    q1, _q2, q3 = quantiles(values, n=4)
    return median(values), q3 - q1
