"""The tracked benchmark harness (``repro bench``).

Runs the evaluation corpus twice — **cold** (no store, every obligation
discharged) and **warm** (a second run answered from a store the cold run
populated) — and reports wall-clock times next to the full deterministic
counter set of Tables 1/3/4.  The JSON payload is what gets committed as
``BENCH_PR<k>.json``: the counters give every later session an exact
behavioural fingerprint to diff against, the wall times give CI a regression
tripwire (``compare_payloads`` applies the tolerance), and the ``baseline``
section carries the numbers of the previous PR so "did this PR actually get
faster?" stays answerable from the repository alone.

Wall-clock comparisons are only meaningful on comparable hardware; the
committed payload records the machine it was measured on, and the CI
tolerance exists precisely because runners drift.  The *counters*, by
contrast, must reproduce everywhere byte for byte.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..evaluation.runner import EvaluationReport, run_evaluation
from ..evaluation.tables import table1, table3, table4
from ..store.obligation_store import ObligationStore
from ..typecheck.checker import CheckerConfig

#: Payload layout version for BENCH_*.json files.
BENCH_SCHEMA = 1

#: The per-method counters aggregated into the payload (sums over the corpus).
_COUNTER_FIELDS = (
    "obligations",
    "smt_queries",
    "smt_cache_hits",
    "sat_conflicts",
    "fa_inclusion_checks",
    "alphabet_builds",
    "alphabet_memo_hits",
    "prod_states",
    "store_hits",
)


def _aggregate_counters(report: EvaluationReport) -> dict:
    totals = {field: 0 for field in _COUNTER_FIELDS}
    for stats in report.adt_stats:
        for result in stats.method_results:
            for field in _COUNTER_FIELDS:
                totals[field] += getattr(result.stats, field)
    # the cross-obligation reuse layers' own rates (cache/memo hit and
    # eviction counts) — reuse bookkeeping, so advisory in comparisons, but
    # they answer "is the memo actually earning its keep?" from the payload
    totals.update(report.cache_totals())
    return totals


def _phase_payload(report: EvaluationReport, wall_seconds: float, all_walls: list) -> dict:
    return {
        "wall_seconds": round(wall_seconds, 4),
        "wall_seconds_all_runs": [round(w, 4) for w in all_walls],
        "all_verified": report.all_verified,
        "all_negatives_rejected": report.all_negatives_rejected,
        "per_adt_wall_seconds": {
            f"{stats.adt}/{stats.library}": round(stats.total_time_seconds, 4)
            for stats in report.adt_stats
        },
        "counters": _aggregate_counters(report),
        "tables_deterministic": {
            "table1": table1(report, deterministic=True),
            "table3": table3(report, deterministic=True),
            "table4": table4(report, deterministic=True),
        },
    }


def shard_of(digest: str, shards: int) -> int:
    """Static hash placement: the shard a fingerprint hashes into."""
    return int(digest[:12], 16) % shards


def run_dispatch_ab(
    *,
    workers: int = 3,
    cheap: int = 24,
    cheap_ms: int = 25,
    straggler_ms: int = 300,
) -> dict:
    """The straggler-skew microbench: static hash shards vs work stealing.

    A synthetic obligation set — one straggler plus many cheap items, each
    "discharged" by sleeping its cost — is executed two ways with the same
    worker count:

    * **static**: items are partitioned by :func:`shard_of` (static hash
      placement); each worker sleeps through its fixed slice.  The fp salt
      is searched deterministically so the straggler's shard also carries
      its fair share of cheap items — the placement a hash partition cannot
      avoid, since fingerprints hash where they hash;
    * **stealing**: the items go through a real in-process store server's
      lease queue and the workers *pull* one at a time, cost-ordered (LPT
      at dequeue) — the straggler starts immediately and the cheap items
      level across the remaining workers.

    Makespans: static ≈ straggler + its shard's cheap share; stealing ≈
    max(straggler, total/workers) + RPC overhead.  The payload's
    ``speedup`` (static/stealing) is the committed, CI-gated evidence that
    pull-based dispatch beats static placement under skew.
    """
    import hashlib
    import threading

    from ..store.remote import RemoteStoreBackend
    from ..store.server import StoreHTTPServer, StoreService

    if workers < 2:
        raise ValueError("the dispatch A/B needs at least 2 workers")
    costs = {"straggler": straggler_ms / 1000.0}
    for index in range(cheap):
        costs[f"cheap-{index:02d}"] = cheap_ms / 1000.0

    def fingerprints(salt: int) -> dict[str, str]:
        return {
            name: hashlib.sha256(f"dispatch-ab:{salt}:{name}".encode()).hexdigest()
            for name in costs
        }

    # deterministic salt search: make the static partition representative —
    # the straggler's shard must carry at least an even share of the cheap
    # items (hashing gives it that in expectation; we pin it for stability)
    fair_share = cheap // workers
    salt_chosen, cheap_share = 0, 0
    for salt in range(1000):
        fps = fingerprints(salt)
        home = shard_of(fps["straggler"], workers)
        share = sum(
            1
            for name in costs
            if name != "straggler" and shard_of(fps[name], workers) == home
        )
        if share >= fair_share:
            salt_chosen, cheap_share = salt, share
            break
    fp_of = fingerprints(salt_chosen)

    # -- static: each worker sleeps through its hash-assigned slice ---------
    slices: dict[int, list[float]] = {index: [] for index in range(workers)}
    for name, cost in costs.items():
        slices[shard_of(fp_of[name], workers)].append(cost)

    def sleep_through(slice_costs: list) -> None:
        for cost in slice_costs:
            time.sleep(cost)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=sleep_through, args=(slice_costs,))
        for slice_costs in slices.values()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    static_seconds = time.perf_counter() - started

    # -- stealing: the same items pulled through a real lease queue ---------
    cost_by_key = {f"bench:{fp_of[name]}": cost for name, cost in costs.items()}
    with tempfile.TemporaryDirectory(prefix="pymarple-dispatch-ab-") as tmp:
        service = StoreService(str(Path(tmp) / "store"))
        server = StoreHTTPServer(("127.0.0.1", 0), service)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        try:
            coordinator = RemoteStoreBackend(server.url)
            coordinator.handshake()
            coordinator.enqueue(
                [
                    {
                        "env": "bench",
                        "fp": fp_of[name],
                        "bench": name,
                        "cost": cost,
                        "measured": True,
                    }
                    for name, cost in costs.items()
                ],
                "dispatch-ab",
            )

            def pull() -> None:
                backend = RemoteStoreBackend(server.url)
                while True:
                    grant = backend.lease(1, 30.0, worker="dispatch-ab")
                    if not grant.get("lease"):
                        break
                    keys = []
                    for item in grant["items"]:
                        key = f"{item['env']}:{item['fp']}"
                        time.sleep(cost_by_key[key])
                        keys.append(key)
                    backend.complete(grant["lease"], keys)
                backend.close()

            started = time.perf_counter()
            threads = [threading.Thread(target=pull) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stealing_seconds = time.perf_counter() - started
            coordinator.close()
        finally:
            server.shutdown()
            loop.join()
            server.server_close()
            service.close()

    return {
        "workers": workers,
        "items": len(costs),
        "cheap": cheap,
        "cheap_ms": cheap_ms,
        "straggler_ms": straggler_ms,
        "salt": salt_chosen,
        "straggler_shard_cheap_items": cheap_share,
        "static_seconds": round(static_seconds, 4),
        "stealing_seconds": round(stealing_seconds, 4),
        "speedup": round(static_seconds / stealing_seconds, 3),
        "stealing_beats_static": stealing_seconds < static_seconds,
    }


def run_bench(
    *,
    include_slow: bool = False,
    runs: int = 3,
    config: Optional[CheckerConfig] = None,
    store_path: Optional[str] = None,
    dispatch_ab: bool = False,
) -> dict:
    """Run the corpus cold and warm; return the BENCH payload.

    ``runs`` cold runs are timed and the best (minimum) wall time reported —
    the usual benchmarking convention, since noise only ever adds time.  The
    warm phase reuses a store populated by one extra cold pass (kept out of
    the timings) so its wall time measures pure store-replay speed.
    """
    if runs < 1:
        raise ValueError("bench requires runs >= 1")
    config = config or CheckerConfig()

    cold_walls: list[float] = []
    cold_report: Optional[EvaluationReport] = None
    for _ in range(runs):
        start = time.perf_counter()
        report = run_evaluation(include_slow=include_slow, config=config)
        wall = time.perf_counter() - start
        cold_walls.append(wall)
        if cold_report is None or wall <= min(cold_walls):
            cold_report = report

    with tempfile.TemporaryDirectory(prefix="pymarple-bench-") as tmp:
        store_dir = store_path or str(Path(tmp) / "store")
        store = ObligationStore(store_dir, backend=config.store_backend)
        run_evaluation(include_slow=include_slow, config=config, store=store)
        store.flush()
        store.commit_run()

        warm_walls: list[float] = []
        warm_report: Optional[EvaluationReport] = None
        for _ in range(runs):
            warm_store = ObligationStore(store_dir, backend=config.store_backend)
            start = time.perf_counter()
            report = run_evaluation(
                include_slow=include_slow, config=config, store=warm_store
            )
            wall = time.perf_counter() - start
            warm_walls.append(wall)
            if warm_report is None or wall <= min(warm_walls):
                warm_report = report
            warm_store.flush()
            warm_store.commit_run()

    assert cold_report is not None and warm_report is not None
    payload = {
        "schema": BENCH_SCHEMA,
        "corpus": "full" if include_slow else "fast",
        "runs": runs,
        "machine": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "config": {
            "backend": config.backend,
            "schedule": config.schedule,
            "memo": config.cross_obligation_memo,
        },
        "cold": _phase_payload(cold_report, min(cold_walls), cold_walls),
        "warm": _phase_payload(warm_report, min(warm_walls), warm_walls),
    }
    if dispatch_ab:
        payload["dispatch_ab"] = run_dispatch_ab()
    return payload


def load_payload(path) -> dict:
    """Read a BENCH payload; raises ValueError on a malformed file."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "cold" not in payload:
        raise ValueError("not a BENCH payload (missing the 'cold' phase)")
    return payload


def compare_payloads(
    current: dict, baseline: dict, *, tolerance: float = 0.2
) -> tuple[bool, list[str]]:
    """Diff a fresh payload against a committed baseline.

    The gate is the **cold** wall time: a regression beyond ``tolerance``
    (relative) fails.  Warm-time drift and counter changes are reported but
    advisory — counters legitimately move when the pipeline changes, and the
    committed payload is refreshed in the same commit that moves them.
    """
    messages: list[str] = []
    ok = True
    base_cold_phase = baseline.get("cold")
    if not isinstance(base_cold_phase, dict) or "wall_seconds" not in base_cold_phase:
        raise ValueError(
            "baseline payload records no cold wall time "
            "(missing 'cold.wall_seconds'); re-record it with `repro bench --output`"
        )
    base_cold = float(base_cold_phase["wall_seconds"])
    cur_cold = float(current["cold"]["wall_seconds"])
    budget = base_cold * (1.0 + tolerance)
    delta = (cur_cold - base_cold) / base_cold if base_cold > 0 else 0.0
    verdict = "ok" if cur_cold <= budget else "REGRESSION"
    messages.append(
        f"cold wall: {cur_cold:.3f}s vs baseline {base_cold:.3f}s "
        f"({delta:+.1%}, tolerance {tolerance:.0%}) — {verdict}"
    )
    if cur_cold > budget:
        ok = False
    base_warm_phase = baseline.get("warm")
    base_warm = (
        base_warm_phase.get("wall_seconds")
        if isinstance(base_warm_phase, dict)
        else None
    )
    cur_warm = current.get("warm", {}).get("wall_seconds")
    if base_warm is None:
        # a degraded but legal baseline (e.g. hand-trimmed, or from a tool
        # version without a warm phase): say so instead of KeyError-ing
        messages.append(
            "baseline records no warm wall time (no 'warm.wall_seconds' field); "
            "warm drift not compared"
        )
    elif cur_warm is not None:
        messages.append(
            f"warm wall: {float(cur_warm):.3f}s vs baseline {float(base_warm):.3f}s (advisory)"
        )
    base_counters = baseline["cold"].get("counters", {})
    cur_counters = current["cold"].get("counters", {})
    moved = {
        key: (base_counters[key], cur_counters[key])
        for key in sorted(set(base_counters) & set(cur_counters))
        if base_counters[key] != cur_counters[key]
    }
    if moved:
        rendered = ", ".join(f"{k}: {a} -> {b}" for k, (a, b) in moved.items())
        messages.append(f"counters moved (advisory): {rendered}")
    else:
        messages.append("counters: identical to baseline")
    cur_dispatch = current.get("dispatch_ab")
    if isinstance(cur_dispatch, dict):
        # the work-stealing claim is a hard gate: on the same machine, in the
        # same payload, pulling must beat static placement under skew
        speedup = float(cur_dispatch.get("speedup", 0.0))
        verdict = "ok" if speedup > 1.0 else "REGRESSION"
        messages.append(
            f"dispatch A/B: stealing {cur_dispatch.get('stealing_seconds')}s vs "
            f"static {cur_dispatch.get('static_seconds')}s "
            f"(speedup {speedup:.2f}x) — {verdict}"
        )
        if speedup <= 1.0:
            ok = False
        base_dispatch = baseline.get("dispatch_ab")
        if isinstance(base_dispatch, dict) and base_dispatch.get("stealing_seconds"):
            base_steal = float(base_dispatch["stealing_seconds"])
            cur_steal = float(cur_dispatch.get("stealing_seconds", 0.0))
            steal_delta = (cur_steal - base_steal) / base_steal if base_steal > 0 else 0.0
            steal_verdict = "ok" if cur_steal <= base_steal * (1.0 + tolerance) else "REGRESSION"
            messages.append(
                f"dispatch stealing makespan: {cur_steal:.3f}s vs baseline "
                f"{base_steal:.3f}s ({steal_delta:+.1%}, tolerance {tolerance:.0%}) "
                f"— {steal_verdict}"
            )
            if cur_steal > base_steal * (1.0 + tolerance):
                ok = False
    return ok, messages


def summarize(payload: dict) -> str:
    """A short human rendering of one payload (printed by ``repro bench``)."""
    cold, warm = payload["cold"], payload["warm"]
    counters = cold["counters"]
    lines = [
        f"bench ({payload['corpus']} corpus, best of {payload['runs']}):",
        f"  cold: {cold['wall_seconds']:.3f}s  "
        f"(verified={cold['all_verified']}, negatives rejected={cold['all_negatives_rejected']})",
        f"  warm: {warm['wall_seconds']:.3f}s  (store hits={warm['counters']['store_hits']})",
        f"  obligations={counters['obligations']}  #SAT={counters['smt_queries']}  "
        f"alphabet builds={counters['alphabet_builds']}  "
        f"memo hits={counters['alphabet_memo_hits']}  prod states={counters['prod_states']}",
    ]
    if "alphabet_memo_builds" in counters:
        lines.append(
            f"  caches: alphabet memo {counters.get('alphabet_memo_replays', 0)} replays / "
            f"{counters['alphabet_memo_builds']} builds "
            f"({counters.get('alphabet_memo_evictions', 0)} evictions)"
        )
    dispatch = payload.get("dispatch_ab")
    if dispatch:
        lines.append(
            f"  dispatch A/B ({dispatch['workers']} workers, "
            f"{dispatch['items']} items): static {dispatch['static_seconds']:.3f}s "
            f"vs stealing {dispatch['stealing_seconds']:.3f}s  "
            f"(speedup {dispatch['speedup']:.2f}x)"
        )
    return "\n".join(lines)
