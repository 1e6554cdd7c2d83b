"""The obligation codec and the dispatch path that ships its encodings.

A queue item carries the obligation itself (``engine/codec.py``), so a
dispatch worker decodes and discharges it instead of re-walking the
benchmark that emitted it.  These tests pin the codec's round trip over
every obligation of the full corpus, its refusals, and the two claims the
worker makes: the store entries it writes are a serial run's, and it never
type-checks a method.
"""

import json
import multiprocessing
import os
from dataclasses import asdict

import pytest

from repro.engine.codec import CODEC_VERSION, CodecError, decode, decode_payload, encode
from repro.engine.dispatch import run_distributed_evaluation
from repro.engine.worker import run_worker
from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.sfa.signatures import OperatorRegistry
from repro.store.backends import open_backend
from repro.store.fingerprint import obligation_digest
from repro.store.obligation_store import ObligationStore
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread
from repro.suite.registry import all_benchmarks, benchmark_by_key
from repro.typecheck.checker import Checker

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="local dispatch workers are forked",
)


def _store_misses(benchmark, store):
    """Emit every method and variant of ``benchmark``; yield each deduped
    store miss as ``(env, digest, obligation, store_context)``.  Nothing is
    discharged."""
    checker = benchmark.make_checker(store=store)
    for definition, spec in benchmark.checks():
        pending = checker.emit_method(definition, spec, benchmark.specs)
        for env, digest, obligation in checker.obligation_engine.store_misses(
            pending.obligations
        ):
            yield env, digest, obligation, pending.store_context


@pytest.fixture(scope="module")
def corpus_obligations(tmp_path_factory):
    """Every obligation of the full corpus, via emit walks against empty
    stores: each one is a store miss and nothing is discharged."""
    collected = []
    for benchmark in all_benchmarks(include_slow=True):
        store = ObligationStore(tmp_path_factory.mktemp("emit"))
        for _env, digest, obligation, _context in _store_misses(benchmark, store):
            collected.append((benchmark, obligation, digest))
    return collected


def test_round_trip_over_the_full_corpus(corpus_obligations):
    benches = {bench.key for bench, _, _ in corpus_obligations}
    assert "FileSystem/KVStore" in benches and len(benches) == len(all_benchmarks())
    for bench, obligation, digest in corpus_obligations:
        wire = json.loads(json.dumps(encode(obligation)))
        decoded = decode(wire, bench.library.operators)
        assert obligation_digest(decoded) == digest == obligation_digest(obligation)
        # same process: re-interning lands on the very same nodes
        assert decoded.lhs is obligation.lhs and decoded.rhs is obligation.rhs
        assert len(decoded.hypotheses) == len(obligation.hypotheses)
        assert all(a is b for a, b in zip(decoded.hypotheses, obligation.hypotheses))
        assert decoded == obligation  # kind, provenance, message and index too


def _an_obligation(corpus_obligations):
    bench, obligation, _ = next(
        (b, o, d) for b, o, d in corpus_obligations if o.lhs.operators()
    )
    return bench, obligation


def test_decode_refuses_a_foreign_version(corpus_obligations):
    bench, obligation = _an_obligation(corpus_obligations)
    record = dict(encode(obligation), version="obligation-dag-0")
    with pytest.raises(CodecError, match=f"version 'obligation-dag-0'.*{CODEC_VERSION}"):
        decode(record, bench.library.operators)


def test_decode_refuses_an_unknown_signature(corpus_obligations):
    bench, obligation = _an_obligation(corpus_obligations)
    name = next(iter(obligation.lhs.operators())).name
    with pytest.raises(CodecError, match=f"unknown event signature '{name}'"):
        decode(encode(obligation), OperatorRegistry())


def test_decode_refuses_missing_and_malformed_payloads(corpus_obligations):
    bench, obligation = _an_obligation(corpus_obligations)
    operators = bench.library.operators
    with pytest.raises(CodecError, match="no obligation payload"):
        decode_payload(None, operators)
    for payload in ("{not json", '{"obligation": {}}', '{"context": {"scope": 1}}'):
        with pytest.raises(CodecError, match="malformed obligation payload"):
            decode_payload(payload, operators)
    truncated = dict(encode(obligation), terms=[])
    with pytest.raises(CodecError, match="malformed"):
        decode(truncated, operators)


# -- the dispatch path -------------------------------------------------------------


@pytest.fixture
def server(tmp_path):
    service = StoreService(tmp_path / "dispatch-store")
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        yield httpd
    service.close()


#: counter fields that are not a pure function of the obligation: wall times
_VOLATILE = {"time_seconds", "fa_time_seconds"}


def _counters(stats):
    return {name: value for name, value in stats.items() if name not in _VOLATILE}


def _entries(state):
    """Per store key, every recorded field except the advisory cost record."""
    return {
        key: (
            entry.scope, entry.method, entry.spec, entry.library, entry.kind,
            entry.provenance, entry.included, entry.counterexample,
            _counters(entry.solver_stats), _counters(entry.inclusion_stats),
        )
        for key, entry in state.entries.items()
    }


@needs_fork
def test_forked_workers_write_a_serial_runs_entries(server, tmp_path):
    serial_store = ObligationStore(tmp_path / "serial-store")
    serial = run_evaluation(include_slow=False, store=serial_store)
    serial_store.flush()

    report = run_distributed_evaluation(
        ObligationStore(server.url),
        include_slow=False,
        local_workers=2,
        batch=4,
        drain_timeout=300.0,
        poll=0.1,
    )
    assert report.dispatch["queue"]["completed"] == report.dispatch["enqueued"] > 0
    for render in (table1, table3, table4):
        assert render(report, deterministic=True) == render(serial, deterministic=True)
    dispatched = _entries(server.service.backend.load())
    assert dispatched == _entries(open_backend(serial_store.path).load())


@needs_fork
def test_forked_workers_never_type_check(server, tmp_path, monkeypatch):
    """Workers discharge decoded obligations; only the coordinator walks."""
    calls = tmp_path / "emit_method.pids"
    original = Checker.emit_method

    def spying(self, *args, **kwargs):
        with open(calls, "a") as log:
            log.write(f"{os.getpid()}\n")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Checker, "emit_method", spying)
    report = run_distributed_evaluation(
        ObligationStore(server.url),
        benchmarks=[benchmark_by_key("Set/KVStore"), benchmark_by_key("Stack/KVStore")],
        local_workers=2,
        batch=2,
        drain_timeout=300.0,
        poll=0.1,
    )
    assert report.dispatch["queue"]["completed"] == report.dispatch["enqueued"] > 0
    callers = set(calls.read_text().split())
    assert callers == {str(os.getpid())}, "a forked worker type-checked a method"


def test_undecodable_items_are_completed_without_discharge(server):
    """No payload, a foreign codec version, an unknown benchmark: the worker
    completes each item untouched and leaves it to the coordinator."""
    store = ObligationStore(server.url)
    benchmark = benchmark_by_key("Set/KVStore")
    items = {}
    for env, digest, obligation, context in _store_misses(benchmark, store):
        foreign = {"obligation": dict(encode(obligation), version="x"),
                   "context": asdict(context)}
        items.setdefault(digest, {"env": env, "fp": digest, "bench": benchmark.key,
                                  "cost": 1.0, "payload": json.dumps(foreign)})
    queued = list(items.values())
    assert len(queued) >= 3
    queued[0].pop("payload")
    queued[1]["bench"] = "No/Such"
    store.backend.enqueue(queued, "d-undecodable")

    stats = run_worker(server.url, batch=len(queued), idle_timeout=2.0, warm_process=False)
    assert stats.completed == len(queued) and stats.discharged == 0
    assert stats.unknown_benchmarks == 1 and stats.undecodable == len(queued) - 1
    assert not server.service.backend.load().entries, "nothing was discharged"


@needs_fork
def test_the_finish_step_discharges_what_workers_cannot_decode(server, monkeypatch):
    def refuse(payload, operators):
        raise CodecError("unsupported obligation codec version 'from-the-future'")

    # the forked workers inherit the patch: every leased item is undecodable
    monkeypatch.setattr("repro.engine.worker.decode_payload", refuse)
    benchmarks = [benchmark_by_key("Set/KVStore")]
    serial = run_evaluation(benchmarks)
    report = run_distributed_evaluation(
        ObligationStore(server.url), benchmarks=benchmarks, local_workers=1,
        drain_timeout=300.0, poll=0.1,
    )
    assert report.dispatch["queue"]["completed"] == report.dispatch["enqueued"] > 0
    assert report.all_verified and report.all_negatives_rejected
    for render in (table1, table3, table4):
        assert render(report, deterministic=True) == render(serial, deterministic=True)
