"""The tracked benchmark harness: payload shape, regression gate, CLI."""

import copy
import json

import pytest

from repro.perf.bench import compare_payloads, load_payload, run_bench, summarize
from repro.typecheck.checker import CheckerConfig


@pytest.fixture(scope="module")
def payload():
    return run_bench(runs=1, config=CheckerConfig())


def test_payload_shape(payload):
    assert payload["schema"] == 1
    assert payload["corpus"] == "fast"
    for phase in ("cold", "warm"):
        section = payload[phase]
        assert section["all_verified"] and section["all_negatives_rejected"]
        assert section["wall_seconds"] > 0
        assert section["counters"]["obligations"] > 0
        assert set(section["tables_deterministic"]) == {"table1", "table3", "table4"}
        assert section["per_adt_wall_seconds"]


def test_cold_discharges_and_warm_replays(payload):
    assert payload["cold"]["counters"]["store_hits"] == 0
    warm = payload["warm"]["counters"]
    assert warm["store_hits"] > 0
    # a store hit replays the cold discharge's recorded counters — alphabet
    # builds included — so warm counters mirror cold ones exactly (nothing is
    # *re-enumerated*; the replay is what keeps warm tables byte-identical)
    assert warm["alphabet_builds"] == payload["cold"]["counters"]["alphabet_builds"]


def test_warm_tables_match_cold_tables(payload):
    assert payload["warm"]["tables_deterministic"] == payload["cold"]["tables_deterministic"]


def test_cross_obligation_reuse_is_visible(payload):
    counters = payload["cold"]["counters"]
    assert 0 < counters["alphabet_builds"] < counters["obligations"], (
        "the memo must build strictly fewer alphabets than obligations emitted"
    )


def test_compare_within_tolerance_passes(payload):
    current = copy.deepcopy(payload)
    current["cold"]["wall_seconds"] = payload["cold"]["wall_seconds"] * 1.1
    ok, messages = compare_payloads(current, payload, tolerance=0.2)
    assert ok
    assert any("cold wall" in m and "ok" in m for m in messages)
    assert any("counters: identical" in m for m in messages)


def test_compare_flags_regression(payload):
    current = copy.deepcopy(payload)
    current["cold"]["wall_seconds"] = payload["cold"]["wall_seconds"] * 1.5
    ok, messages = compare_payloads(current, payload, tolerance=0.2)
    assert not ok
    assert any("REGRESSION" in m for m in messages)


def test_compare_reports_counter_drift_as_advisory(payload):
    current = copy.deepcopy(payload)
    current["cold"]["counters"]["smt_queries"] += 7
    ok, messages = compare_payloads(current, payload, tolerance=0.2)
    assert ok, "counter drift is advisory, not a gate"
    assert any("counters moved" in m for m in messages)


def test_load_payload_round_trip(payload, tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(payload))
    assert load_payload(path)["cold"] == payload["cold"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ValueError):
        load_payload(bad)


def test_summarize_mentions_the_headline_numbers(payload):
    text = summarize(payload)
    assert "cold:" in text and "warm:" in text and "alphabet builds=" in text


def test_run_bench_validates_runs():
    with pytest.raises(ValueError):
        run_bench(runs=0)


def test_dispatch_ab_work_stealing_beats_static_shards():
    from repro.perf.bench import run_dispatch_ab

    result = run_dispatch_ab()
    assert result["stealing_beats_static"], (
        "LPT-at-dequeue must beat the static hash partition under skew"
    )
    assert result["speedup"] > 1.0
    # the salt search pinned a representative partition: the straggler's
    # shard carries at least its fair share of cheap items
    assert result["straggler_shard_cheap_items"] >= result["cheap"] // result["workers"]
    assert result["stealing_seconds"] > 0 and result["static_seconds"] > 0


def test_dispatch_ab_validates_workers():
    from repro.perf.bench import run_dispatch_ab

    with pytest.raises(ValueError, match="2 workers"):
        run_dispatch_ab(workers=1)


def test_shard_assignment_is_total_and_stable():
    from repro import smt
    from repro.perf.bench import shard_of
    from repro.store.fingerprint import term_digest

    digests = [term_digest(smt.int_const(i)) for i in range(50)]
    for shards in (1, 2, 5):
        assignment = [shard_of(d, shards) for d in digests]
        assert all(0 <= s < shards for s in assignment)
        assert assignment == [shard_of(d, shards) for d in digests]
    assert len({shard_of(d, 5) for d in digests}) > 1, "hash should actually spread"


def test_compare_gates_the_dispatch_speedup(payload):
    dispatch = {
        "static_seconds": 0.5,
        "stealing_seconds": 0.3,
        "speedup": 1.667,
        "stealing_beats_static": True,
    }
    current = copy.deepcopy(payload)
    current["dispatch_ab"] = dict(dispatch)
    baseline = copy.deepcopy(payload)
    baseline["dispatch_ab"] = dict(dispatch)
    ok, messages = compare_payloads(current, baseline, tolerance=0.2)
    assert ok
    assert any("dispatch A/B" in m and "ok" in m for m in messages)

    # stealing slower than static: the work-stealing claim itself fails
    current["dispatch_ab"].update(stealing_seconds=0.6, speedup=0.833)
    ok, messages = compare_payloads(current, baseline, tolerance=0.2)
    assert not ok
    assert any("dispatch A/B" in m and "REGRESSION" in m for m in messages)

    # stealing makespan regressed past the tolerance vs the baseline
    current["dispatch_ab"].update(stealing_seconds=0.45, speedup=1.111)
    ok, messages = compare_payloads(current, baseline, tolerance=0.2)
    assert not ok
    assert any("stealing makespan" in m for m in messages)


def test_committed_bench_payload_is_well_formed():
    """The checked-in BENCH_PR5.json must parse and carry the PR4 baseline."""
    from pathlib import Path

    committed = load_payload(Path(__file__).resolve().parents[2] / "BENCH_PR5.json")
    assert committed["baseline"]["label"] == "PR4"
    assert committed["baseline"]["cold_wall_seconds"] > 0
    assert committed["cold"]["wall_seconds"] > 0


def test_committed_pr10_payload_carries_the_dispatch_evidence():
    """BENCH_PR10.json is the CI-gated record that stealing beats shards."""
    from pathlib import Path

    committed = load_payload(Path(__file__).resolve().parents[2] / "BENCH_PR10.json")
    assert committed["baseline"]["label"] == "PR7"
    dispatch = committed["dispatch_ab"]
    assert dispatch["stealing_beats_static"] and dispatch["speedup"] > 1.0
    assert dispatch["stealing_seconds"] > 0 and dispatch["static_seconds"] > 0
    assert committed["ab"]["tables_identical"]
