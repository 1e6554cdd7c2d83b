"""The contract of ``repro.statsutil``: one field tuple drives every operation.

A counter declared on a statistics table takes part in construction,
``merge``, ``snapshot``, ``since`` and the plain-dict round trip without
any per-class code, and counters persisted in store records decode to
equal tables.
"""

import json

import pytest

from repro.engine.scheduler import EngineStats
from repro.sfa.inclusion import InclusionStats
from repro.smt.solver import SolverStats
from repro.statsutil import MergeableStats
from repro.store.backends import StoreEntry


class BaseCounters(MergeableStats):
    hits: int = 0
    seconds: float = 0.0


class MoreCounters(BaseCounters):
    """A subclass that adds a counter to its base's."""

    misses: int = 0


def test_fields_are_declared_once_in_declaration_order():
    assert BaseCounters._fields == ("hits", "seconds")
    assert MoreCounters._fields == ("hits", "seconds", "misses")
    assert MoreCounters() == MoreCounters(hits=0, seconds=0.0, misses=0)
    assert MoreCounters(1, 2.0, 3) == MoreCounters(hits=1, seconds=2.0, misses=3)
    assert repr(MoreCounters(misses=2)) == "MoreCounters(hits=0, seconds=0.0, misses=2)"


def test_an_added_counter_takes_part_in_every_operation():
    total = MoreCounters(hits=1, misses=2)
    total.merge(MoreCounters(hits=3, seconds=0.5, misses=4))
    assert total == MoreCounters(hits=4, seconds=0.5, misses=6)

    before = total.snapshot()
    assert before == total and before is not total
    total.misses += 5
    assert before.misses == 6
    assert total.since(before) == MoreCounters(misses=5)

    assert total.as_dict() == {"hits": 4, "seconds": 0.5, "misses": 11}
    assert MoreCounters.from_dict(total.as_dict()) == total


def test_from_dict_ignores_unknown_keys():
    decoded = MoreCounters.from_dict({"hits": 2, "retired_counter": 7})
    assert decoded == MoreCounters(hits=2)
    assert not hasattr(decoded, "retired_counter")


def test_from_dict_defaults_missing_keys():
    # a record written before a counter existed decodes with its default
    assert MoreCounters.from_dict({"misses": 3}) == MoreCounters(misses=3)
    assert EngineStats.from_dict({}) == EngineStats()


def test_construction_rejects_unknown_and_duplicate_fields():
    with pytest.raises(TypeError, match="no field"):
        MoreCounters(bogus=1)
    with pytest.raises(TypeError, match="multiple values"):
        MoreCounters(1, hits=2)
    with pytest.raises(TypeError, match="at most 3"):
        MoreCounters(1, 2, 3, 4)


def test_tables_compare_by_class_and_fields():
    assert BaseCounters(hits=1) != MoreCounters(hits=1)
    assert SolverStats(queries=1) != SolverStats(queries=2)
    assert SolverStats() != InclusionStats()


#: one entry of a store written before the statistics tables were
#: field-tuple driven: its ``sol``/``fa`` objects are ``SolverStats`` and
#: ``InclusionStats`` as they were persisted then
STORED_ENTRY = (
    '{"cex": null, "cost": {"prod_states": 2, "queries": 9, "wall": 0.000748}, '
    '"env": "26be313c615c10bffc6c379d13a898b8", "err": null, "fa": {"alphabet_builds": 1, '
    '"automata_built": 2, "context_cases": 1, "fa_inclusion_checks": 1, '
    '"fa_time_seconds": 0.00023320900004364375, "minterm_candidates": 10, "prod_states": 2, '
    '"satisfiable_minterms": 10, "total_transitions": 30}, '
    '"fp": "fdecbf1cdd3d3870175bdb3c226f3367", "inc": true, "kind": "coverage", '
    '"lib": "e9d855c05d38cc57ade1968ab5209791", "method": "insert", '
    '"prov": "insert: precondition coverage of exists", "scope": "Set/KVStore", '
    '"sol": {"cache_evictions": 0, "cache_hits": 0, "cache_misses": 0, "encodings": 1, '
    '"models_enumerated": 11, "queries": 9, "sat_conflicts": 0, "sat_decisions": 7, '
    '"sat_propagations": 0, "sat_restarts": 0, "sat_results": 9, "theory_checks": 9, '
    '"theory_conflicts": 0, "time_seconds": 0.0002424239999072597, "unsat_results": 0}, '
    '"spec": "c6616b0387d8348bf3ddb14dd953fad0"}'
)


def test_counters_of_a_stored_entry_decode_to_equal_tables():
    entry = StoreEntry.from_json(STORED_ENTRY)
    solver = SolverStats.from_dict(entry.solver_stats)
    inclusion = InclusionStats.from_dict(entry.inclusion_stats)
    assert solver == SolverStats(
        queries=9,
        sat_results=9,
        encodings=1,
        models_enumerated=11,
        theory_checks=9,
        sat_decisions=7,
        time_seconds=0.0002424239999072597,
    )
    assert inclusion == InclusionStats(
        fa_inclusion_checks=1,
        automata_built=2,
        total_transitions=30,
        prod_states=2,
        context_cases=1,
        minterm_candidates=10,
        satisfiable_minterms=10,
        alphabet_builds=1,
        fa_time_seconds=0.00023320900004364375,
    )
    # and encode back to the very record
    assert solver.as_dict() == entry.solver_stats
    assert inclusion.as_dict() == entry.inclusion_stats
    assert entry.to_json() == STORED_ENTRY
    assert json.loads(STORED_ENTRY)["sol"] == solver.as_dict()
