"""Table 4 — per-method verification statistics (FileSystem / DFA / ConnectedGraph).

The FileSystem/KVStore methods are the most expensive rows of the paper's
evaluation (tens to hundreds of seconds there, minutes here); they are only
run with ``PYMARPLE_FULL=1``.
"""

import pytest

from repro.suite.registry import all_benchmarks
from .conftest import corpus_param, include_slow

TABLE4_ADTS = ("FileSystem", "DFA", "ConnectedGraph")


def _methods():
    rows = []
    for bench in all_benchmarks(include_slow=include_slow()):
        if bench.adt not in TABLE4_ADTS:
            continue
        for method in bench.specs:
            label = f"{bench.key}.{method}"
            rows.append(corpus_param(bench, label, bench, method, id=label))
    return rows


@pytest.mark.parametrize("label,bench,method", _methods())
def test_table4_method(benchmark, label, bench, method):
    checker = bench.make_checker()

    def verify():
        return bench.verify_method(method, checker)

    result = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert result.verified, result.error
    benchmark.extra_info.update(result.stats.as_row())


def _negative_variants():
    rows = []
    for bench in all_benchmarks(include_slow=include_slow()):
        for variant in bench.negative_variants:
            label = f"{bench.key}.{variant}"
            rows.append(corpus_param(bench, label, bench, variant, id=label))
    return rows


@pytest.mark.parametrize("label,bench,variant", _negative_variants())
def test_incorrect_variants_are_rejected(benchmark, label, bench, variant):
    """Example 2.1 and friends: the buggy implementations must fail to check."""
    checker = bench.make_checker()

    def verify():
        return bench.verify_negative_variant(variant, checker)

    result = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert not result.verified
    benchmark.extra_info["rejection reason"] = (result.error or "")[:120]
