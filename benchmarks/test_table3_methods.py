"""Table 3 — per-method verification statistics (Stack / Set / LazySet group)."""

import pytest

from repro.suite.registry import all_benchmarks
from .conftest import corpus_param, include_slow

TABLE3_ADTS = ("Stack", "Set", "MinSet", "LazySet")


def _methods():
    rows = []
    for bench in all_benchmarks(include_slow=include_slow()):
        if bench.adt not in TABLE3_ADTS:
            continue
        for method in bench.specs:
            label = f"{bench.key}.{method}"
            rows.append(corpus_param(bench, label, bench, method, id=label))
    return rows


@pytest.mark.parametrize("label,bench,method", _methods())
def test_table3_method(benchmark, label, bench, method):
    checker = bench.make_checker()

    def verify():
        return bench.verify_method(method, checker)

    result = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert result.verified, result.error
    benchmark.extra_info.update(result.stats.as_row())
