"""Tests for the FileSystem/KVStore benchmark (the paper's motivating example).

Full static verification of ``add`` is the most expensive obligation in the
corpus (as it is in the paper, minutes rather than seconds); it is exercised
by the benchmark harness with ``PYMARPLE_FULL=1``.  The unit tests here
verify the two cheaper methods (``init`` and ``exists_path``, a few seconds
each, since theory conflicts are explained by their proof path), check the
structure of the benchmark, and replay the dynamic behaviour of Example 2.1 —
including the fact that the buggy ``addbad`` produces a trace rejected by
I_FS while the correct ``add`` does not.
"""

import pytest

from repro import smt
from repro.smt.sorts import PATH
from repro.sfa import accepts
from repro.sfa.events import Trace
from repro.suite.filesystem import FILESYSTEM_ADD_BAD, filesystem_kvstore


@pytest.fixture(scope="module")
def bench():
    return filesystem_kvstore()


def test_benchmark_structure(bench):
    assert bench.key == "FileSystem/KVStore"
    assert bench.num_ghosts == 1
    assert bench.invariant_size >= 15
    assert set(bench.specs) == {"init", "add", "exists_path"}
    assert bench.slow
    program = bench.program
    assert program["add"].params[0][0] == "path"
    from repro.lang import ast

    assert ast.count_branches(program["add"].body) >= 4
    assert ast.count_operator_applications(program["add"].body) >= 7


def test_init_verifies(bench):
    result = bench.verify_method("init")
    assert result.verified, result.error
    assert result.stats.smt_queries > 100
    assert result.stats.fa_inclusion_checks >= 4


def test_exists_path_verifies(bench):
    result = bench.verify_method("exists_path")
    assert result.verified, result.error
    assert result.stats.smt_queries > 100  # the invariant alone induces many minterms
    assert result.stats.fa_inclusion_checks >= 3


def test_dynamic_example_2_1(bench):
    """Replays Example 2.1 and checks the traces against I_FS."""
    interp = bench.interpreter()
    module = bench.module(interp)
    file_bytes = {"kind": "file", "children": ()}
    dir_bytes = {"kind": "dir", "children": ()}

    alpha0 = interp.call(module["init"], [()], Trace()).trace
    assert [e.op for e in alpha0][-1] == "put"

    # correct add: refuses to create an orphan, emits the two exists probes of α2
    good = interp.call(module["add"], ["/a/b.txt", file_bytes], alpha0)
    assert good.value is False
    assert [e.op for e in good.emitted] == ["exists", "exists"]

    # buggy add: records the orphan (α1)
    bad_program = bench.parse_variant(FILESYSTEM_ADD_BAD)
    bad_fn = interp.eval_value(bad_program["addbad"].as_value(), {})
    bad = interp.call(bad_fn, ["/a/b.txt", file_bytes], alpha0)
    assert bad.value is True

    p = smt.var("p", PATH)
    meanings = bench.library.interpretation()
    # I_FS holds of the correct trace for every relevant path...
    for path in ("/", "/a", "/a/b.txt"):
        assert accepts(bench.invariant, good.trace, {p: path}, meanings)
    # ...but the buggy trace violates it for the orphan path
    assert not accepts(bench.invariant, bad.trace, {p: "/a/b.txt"}, meanings)
    assert accepts(bench.invariant, bad.trace, {p: "/"}, meanings)

    # creating the parent directory first preserves the invariant
    step1 = interp.call(module["add"], ["/a", dir_bytes], alpha0)
    step2 = interp.call(module["add"], ["/a/b.txt", file_bytes], step1.trace)
    assert step1.value is True and step2.value is True
    for path in ("/", "/a", "/a/b.txt"):
        assert accepts(bench.invariant, step2.trace, {p: path}, meanings)
