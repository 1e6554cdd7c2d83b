"""Stable content fingerprints: process-independence and structural identity.

The store's digests must be pure functions of *structure*: independent of the
interning order that assigned ``term_id``/``sfa_id`` (which the smart
constructors use to order commutative children), and therefore reproducible
in any process.  The cross-process tests below intern the corpus in two very
different orders and require every persistent key to coincide.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import smt
from repro.engine.obligations import ObligationSet
from repro.sfa import symbolic
from repro.smt.sorts import ELEM, INT
from repro.store.fingerprint import (
    environment_fingerprint,
    library_digest,
    obligation_digest,
    sfa_digest,
    spec_digest,
    term_digest,
)
from repro.suite.registry import all_benchmarks


def test_term_digest_distinguishes_structure():
    x = smt.var("x", INT)
    y = smt.var("y", INT)
    assert term_digest(x) != term_digest(y)
    assert term_digest(smt.lt(x, y)) != term_digest(smt.lt(y, x))
    assert term_digest(smt.and_(smt.lt(x, y), smt.le(x, y))) != term_digest(
        smt.lt(x, y)
    )


def test_symmetric_connectives_hash_order_insensitively():
    # eq orients its operands by interning id; whichever orientation the
    # constructor picked, the digest of the underlying relation is fixed
    x = smt.var("x", ELEM)
    y = smt.var("y", ELEM)
    assert term_digest(smt.eq(x, y)) == term_digest(smt.eq(y, x))
    assert term_digest(smt.iff(smt.eq(x, y), smt.TRUE)) == term_digest(
        smt.iff(smt.eq(y, x), smt.TRUE)
    )


def test_obligation_digest_ignores_hypothesis_order_and_provenance():
    x = smt.var("x", INT)
    y = smt.var("y", INT)
    hyp_a, hyp_b = smt.lt(x, y), smt.le(y, x)
    lhs, rhs = symbolic.any_trace(), symbolic.TOP

    forward = ObligationSet(method="m").emit("postcondition", [hyp_a, hyp_b], lhs, rhs)
    backward = ObligationSet(method="other").emit(
        "coverage", [hyp_b, hyp_a], lhs, rhs, provenance="elsewhere"
    )
    assert obligation_digest(forward) == obligation_digest(backward)

    different = ObligationSet(method="m").emit("postcondition", [hyp_a], lhs, rhs)
    assert obligation_digest(different) != obligation_digest(forward)


def test_environment_fingerprint_separates_configurations():
    bench = all_benchmarks(include_slow=False)[0]
    fp = environment_fingerprint(bench.library.operators, bench.library.axioms)
    assert fp == environment_fingerprint(bench.library.operators, bench.library.axioms)
    for change in ({"filter_unsat_minterms": False}, {"max_literals": 99}):
        other = environment_fingerprint(bench.library.operators, bench.library.axioms, **change)
        assert other != fp, f"{change} must change the environment fingerprint"


#: the default environment digest of each fast-corpus library; every store
#: entry is keyed by one, so a change here silently empties every store
PINNED_ENVIRONMENT_DIGESTS = {
    "Set/KVStore": "26be313c615c10bffc6c379d13a898b8",
    "Stack/KVStore": "26be313c615c10bffc6c379d13a898b8",
    "LazySet/KVStore": "26be313c615c10bffc6c379d13a898b8",
    "LazySet/Set": "cfc59a49d1b238e317f0b87c4f298df2",
    "DFA/Graph": "1f4c8d4ac7af07c894d56f1dbefc342c",
    "ConnectedGraph/Graph": "1f4c8d4ac7af07c894d56f1dbefc342c",
}


def test_environment_digests_are_pinned():
    digests = {
        bench.key: environment_fingerprint(bench.library.operators, bench.library.axioms)
        for bench in all_benchmarks(include_slow=False)
    }
    assert digests == PINNED_ENVIRONMENT_DIGESTS


_CROSS_PROCESS_SCRIPT = """
import sys
from repro.suite.registry import all_benchmarks
from repro.store.fingerprint import (
    environment_fingerprint, library_digest, sfa_digest, spec_digest,
)

# intern the corpus in the order given on the command line: the ids terms and
# formulas receive differ wildly between orders, the digests must not
order = [int(x) for x in sys.argv[1].split(",")]
benches = all_benchmarks(include_slow=False)
for index in order:
    bench = benches[index]
    print("invariant", bench.key, sfa_digest(bench.invariant))
    print("library", bench.key, library_digest(
        bench.library.operators, bench.library.axioms, bench.library.constants))
    print("env", bench.key, environment_fingerprint(
        bench.library.operators, bench.library.axioms))
    for name, spec in bench.specs.items():
        print("spec", bench.key, name, spec_digest(spec))
"""


def test_digests_are_process_and_interning_order_independent():
    count = len(all_benchmarks(include_slow=False))
    forward = ",".join(str(i) for i in range(count))
    backward = ",".join(str(i) for i in reversed(range(count)))

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def run(order: str) -> dict[str, str]:
        result = subprocess.run(
            [sys.executable, "-c", _CROSS_PROCESS_SCRIPT, order],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        lines = {}
        for line in result.stdout.splitlines():
            *key, digest = line.split()
            lines[" ".join(key)] = digest
        return lines

    assert run(forward) == run(backward)
