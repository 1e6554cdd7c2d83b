"""What start-up pays for: the import path of a serial run.

A fresh interpreter without bytecode (``PYTHONDONTWRITEBYTECODE=1``, as
every perfbench sample runs) imports what ``perfbench/sample.py`` and the
CLI import, and then reports what it loaded.  Two noise-free gates:

* no module that a serial cold+warm run never calls is loaded: the
  interpreter, the arithmetic solver (with ``fractions``/``decimal``),
  MemCell, the post-mortem writer, and the transport and fleet code;
* the only dataclasses on the path are the four whose dataclass API is used
  outside their module (``asdict``/``fields``/``replace``): a dataclass
  compiles its generated methods through ``exec`` on every start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: modules a serial run never calls, so its start-up must not load them
OFF_PATH = (
    "repro.lang.interp",
    "repro.smt.arith",
    "repro.libraries.memcell",
    "repro.obs.postmortem",
    "repro.engine.dispatch",
    "repro.engine.worker",
    "repro.store.server",
    "repro.store.remote",
    "fractions",
    "decimal",
    "http.server",
)

#: the dataclasses whose dataclass API is used outside their module
DATACLASSES = {
    # perfbench's ``asdict`` and CI's ``fields``
    "repro.typecheck.checker.CheckerConfig",
    # ``dataclasses.replace`` in tests/store/test_warm_start.py
    "repro.suite.benchmark.AdtBenchmark",
    "repro.typecheck.spec.MethodSpec",
    # ``asdict`` in engine/codec.py
    "repro.store.obligation_store.StoreContext",
}

PROBE = """
import dataclasses, json, sys

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import render_all, table1, table3, table4
from repro.store.obligation_store import ObligationStore
from repro.suite.registry import all_benchmarks
from repro.typecheck.checker import CheckerConfig
import repro.cli

dataclass_names = sorted(
    f"{name}.{value.__qualname__}"
    for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro.")
    for value in vars(module).values()
    if isinstance(value, type)
    and value.__module__ == name
    and dataclasses.is_dataclass(value)
)
print(json.dumps({"modules": sorted(sys.modules), "dataclasses": dataclass_names}))
"""


def _start_up() -> dict:
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def test_start_up_loads_no_off_path_module_and_only_four_dataclasses():
    loaded = _start_up()
    assert sorted(set(OFF_PATH) & set(loaded["modules"])) == []
    assert set(loaded["dataclasses"]) == DATACLASSES
