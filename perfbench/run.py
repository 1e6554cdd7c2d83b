"""The checker's benchmark: end-to-end times, verdict checks, per-layer times.

    python3 perfbench/run.py --workload fast|filesystem|dispatch \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/repro``).
Every sample runs in fresh interpreters with the shipped default
``CheckerConfig`` (every ``REPRO_*`` variable is stripped): a ``cold``
process against an empty store, then two ``warm`` processes against the
store the cold one filled.  Samples repeat, closed loop with one client,
until ``--seconds`` is spent (at least one sample).  ``--seed`` becomes the
samples' ``PYTHONHASHSEED``: the corpus is the paper's, the seed varies the
interpreter's string hashing and so every hash-ordered container.  See
``README.md`` beside this file for the workloads and metrics.

The shared host's speed drifts, so an untraced sample also runs the fixed
yardstick of ``calibrate.py`` before, between and after its phases, and
each time metric is the phase's time scaled by ``YARDSTICK_REFERENCE_S``
over the sample's mean yardstick time: seconds at the reference speed.

``--trace 0`` prints the end-to-end metrics (medians over the samples).
``--trace 1`` measures the same untraced samples, then traced ones in which
``layers.py`` wraps each layer's entry points, and prints the per-layer
metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every verdict matched its known answer and every work count
repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import merge  # noqa: E402

WORKLOADS = ("fast", "filesystem", "dispatch")
#: end-to-end metric -> unit
END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
#: a warm phase is short, so each sample measures more than one; fewer
#: where a warm phase is long enough to cost cold samples
WARM_PER_SAMPLE = {"fast": 4, "filesystem": 2, "dispatch": 2}
#: warm time is measured at least this often per run
MIN_WARM = 9
MAX_SAMPLES = 200
#: traced samples per run; two let wrapper counts be compared
TRACED_SAMPLES = {"fast": 2, "filesystem": 1, "dispatch": 1}
#: wall limit of one sample process
PHASE_TIMEOUT = 150.0
#: the yardstick's time on the reference box; time metrics are reported in
#: seconds on a host running at that speed (``calibrate.py``)
YARDSTICK_REFERENCE_S = 0.45


class SampleError(RuntimeError):
    """A sample process failed or printed no result."""


def _clean_env(root: Path, seed: int, tmp: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    env["TMPDIR"] = str(tmp)
    return env


def _phase(root: Path, env: dict, workload: str, phase: str, store: Path,
           trace: bool = False, workers_dir: Path | None = None) -> dict:
    command = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
               "--phase", phase, "--store", str(store)]
    if trace:
        command.append("--trace")
    if workers_dir is not None:
        workers_dir.mkdir(parents=True, exist_ok=True)
        command += ["--workers-dir", str(workers_dir)]
    t0 = time.monotonic()
    return _child(command + ["--t0", repr(t0)], root, env, f"{workload}/{phase}")


def _yardstick(root: Path, env: dict) -> float:
    """The host's current speed: ``calibrate.py`` in a fresh interpreter."""
    command = [sys.executable, str(HERE / "calibrate.py")]
    return _child(command, root, env, "yardstick")["yardstick_s"]


def _child(command: list[str], root: Path, env: dict, name: str) -> dict:
    """Run ``command`` in its own process group; its last stdout line as JSON."""
    process = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=PHASE_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise SampleError(f"{name} exceeded {PHASE_TIMEOUT:.0f}s") from None
    finally:
        # also reached on SIGTERM; forked dispatch workers share the group
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SampleError(f"{name} exited {process.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Run:
    """The samples of one run and the checks across them."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path) -> None:
        self.root = root
        self.workload = workload
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = _clean_env(root, seed, tmp)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None
        self.index = 0
        self.last_yardstick: float | None = None

    def sample(self, trace: bool = False) -> dict:
        """One cold phase, then ``WARM_PER_SAMPLE`` warm phases (fresh
        interpreters each) against the store it filled.  An untraced
        sample runs the yardstick before, between and after them; its
        ``scale`` turns the phases' times into reference seconds."""
        self.index += 1
        base = self.work / f"sample-{self.index}"
        store = base / "store"
        workers = base / "workers" if trace and self.workload == "dispatch" else None
        # the previous sample's last yardstick, if any, is also this one's first
        yardsticks = [] if trace else [self.last_yardstick or self.yardstick()]
        cold = _phase(self.root, self.env, self.workload, "cold", store, trace, workers)
        self._check(cold, "cold")
        if not trace:
            yardsticks.append(self.yardstick())
        # a traced sample needs one warm phase: per-layer numbers sum cold + warm
        count = 1 if trace else WARM_PER_SAMPLE[self.workload]
        warms = [self.warm(store, trace) for _ in range(count)]
        if not trace:
            yardsticks.append(self.yardstick())
        return {"cold": cold, "warms": warms, "store": store, "yardsticks": yardsticks}

    def yardstick(self) -> float:
        self.last_yardstick = _yardstick(self.root, self.env)
        return self.last_yardstick

    def warm(self, store: Path, trace: bool = False) -> dict:
        warm_workers = None
        if trace and self.workload == "dispatch":
            warm_workers = store.parent / "warm-workers"
        warm = _phase(self.root, self.env, self.workload, "warm", store, trace, warm_workers)
        self._check(warm, "warm")
        return warm

    def _check(self, phase: dict, name: str) -> None:
        """Tally verdicts; every phase of a run (cold or warm, traced or
        not) must report the same work counts and deterministic tables."""
        verdicts = phase["verdicts"]
        self.attempted += verdicts["attempted"]
        self.failed += verdicts["failed"]
        self.problems += [f"{name}: {m}" for m in verdicts["mismatches"]]
        facts = {"counts": phase["counts"], "tables": phase["tables"]}
        if self.reference is None:
            self.reference = facts
        elif facts != self.reference:
            self.problems.append(
                f"{name}: work counts/tables did not repeat: {facts['counts']} vs "
                f"{self.reference['counts']}"
            )


def _scale(yardsticks: list[float]) -> float:
    return YARDSTICK_REFERENCE_S / (sum(yardsticks) / len(yardsticks))


def _measure(run: Run, seconds: float) -> tuple[list[dict], dict[str, list[float]],
                                                dict[str, list[float]]]:
    """Samples until ``seconds`` are spent; then, where a sample is too
    long to repeat often (``filesystem``), warm phases against the first
    sample's store until warm time has ``MIN_WARM`` values.  Returns the
    samples, the metric series in reference seconds and the raw series."""
    samples: list[dict] = []
    started = time.monotonic()
    while True:
        samples.append(run.sample())
        elapsed = time.monotonic() - started
        if len(samples) >= MAX_SAMPLES or elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    colds = [(s["cold"], _scale(s["yardsticks"])) for s in samples]
    warms = [(warm, _scale(s["yardsticks"])) for s in samples for warm in s["warms"]]
    while len(warms) < MIN_WARM:
        before = run.yardstick()
        warm = run.warm(samples[0]["store"])
        warms.append((warm, _scale([before, run.yardstick()])))
    raw: dict[str, list[float]] = {
        "setup_s": [phase["setup_s"] for phase, _ in colds + warms],
        "cold_s": [cold["phase_s"] for cold, _ in colds],
        "warm_s": [warm["phase_s"] for warm, _ in warms],
    }
    series = {
        "setup_s": [phase["setup_s"] * scale for phase, scale in colds + warms],
        "cold_s": [cold["phase_s"] * scale for cold, scale in colds],
        "warm_s": [warm["phase_s"] * scale for warm, scale in warms],
        "peak_rss_mb": [cold["peak_rss_mb"] for cold, _ in colds],
    }
    raw["yardstick_s"] = [y for s in samples for y in s["yardsticks"]]
    return samples, series, raw


def _summary_line(name: str, values: list[float], unit: str) -> str:
    mid, iqr = layers.spread(values)
    return f"# {name}: median {mid:.6g} {unit}, IQR {iqr:.3g} ({iqr / mid if mid else 0:.1%}), n={len(values)}"


def _traced_metrics(run: Run, samples: list[dict]) -> dict[str, float]:
    traced = [run.sample(trace=True) for _ in range(TRACED_SAMPLES[run.workload])]
    if run.workload != "dispatch" and len(traced) > 1:
        # lease placement decides which worker executes what, so executed
        # (not billed) counts are compared only in single-process workloads
        seen = [
            {name: s["cold"]["trace"]["counts"].get(name, 0) for name in layers.TRACED_COUNTS}
            for s in traced
        ]
        if any(counts != seen[0] for counts in seen):
            run.problems.append(f"traced work counts did not repeat: {seen}")
    cold, warm = traced[0]["cold"], traced[0]["warms"][0]
    merged: dict = {}
    for snapshot in (cold["setup_trace"], cold["trace"], warm["setup_trace"], warm["trace"]):
        merge(merged, snapshot)
    workers = cold["dispatch"].get("workers", []) + warm["dispatch"].get("workers", [])
    for worker in workers:
        merge(merged, worker["trace"])
    dispatch = dict(cold["dispatch"])
    dispatch["workers"] = workers
    dispatch["server_op_s"] = cold["dispatch"].get("server_op_s", 0.0) + warm["dispatch"].get(
        "server_op_s", 0.0)
    drained = cold["trace"]["marks"].get("dispatch.drained")
    completes = [w["last_complete"] for w in cold["dispatch"].get("workers", [])]
    if drained is not None and completes:
        dispatch["drain_lag_s"] = drained - max(completes)
    metrics = layers.per_layer(merged, cold["counts"], dispatch)

    attributed = sum(cold["trace"]["self"].values())
    untraced_cold = median(s["cold"]["phase_s"] for s in samples)
    metrics["bench.attributed_frac"] = attributed / cold["phase_s"]
    metrics["bench.trace_overhead_frac"] = cold["phase_s"] / untraced_cold - 1.0
    largest = ", ".join(f"{name} {secs:.3f}s" for name, secs in layers.largest_self(cold["trace"]))
    if cold["missing_targets"]:
        print(f"# targets no longer in the program (layer reads 0): {cold['missing_targets']}")
    print(f"# traced cold {cold['phase_s']:.4f}s vs untraced median {untraced_cold:.4f}s; "
          f"outside every wrapped layer {cold['phase_s'] - attributed:.4f}s; "
          f"largest self times: {largest}")
    return metrics


def _terminate(signum, _frame):
    # unwind through the finally clauses that stop the sample process group
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no checker sources (src/repro); run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(root, args.workload, args.seed, work)
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    try:
        samples, series, raw = _measure(run, args.seconds)
        first = samples[0]["cold"]
        print("# environment: " + json.dumps({
            "workload": args.workload, "seed": args.seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "config": first.get("config"), "samples": len(samples),
        }, sort_keys=True))
        for name, values in series.items():
            print(_summary_line(name, values, END_TO_END_UNITS[name]))
        for name, values in raw.items():
            print(_summary_line(f"raw {name}", values, "s"))
        if args.trace:
            metrics = _traced_metrics(run, samples)
            units = layers.PER_LAYER_UNITS
        else:
            metrics = {name: median(values) for name, values in series.items()}
            units = END_TO_END_UNITS
    except SampleError as exc:
        run.problems.append(str(exc))
        run.failed += 1
        run.attempted = max(run.attempted, run.failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    if args.trace:
        metrics["failed_frac"] = failed_frac
    print(f"# verdicts: attempted {run.attempted}, failed {run.failed} "
          f"(failed_frac {failed_frac:.4f})")
    for problem in run.problems:
        print(f"# problem: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
