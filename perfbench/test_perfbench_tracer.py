"""The benchmark's own checks: wrappers put the originals back, and nested
self time never exceeds wall time.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import time
import types

import pytest

import layers
from tracer import Tracer, merge, resolve


class _Base:
    def inherited(self):
        return "base"


class _Leaf(_Base):
    def own(self, value):
        return value + 1


def _fake_module():
    module = types.ModuleType("fake_layers")

    def leaf(seconds):
        time.sleep(seconds)
        return seconds

    def middle(seconds):
        time.sleep(seconds)
        return module.leaf(seconds) + module.leaf(seconds)

    def outer(seconds):
        time.sleep(seconds)
        return module.middle(seconds)

    def recursive(depth):
        time.sleep(0.001)
        return 0 if depth == 0 else 1 + module.recursive(depth - 1)

    module.leaf, module.middle, module.outer, module.recursive = leaf, middle, outer, recursive
    module.FACTORIES = (lambda: "a", lambda: "b")
    return module


@pytest.fixture
def fake(monkeypatch):
    import sys

    module = _fake_module()
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_wrappers_restore_module_functions_and_tables(fake):
    originals = {name: getattr(fake, name) for name in ("leaf", "middle", "outer", "recursive")}
    factories = fake.FACTORIES
    tracer = Tracer()
    for name in originals:
        tracer.wrap(f"fake_layers.{name}", name, name)
    tracer.wrap_sequence("fake_layers.FACTORIES", "build", "builds")
    assert all(getattr(fake, name) is not original for name, original in originals.items())
    assert [factory() for factory in fake.FACTORIES] == ["a", "b"]
    tracer.uninstall()
    assert all(getattr(fake, name) is original for name, original in originals.items())
    assert fake.FACTORIES is factories


def test_wrappers_restore_own_and_inherited_methods(monkeypatch):
    import sys

    module = types.ModuleType("fake_classes")
    module.Leaf = _Leaf
    monkeypatch.setitem(sys.modules, "fake_classes", module)
    own = vars(_Leaf)["own"]
    tracer = Tracer()
    tracer.wrap("fake_classes.Leaf.own", "own", "own")
    tracer.wrap("fake_classes.Leaf.inherited", "inherited", "inherited")
    assert _Leaf().own(1) == 2 and _Leaf().inherited() == "base"
    assert tracer.counts == {"own": 1, "inherited": 1}
    tracer.uninstall()
    assert vars(_Leaf)["own"] is own
    assert "inherited" not in vars(_Leaf)


def test_nested_self_time_never_exceeds_wall_time(fake):
    tracer = Tracer()
    for name in ("outer", "middle", "leaf", "recursive"):
        tracer.wrap(f"fake_layers.{name}", name, name)
    started = time.perf_counter()
    fake.outer(0.01)
    fake.recursive(5)
    wall = time.perf_counter() - started
    tracer.uninstall()
    assert sum(tracer.self_seconds.values()) <= wall
    for layer, own in tracer.self_seconds.items():
        assert 0.0 <= own <= tracer.inclusive_seconds[layer] + 1e-9
    # every layer's self time is its share of the wall clock, not more
    assert tracer.inclusive_seconds["outer"] <= wall
    assert tracer.self_seconds["leaf"] >= 0.02
    # recursion opens one frame and counts one outermost call
    assert tracer.counts["recursive"] == 1
    assert tracer.counts["leaf"] == 2


def test_real_layers_install_uninstall_and_stay_within_wall_time():
    originals = {}
    for target, *_ in layers.TARGETS:
        owner, attribute = resolve(target)
        originals[target] = vars(owner).get(attribute, getattr(owner, attribute))
    owner, attribute = resolve(layers.FACTORY_TABLE)
    factories = getattr(owner, attribute)

    tracer = Tracer()
    assert layers.install(tracer) == []
    from repro.evaluation.runner import run_benchmark
    from repro.suite.registry import all_benchmarks

    started = time.perf_counter()
    benchmark = all_benchmarks(include_slow=False)[0]
    stats, negatives = run_benchmark(benchmark)
    wall = time.perf_counter() - started
    tracer.uninstall()

    assert stats.all_verified and all(n.rejected for n in negatives)
    assert tracer.counts["typecheck.methods"] == len(benchmark.specs) + len(negatives)
    assert 0.0 < sum(tracer.self_seconds.values()) <= wall
    for layer, own in tracer.self_seconds.items():
        assert own <= tracer.inclusive_seconds[layer] + 1e-9
    for target, original in originals.items():
        owner, attribute = resolve(target)
        assert vars(owner).get(attribute, getattr(owner, attribute)) is original, target
    owner, attribute = resolve(layers.FACTORY_TABLE)
    assert getattr(owner, attribute) is factories


def test_recursive_wrapper_runs_inner_levels_unwrapped(monkeypatch):
    import sys

    module = types.ModuleType("fake_recursion")
    seen = []

    def countdown(n):
        seen.append(module.countdown)
        return 0 if n == 0 else module.countdown(n - 1)

    module.countdown = countdown
    monkeypatch.setitem(sys.modules, "fake_recursion", module)
    tracer = Tracer()
    tracer.wrap("fake_recursion.countdown", "walk", "walks", recursive=True)
    wrapper = module.countdown
    assert wrapper(3) == 0
    # every level, the outermost included, ran with the original installed
    assert seen == [countdown] * 4
    assert module.countdown is wrapper
    assert tracer.counts["walks"] == 1 and tracer.self_seconds["walk"] > 0
    tracer.uninstall()
    assert module.countdown is countdown


def test_merge_adds_snapshots():
    into = {"self": {"a": 1.0}, "counts": {"n": 2}}
    merge(into, {"self": {"a": 0.5, "b": 1.0}, "inclusive": {"a": 2.0}, "counts": {"n": 1}})
    assert into == {"self": {"a": 1.5, "b": 1.0}, "inclusive": {"a": 2.0}, "counts": {"n": 3}}
