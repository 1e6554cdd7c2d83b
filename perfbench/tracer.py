"""Per-layer self time and work counts, recorded from outside the program.

A :class:`Tracer` replaces functions and methods of the checker with thin
wrappers.  Each wrapper belongs to a *layer* (``smt.sat``, ``store.lookup``,
...).  Entering a layer that is not already open on the calling thread opens
a frame; when the frame closes, its duration minus the time its child frames
covered is added to the layer's self time.  A call into a layer that is
already open (recursion, or ``solve`` calling ``solve_partial``) opens no new
frame, so self times never double count and their sum never exceeds the
wall time of the outermost frame.

Every wrapped target also counts its outermost calls under its own counter
name, and may carry a probe that reads the call's result (a store hit, a
memo replay) into further counters.

Nothing is written while a call runs; :meth:`Tracer.snapshot` returns the
accumulators as plain dicts, which forked workers ship back to the parent.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Optional


class _ThreadState(threading.local):
    def __init__(self) -> None:
        #: open frames, innermost last: [layer, start, child_seconds]
        self.stack: list[list] = []
        #: layer -> open frame count on this thread (0 or 1)
        self.open_layers: dict[str, int] = {}
        #: target key -> reentry depth on this thread
        self.depth: dict[str, int] = {}


def resolve(path: str):
    """Return ``(owner, attribute)`` for a dotted path such as
    ``repro.smt.cnf.CnfBuilder.assert_formula``: the longest importable
    module prefix, then attribute steps down to the owner of the last name.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for step in parts[cut:-1]:
            owner = getattr(owner, step)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {path!r}")


class Tracer:
    """Installs layer wrappers and accumulates what they measure."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        #: layer -> seconds not covered by a child frame
        self.self_seconds: dict[str, float] = {}
        #: layer -> seconds of outermost frames (inclusive)
        self.inclusive_seconds: dict[str, float] = {}
        #: counter name -> count (outermost target calls, probe counts)
        self.counts: dict[str, float] = {}
        #: event name -> clock reading (first occurrence: mark; latest: stamp)
        self.marks: dict[str, float] = {}
        self._state = _ThreadState()
        #: (owner, attribute, original, owned) for every installed wrapper
        self._installed: list[tuple[object, str, object, bool]] = []

    # -- accumulation ----------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def mark(self, name: str) -> None:
        """Record the clock at the first occurrence of ``name``."""
        self.marks.setdefault(name, self.clock())

    def stamp(self, name: str) -> None:
        """Record the clock at the latest occurrence of ``name``."""
        self.marks[name] = self.clock()

    def open_frame(self, layer: str) -> None:
        state = self._state
        state.stack.append([layer, self.clock(), 0.0])
        state.open_layers[layer] = state.open_layers.get(layer, 0) + 1

    def close_frame(self) -> None:
        state = self._state
        layer, start, child = state.stack.pop()
        elapsed = self.clock() - start
        state.open_layers[layer] -= 1
        self.self_seconds[layer] = self.self_seconds.get(layer, 0.0) + elapsed - child
        self.inclusive_seconds[layer] = self.inclusive_seconds.get(layer, 0.0) + elapsed
        if state.stack:
            state.stack[-1][2] += elapsed

    def close_all(self) -> None:
        """Close every frame still open on this thread (virtual phases)."""
        while self._state.stack:
            self.close_frame()

    def top_layer(self) -> Optional[str]:
        stack = self._state.stack
        return stack[-1][0] if stack else None

    # -- wrapping --------------------------------------------------------------------
    def wrap(
        self,
        path: str,
        layer: str,
        counter: str,
        probe: Optional[Callable] = None,
        recursive: bool = False,
    ) -> None:
        """Wrap the function at ``path`` (looked up where its caller finds it).

        ``probe(tracer, args, kwargs)`` is called before an outermost call
        and returns a callable ``after(result)``, or None.  ``recursive``
        puts the original back for the duration of an outermost call, so a
        function that recurses through its own global name pays the wrapper
        once per outermost call instead of once per level.
        """
        owner, attribute = resolve(path)
        owned = isinstance(owner, type) and attribute in vars(owner)
        original = vars(owner)[attribute] if owned else getattr(owner, attribute)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{path} is a {type(original).__name__}; wrap its function")
        tracer = self
        key = path

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            state = tracer._state
            depth = state.depth.get(key, 0)
            after = None
            if depth == 0:
                tracer.counts[counter] = tracer.counts.get(counter, 0) + 1
                if probe is not None:
                    after = probe(tracer, args, kwargs)
            state.depth[key] = depth + 1
            framed = not state.open_layers.get(layer)
            if framed:
                tracer.open_frame(layer)
            if recursive:
                setattr(owner, attribute, original)
            try:
                result = original(*args, **kwargs)
            finally:
                if recursive:
                    setattr(owner, attribute, wrapper)
                if framed:
                    tracer.close_frame()
                state.depth[key] = depth
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped_by_tracer__ = original
        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, original, owned))

    def wrap_sequence(self, path: str, layer: str, counter: str) -> None:
        """Wrap every callable of a module-level tuple (e.g. a factory table)."""
        owner, attribute = resolve(path)
        original = getattr(owner, attribute)
        tracer = self

        def wrap_one(factory):
            @functools.wraps(factory)
            def wrapper(*args, **kwargs):
                if not tracer.enabled or tracer._state.open_layers.get(layer):
                    return factory(*args, **kwargs)
                tracer.count(counter)
                tracer.open_frame(layer)
                try:
                    return factory(*args, **kwargs)
                finally:
                    tracer.close_frame()

            return wrapper

        setattr(owner, attribute, type(original)(wrap_one(f) for f in original))
        self._installed.append((owner, attribute, original, False))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, attribute, original, owned = self._installed.pop()
            if isinstance(owner, type) and not owned:
                # the method was inherited: drop the shadowing wrapper
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- results ---------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "self": dict(self.self_seconds),
            "inclusive": dict(self.inclusive_seconds),
            "counts": dict(self.counts),
            "marks": dict(self.marks),
        }

    def reset(self) -> None:
        """Forget everything measured so far (a forked child starts clean)."""
        self.self_seconds.clear()
        self.inclusive_seconds.clear()
        self.counts.clear()
        self.marks.clear()
        self._state = _ThreadState()


def merge(into: dict, other: dict) -> dict:
    """Add the ``self``/``inclusive``/``counts`` of one snapshot to another."""
    for section in ("self", "inclusive", "counts"):
        target = into.setdefault(section, {})
        for name, value in other.get(section, {}).items():
            target[name] = target.get(name, 0) + value
    return into
