"""Span-based structured tracing with a zero-overhead no-op default.

A :class:`Tracer` records *spans*: named, categorised intervals measured
against a single ``time.perf_counter()`` epoch captured when the tracer
is created (``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux).  Every span
records the ``pid`` that produced it.

Until :func:`install` is called the module-level :func:`span` helper
returns a shared null context manager and records nothing; the traced
code needs no conditionals.

Two file formats are supported by :func:`write_trace` / :func:`read_trace`:

* ``*.jsonl`` — the native format: a ``meta`` record, one ``span``
  record per line, and an optional trailing ``counters`` record.
* anything else (conventionally ``*.json``) — Chrome trace-event format
  (``{"traceEvents": [...]}`` with ``ph: "X"`` complete events,
  microsecond ``ts``/``dur``), loadable directly in Perfetto or
  ``chrome://tracing``.

Spans are strictly volatile: nothing in this module feeds fingerprints,
cache keys, or deterministic tables.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

TRACE_SCHEMA = 1

#: Environment fallback for the CLI's ``--trace PATH`` flag.
ENV_TRACE = "REPRO_TRACE"

#: Categories the report groups into the phase breakdown, in pipeline order.
PHASE_CATEGORIES = ("emit", "schedule", "alphabet", "discharge", "store", "solver")

#: Structural categories that frame the run rather than doing leaf work.
STRUCTURAL_CATEGORIES = ("run", "benchmark", "method")


class _NullSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> None:
        """Ignore late-attached attributes."""


_NULL_SPAN = _NullSpan()


class _Span:
    """Live context manager for one span of an installed tracer."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        record = self.record
        stack = tracer._stack
        if stack:
            record["parent"] = stack[-1]["id"]
        record["ts"] = time.perf_counter() - tracer.epoch
        stack.append(record)
        return self

    def set(self, **args: Any) -> None:
        """Attach attributes discovered after the span opened."""
        existing = self.record.get("args")
        if existing is None:
            existing = self.record["args"] = {}
        existing.update(args)

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        record = self.record
        record["dur"] = time.perf_counter() - tracer.epoch - record["ts"]
        stack = tracer._stack
        if stack and stack[-1] is record:
            stack.pop()
        else:  # unbalanced exit — drop our frame without corrupting others
            try:
                stack.remove(record)
            except ValueError:
                pass
        tracer.spans.append(record)
        return False


class Tracer:
    """Collects spans against one monotonic epoch; fork-inheritable."""

    def __init__(self, meta: Optional[dict] = None) -> None:
        self.epoch = time.perf_counter()
        self.pid = os.getpid()
        self.created = time.time()
        self.meta: dict = dict(meta or {})
        self.spans: list[dict] = []
        #: Optional run-level counter payload (e.g. ``cache_totals()``),
        #: written as the trailing ``counters`` record of the trace file.
        self.counters: Optional[dict] = None
        self._stack: list[dict] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, cat: Optional[str] = None, args: Optional[dict] = None) -> _Span:
        self._next_id += 1
        record: dict = {
            "id": self._next_id,
            "pid": os.getpid(),
            "name": name,
            "cat": cat or name,
        }
        if args:
            record["args"] = args
        return _Span(self, record)

    # -- introspection -----------------------------------------------------------

    def current_span(self) -> Optional[dict]:
        return self._stack[-1] if self._stack else None

    def open_spans(self) -> list[dict]:
        """Snapshot of the open-span stack, outermost first."""
        return [dict(record) for record in self._stack]

    def meta_record(self) -> dict:
        return {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "clock": "perf_counter",
            "pid": self.pid,
            "created": self.created,
            **self.meta,
        }


# -- module-level active tracer --------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def install(tracer: Tracer) -> Tracer:
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def uninstall() -> Optional[Tracer]:
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def span(name: str, cat: Optional[str] = None, **args: Any):
    """Open a span on the active tracer, or a shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat, args or None)


def current_span() -> Optional[dict]:
    tracer = _ACTIVE
    return tracer.current_span() if tracer is not None else None


def open_spans() -> list[dict]:
    tracer = _ACTIVE
    return tracer.open_spans() if tracer is not None else []


@contextmanager
def session(path: Optional[str] = None, meta: Optional[dict] = None) -> Iterator[Tracer]:
    """Install a fresh tracer for the duration, writing ``path`` on exit."""
    tracer = install(Tracer(meta=meta))
    try:
        yield tracer
    finally:
        uninstall()
        if path:
            write_trace(tracer, path)


# -- export ----------------------------------------------------------------------


def write_trace(tracer: Tracer, path: str) -> str:
    """Write the tracer's spans to ``path``; format chosen by suffix."""
    path = os.fspath(path)
    if path.endswith(".jsonl"):
        _write_jsonl(tracer, path)
    else:
        _write_chrome(tracer, path)
    return path


def _write_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(tracer.meta_record(), sort_keys=True) + "\n")
        for record in tracer.spans:
            handle.write(json.dumps({"type": "span", **record}, sort_keys=True) + "\n")
        if tracer.counters is not None:
            handle.write(
                json.dumps({"type": "counters", **tracer.counters}, sort_keys=True) + "\n"
            )


def _write_chrome(tracer: Tracer, path: str) -> None:
    events: list[dict] = []
    pids = sorted({record["pid"] for record in tracer.spans} | {tracer.pid})
    for pid in pids:
        label = "pymarple" if pid == tracer.pid else f"pymarple worker {pid}"
        events.append(
            {"ph": "M", "pid": pid, "tid": pid, "name": "process_name", "args": {"name": label}}
        )
    for record in tracer.spans:
        args = dict(record.get("args") or {})
        args["id"] = record["id"]
        if "parent" in record:
            args["parent"] = record["parent"]
        events.append(
            {
                "ph": "X",
                "pid": record["pid"],
                "tid": record["pid"],
                "name": record["name"],
                "cat": record["cat"],
                "ts": round(record["ts"] * 1e6, 3),
                "dur": round(record.get("dur", 0.0) * 1e6, 3),
                "args": args,
            }
        )
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"meta": tracer.meta_record(), "counters": tracer.counters},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


# -- import ----------------------------------------------------------------------


def read_trace(path: str) -> dict:
    """Load either trace format back into ``{"meta", "spans", "counters"}``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped.split("\n", 1)[0]:
        return _read_chrome(stripped)
    return _read_jsonl(text)


def _read_jsonl(text: str) -> dict:
    meta: dict = {}
    counters: Optional[dict] = None
    spans: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.pop("type", "span")
        if kind == "meta":
            meta = record
        elif kind == "counters":
            counters = record
        else:
            spans.append(record)
    return {"meta": meta, "spans": spans, "counters": counters}


def _read_chrome(text: str) -> dict:
    payload = json.loads(text)
    other = payload.get("otherData") or {}
    meta = dict(other.get("meta") or {})
    meta.pop("type", None)
    spans: list[dict] = []
    for event in payload.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        record = {
            "id": args.pop("id", None),
            "pid": event.get("pid"),
            "name": event.get("name"),
            "cat": event.get("cat"),
            "ts": float(event.get("ts", 0.0)) / 1e6,
            "dur": float(event.get("dur", 0.0)) / 1e6,
        }
        parent = args.pop("parent", None)
        if parent is not None:
            record["parent"] = parent
        if args:
            record["args"] = args
        spans.append(record)
    return {"meta": meta, "spans": spans, "counters": other.get("counters")}
