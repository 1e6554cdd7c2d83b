"""Run-wide observability: structured tracing, logging, post-mortems
(:mod:`repro.obs.postmortem`, imported where a discharge raises).

The subpackage is deliberately dependency-free (stdlib only) and safe to
import from every layer of the pipeline.  The tracer defaults to a
zero-overhead no-op: until :func:`repro.obs.trace.install` is called,
``trace.span(...)`` returns a shared null context manager and records
nothing.  Spans are strictly volatile — they never feed fingerprints,
cache keys, or the deterministic tables.
"""

from . import trace
from .logs import configure_logging, get_logger

__all__ = ["trace", "configure_logging", "get_logger"]
