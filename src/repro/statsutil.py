"""Field-driven merge/snapshot for the statistics dataclasses.

Every statistics table in the pipeline (:class:`repro.smt.solver.SolverStats`,
:class:`repro.sfa.inclusion.InclusionStats`, the obligation engine's counters)
is a flat dataclass of numeric counters that needs the same three operations:
``merge`` (pointwise sum, used when per-obligation results flow back into
the caller's tables), ``snapshot`` (a copy used for before/after deltas), and
a plain-``dict`` round-trip (used to persist counters in store records, where
only JSON builtins travel).

They used to be hand-maintained per class, which silently dropped any newly
added counter from ``merge``; deriving them from ``dataclasses.fields`` makes
that mistake impossible.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, TypeVar

T = TypeVar("T", bound="MergeableStats")


class MergeableStats:
    """Mixin for dataclasses whose fields are all summable counters."""

    def merge(self: T, other: T) -> None:
        """Pointwise-add every field of ``other`` into ``self``."""
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self: T) -> T:
        """An independent copy (for before/after deltas)."""
        return dataclasses.replace(self)  # type: ignore[type-var]

    def since(self: T, before: T) -> T:
        """The delta accumulated since ``before`` was snapshotted."""
        return type(self)(
            **{
                f.name: getattr(self, f.name) - getattr(before, f.name)
                for f in dataclasses.fields(self)  # type: ignore[arg-type]
            }
        )

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict view (the store-record transport)."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)  # type: ignore[arg-type]
        }

    @classmethod
    def from_dict(cls: type[T], data: Mapping[str, Any]) -> T:
        """Rebuild from :meth:`as_dict` output, ignoring unknown keys."""
        names = {f.name for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
        return cls(**{k: v for k, v in data.items() if k in names})
