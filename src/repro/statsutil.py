"""Field-driven construction, merge and snapshot for the statistics tables.

Every statistics table in the pipeline (:class:`repro.smt.solver.SolverStats`,
:class:`repro.sfa.inclusion.InclusionStats`, the obligation engine's counters)
is a flat table of numeric counters that needs the same three operations:
``merge`` (pointwise sum, used when per-obligation results flow back into
the caller's tables), ``snapshot`` (a copy used for before/after deltas), and
a plain-``dict`` round-trip (used to persist counters in store records, where
only JSON builtins travel).

A table declares each field once, as an annotated class attribute holding
its default; :class:`StatsTable` reads the field tuple off the class body
once, when the class is created, and every operation iterates it.  They
used to be hand-maintained per class, which silently dropped any newly
added counter from ``merge``; deriving them from the one field tuple makes
that mistake impossible.
"""

from __future__ import annotations

from typing import Any, Mapping, TypeVar

from .record import Record

T = TypeVar("T", bound="MergeableStats")


class StatsTable(Record):
    """A flat table of defaulted fields: keyword (or positional, in declaration
    order) construction, and :class:`~repro.record.Record`'s field-wise ``==``
    and ``repr``.

    A field is an annotated class attribute; its value is the default, so it
    must be immutable (a number or a string).
    """

    #: field name -> default, in declaration order (a subclass's after its base's)
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own}}
        cls._fields = tuple(cls._defaults)

    def __init__(self, *args: Any, **values: Any) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes at most {len(fields)} fields")
        for name, value in zip(fields, args):
            if name in values:
                raise TypeError(f"{type(self).__name__} got multiple values for {name!r}")
            values[name] = value
        if not values.keys() <= self._defaults.keys():
            unknown = ", ".join(sorted(values.keys() - self._defaults.keys()))
            raise TypeError(f"{type(self).__name__} has no field {unknown}")
        self.__dict__.update(self._defaults)
        self.__dict__.update(values)

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict view (the store-record transport)."""
        return {name: getattr(self, name) for name in self._fields}


class MergeableStats(StatsTable):
    """A :class:`StatsTable` whose fields are all summable counters."""

    def merge(self: T, other: T) -> None:
        """Pointwise-add every field of ``other`` into ``self``."""
        for name in self._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self: T) -> T:
        """An independent copy (for before/after deltas)."""
        return type(self)(**self.as_dict())

    def since(self: T, before: T) -> T:
        """The delta accumulated since ``before`` was snapshotted."""
        return type(self)(
            **{name: getattr(self, name) - getattr(before, name) for name in self._fields}
        )

    @classmethod
    def from_dict(cls: type[T], data: Mapping[str, Any]) -> T:
        """Rebuild from :meth:`as_dict` output, ignoring unknown keys; a key
        the data lacks (a counter added after it was written) keeps its
        default."""
        return cls(**{k: v for k, v in data.items() if k in cls._defaults})
