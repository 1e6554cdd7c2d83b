"""The obligation engine: the schedule/discharge stages of the pipeline.

``repro.typecheck`` emits proof obligations as a first-class IR
(:class:`Obligation` / :class:`ObligationSet`), and this package decides
them: dedupe by structural fingerprint, a cross-method memo, and discharge
in emission order with statistics merged back into the evaluation tables.
See :mod:`repro.engine.scheduler` for the determinism contract.
"""

from .obligations import KINDS, DischargeOutcome, Obligation, ObligationSet
from .scheduler import EngineStats, ObligationEngine

__all__ = [
    "KINDS",
    "DischargeOutcome",
    "Obligation",
    "ObligationSet",
    "EngineStats",
    "ObligationEngine",
]
