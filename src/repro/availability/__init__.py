"""Pluggable availability & failure-recovery subsystem.

Mirrors the :mod:`repro.workload` design for the *other* axis of grid
dynamics: where the workload layer decides what is submitted and when,
this package decides **who is alive, when** (a
:class:`~repro.availability.models.ChurnModel`) and **what happens to
tasks lost in a disconnection**
(a :class:`~repro.availability.recovery.RecoveryPolicy`).

The paper's fixed per-interval churn,
:class:`~repro.availability.models.PaperIntervalChurn`, is the default
model; session-based
(exponential/Weibull lifetimes), trace-driven, correlated-subtree-failure
and growth/shrink-ramp models open the availability axis the same way the
workload subsystem opened arrivals.  Wire-up points:
``ExperimentConfig.churn_model``/``recovery_policy``, the scenario
registry presets (``weibull-sessions``, ``flash-crowd-failure``,
``grid-rampup``, ``trace-churn``), ``repro run|campaign
--churn-model/--recovery``, and the ``fig10-dynamic`` bench preset.
"""

from repro.availability.models import (
    ChurnModel,
    CorrelatedFailures,
    GridRamp,
    PaperIntervalChurn,
    SessionChurn,
    TraceChurn,
    churn_model_names,
    make_churn_model,
)
from repro.availability.recovery import (
    CheckpointRecovery,
    FailRecovery,
    RecoveryPolicy,
    RescheduleRecovery,
    make_recovery_policy,
    recovery_policy_names,
)
from repro.availability.trace import (
    AvailabilityEvent,
    load_availability_trace,
    save_availability_trace,
)

__all__ = [
    "AvailabilityEvent",
    "CheckpointRecovery",
    "ChurnModel",
    "CorrelatedFailures",
    "FailRecovery",
    "GridRamp",
    "PaperIntervalChurn",
    "RecoveryPolicy",
    "RescheduleRecovery",
    "SessionChurn",
    "TraceChurn",
    "churn_model_names",
    "load_availability_trace",
    "make_churn_model",
    "make_recovery_policy",
    "recovery_policy_names",
    "save_availability_trace",
]
