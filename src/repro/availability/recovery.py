"""Recovery policies: what happens to tasks lost to churn.

In ``churn_mode="fail"`` a disconnecting node takes its resident tasks
with it.  The paper's position — rescheduling is future work — makes the
owning workflow fail outright (:class:`FailRecovery`, the default).
:class:`RescheduleRecovery` (``recovery_policy="reschedule"``) puts lost
tasks back into the schedule; :class:`CheckpointRecovery` adds the
classic checkpoint-on-dispatch discipline: the home node keeps a copy of
every input it ships at dispatch time, so a lost task re-enters the
schedule-point set at its last completed predecessor frontier and dead
data sources are re-served from the home's checkpoint instead of failing
or cascading invalidations.

Policies are consulted from exactly two places in
:class:`~repro.grid.system.P2PGridSystem`:

* :meth:`RecoveryPolicy.on_task_lost` — a dispatched/queued/running task
  died with its node (churn cleanup);
* :meth:`RecoveryPolicy.on_dead_sources` — phase 1 wants to dispatch a
  task whose dependent data lives on departed nodes.

``churn_mode="suspend"`` (the paper's default reading of churn) never
loses anything, so recovery is moot there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.state import WorkflowExecution
    from repro.grid.system import P2PGridSystem

__all__ = [
    "CheckpointRecovery",
    "FailRecovery",
    "RecoveryPolicy",
    "RescheduleRecovery",
    "make_recovery_policy",
    "recovery_policy_names",
]


class RecoveryPolicy(Protocol):
    """Strategy deciding the fate of churn-lost tasks and dead data."""

    name: str

    def on_task_lost(
        self,
        system: "P2PGridSystem",
        wx: "WorkflowExecution",
        tid: int,
        dead_node: int,
    ) -> None:
        """A not-yet-finished task was lost when ``dead_node`` departed."""
        ...

    def on_dead_sources(
        self,
        system: "P2PGridSystem",
        wx: "WorkflowExecution",
        tid: int,
        inputs: list[tuple[int, float]],
        dead_sources: list[int],
    ) -> Optional[list[tuple[int, float]]]:
        """Dependent data for ``tid`` lives on departed nodes.

        Return a patched ``(source, megabits)`` list to dispatch anyway,
        or ``None`` to skip this dispatch (the task stays a schedule
        point; the policy may have failed the workflow or invalidated
        precedents).
        """
        ...


class FailRecovery:
    """Paper semantics: a lost task fails its owning workflow."""

    name = "fail"

    def on_task_lost(self, system, wx, tid, dead_node):
        system._fail_workflow(wx, reason=f"task lost on churned node {dead_node}")

    def on_dead_sources(self, system, wx, tid, inputs, dead_sources):
        system._fail_workflow(
            wx, reason=f"dependent data lost on node {dead_sources[0]}"
        )
        return None


class RescheduleRecovery:
    """The paper's future-work extension: lost tasks become schedule
    points again, and finished tasks whose output died with the node (and
    is still needed) are invalidated so their producers re-run."""

    name = "reschedule"

    def on_task_lost(self, system, wx, tid, dead_node):
        system._reschedule_lost(wx, tid, dead_node)

    def on_dead_sources(self, system, wx, tid, inputs, dead_sources):
        for src in dead_sources:
            for p in wx.wf.precedents[tid]:
                if p in wx.finished and wx.finished[p][0] == src:
                    wx.invalidate_task(p)
        return None


class CheckpointRecovery:
    """Checkpoint-on-dispatch: the home keeps every input it ships.

    A lost task simply re-enters the schedule-point set at its last
    completed predecessor frontier — finished predecessors stay finished
    because their outputs were checkpointed at the home when they were
    shipped — and dead data sources are substituted by the home node, so
    no cascade of invalidations and no workflow failure ever originates
    from churn."""

    name = "checkpoint"

    def on_task_lost(self, system, wx, tid, dead_node):
        wx.invalidate_task(tid)

    def on_dead_sources(self, system, wx, tid, inputs, dead_sources):
        dead = set(dead_sources)
        # Re-serve lost inputs from the home's dispatch-time checkpoint.
        return [
            (wx.home_id if src in dead else src, mb) for src, mb in inputs
        ]


_POLICIES: dict[str, type] = {
    p.name: p for p in (FailRecovery, RescheduleRecovery, CheckpointRecovery)
}


def recovery_policy_names() -> list[str]:
    """Registered recovery-policy names (``ExperimentConfig.recovery_policy``)."""
    return sorted(_POLICIES)


def make_recovery_policy(name: str) -> RecoveryPolicy:
    """Instantiate a recovery policy by name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown recovery_policy {name!r}; "
            f"available: {', '.join(recovery_policy_names())}"
        ) from None
    return cls()
