"""Recovery-policy semantics: fail, reschedule, checkpoint."""

from __future__ import annotations

import pytest

from repro.availability.recovery import (
    CheckpointRecovery,
    make_recovery_policy,
    recovery_policy_names,
)
from repro.experiments.config import ExperimentConfig
from repro.grid.state import WorkflowStatus
from repro.grid.system import P2PGridSystem


def _config(recovery: str, tmp_path=None, **kw):
    """A fail-mode config with volatile nodes but *no* background churn:
    an empty availability trace activates the volatile population while
    leaving every disconnection to the test's own probe."""
    base = dict(
        algorithm="dsmf",
        n_nodes=24,
        load_factor=2,
        total_time=24 * 3600.0,
        seed=3,
        task_range=(4, 16),
        data_range=(2000.0, 8000.0),  # big payloads -> long transfers
        churn_mode="fail",
        recovery_policy=recovery,
    )
    if tmp_path is not None and "churn_model" not in kw:
        from repro.availability import save_availability_trace

        trace = tmp_path / "empty_trace.json"
        save_availability_trace([], trace)
        base.update(churn_model="trace", availability_path=str(trace))
    base.update(kw)
    return ExperimentConfig(**base)


def _kill_first_busy_node(system):
    """In-sim probe: kill the first node caught with resident dispatches
    and transfers in flight (exactly how a churn model operates), then
    snapshot the owning workflows' state."""
    captured: dict = {}

    def probe():
        if captured:
            return
        for node in system.nodes:
            if (
                node.alive
                and not node.is_home
                and system.transfers.active_count(node.nid) > 0
                and (node.ready or node.running is not None)
            ):
                resident = list(node.ready) + (
                    [node.running] if node.running else []
                )
                captured["node"] = node
                captured["lost"] = [(d.wid, d.tid) for d in resident]
                captured["finished_before"] = {
                    wid: dict(system.executions[wid].finished)
                    for wid, _ in captured["lost"]
                }
                system.kill_node(node.nid)
                captured["post"] = {
                    (wid, tid): (
                        system.executions[wid].status,
                        tid in system.executions[wid].schedule_points,
                        tid in system.executions[wid].dispatched,
                    )
                    for wid, tid in captured["lost"]
                }
                captured["finished_after"] = {
                    wid: dict(system.executions[wid].finished)
                    for wid, _ in captured["lost"]
                }
                # A second kill must be a strict no-op (no double re-entry).
                before = {
                    wid: set(system.executions[wid].schedule_points)
                    for wid, _ in captured["lost"]
                }
                system.kill_node(node.nid)
                captured["idempotent"] = all(
                    set(system.executions[wid].schedule_points) == pts
                    for wid, pts in before.items()
                )
                return
        system.sim.schedule(60.0, probe, label="probe")

    system.sim.schedule(60.0, probe, label="probe")
    result = system.run()
    return captured, result


class TestRegistry:
    def test_names(self):
        assert recovery_policy_names() == ["checkpoint", "fail", "reschedule"]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown recovery_policy"):
            make_recovery_policy("nope")
        with pytest.raises(ValueError, match="unknown recovery_policy"):
            ExperimentConfig(recovery_policy="nope")


class TestRescheduleExactlyOnce:
    def test_midtransfer_loss_reenters_each_task_once(self, tmp_path):
        system = P2PGridSystem(_config("reschedule", tmp_path))
        captured, result = _kill_first_busy_node(system)
        assert captured, "probe never found a busy volatile node"
        assert captured["lost"]
        for key, (status, is_sp, is_dispatched) in captured["post"].items():
            # Still running, re-entered the schedule-point set exactly once
            # (it is a set), and no longer counted as dispatched.
            assert status is WorkflowStatus.RUNNING
            assert is_sp
            assert not is_dispatched
        assert captured["idempotent"]
        assert result.n_tasks_lost == len(captured["lost"])
        # Recovered = re-entered AND finished; with a 24 h horizon every
        # re-entered task of this workload completes.
        assert result.n_tasks_recovered == len(captured["lost"])
        assert result.n_failed == 0


class TestCheckpointRecovery:
    def test_midtransfer_loss_keeps_predecessor_frontier(self, tmp_path):
        system = P2PGridSystem(_config("checkpoint", tmp_path))
        captured, result = _kill_first_busy_node(system)
        assert captured, "probe never found a busy volatile node"
        dead = captured["node"]
        for key, (status, is_sp, is_dispatched) in captured["post"].items():
            assert status is WorkflowStatus.RUNNING
            assert is_sp
            assert not is_dispatched
        # Checkpoint: the finished map is untouched by the kill — tasks
        # finished on the dead node STAY finished (their outputs were
        # checkpointed at the home on dispatch), so lost tasks re-enter at
        # their last completed predecessor frontier with no cascade.
        assert captured["finished_after"] == captured["finished_before"]
        assert dead is not None
        assert captured["idempotent"]
        assert result.n_failed == 0
        assert result.n_tasks_recovered == result.n_tasks_lost

    def test_dead_sources_are_served_from_the_home_checkpoint(self):
        policy = CheckpointRecovery()

        class _WX:
            home_id = 7

        patched = policy.on_dead_sources(
            None, _WX(), 3,
            inputs=[(2, 100.0), (5, 50.0), (9, 25.0)],
            dead_sources=[5, 9],
        )
        assert patched == [(2, 100.0), (7, 50.0), (7, 25.0)]

    def test_checkpoint_run_never_fails_workflows(self):
        cfg = _config("checkpoint", dynamic_factor=0.2)
        result = P2PGridSystem(cfg).run()
        assert result.n_departures > 0
        assert result.n_failed == 0


class TestFailRecovery:
    def test_lost_tasks_fail_their_workflows(self, tmp_path):
        system = P2PGridSystem(_config("fail", tmp_path))
        captured, result = _kill_first_busy_node(system)
        assert captured, "probe never found a busy volatile node"
        for key, (status, is_sp, is_dispatched) in captured["post"].items():
            assert status is WorkflowStatus.FAILED
        assert result.n_failed >= 1
        assert result.n_tasks_recovered == 0
