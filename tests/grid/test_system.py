"""Integration tests for the full P2P grid system."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.grid.state import WorkflowStatus
from repro.grid.system import P2PGridSystem
from repro.workflow.generator import chain_workflow, diamond_workflow


def _config(**kw):
    base = dict(
        algorithm="dsmf",
        n_nodes=24,
        load_factor=1,
        total_time=8 * 3600.0,
        seed=3,
        task_range=(2, 10),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestBasicRuns:
    def test_all_workflows_finish_in_static_run(self):
        result = P2PGridSystem(_config()).run()
        assert result.n_done == result.n_workflows
        assert result.n_failed == 0

    def test_act_and_ae_are_positive(self):
        result = P2PGridSystem(_config()).run()
        assert result.act > 0
        assert 0 < result.ae

    def test_determinism_same_seed(self):
        a = P2PGridSystem(_config()).run()
        b = P2PGridSystem(_config()).run()
        assert a.act == b.act
        assert a.ae == b.ae
        assert a.events_executed == b.events_executed

    def test_different_seeds_differ(self):
        a = P2PGridSystem(_config(seed=1)).run()
        b = P2PGridSystem(_config(seed=2)).run()
        assert a.act != b.act

    def test_system_runs_only_once(self):
        system = P2PGridSystem(_config())
        system.run()
        with pytest.raises(RuntimeError):
            system.run()

    def test_samples_cover_horizon(self):
        result = P2PGridSystem(_config()).run()
        times, _ = result.series("throughput")
        assert times[0] == pytest.approx(1.0)  # first hourly sample
        assert times[-1] == pytest.approx(8.0)

    def test_throughput_series_monotone(self):
        result = P2PGridSystem(_config()).run()
        _, tp = result.series("throughput")
        assert tp == sorted(tp)

    @pytest.mark.parametrize("algorithm", ["heft", "smf", "min-min", "dsdf"])
    def test_other_algorithms_complete(self, algorithm):
        result = P2PGridSystem(_config(algorithm=algorithm)).run()
        assert result.n_done == result.n_workflows


class TestExplicitWorkflows:
    def test_single_chain_executes_in_order(self):
        wf = chain_workflow("c", 3, load=1000.0, data=10.0)
        cfg = _config()
        system = P2PGridSystem(cfg, workflows=[(0, wf)])
        system.run()
        wx = system.executions["c"]
        assert wx.status is WorkflowStatus.DONE
        times = [wx.finished[t][1] for t in (0, 1, 2)]
        assert times == sorted(times)

    def test_diamond_completion_after_both_branches(self):
        wf = diamond_workflow("d", load=1000.0, data=10.0)
        system = P2PGridSystem(_config(), workflows=[(0, wf)])
        system.run()
        wx = system.executions["d"]
        assert wx.status is WorkflowStatus.DONE
        join_time = wx.finished[3][1]
        assert join_time >= max(wx.finished[1][1], wx.finished[2][1])

    def test_ct_includes_initial_scheduling_wait(self):
        """JIT model: nothing dispatches before the first scheduling cycle."""
        wf = chain_workflow("c", 2, load=100.0, data=0.0)
        cfg = _config(schedule_interval=900.0)
        system = P2PGridSystem(cfg, workflows=[(0, wf)])
        system.run()
        wx = system.executions["c"]
        assert wx.completion_time is not None
        assert wx.completion_time >= 900.0

    def test_immediate_dispatch_skips_cycle_wait(self):
        wf = chain_workflow("c", 2, load=100.0, data=0.0)
        cfg = _config(immediate_dispatch=True)
        system = P2PGridSystem(cfg, workflows=[(0, wf)])
        system.run()
        wx = system.executions["c"]
        assert wx.completion_time is not None
        assert wx.completion_time < 900.0


class TestGossipIntegration:
    def test_rss_mean_bounded(self):
        result = P2PGridSystem(_config()).run()
        assert 0 < result.rss_mean <= 2 * 5  # 2*ceil(log2(24))

    def test_oracle_mode_runs(self):
        result = P2PGridSystem(_config(rss_mode="oracle")).run()
        assert result.n_done == result.n_workflows

    def test_oracle_bandwidth_runs(self):
        result = P2PGridSystem(_config(use_landmark_bandwidth=False)).run()
        assert result.n_done == result.n_workflows


class TestChurnIntegration:
    def test_suspend_churn_keeps_workflows_alive(self):
        result = P2PGridSystem(
            _config(dynamic_factor=0.2, total_time=10 * 3600.0)
        ).run()
        assert result.n_failed == 0
        assert result.n_done > 0

    def test_fail_churn_fails_some_workflows(self):
        result = P2PGridSystem(
            _config(
                dynamic_factor=0.3,
                churn_mode="fail",
                load_factor=2,
                total_time=10 * 3600.0,
            )
        ).run()
        assert result.n_failed > 0

    def test_reschedule_extension_recovers(self):
        base = _config(
            dynamic_factor=0.3,
            churn_mode="fail",
            load_factor=2,
            total_time=10 * 3600.0,
        )
        plain = P2PGridSystem(base).run()
        resched = P2PGridSystem(base.with_(recovery_policy="reschedule")).run()
        assert resched.n_done > plain.n_done
        assert resched.n_failed == 0

    def test_home_nodes_never_churn(self):
        system = P2PGridSystem(_config(dynamic_factor=0.4))
        system.run()
        for node in system.home_nodes:
            assert node.alive

    def test_fail_churn_records_have_reasons(self):
        system = P2PGridSystem(
            _config(dynamic_factor=0.4, churn_mode="fail", total_time=6 * 3600.0)
        )
        result = system.run()
        failed = [r for r in result.records if r.status == "failed"]
        assert all(r.failure_reason for r in failed)


class TestContentionExtension:
    def test_contention_mode_completes(self):
        result = P2PGridSystem(_config(transfer_contention=True)).run()
        assert result.n_done == result.n_workflows

    def test_contention_never_faster(self):
        fast = P2PGridSystem(_config()).run()
        slow = P2PGridSystem(_config(transfer_contention=True)).run()
        assert slow.act >= fast.act * 0.99
