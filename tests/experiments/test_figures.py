"""Tests for the figure harnesses (tiny scale: correctness of plumbing)."""

from __future__ import annotations

import pytest

from repro.experiments.campaign import CampaignError, CampaignRunner
from repro.experiments.figures import (
    CCR_CASES,
    base_config,
    fig4_throughput,
    fig5_finish_time,
    fig6_efficiency,
    fig7_finish_time_vs_load,
    fig11_scalability,
    fig12_churn_throughput,
    run_static_suite,
    scalability_specs,
    table1_settings,
    table2_fcfs_ablation,
    FIGURES,
)

TINY = dict(
    profile="small",
    seed=3,
    n_nodes=24,
    total_time=5 * 3600.0,
    load_factor=1,
    task_range=(2, 8),
)


@pytest.fixture(scope="module")
def suite():
    return run_static_suite(algorithms=("dsmf", "heft"), **TINY)


def test_base_config_profiles():
    small = base_config("small")
    paper = base_config("paper")
    assert small.n_nodes < paper.n_nodes
    assert paper.n_nodes == 1000


def test_run_static_suite_runs_each_algorithm(suite):
    assert set(suite) == {"dsmf", "heft"}
    for r in suite.values():
        assert r.n_workflows == 24


def test_fig4_reuses_precomputed_results(suite):
    fig = fig4_throughput(results=suite)
    assert fig.figure == "fig4"
    assert set(fig.series) == {"dsmf", "heft"}


def test_fig5_and_fig6_share_runs(suite):
    f5 = fig5_finish_time(results=suite)
    f6 = fig6_efficiency(results=suite)
    assert f5.ylabel != f6.ylabel
    assert set(f5.series) == set(f6.series)


def test_fig7_sweeps_load_factors():
    fig = fig7_finish_time_vs_load(
        load_factors=(1, 2), algorithms=("dsmf",), **TINY
    )
    assert fig.categories == ["1", "2"]
    xs, ys = fig.series["dsmf"]
    assert len(ys) == 2


def test_fig11_reports_three_series():
    fig = fig11_scalability(scales=(20, 30), seed=3, total_time=4 * 3600.0)
    assert set(fig.series) == {"known_nodes", "avg_efficiency", "avg_finish_time"}
    assert fig.categories == ["20", "30"]


def test_fig12_churn_series():
    fig = fig12_churn_throughput(dynamic_factors=(0.0, 0.2), **TINY)
    assert set(fig.series) == {"dynamic factor=0", "dynamic factor=0.2"}


def test_table2_pairs_heuristic_and_fcfs():
    fig = table2_fcfs_ablation(bases=("min-min",), **TINY)
    assert set(fig.series) == {"phase2-heuristic", "phase2-fcfs"}
    assert fig.categories == ["min-min"]


def test_table1_covers_every_table_row():
    rows = dict(table1_settings())
    for key in ("# of nodes", "# of tasks per workflow", "network bandwidth",
                "node capacity", "CCR"):
        assert key in rows


def test_figure_result_helpers(suite):
    fig = fig4_throughput(results=suite)
    finals = fig.final_values()
    assert set(finals) == {"dsmf", "heft"}
    rows = fig.as_rows()
    assert all(len(r) == 3 for r in rows)


def test_ccr_cases_match_paper():
    assert len(CCR_CASES) == 4
    names = [c[0] for c in CCR_CASES]
    assert names[0] == "load:10-1000 data:10-1000"


def test_figures_registry_covers_4_to_14():
    for key in [str(k) for k in range(4, 15)] + ["table2"]:
        assert key in FIGURES


def test_progress_callback_invoked():
    seen = []
    runner = CampaignRunner(
        use_cache=False, progress=lambda run: seen.append(run.label)
    )
    run_static_suite(algorithms=("dsmf",), runner=runner, **TINY)
    assert seen == ["dsmf"]


def _stub_runner(result, seen):
    """A runner that records each cell's config and returns ``result``."""
    def run(cfg):
        seen.append(cfg)
        return result
    return CampaignRunner(use_cache=False, runner=run)


def test_fig11_runs_explicit_scales_as_given(suite):
    """Explicit scales bypass the ``small`` profile's <= 400 filter."""
    for scales in [(200, 2000), (600, 800)]:
        seen = []
        fig = fig11_scalability(
            scales=scales, runner=_stub_runner(suite["dsmf"], seen)
        )
        assert fig.categories == [str(s) for s in scales]
        assert [c.n_nodes for c in seen] == list(scales)


def test_fig11_default_scales_follow_profile():
    assert [s.label for s in scalability_specs(profile="small")] == [
        "dsmf@n100", "dsmf@n200", "dsmf@n400",
    ]
    assert len(scalability_specs(profile="medium")) == 6


def test_failing_cell_raises_after_grid_drains(suite):
    seen = []

    def flaky(cfg):
        seen.append(cfg.algorithm)
        if cfg.algorithm == "min-min":
            raise RuntimeError("boom")
        return suite["dsmf"]

    runner = CampaignRunner(use_cache=False, runner=flaky)
    with pytest.raises(CampaignError, match=r"\[min-min\] RuntimeError: boom"):
        table2_fcfs_ablation(bases=("min-min", "dheft"), runner=runner, **TINY)
    assert seen == ["min-min", "min-min-fcfs", "dheft", "dheft-fcfs"]


def test_fanout_leaves_figure_unchanged():
    kw = dict(bases=("min-min", "dheft"), **TINY)
    inline = table2_fcfs_ablation(**kw)
    fanned = table2_fcfs_ablation(
        runner=CampaignRunner(jobs=2, use_cache=False), **kw
    )
    assert fanned == inline
