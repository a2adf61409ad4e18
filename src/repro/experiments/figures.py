"""Regeneration harnesses for every table and figure of §IV.

Each figure's grid of runs is declared once, by a ``*_specs`` function
returning labelled :class:`~repro.experiments.campaign.RunSpec`s
(``scripts/collect_experiments.py`` reuses them).  Each ``figN_*`` harness
runs its grid through a :class:`~repro.experiments.campaign.CampaignRunner`
(default: inline, uncached; pass ``runner=`` for fan-out or a cache) and
reduces the ``label -> RunResult`` map to a :class:`FigureResult` holding
the same series/bars the figure plots.  A failing cell raises
:class:`~repro.experiments.campaign.CampaignError` once the grid drains.
The per-experiment index in DESIGN.md maps figures to these functions;
``python -m repro figure <n>`` renders them as ASCII plots and CSV.

Scale profiles (``paper`` / ``medium`` / ``small``) shrink node count and
horizon while keeping all Table I per-task parameters, preserving the
result *shape* (who wins, rough factors, crossovers) at a fraction of the
cost; EXPERIMENTS.md records which profile produced the archived numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.heuristics.registry import PAPER_ALGORITHMS
from repro.experiments.campaign import CampaignRunner, RunSpec
from repro.experiments.config import ExperimentConfig, ScaleProfile, apply_profile
from repro.metrics.collectors import RunResult

__all__ = [
    "FigureResult",
    "base_config",
    "ccr_specs",
    "churn_specs",
    "fig4_throughput",
    "fig5_finish_time",
    "fig6_efficiency",
    "fig7_finish_time_vs_load",
    "fig8_efficiency_vs_load",
    "fig9_finish_time_vs_ccr",
    "fig10_efficiency_vs_ccr",
    "fig11_scalability",
    "fig12_churn_throughput",
    "fig13_churn_finish_time",
    "fig14_churn_efficiency",
    "fcfs_specs",
    "load_factor_specs",
    "run_static_suite",
    "scalability_specs",
    "static_specs",
    "table1_settings",
    "table2_fcfs_ablation",
    "FIGURES",
]


@dataclass
class FigureResult:
    """Data behind one reproduced figure/table.

    ``series`` maps a legend label to ``(x values, y values)``; for bar
    charts x values are category indices and ``categories`` names them.
    """

    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: dict[str, tuple[list[float], list[float]]]
    categories: list[str] = field(default_factory=list)
    notes: str = ""

    def final_values(self) -> dict[str, float]:
        """Last y value per series (the 'converged' numbers quoted in §IV)."""
        return {k: ys[-1] for k, (xs, ys) in self.series.items() if ys}

    def as_rows(self) -> list[list[object]]:
        """Long-form rows (series, x, y) for tables/CSV."""
        out: list[list[object]] = []
        for label, (xs, ys) in self.series.items():
            for x, y in zip(xs, ys):
                name = self.categories[int(x)] if self.categories else x
                out.append([label, name, y])
        return out


# --------------------------------------------------------------------------
# Base setting (§IV.A / Fig. 4–6)
# --------------------------------------------------------------------------

def base_config(
    profile: ScaleProfile | str = ScaleProfile.SMALL, seed: int = 1, **overrides
) -> ExperimentConfig:
    """The Fig. 4–6 experimental setting at the requested scale.

    Paper values: 1000 nodes, three workflows each, loads 100–10000 MI,
    data 10–1000 Mb (CCR ≈ 0.16), 36 hours.  Explicit ``overrides`` win
    over the profile's scale values.
    """
    cfg = apply_profile(ExperimentConfig(seed=seed), ScaleProfile(profile))
    return cfg.with_(**overrides) if overrides else cfg


def _run_specs(specs: list[RunSpec], runner: CampaignRunner | None) -> dict[str, RunResult]:
    return (runner or CampaignRunner(use_cache=False)).run(specs).results()


def static_specs(
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    **overrides,
) -> list[RunSpec]:
    """Fig. 4/5/6 grid: one static run per algorithm, labelled by name."""
    cfg = base_config(profile, seed=seed, **overrides)
    return [RunSpec(alg, cfg.with_(algorithm=alg)) for alg in algorithms]


def run_static_suite(
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    runner: CampaignRunner | None = None,
    **overrides,
) -> dict[str, RunResult]:
    """One static run per algorithm with the shared base setting.

    This is the workhorse behind Fig. 4, 5 and 6 (they share the runs).
    """
    return _run_specs(static_specs(algorithms, profile, seed, **overrides), runner)


def _series_figure(
    results: dict[str, RunResult], metric: str, figure: str, title: str, ylabel: str
) -> FigureResult:
    return FigureResult(
        figure=figure,
        title=title,
        xlabel="Time (Hour)",
        ylabel=ylabel,
        series={alg: r.series(metric) for alg, r in results.items()},
    )


def fig4_throughput(
    results: dict[str, RunResult] | None = None, **kw
) -> FigureResult:
    """Fig. 4: workflows finished over time, eight algorithms, static."""
    results = results or run_static_suite(**kw)
    return _series_figure(
        results, "throughput", "fig4",
        "Throughput of Workflows in Static P2P Grid System",
        "# of workflows finished",
    )


def fig5_finish_time(
    results: dict[str, RunResult] | None = None, **kw
) -> FigureResult:
    """Fig. 5: cumulative average finish time (Eq. 2) over time."""
    results = results or run_static_suite(**kw)
    return _series_figure(
        results, "act", "fig5",
        "Average Finish-time of Workflows in Static P2P Grid System",
        "Average finish-time (s)",
    )


def fig6_efficiency(
    results: dict[str, RunResult] | None = None, **kw
) -> FigureResult:
    """Fig. 6: cumulative average efficiency (Eq. 3) over time."""
    results = results or run_static_suite(**kw)
    return _series_figure(
        results, "ae", "fig6",
        "Average Efficiency of Workflows in Static P2P Grid System",
        "Average efficiency",
    )


# --------------------------------------------------------------------------
# Fig. 7–10 — load-factor and CCR sweeps
# --------------------------------------------------------------------------

#: The paper's Fig. 7/8 x-axis: workflows per node.
LOAD_FACTORS = (1, 2, 3, 4, 5, 6, 7, 8)

#: The paper's four (task-load range, data-size range) combinations.
CCR_CASES: list[tuple[str, tuple[float, float], tuple[float, float]]] = [
    ("load:10-1000 data:10-1000", (10.0, 1000.0), (10.0, 1000.0)),
    ("load:10-1000 data:100-10000", (10.0, 1000.0), (100.0, 10_000.0)),
    ("load:100-10000 data:10-1000", (100.0, 10_000.0), (10.0, 1000.0)),
    ("load:100-10000 data:100-10000", (100.0, 10_000.0), (100.0, 10_000.0)),
]


def load_factor_specs(
    load_factors: Iterable[int] = LOAD_FACTORS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    **overrides,
) -> list[RunSpec]:
    """Fig. 7/8 grid, labelled ``<algorithm>@lf<load factor>``."""
    cfg = base_config(profile, seed=seed, **overrides)
    return [RunSpec(f"{alg}@lf{lf}", cfg.with_(load_factor=lf, algorithm=alg))
            for lf in load_factors for alg in algorithms]


def ccr_specs(
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    **overrides,
) -> list[RunSpec]:
    """Fig. 9/10 grid, labelled ``<algorithm>@<CCR case name>``."""
    cfg = base_config(profile, seed=seed, **overrides)
    return [RunSpec(f"{alg}@{name}", cfg.with_(load_range=loads, data_range=data, algorithm=alg))
            for name, loads, data in CCR_CASES for alg in algorithms]


def _sweep_figure(results, cases, algorithms, metric, figure, title, ylabel) -> FigureResult:
    """One series per algorithm over ``(category, label suffix)`` cases."""
    series = {
        alg: ([float(i) for i in range(len(cases))],
              [float(getattr(results[f"{alg}@{suffix}"], metric)) for _, suffix in cases])
        for alg in algorithms
    }
    return FigureResult(
        figure=figure, title=title, xlabel="case", ylabel=ylabel,
        series=series, categories=[category for category, _ in cases],
    )


def _load_factor_sweep(metric, figure, title, ylabel, load_factors, profile, seed,
                       algorithms, runner, **overrides):
    lfs = list(load_factors)
    results = _run_specs(load_factor_specs(lfs, profile, seed, algorithms, **overrides), runner)
    cases = [(str(lf), f"lf{lf}") for lf in lfs]
    return _sweep_figure(results, cases, algorithms, metric, figure, title, ylabel)


def fig7_finish_time_vs_load(
    load_factors: Iterable[int] = LOAD_FACTORS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """Fig. 7: converged ACT as the per-node workflow count grows."""
    return _load_factor_sweep(
        "act", "fig7", "Average Finish-Time of Workflows under Different Load Factor",
        "Average finish-time (s)", load_factors, profile, seed, algorithms,
        runner, **overrides,
    )


def fig8_efficiency_vs_load(
    load_factors: Iterable[int] = LOAD_FACTORS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """Fig. 8: converged AE as the per-node workflow count grows."""
    return _load_factor_sweep(
        "ae", "fig8", "Average Efficiency of Workflows under Different Load Factor",
        "Average efficiency", load_factors, profile, seed, algorithms,
        runner, **overrides,
    )


def _ccr_sweep(metric, figure, title, ylabel, profile, seed, algorithms,
               runner, **overrides):
    results = _run_specs(ccr_specs(profile, seed, algorithms, **overrides), runner)
    cases = [(name, name) for name, _, _ in CCR_CASES]
    return _sweep_figure(results, cases, algorithms, metric, figure, title, ylabel)


def fig9_finish_time_vs_ccr(
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """Fig. 9: converged ACT under the four CCR combinations."""
    return _ccr_sweep(
        "act", "fig9", "Average Finish-Time of Workflows under Different CCRs",
        "Average finish-time (s)", profile, seed, algorithms, runner, **overrides,
    )


def fig10_efficiency_vs_ccr(
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """Fig. 10: converged AE under the four CCR combinations."""
    return _ccr_sweep(
        "ae", "fig10", "Average Efficiency of Workflows under Different CCRs",
        "Average efficiency", profile, seed, algorithms, runner, **overrides,
    )


# --------------------------------------------------------------------------
# Fig. 11 — scalability of DSMF
# --------------------------------------------------------------------------

def _fig11_scales(scales: Iterable[int] | None, profile) -> list[int]:
    """Explicit scales run as given; the ``small`` default stops at 400."""
    if scales is None:
        small = ScaleProfile(profile) is ScaleProfile.SMALL
        scales = (100, 200, 400) if small else (100, 200, 400, 600, 800, 1000)
    return [int(s) for s in scales]


def scalability_specs(
    scales: Iterable[int] | None = None,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    **overrides,
) -> list[RunSpec]:
    """Fig. 11 grid: DSMF at absolute node counts over the profile's
    horizon, labelled ``dsmf@n<scale>``."""
    horizon = base_config(profile, seed=seed).total_time
    fixed = dict(algorithm="dsmf", seed=seed, total_time=horizon)
    return [RunSpec(f"dsmf@n{s}", ExperimentConfig(**{**fixed, "n_nodes": s, **overrides}))
            for s in _fig11_scales(scales, profile)]


def fig11_scalability(
    scales: Iterable[int] | None = None,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """Fig. 11: DSMF vs system scale — (a) nodes known per node via the
    mixed gossip protocol, (b) average efficiency, (c) average finish time.

    Without ``scales`` the ``small`` profile shrinks the default scale
    list; pass ``scales`` explicitly (e.g. 200..2000) for the paper's
    x-axis — explicit scales are run as given.
    """
    scales = _fig11_scales(scales, profile)
    results = _run_specs(scalability_specs(scales, profile, seed, **overrides), runner)
    runs = [results[f"dsmf@n{s}"] for s in scales]
    idx = [float(i) for i in range(len(scales))]
    return FigureResult(
        figure="fig11",
        title="System Scalability of DSMF",
        xlabel="system scale (n)",
        ylabel="(a) known nodes / (b) AE / (c) ACT",
        series={
            "known_nodes": (idx, [r.rss_mean for r in runs]),
            "avg_efficiency": (idx, [r.ae for r in runs]),
            "avg_finish_time": (idx, [r.act for r in runs]),
        },
        categories=[str(s) for s in scales],
    )


# --------------------------------------------------------------------------
# Fig. 12/13/14 — churn
# --------------------------------------------------------------------------

#: The paper's Fig. 12–14 dynamic factors.
DYNAMIC_FACTORS = (0.0, 0.1, 0.2, 0.3, 0.4)


def churn_specs(
    dynamic_factors: Iterable[float] = DYNAMIC_FACTORS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    **overrides,
) -> list[RunSpec]:
    """Fig. 12/13/14 grid: DSMF per dynamic factor, labelled ``df<factor>``."""
    cfg = base_config(profile, seed=seed, **overrides)
    return [RunSpec(f"df{df:g}", cfg.with_(algorithm="dsmf", dynamic_factor=df))
            for df in dynamic_factors]


def _churn_suite(profile, seed, dynamic_factors, runner, **overrides):
    dfs = list(dynamic_factors)
    results = _run_specs(churn_specs(dfs, profile, seed, **overrides), runner)
    return {f"dynamic factor={df:g}": results[f"df{df:g}"] for df in dfs}


def fig12_churn_throughput(
    dynamic_factors: Iterable[float] = DYNAMIC_FACTORS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    results: dict[str, RunResult] | None = None,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """Fig. 12: DSMF throughput over time under churn."""
    results = results or _churn_suite(profile, seed, dynamic_factors, runner, **overrides)
    return _series_figure(
        results, "throughput", "fig12",
        "Throughput of DSMF in Dynamic Environment", "# of workflows finished",
    )


def fig13_churn_finish_time(
    dynamic_factors: Iterable[float] = DYNAMIC_FACTORS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    results: dict[str, RunResult] | None = None,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """Fig. 13: ACT of finished workflows over time under churn."""
    results = results or _churn_suite(profile, seed, dynamic_factors, runner, **overrides)
    return _series_figure(
        results, "act", "fig13",
        "Average Finish-Time of DSMF in Dynamic Environment",
        "Average finish-time (s)",
    )


def fig14_churn_efficiency(
    dynamic_factors: Iterable[float] = DYNAMIC_FACTORS,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    results: dict[str, RunResult] | None = None,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """Fig. 14: AE of finished workflows over time under churn."""
    results = results or _churn_suite(profile, seed, dynamic_factors, runner, **overrides)
    return _series_figure(
        results, "ae", "fig14",
        "Average Efficiency of DSMF in Dynamic Environment", "Average efficiency",
    )


# --------------------------------------------------------------------------
# Tables
# --------------------------------------------------------------------------

def table1_settings() -> list[tuple[str, str]]:
    """Table I, as implemented by the default configuration."""
    cfg = ExperimentConfig()
    return [
        ("# of nodes", "200 ~ 2000 (config n_nodes; default 1000)"),
        ("# of tasks per workflow", f"{cfg.task_range[0]} ~ {cfg.task_range[1]}"),
        ("computing amount per task", f"{cfg.load_range[0]:g} ~ {cfg.load_range[1]:g} MI"),
        ("image size per task", f"{cfg.image_range[0]:g} ~ {cfg.image_range[1]:g} Mb"),
        ("dependent data size", "100 ~ 10000 Mb (Fig.4-6 use 10 ~ 1000)"),
        ("network bandwidth", f"{cfg.bw_min:g} ~ {cfg.bw_max:g} Mb/s"),
        ("node capacity", "1, 2, 4, 8 or 16 MIPS"),
        ("CCR", "0.16 ~ 16 (via load/data ranges)"),
        ("fan-out per task", f"{cfg.fanout_range[0]} ~ {cfg.fanout_range[1]}"),
        ("total experimental time", f"{cfg.total_time / 3600:g} hours"),
        ("scheduling interval", f"{cfg.schedule_interval / 60:g} minutes"),
        ("gossip cycle", f"{cfg.gossip_interval / 60:g} minutes, TTL {cfg.gossip_ttl}"),
    ]


#: The Table II base heuristics (each also run with an FCFS second phase).
FCFS_BASES = ("min-min", "max-min", "sufferage", "dheft")


def fcfs_specs(
    bases: Sequence[str] = FCFS_BASES,
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    **overrides,
) -> list[RunSpec]:
    """Table II grid: each base heuristic and its ``<base>-fcfs`` twin,
    labelled by algorithm name."""
    cfg = base_config(profile, seed=seed, **overrides)
    return [RunSpec(name, cfg.with_(algorithm=name)) for b in bases for name in (b, f"{b}-fcfs")]


def table2_fcfs_ablation(
    profile: ScaleProfile | str = ScaleProfile.SMALL,
    seed: int = 1,
    bases: Sequence[str] = FCFS_BASES,
    runner: CampaignRunner | None = None,
    **overrides,
) -> FigureResult:
    """§IV.B prose ("Table II"): converged ACT with the heuristic second
    phase vs plain FCFS at resource nodes.

    The paper reports 31977/33495/30321/30728 (heuristic) vs
    32874/33746/32781/32636 (FCFS) — FCFS is consistently worse.
    """
    bases = list(bases)
    results = _run_specs(fcfs_specs(bases, profile, seed, **overrides), runner)
    xs = [float(i) for i in range(len(bases))]
    return FigureResult(
        figure="table2",
        title="Second-phase scheduling vs FCFS (converged ACT)",
        xlabel="base heuristic",
        ylabel="Average finish-time (s)",
        series={
            "phase2-heuristic": (xs, [results[b].act for b in bases]),
            "phase2-fcfs": (list(xs), [results[f"{b}-fcfs"].act for b in bases]),
        },
        categories=bases,
    )


#: Dispatch table used by the CLI: name -> harness.
FIGURES: dict[str, Callable[..., FigureResult]] = {
    "4": fig4_throughput,
    "5": fig5_finish_time,
    "6": fig6_efficiency,
    "7": fig7_finish_time_vs_load,
    "8": fig8_efficiency_vs_load,
    "9": fig9_finish_time_vs_ccr,
    "10": fig10_efficiency_vs_ccr,
    "11": fig11_scalability,
    "12": fig12_churn_throughput,
    "13": fig13_churn_finish_time,
    "14": fig14_churn_efficiency,
    "table2": table2_fcfs_ablation,
}
