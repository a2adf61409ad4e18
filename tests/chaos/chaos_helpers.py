"""Tiny-scale config helpers shared by the chaos tests (kept out of
conftest so test modules can import them without package plumbing)."""

from __future__ import annotations

from repro.experiments.campaign import RunSpec, sweep_specs
from repro.experiments.config import ExperimentConfig
from repro.metrics.collectors import RunResult

TINY = dict(
    n_nodes=24,
    load_factor=1,
    total_time=4 * 3600.0,
    task_range=(2, 10),
)

TINY_MANIFEST = {
    "algorithms": ["dsmf"],
    "seeds": [5],
    "overrides": {
        "n_nodes": 24,
        "load_factor": 1,
        "total_time": 6 * 3600.0,
        "task_range": [2, 10],
    },
}


def tiny_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**TINY, **overrides})


def tiny_specs(algorithms=("dsmf", "dheft"), seeds=(1, 2)) -> "list[RunSpec]":
    return sweep_specs(algorithms, seeds, base=tiny_config())


#: A ``POST /sweeps`` manifest whose probes stay cheap under
#: :func:`analytic_runner`.
SWEEP_MANIFEST = {
    "scenarios": ["paper-fig4"],
    "algorithms": ["dsmf", "heft"],
    "seeds": [1],
    "overrides": {"n_nodes": 20, "load_factor": 2, "total_time": 3600.0},
    "resolution": 0.5,
    "max_scale": 4.0,
}

#: Saturation scale per heuristic under :func:`analytic_runner`.
CAPACITY = {"dsmf": 1.5, "heft": 0.6}


def analytic_runner(config: ExperimentConfig) -> RunResult:
    """Stand-in simulation: completion rate is a function of the scale."""
    cap = CAPACITY[config.algorithm]
    scale = config.workload_scale
    rate = 1.0 if scale <= cap else max(0.0, 1.0 - (scale - cap))
    n_workflows = max(1, round(config.load_factor * config.n_nodes * scale))
    n_done = round(rate * n_workflows)
    return RunResult(
        algorithm=config.algorithm, seed=config.seed, n_nodes=config.n_nodes,
        n_workflows=n_workflows, total_time=config.total_time,
        act=900.0, ae=rate, n_done=n_done, n_failed=n_workflows - n_done,
        events_executed=5, wall_seconds=0.0, rss_mean=1.0,
        records=[], samples=[],
    )
