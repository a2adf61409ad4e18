"""The two simulator workloads: ``grid-10k`` and ``fig4-campaign``.

``grid-10k`` is ``P2PGridSystem(config).run()`` of the metro-10k preset
at a 0.5 h horizon, twice: the only workload where construction is about
half the wall time.  ``fig4-campaign`` runs the bench-scale Fig. 4 base
setting once per paper algorithm through ``CampaignRunner(jobs=2)`` into
an empty cache: every paper heuristic, pool spawn, pickling and cache
writes, with negligible construction.

The gated times are CPU seconds (user + system): they leave out the time
a process waits for a CPU, in the guest's run queue or stolen by the
host, which spread the wall times of ten runs of the same work by 0.45
to 0.6 of their median on a shared host.  The wall times are printed
beside them.
"""

from __future__ import annotations

import gc
import json
import pickle
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter, process_time

from perfbench import layers
from perfbench.common import (
    DEFAULT_SEED,
    Outcome,
    children_cpu_s,
    children_peak_mb,
    expected,
    median,
    vm_hwm_mb,
)

#: grid-10k construct-and-run passes per run; every time is the median
#: over them, and at any seed their results must agree.
GRID_RUNS = 2
#: fig4-campaign repeats at least this many campaigns, so that repeats can
#: be compared on seeds without recorded outcomes.
MIN_CAMPAIGNS = 2


def grid_config(seed: int):
    """metro-10k (10,000 nodes, structured mix, Weibull churn) at 0.5 h."""
    from repro.experiments.config import ExperimentConfig
    from repro.workload.scenarios import apply_scenario

    base = ExperimentConfig(algorithm="dsmf", seed=seed, task_range=(2, 30))
    return apply_scenario(base, "metro-10k").with_(total_time=0.5 * 3600.0)


#: The bench-scale Fig. 4 base setting, on top of the ``paper-fig4``
#: scenario: the cells of ``fig4-campaign`` and the results ``service-mix``
#: serves.
FIG4_SETTING = {"n_nodes": 60, "load_factor": 3, "total_time": 24 * 3600.0}


def fig4_specs(seed: int):
    """One cell per paper algorithm and seed at the bench-scale Fig. 4 setting.

    Two workload seeds (``seed`` and ``seed + 1``) per campaign halve the
    share of one seed's workload in the figures.
    """
    from repro.core.heuristics.registry import PAPER_ALGORITHMS
    from repro.experiments.campaign import sweep_specs
    from repro.experiments.config import ExperimentConfig
    from repro.workload.scenarios import apply_scenario

    base = ExperimentConfig(algorithm="dsmf", seed=seed, task_range=(2, 30), **FIG4_SETTING)
    return sweep_specs(PAPER_ALGORITHMS, [seed, seed + 1], base=apply_scenario(base, "paper-fig4"))


def _check_grid_result(out: Outcome, seed: int, result, what: str, reference=None):
    """Compare one run with the recorded default-seed outcome, or at other
    seeds with ``reference``; returns ``(digest, events, n_done)``."""
    from repro.experiments.campaign import result_digest

    got = (result_digest(result), result.events_executed, result.n_done)
    if seed == DEFAULT_SEED:
        want = expected("grid-10k")
        reference = (want["digest"], want["events"], want["n_done"])
    if reference is not None:
        for key, value, recorded in zip(("digest", "events", "n_done"), got, reference):
            if value != recorded:
                out.fail(f"{what}: {key} {value!r} != {recorded!r}")
    return got


# --------------------------------------------------------------------------
# grid-10k
# --------------------------------------------------------------------------

def grid_10k(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    """Construct and run :data:`GRID_RUNS` times, report medians; with
    --trace, one untraced and one traced construct-and-run."""
    from repro.grid.system import P2PGridSystem

    out = Outcome()
    config = grid_config(seed)
    setups, runs, walls = [], [], []
    reference = None
    for i in range(1 if trace else GRID_RUNS):
        gc.collect()
        c0, t0 = process_time(), perf_counter()
        system = P2PGridSystem(config)
        c1, t1 = process_time(), perf_counter()
        result = system.run()
        c2, t2 = process_time(), perf_counter()
        setups.append(c1 - c0)
        runs.append(c2 - c1)
        walls.append(t2 - t0)
        out.attempted += 1
        reference = _check_grid_result(out, seed, result, f"grid-10k run {i + 1}", reference)
        departures = result.n_departures
        del system, result
    digest, events, n_done = reference
    out.report.append(
        f"grid-10k seed {seed}: {events} events, {n_done} done, "
        f"{departures} departures, digest {digest[:16]}"
    )
    if not trace:
        out.put("cpu_s", median(s + r for s, r in zip(setups, runs)))
        out.put("setup_s", median(setups))
        out.put("run_s", median(runs))
        out.put("events_per_s", events / median(runs))
        out.put("peak_rss_mb", vm_hwm_mb())
        out.report.append(f"wall_s = {median(walls):.6g} s (ungated)")
        out.report.append(f"set-up CPU samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
        out.report.append(f"run CPU samples (s): {', '.join(f'{s:.3f}' for s in runs)}")
        return out

    gc.collect()
    tracer = layers.Tracer()
    traced, found = layers.traced_simulation(config, tracer)
    out.attempted += 1
    _check_grid_result(out, seed, traced, "grid-10k traced run", reference)
    for name, value in found.items():
        out.put(name, value)
    traced_wall = found["bench.setup_s"] + found["bench.run_s"]
    out.put("bench.trace_overhead_s", traced_wall - walls[0])
    path = work.parent / f"trace-grid-10k-seed{seed}.json"
    layers.write_chrome_trace(path, tracer.chrome_events())
    out.report.append(f"chrome trace: {path}")
    return out


# --------------------------------------------------------------------------
# fig4-campaign
# --------------------------------------------------------------------------

class _CellClock:
    """Progress hooks: per-cell hand-off and completion times."""

    def __init__(self) -> None:
        self.started: dict[str, float] = {}
        self.done: dict[str, float] = {}

    def on_start(self, spec, key) -> None:
        self.started[spec.label] = perf_counter()

    def progress(self, run) -> None:
        self.done[run.label] = perf_counter()


def cpu_cell(out_dir: str, config):
    """Campaign runner: the default runner's work, with its CPU times.

    Does the same ``P2PGridSystem(config).run()`` work as the default
    runner; the construction and event-loop CPU seconds of the cell go to
    a JSON file in ``out_dir`` for the parent to add up.
    """
    c0 = process_time()
    # A fresh worker's first import of the simulator counts as set-up.
    from repro.grid.system import P2PGridSystem

    system = P2PGridSystem(config)
    c1 = process_time()
    result = system.run()
    c2 = process_time()
    path = Path(out_dir) / f"{config.algorithm}-{config.seed}.json"
    path.write_text(json.dumps({"setup_s": c1 - c0, "run_s": c2 - c1}), encoding="utf-8")
    return result


def _campaign(specs, work: Path, runner=None, clock: _CellClock | None = None):
    """One campaign into an empty cache dir; returns (result, wall, cpu, cells).

    ``cpu`` is the CPU time of this process and its reaped workers over the
    campaign.  Without ``runner`` the cells run under :func:`cpu_cell` and
    ``cells`` lists their CPU records; ``runner`` and ``clock`` are given
    only on the traced pass.
    """
    from repro.experiments.campaign import CampaignRunner

    cell_dir = Path(tempfile.mkdtemp(prefix="cpu-", dir=work))
    if runner is None:
        runner = partial(cpu_cell, str(cell_dir))
    kwargs = {} if clock is None else {"progress": clock.progress, "on_start": clock.on_start}
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    campaign = CampaignRunner(jobs=2, cache_dir=cache, runner=runner, **kwargs)
    c0, k0, t0 = process_time(), children_cpu_s(), perf_counter()
    result = campaign.run(specs)
    wall = perf_counter() - t0
    cpu = process_time() - c0 + children_cpu_s() - k0
    cells = [json.loads(p.read_text()) for p in sorted(cell_dir.glob("*.json"))]
    return result, wall, cpu, cells


def check_campaign(out: Outcome, seed: int, result, reference: dict | None) -> dict:
    """Per-cell digest checks; returns ``label -> digest``."""
    cells = {run.label: run.digest() for run in result.runs}
    out.attempted += len(cells)
    if seed == DEFAULT_SEED:
        want = expected("fig4-campaign")["cells"]
        for run in result.runs:
            got = [cells[run.label], run.result.events_executed, run.result.n_done]
            if got != want[run.label]:
                out.fail(f"fig4-campaign {run.label}: {got} != recorded {want[run.label]}")
    elif reference is not None:
        for label, digest in cells.items():
            if digest != reference[label]:
                out.fail(f"fig4-campaign {label}: repeats disagree")
    return cells


def fig4_campaign(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    """Repeat the campaign for ``seconds`` (at least twice), report medians."""
    from repro.experiments.campaign import CampaignError

    out = Outcome()
    specs = fig4_specs(seed)
    walls, cpus, setups, runs, rates = [], [], [], [], []
    reference = None
    started = perf_counter()
    while len(walls) < (1 if trace else MIN_CAMPAIGNS) or (
        not trace and perf_counter() - started < seconds
    ):
        try:
            result, wall, cpu, cells = _campaign(specs, work)
        except CampaignError as exc:
            out.attempted += len(specs)
            out.fail(f"fig4-campaign: {exc}", len(exc.failures))
            break
        reference = check_campaign(out, seed, result, reference)
        if len(cells) != len(specs):
            out.fail(f"fig4-campaign: {len(cells)} CPU records for {len(specs)} cells")
            break
        run_s = sum(c["run_s"] for c in cells)
        walls.append(wall)
        cpus.append(cpu)
        setups.append(sum(c["setup_s"] for c in cells))
        runs.append(run_s)
        rates.append(sum(r.result.events_executed for r in result.runs) / run_s)
    if not walls:
        return out
    out.report.append(
        f"fig4-campaign seed {seed}: {len(walls)} campaigns of {len(specs)} cells, "
        f"fingerprint {result.fingerprint()[:16]}"
    )
    if not trace:
        out.put("cpu_s", median(cpus))
        out.put("setup_s", median(setups))
        out.put("run_s", median(runs))
        out.put("events_per_s", median(rates))
        out.put("peak_rss_mb", max(vm_hwm_mb(), children_peak_mb()))
        out.report.append(f"wall_s = {median(walls):.6g} s (ungated)")
        out.report.append(f"campaign CPU samples (s): {', '.join(f'{c:.3f}' for c in cpus)}")
        return out

    cell_dir = Path(tempfile.mkdtemp(prefix="cells-", dir=work))
    clock = _CellClock()
    tracer = layers.Tracer()
    with tracer.installed(layers.install_campaign):
        traced, traced_wall, _, _ = _campaign(
            specs, work, runner=partial(layers.traced_cell, str(cell_dir)), clock=clock
        )
    cells = check_campaign(out, seed, traced, None)
    if cells != reference:
        out.fail("fig4-campaign: traced digests differ from the untraced digests")
    totals: dict[str, float] = {}
    events = tracer.chrome_events()
    for path in sorted(cell_dir.glob("*.json")):
        record = json.loads(path.read_text())
        for name, value in record["layers"].items():
            totals[name] = totals.get(name, 0.0) + value
        for event in record["events"]:
            event["ts"] -= tracer.origin * 1e6
            events.append(event)
    for name, value in totals.items():
        out.put(name, value)
    parent = tracer.snapshot()
    out.put("experiments.config_hash_s", parent.get("experiments.config_hash_s", 0.0))
    out.put("experiments.cache_probe_s", parent.get("experiments.cache_probe_s", 0.0))
    out.put(
        "experiments.cell_setup_s",
        sum(r.wall_seconds - r.result.wall_seconds for r in traced.runs),
    )
    out.put(
        "experiments.wait_s",
        sum(clock.done[r.label] - clock.started[r.label] - r.wall_seconds for r in traced.runs),
    )
    pickled = sum(len(pickle.dumps(r.result, pickle.HIGHEST_PROTOCOL)) for r in traced.runs)
    out.put("experiments.result_kb", pickled / 1024.0)
    out.put("bench.trace_overhead_s", traced_wall - walls[0])
    path = work.parent / f"trace-fig4-campaign-seed{seed}.json"
    layers.write_chrome_trace(path, events)
    out.report.append(f"chrome trace: {path}")
    return out
