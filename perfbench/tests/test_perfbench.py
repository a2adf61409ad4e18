"""Tests of the benchmark's own machinery (small configs, a few seconds)."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import layers, simulator
from perfbench.common import percentile, process_cpu_s
from repro.experiments.campaign import result_digest
from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem
from repro.obs.spans import summarize_chrome_trace

ROOT = Path(__file__).resolve().parents[2]

#: Small, churning config: every counted layer does some work.
CONFIG = ExperimentConfig(
    algorithm="dsmf",
    n_nodes=40,
    load_factor=1,
    total_time=6 * 3600.0,
    seed=3,
    task_range=(2, 30),
    dynamic_factor=0.2,
    churn_mode="fail",
    recovery_policy="reschedule",
)

COUNTERS = (
    "sim.events",
    "gossip.records_merged",
    "core.view_scans",
    "core.dispatches",
    "grid.transfers_started",
    "availability.departures",
)


@pytest.fixture(scope="module")
def traced_twice():
    return [layers.traced_simulation(CONFIG, layers.Tracer()) for _ in range(2)]


def test_work_counters_repeat_exactly(traced_twice):
    (_, first), (_, second) = traced_twice
    for name in COUNTERS:
        assert first[name] == second[name], name
        assert first[name] > 0, name


def test_traced_digest_equals_untraced(traced_twice):
    untraced = P2PGridSystem(CONFIG).run()
    for result, _ in traced_twice:
        assert result_digest(result) == result_digest(untraced)


def test_wrappers_are_removed_after_a_traced_pass(traced_twice):
    from repro.net.topology import Topology

    assert "__wrapped__" not in vars(P2PGridSystem.execute_decision)
    assert not hasattr(Topology.waxman, "__wrapped__")


def test_loop_layers_partition_the_run(traced_twice):
    _, found = traced_twice[0]
    loop = sum(found[name] for name in layers.LOOP_LAYERS)
    assert found["sim.other_s"] >= 0.0
    assert loop + found["sim.other_s"] == pytest.approx(found["bench.run_s"])
    assert all(found[name] >= 0.0 for name in layers.LOOP_LAYERS + layers.SETUP_LAYERS)
    assert sum(found[name] for name in layers.SETUP_LAYERS) <= found["bench.setup_s"]


def test_chrome_trace_reads_back(tmp_path):
    tracer = layers.Tracer()
    layers.traced_simulation(CONFIG.with_(total_time=3600.0), tracer)
    path = tmp_path / "trace.json"
    layers.write_chrome_trace(path, tracer.chrome_events())
    summary = summarize_chrome_trace(json.loads(path.read_text()))
    assert {"net", "gossip", "core", "grid"} <= set(summary["categories"])
    assert summary["n_events"] == len(tracer.spans)


def test_traced_cell_does_the_default_runner_work(tmp_path):
    config = CONFIG.with_(total_time=3600.0)
    result = layers.traced_cell(str(tmp_path), config)
    assert result_digest(result) == result_digest(P2PGridSystem(config).run())
    (record_path,) = tmp_path.glob("*.json")
    record = json.loads(record_path.read_text())
    assert record["layers"]["sim.events"] == result.events_executed


def test_cpu_cell_does_the_default_runner_work(tmp_path):
    config = CONFIG.with_(total_time=3600.0)
    result = simulator.cpu_cell(str(tmp_path), config)
    assert result_digest(result) == result_digest(P2PGridSystem(config).run())
    (record_path,) = tmp_path.glob("*.json")
    record = json.loads(record_path.read_text())
    assert record["setup_s"] > 0 and record["run_s"] > 0


def test_process_cpu_s_reads_the_process_cpu_clock():
    sum(i * i for i in range(200_000))
    assert process_cpu_s(os.getpid()) == pytest.approx(time.process_time(), abs=0.01)


def test_tracer_self_times_under_thread_contention():
    tracer = layers.Tracer()
    inner = tracer.timed("inner", lambda: None)
    outer = tracer.timed("outer", lambda: inner())
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=lambda: [outer() for _ in range(500)]) for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert tracer.calls == {"outer": 4000, "inner": 4000}
    assert len(tracer.spans) == 8000
    assert tracer.self_s["outer"] >= 0.0


def test_percentile_is_nearest_rank_and_counts_failures():
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([1.0, float("inf")], 99) == float("inf")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_schedule_fixes_the_amount_of_work():
    from perfbench.service_mix import WRITE_SHARE, schedule

    for seed in (1, 2):
        plan = schedule(random.Random(seed), 40.0, 5.0, ["k1", "k2"], [("dsmf", 1)])
        assert len(plan) == 200
        assert sum(kind == "write" for _, kind, _ in plan) == round(200 * WRITE_SHARE)
        offsets = [t for t, _, _ in plan]
        assert offsets == sorted(offsets) and 0.0 <= offsets[0] and offsets[-1] < 5.0


def test_open_loop_times_requests_from_when_they_were_due():
    from perfbench.service_mix import open_loop

    class SlowClient:
        def call(self, kind, arg):
            time.sleep(0.02)
            return time.perf_counter(), kind == "read"

    # Six requests due at once on two generator threads: the last pair
    # waits for two earlier ones, and that wait is part of its latency.
    plan = [(0.0, "read", None)] * 5 + [(0.0, "write", None)]
    samples = open_loop(SlowClient(), plan)
    assert len(samples) == 6
    ok = sorted(s.latency_ms for s in samples if s.ok)
    assert ok[-1] >= 55.0 and max(s.lag_ms for s in samples) >= 35.0
    assert [s.latency_ms for s in samples if not s.ok] == [float("inf")]
