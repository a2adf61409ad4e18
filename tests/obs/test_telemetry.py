"""Tests for the telemetry layer: backends, snapshots, Prometheus text.

The two load-bearing guarantees (see ISSUE/ROADMAP):

* the null backend is a safe no-op, so instrumented hot paths cost one
  attribute check when telemetry is off;
* enabling telemetry never changes a run's ``result_digest`` — it draws
  no randomness and feeds nothing back into the simulation.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    make_telemetry,
    parse_prometheus,
    render_prometheus,
)


class TestBackends:
    def test_make_telemetry_dispatch(self):
        assert isinstance(make_telemetry(True), Telemetry)
        assert make_telemetry(False) is NULL_TELEMETRY

    def test_null_backend_is_inert(self):
        null = NullTelemetry()
        null.inc("a")
        null.gauge("b", 1.0)
        null.gauge_max("b", 2.0)
        null.observe("c", 3.0)
        null.point("d", 0.0, 4.0)
        assert null.enabled is False
        assert null.snapshot() is None

    def test_live_backend_collects(self):
        t = Telemetry()
        t.inc("hits")
        t.inc("hits", 2.0)
        t.gauge("depth", 5.0)
        t.gauge_max("peak", 1.0)
        t.gauge_max("peak", 3.0)
        t.gauge_max("peak", 2.0)
        for v in (1.0, 5.0, 3.0):
            t.observe("lat", v)
        t.point("series", 0.0, 1.0)
        snap = t.snapshot()
        assert snap.counters["hits"] == 3.0
        assert snap.gauges == {"depth": 5.0, "peak": 3.0}
        assert snap.histograms["lat"] == {"count": 3.0, "sum": 9.0, "min": 1.0, "max": 5.0}
        assert snap.series["series"] == [(0.0, 1.0)]

    def test_series_points_are_bounded(self):
        from repro.obs.telemetry import MAX_SERIES_POINTS

        t = Telemetry()
        for i in range(MAX_SERIES_POINTS + 100):
            t.point("s", float(i), float(i))
        pts = t.snapshot().series["s"]
        assert len(pts) == MAX_SERIES_POINTS
        assert pts[0][0] == 100.0  # oldest dropped


class TestSnapshot:
    def test_json_round_trip(self):
        t = Telemetry()
        t.inc("a", 2.0)
        t.gauge("g", 0.5)
        t.observe("h", 1.25)
        t.point("s", 1.0, 2.0)
        snap = t.snapshot()
        back = TelemetrySnapshot.from_dict(json.loads(json.dumps(snap.to_dict())))
        assert back.to_dict() == snap.to_dict()

    def test_merged_adds_counters_and_histograms(self):
        a = TelemetrySnapshot(
            counters={"n": 1.0},
            gauges={"wall": 2.0},
            histograms={"h": {"count": 2.0, "sum": 4.0, "min": 1.0, "max": 3.0}},
            series={"s": [(0.0, 1.0)]},
        )
        b = TelemetrySnapshot(
            counters={"n": 3.0, "only_b": 1.0},
            gauges={"wall": 4.0},
            histograms={"h": {"count": 1.0, "sum": 9.0, "min": 0.5, "max": 9.0}},
        )
        merged = TelemetrySnapshot.merged([a, b])
        assert merged.n_runs == 2
        assert merged.counters == {"n": 4.0, "only_b": 1.0}
        assert merged.gauges["wall"] == 6.0  # summed; mean = /n_runs
        assert merged.histograms["h"] == {
            "count": 3.0, "sum": 13.0, "min": 0.5, "max": 9.0,
        }
        assert merged.series == {}  # per-run series do not aggregate

    def test_merged_empty(self):
        merged = TelemetrySnapshot.merged([])
        assert merged.n_runs == 0
        assert merged.counters == {}

    def test_summary_lines_cover_all_kinds(self):
        t = Telemetry()
        t.inc("c")
        t.gauge("g", 1.0)
        t.observe("h", 2.0)
        text = "\n".join(t.snapshot().summary_lines())
        assert "c" in text and "(gauge)" in text and "mean=" in text


class TestPrometheus:
    def test_render_and_parse_round_trip(self):
        text = render_prometheus([
            ("requests_total", "counter", "total requests",
             [({"route": "/x", "status": "200"}, 3.0), (None, 7.0)]),
            ("depth", "gauge", "queue depth", [(None, 2.5)]),
        ])
        samples = parse_prometheus(text)
        assert samples['requests_total{route="/x",status="200"}'] == 3.0
        assert samples["requests_total"] == 7.0
        assert samples["depth"] == 2.5
        # every non-comment line parsed (nothing silently skipped)
        assert len(samples) == 3

    def test_help_and_type_lines_present(self):
        text = render_prometheus([("m_total", "counter", "help text", [(None, 1.0)])])
        assert "# HELP m_total help text" in text
        assert "# TYPE m_total counter" in text

    def test_name_sanitization(self):
        text = render_prometheus([("sched.phase1-plan", "gauge", "x", [(None, 1.0)])])
        assert parse_prometheus(text) == {"sched_phase1_plan": 1.0}

    def test_special_values(self):
        text = render_prometheus([
            ("m", "gauge", "x",
             [({"k": "inf"}, math.inf), ({"k": "ninf"}, -math.inf),
              ({"k": "nan"}, math.nan)]),
        ])
        samples = parse_prometheus(text)
        assert samples['m{k="inf"}'] == math.inf
        assert samples['m{k="ninf"}'] == -math.inf
        assert math.isnan(samples['m{k="nan"}'])

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("this is not a sample line\n")

    def test_snapshot_to_prometheus(self):
        t = Telemetry()
        t.inc("sim.events_executed", 10.0)
        t.gauge("run.wall_seconds", 1.5)
        t.observe("sched.lat", 0.25)
        samples = parse_prometheus(t.snapshot().to_prometheus())
        assert samples["repro_run_sim_events_executed_total"] == 10.0
        assert samples["repro_run_run_wall_seconds"] == 1.5
        assert samples["repro_run_sched_lat_count"] == 1.0
        assert samples["repro_run_sched_lat_sum"] == 0.25


class TestGoldenSafety:
    """Enabling telemetry must not perturb the simulation."""

    def test_digest_identical_with_and_without_telemetry(self, tiny_config):
        from repro.experiments.campaign import result_digest
        from repro.experiments.config import ExperimentConfig
        from repro.grid.system import P2PGridSystem
        from repro.workload.scenarios import apply_scenario

        # A mid-sized case next to the tiny one: the Fig. 4 preset at
        # 40 nodes, load factor 2 and an 8 h horizon.
        fig4 = apply_scenario(
            ExperimentConfig(
                algorithm="dsmf", n_nodes=40, load_factor=2,
                total_time=8 * 3600.0, seed=7, task_range=(2, 30),
            ),
            "paper-fig4",
        )
        for config in (tiny_config, fig4):
            plain = P2PGridSystem(config).run()
            instrumented = P2PGridSystem(config.with_(telemetry=True)).run()
            assert result_digest(plain) == result_digest(instrumented)
            assert plain.telemetry is None
            assert instrumented.telemetry is not None
            assert (instrumented.telemetry.counters["sim.events_executed"]
                    == instrumented.events_executed)

    def test_snapshot_is_populated(self, tiny_config):
        from repro.grid.system import P2PGridSystem

        snap = P2PGridSystem(tiny_config.with_(telemetry=True)).run().telemetry
        assert snap.counters["sim.events_executed"] > 0
        assert snap.counters["gossip.digests_sent"] > 0
        assert snap.counters["sched.phase1_dispatches"] > 0
        assert snap.counters["transfers.completed"] > 0
        assert snap.gauges["run.wall_seconds"] > 0
        assert snap.histograms["sched.phase1_plan_seconds.dsmf"]["count"] > 0
        # per-metrics-cycle series got sampled
        assert len(snap.series["sim.queue_depth"]) > 0

    def test_snapshot_survives_pickle(self, tiny_config):
        import pickle

        from repro.grid.system import P2PGridSystem

        result = P2PGridSystem(tiny_config.with_(telemetry=True)).run()
        clone = pickle.loads(pickle.dumps(result))
        assert clone.telemetry.to_dict() == result.telemetry.to_dict()

    def test_campaign_summary_merges_runs(self, tiny_config, tmp_path):
        from repro.api import run_campaign

        campaign = run_campaign(
            ["dsmf"], seeds=[5, 6], base=tiny_config.with_(telemetry=True),
            cache_dir=tmp_path / "cache",
        )
        summary = campaign.telemetry_summary()
        assert summary.n_runs == 2
        assert summary.counters["campaign.runs"] == 2.0
        assert summary.counters["campaign.cache_misses"] == 2.0
        assert summary.counters["sim.events_executed"] > 0
        assert summary.gauges["campaign.worker_utilization"] > 0

    def test_campaign_summary_without_telemetry(self, tiny_config, tmp_path):
        from repro.api import run_campaign

        campaign = run_campaign(
            ["dsmf"], seeds=[5], base=tiny_config, cache_dir=tmp_path / "cache"
        )
        summary = campaign.telemetry_summary()
        assert summary.counters["campaign.runs"] == 1.0
        assert "sim.events_executed" not in summary.counters
