"""Layer tracing from outside the program: wrap public calls, keep spans.

A :class:`Tracer` replaces a layer's public functions, methods and
constructors with timing wrappers, keeps every span in memory and writes
them at the end as a Chrome trace (the format ``repro trace summarize``
and Perfetto read).  Nothing under ``src/`` is modified on disk; the
wrappers are installed for one traced pass and removed afterwards.

Each wrapped layer reports its *self* time: the span's duration minus the
time spent in wrapped calls nested inside it.  Self times of disjoint
layers therefore add up, and ``sim.other_s`` is what the event loop spent
outside every wrapped layer (engine push/pop, exec completions, submits).
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

#: Loop layers whose self times partition the event loop (``run_s``).
LOOP_LAYERS = (
    "gossip.newscast_s",
    "gossip.epidemic_s",
    "gossip.aggregation_s",
    "core.phase1_s",
    "core.phase1_plan_s",
    "core.phase2_s",
    "core.fullahead_s",
    "grid.dispatch_s",
    "grid.transfers_s",
    "availability.churn_s",
    "metrics.sample_s",
)

#: Construction layers (``setup_s``); the rest of the constructor is
#: node creation, RNG streams and runtime-state allocation.
SETUP_LAYERS = (
    "net.topology_s",
    "net.landmarks_s",
    "workload.build_s",
    "gossip.bootstrap_s",
)

#: Layers whose call counts are reported as ``<layer>.calls``.
CALL_COUNTED = {
    "gossip.newscast_s": "gossip.newscast.calls",
    "gossip.epidemic_s": "gossip.epidemic.calls",
    "gossip.aggregation_s": "gossip.aggregation.calls",
}


class Tracer:
    """Self-time accounting plus an in-memory span list.

    Safe across threads (the service's handler threads and queue worker):
    each thread keeps its own span stack, and the shared totals are
    updated under a lock.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.origin = perf_counter()

    # ---------------------------------------------------------------- wrapping
    def timed(self, layer: str, fn):
        """``fn`` wrapped in a span named ``layer``."""
        local, lock = self._local, self._lock
        self_s, calls, spans = self.self_s, self.calls, self.spans

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with lock:
                    self_s[layer] += dur - frame[0]
                    calls[layer] += 1
                    spans.append((layer, t0, dur, len(stack), threading.get_ident()))

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped in a call counter (no span, no timing)."""
        counts, lock = self.counts, self._lock

        @wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, layer: str, count_only: bool = False) -> None:
        """Replace ``owner.attr`` (class, module or instance) with a wrapper."""
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        wrap = self.counted if count_only else self.timed
        if isinstance(raw, classmethod):
            new = classmethod(wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrap(layer, raw.__func__))
        else:
            new = wrap(layer, raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw, own))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, installer):
        """Install ``installer(self)``'s patches for the ``with`` body."""
        installer(self)
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------- reporting
    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.self_s)

    def chrome_events(self, pid: int = 1, origin: float | None = None) -> list[dict]:
        """Spans as Trace Event Format complete (``X``) events."""
        base = self.origin if origin is None else origin
        tids: dict[int, int] = {}
        with self._lock:
            spans = list(self.spans)
        events = []
        for layer, t0, dur, depth, ident in spans:
            tid = tids.setdefault(ident, len(tids))
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "name": layer,
                    "cat": layer.split(".")[0],
                    "ts": (t0 - base) * 1e6,
                    "dur": dur * 1e6,
                    "args": {"depth": depth},
                }
            )
        return events


def write_chrome_trace(path: Path, events: list[dict]) -> None:
    """Write ``events`` as a Chrome trace document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, separators=(",", ":"))


# --------------------------------------------------------------------------
# Simulator layers
# --------------------------------------------------------------------------

def install_simulator(tracer: Tracer) -> None:
    """Wrap the construction and event-loop layers of one simulated run."""
    import repro.grid.system as system_mod
    from repro.core.dual_phase import Phase1Runner
    from repro.core.estimates import ResourceView
    from repro.gossip.aggregation import AggregationGossip
    from repro.gossip.epidemic import EpidemicGossip
    from repro.gossip.newscast import NewscastOverlay
    from repro.grid.system import P2PGridSystem
    from repro.grid.transfers import TransferManager
    from repro.metrics.collectors import MetricsCollector
    from repro.net.landmarks import LandmarkEstimator
    from repro.net.topology import Topology

    tracer.patch(Topology, "waxman", "net.topology_s")
    tracer.patch(LandmarkEstimator, "__init__", "net.landmarks_s")
    tracer.patch(system_mod, "build_submissions", "workload.build_s")
    for cls, layer in (
        (NewscastOverlay, "gossip.newscast_s"),
        (EpidemicGossip, "gossip.epidemic_s"),
        (AggregationGossip, "gossip.aggregation_s"),
    ):
        tracer.patch(cls, "__init__", "gossip.bootstrap_s")
        tracer.patch(cls, "run_cycle", layer)
    tracer.patch(Phase1Runner, "run_cycle", "core.phase1_s")
    tracer.patch(ResourceView, "best", "core.view_scans", count_only=True)
    tracer.patch(ResourceView, "best_ft", "core.view_scans", count_only=True)
    tracer.patch(P2PGridSystem, "execute_decision", "grid.dispatch_s")
    tracer.patch(TransferManager, "start", "grid.transfers_s")
    tracer.patch(P2PGridSystem, "kill_node", "availability.churn_s")
    tracer.patch(P2PGridSystem, "revive_node", "availability.churn_s")
    tracer.patch(MetricsCollector, "sample", "metrics.sample_s")


def install_bundle(tracer: Tracer, system) -> None:
    """Wrap the algorithm bundle a constructed system holds (per instance)."""
    bundle = system.bundle
    if bundle.phase1 is not None:
        tracer.patch(bundle.phase1, "plan", "core.phase1_plan_s")
    if bundle.planner is not None:
        tracer.patch(bundle.planner, "plan", "core.fullahead_s")
    tracer.patch(bundle.phase2, "select", "core.phase2_s")


def traced_simulation(config, tracer: Tracer) -> tuple[object, dict]:
    """Build and run one system under ``tracer``; return (result, layers).

    ``layers`` holds the construction layers (deltas over the constructor),
    the loop layers (deltas over ``run()``), ``sim.other_s``, the
    deterministic work counters and the traced set-up and run walls.
    """
    from repro.grid.system import P2PGridSystem

    with tracer.installed(install_simulator):
        before = tracer.snapshot()
        t0 = perf_counter()
        system = P2PGridSystem(config)
        t1 = perf_counter()
        built = tracer.snapshot()
        install_bundle(tracer, system)
        calls_before = Counter(tracer.calls)
        t2 = perf_counter()
        result = system.run()
        t3 = perf_counter()
        ran = tracer.snapshot()
        calls = Counter(tracer.calls)
        calls.subtract(calls_before)
    layers: dict[str, float] = {}
    for name in SETUP_LAYERS:
        layers[name] = built.get(name, 0.0) - before.get(name, 0.0)
    for name in LOOP_LAYERS:
        layers[name] = ran.get(name, 0.0) - built.get(name, 0.0)
    for layer, name in CALL_COUNTED.items():
        layers[name] = float(calls[layer])
    layers["bench.setup_s"] = t1 - t0
    layers["bench.run_s"] = t3 - t2
    layers["sim.other_s"] = layers["bench.run_s"] - sum(layers[n] for n in LOOP_LAYERS)
    # Deterministic work counts (hardware-independent).
    layers["sim.events"] = float(result.events_executed)
    layers["gossip.records_merged"] = float(system.epidemic.records_merged)
    layers["core.view_scans"] = float(tracer.counts["core.view_scans"])
    layers["core.dispatches"] = float(system.phase1.dispatches)
    layers["grid.transfers_started"] = float(system.transfers.started)
    layers["availability.departures"] = float(result.n_departures)
    return result, layers


def traced_cell(out_dir: str, config):
    """Campaign runner that traces one cell inside its worker process.

    Does the same ``P2PGridSystem(config).run()`` work as the default
    runner; the cell's layer totals and spans go to a JSON file in
    ``out_dir`` (named by the config hash) for the parent to fold in.
    """
    from repro.experiments.campaign import config_hash

    tracer = Tracer()
    result, layers = traced_simulation(config, tracer)
    # perf_counter is the system-wide monotonic clock on Linux, so spans
    # are stamped absolutely and the parent rebases them onto its origin.
    record = {"layers": layers, "events": tracer.chrome_events(os.getpid(), origin=0.0)}
    path = Path(out_dir) / f"{config_hash(config)}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return result


# --------------------------------------------------------------------------
# Campaign (parent-side) and service layers
# --------------------------------------------------------------------------

def install_campaign(tracer: Tracer) -> None:
    """Wrap the orchestrator-side campaign calls (hashing, cache probes)."""
    import repro.experiments.campaign as campaign_mod

    tracer.patch(campaign_mod, "config_hash", "experiments.config_hash_s")
    tracer.patch(campaign_mod, "load_cached_result", "experiments.cache_probe_s")


def install_service(tracer: Tracer) -> None:
    """Wrap the server-side service calls (run inside the server process)."""
    import repro.experiments.campaign as campaign_mod
    import repro.service.app as app_mod
    import repro.service.queue as queue_mod
    from repro.experiments.campaign import CampaignRunner
    from repro.service.index import ExperimentIndex
    from repro.service.journal import ServiceJournal

    tracer.patch(queue_mod, "manifest_specs", "service.validate_s")
    tracer.patch(app_mod, "result_to_dict", "service.encode_s")
    tracer.patch(app_mod, "load_cached_result", "service.cache_read_s")
    tracer.patch(campaign_mod, "load_cached_result", "service.cache_read_s")
    tracer.patch(ExperimentIndex, "record", "service.index_s")
    tracer.patch(ServiceJournal, "submitted", "service.journal_s")
    tracer.patch(ServiceJournal, "finished", "service.journal_s")
    tracer.patch(CampaignRunner, "run", "service.campaign_s")
