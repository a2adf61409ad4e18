"""Churn models: *who is alive, when* (substrate S13 made pluggable).

The paper's dynamic-grid evaluation (§IV.B, Figs. 10–14) uses one churn
shape — a fixed fraction ``df`` of volatile nodes swapped every scheduling
interval — which :class:`PaperIntervalChurn` reproduces (one RNG stream,
a fixed draw order, a periodic event schedule).  Real grids are messier:
availability traces show heavy-tailed, time-correlated node sessions
(Guazzone 2014's workload mining; the Failure Trace Archive), and grid
simulators such as GridSim treat resource dynamics as a first-class
pluggable model.  The other models here cover that space:

* :class:`SessionChurn` — per-node exponential/Weibull session lifetimes
  with per-node random rejoin delays (``session_shape`` < 1 gives the
  heavy-tailed sessions traces exhibit);
* :class:`TraceChurn` — replay an exact join/leave event trace
  (:mod:`repro.availability.trace`), FTA-style;
* :class:`CorrelatedFailures` — flash-crowd events: a random connected
  subtree of the Waxman topology (switch/power-domain failure) drops at
  once and rejoins together;
* :class:`GridRamp` — deterministic growth/shrink ramps (volatile nodes
  join one by one over a window, or progressively leave).

Every model is an *event-driven process*: ``start()`` is called once by
:meth:`repro.grid.system.P2PGridSystem.run` and schedules whatever
simulator events the model needs (the paper-interval model arms the same
periodic activity the legacy code did, preserving the event sequence).
Home nodes never churn — models only ever touch the volatile population.

Node ids are normalized to plain Python ``int`` the moment they come out
of a numpy sampler, so departed-pool bookkeeping, ``revive_node`` lookups
and saved traces never carry ``np.int64`` scalars.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np

from repro.sim.periodic import PeriodicActivity

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.system import P2PGridSystem

__all__ = [
    "ChurnModel",
    "CorrelatedFailures",
    "GridRamp",
    "PaperIntervalChurn",
    "SessionChurn",
    "TraceChurn",
    "churn_model_names",
    "make_churn_model",
]


class ChurnModel(Protocol):
    """Strategy deciding when volatile nodes leave and rejoin the grid."""

    name: str

    def start(self) -> None:
        """Schedule the model's simulator events (called once, at run)."""
        ...


class PaperIntervalChurn:
    """The paper's churn shape: a fixed batch swapped every interval.

    The *dynamic factor* df is the ratio of churning nodes to the total
    node count per scheduling interval: with df = 0.1 and 1000 nodes,
    every interval 100 nodes disconnect and 100 (re)join.  Each tick first
    revives the previously departed batch (joiners arrive fresh) and then
    disconnects a new batch sampled among alive volatile nodes, so a
    departed node stays away for at least one full interval.

    This model is the default.  Each tick consumes one
    ``Generator.choice`` on an ``np.int64`` array from the ``"churn"``
    stream, on a fixed periodic event schedule; the golden fingerprints
    pin that stream.
    """

    name = "paper-interval"

    def __init__(self, system: "P2PGridSystem", rng: np.random.Generator):
        self.system = system
        self.rng = rng
        cfg = system.config
        self.batch = int(round(cfg.dynamic_factor * cfg.n_nodes))
        self.volatile_ids = [n.nid for n in system.nodes if n.volatile]
        self.departed: list[int] = []
        self.total_departures = 0
        self.total_joins = 0

    def start(self) -> None:
        PeriodicActivity(
            self.system.sim,
            self.system.config.schedule_interval,
            self.tick,
            label="churn",
        )

    def tick(self, cycle: int) -> None:
        """One churn interval: revive last batch, then disconnect a new one."""
        if self.batch <= 0 or not self.volatile_ids:
            return
        # --- joins: the previously departed batch returns fresh ----------
        joiners = self.departed
        self.departed = []
        for nid in joiners:
            self.system.revive_node(nid)
        self.total_joins += len(joiners)

        # --- leaves: sample new victims among alive volatile nodes -------
        alive = [nid for nid in self.volatile_ids if self.system.nodes[nid].alive]
        k = min(self.batch, len(alive))
        if k == 0:
            return
        victims = self.rng.choice(np.asarray(alive, dtype=np.int64), size=k, replace=False)
        for nid in victims:
            # Boundary normalization: numpy scalars must not leak into the
            # departed pool, node lookups, or saved traces.
            nid = int(nid)
            self.system.kill_node(nid)
            self.departed.append(nid)
        self.total_departures += k


class SessionChurn:
    """Session-based availability: each volatile node lives through an
    alternating sequence of online sessions and offline gaps.

    Session lengths are Weibull with shape ``session_shape`` (1.0 is
    exponential/memoryless; < 1 is the heavy-tailed regime availability
    traces show) and mean ``session_mean``; offline gaps are exponential
    with mean ``rejoin_delay_mean`` (0 = instant rejoin).  All draws come
    from the dedicated ``"churn"`` stream in deterministic event order.
    """

    name = "sessions"

    def __init__(self, system: "P2PGridSystem", rng: np.random.Generator):
        self.system = system
        self.rng = rng
        cfg = system.config
        self.mean = cfg.session_mean
        self.shape = cfg.session_shape
        self.rejoin_mean = cfg.rejoin_delay_mean
        #: Weibull scale matching the requested mean: E[X] = λ Γ(1 + 1/k).
        self._scale = self.mean / math.gamma(1.0 + 1.0 / self.shape)
        self.volatile_ids = [n.nid for n in system.nodes if n.volatile]

    # ------------------------------------------------------------- sampling
    def lifetime(self) -> float:
        """Draw one online-session length (seconds)."""
        return float(self._scale * self.rng.weibull(self.shape))

    def rejoin_delay(self) -> float:
        """Draw one offline-gap length (seconds)."""
        if self.rejoin_mean <= 0:
            return 0.0
        return float(self.rng.exponential(self.rejoin_mean))

    # --------------------------------------------------------------- events
    def start(self) -> None:
        for nid in self.volatile_ids:
            self.system.sim.schedule(
                self.lifetime(), lambda n=nid: self._depart(n), label="churn"
            )

    def _depart(self, nid: int) -> None:
        if not self.system.nodes[nid].alive:
            return
        self.system.kill_node(nid)
        self.system.sim.schedule(
            self.rejoin_delay(), lambda n=nid: self._rejoin(n), label="churn"
        )

    def _rejoin(self, nid: int) -> None:
        if self.system.nodes[nid].alive:
            return
        self.system.revive_node(nid)
        self.system.sim.schedule(
            self.lifetime(), lambda n=nid: self._depart(n), label="churn"
        )


class TraceChurn:
    """Replay a recorded join/leave event trace (FTA-style).

    ``config.availability_path`` points at a JSON trace written by
    :func:`repro.availability.trace.save_availability_trace` — e.g. the
    ``availability_events`` log of a previous run under any other model.
    Draws nothing from the RNG; events beyond the horizon are dropped,
    and same-instant events keep file order.
    """

    name = "trace"

    def __init__(self, system: "P2PGridSystem", rng: np.random.Generator):
        from repro.availability.trace import load_availability_trace

        cfg = system.config
        if not cfg.availability_path:
            raise ValueError(
                "churn_model='trace' needs availability_path pointing at a "
                "join/leave trace (see repro.availability.save_availability_trace; "
                "CLI: --set availability_path=...)"
            )
        self.system = system
        self.events = load_availability_trace(cfg.availability_path)
        for ev in self.events:
            if not 0 <= ev.node < cfg.n_nodes:
                raise ValueError(
                    f"availability trace references node {ev.node}, outside "
                    f"the {cfg.n_nodes}-node grid"
                )
            if not system.nodes[ev.node].volatile:
                raise ValueError(
                    f"availability trace churns node {ev.node}, which is not "
                    "volatile (homes and permanent nodes never churn; lower "
                    "permanent_fraction or regenerate the trace)"
                )

    def start(self) -> None:
        sim = self.system.sim
        horizon = self.system.config.total_time
        for ev in self.events:
            if ev.time > horizon:
                continue
            if ev.kind == "leave":
                sim.schedule_at(
                    ev.time, lambda n=ev.node: self.system.kill_node(n), label="churn"
                )
            else:
                sim.schedule_at(
                    ev.time, lambda n=ev.node: self.system.revive_node(n), label="churn"
                )


class CorrelatedFailures:
    """Flash-crowd failures: a connected subtree drops at once.

    Failure events arrive as a Poisson process with mean inter-event time
    ``failure_interval``.  Each event picks a random alive volatile root
    and grows a breadth-first subtree over the Waxman topology (restricted
    to alive volatile nodes) up to ``round(dynamic_factor * n_nodes)``
    victims — modelling a shared switch or power-domain failure, where
    topologically close nodes die together.  The whole batch rejoins after
    one exponential ``rejoin_delay_mean`` gap.
    """

    name = "correlated"

    def __init__(self, system: "P2PGridSystem", rng: np.random.Generator):
        self.system = system
        self.rng = rng
        cfg = system.config
        self.batch = max(1, int(round(cfg.dynamic_factor * cfg.n_nodes)))
        self.interval = cfg.failure_interval
        self.rejoin_mean = cfg.rejoin_delay_mean
        self.volatile_ids = [n.nid for n in system.nodes if n.volatile]
        # Sorted adjacency lists over the Waxman graph: deterministic BFS.
        adjacency: dict[int, list[int]] = {nid: [] for nid in range(cfg.n_nodes)}
        for u, v in system.topology.graph.edges:
            adjacency[int(u)].append(int(v))
            adjacency[int(v)].append(int(u))
        self.adjacency = {nid: sorted(nbrs) for nid, nbrs in adjacency.items()}
        self.total_events = 0

    def start(self) -> None:
        if not self.volatile_ids:
            return
        self.system.sim.schedule(
            float(self.rng.exponential(self.interval)), self._fire, label="churn"
        )

    def subtree(self, root: int) -> list[int]:
        """BFS subtree of alive volatile nodes rooted at ``root``, capped at
        the batch size (the component may be smaller)."""
        nodes = self.system.nodes
        victims: list[int] = []
        seen = {root}
        queue = deque([root])
        while queue and len(victims) < self.batch:
            nid = queue.popleft()
            victims.append(nid)
            for nbr in self.adjacency[nid]:
                if nbr in seen or not nodes[nbr].volatile or not nodes[nbr].alive:
                    continue
                seen.add(nbr)
                queue.append(nbr)
        return victims

    def _fire(self) -> None:
        alive = [nid for nid in self.volatile_ids if self.system.nodes[nid].alive]
        if alive:
            root = int(self.rng.choice(np.asarray(alive, dtype=np.int64)))
            victims = self.subtree(root)
            for nid in victims:
                self.system.kill_node(nid)
            self.total_events += 1
            delay = (
                float(self.rng.exponential(self.rejoin_mean))
                if self.rejoin_mean > 0
                else 0.0
            )
            self.system.sim.schedule(
                delay, lambda group=victims: self._rejoin(group), label="churn"
            )
        self.system.sim.schedule(
            float(self.rng.exponential(self.interval)), self._fire, label="churn"
        )

    def _rejoin(self, group: list[int]) -> None:
        for nid in group:
            if not self.system.nodes[nid].alive:
                self.system.revive_node(nid)


class GridRamp:
    """Deterministic growth/shrink ramps (draws nothing from the RNG).

    ``ramp_direction="up"``: every volatile node starts offline and they
    join one by one, evenly spaced over the first ``ramp_window`` fraction
    of the horizon — a grid bootstrapping while the permanent core already
    schedules.  ``"down"``: the grid starts full and volatile nodes leave
    one by one over the window, never to return — graceful decommission.
    """

    name = "ramp"

    def __init__(self, system: "P2PGridSystem", rng: np.random.Generator):
        self.system = system
        cfg = system.config
        self.direction = cfg.ramp_direction
        self.window = cfg.ramp_window * cfg.total_time
        self.volatile_ids = [n.nid for n in system.nodes if n.volatile]

    def start(self) -> None:
        k = len(self.volatile_ids)
        if k == 0:
            return
        sim = self.system.sim
        step = self.window / k
        if self.direction == "up":
            for nid in self.volatile_ids:
                self.system.kill_node(nid)
            for i, nid in enumerate(self.volatile_ids):
                sim.schedule_at(
                    (i + 1) * step,
                    lambda n=nid: self.system.revive_node(n),
                    label="churn",
                )
        else:
            for i, nid in enumerate(self.volatile_ids):
                sim.schedule_at(
                    (i + 1) * step,
                    lambda n=nid: self.system.kill_node(n),
                    label="churn",
                )


_MODELS: dict[str, type] = {
    m.name: m
    for m in (PaperIntervalChurn, SessionChurn, TraceChurn, CorrelatedFailures, GridRamp)
}


def churn_model_names() -> list[str]:
    """Registered churn-model names (``ExperimentConfig.churn_model``)."""
    return sorted(_MODELS)


def make_churn_model(
    system: "P2PGridSystem", rng: Optional[np.random.Generator] = None
) -> ChurnModel:
    """Instantiate the churn model selected by ``system.config``."""
    name = system.config.churn_model
    try:
        cls = _MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown churn_model {name!r}; "
            f"available: {', '.join(churn_model_names())}"
        ) from None
    if rng is None:
        rng = system.rng.stream("churn")
    return cls(system, rng)
