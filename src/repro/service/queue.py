"""The submission queue: serial campaign execution over the shared cache.

One worker thread drains submitted campaigns and sweeps in FIFO order;
every one of them fans out through the queue's single
:class:`~repro.experiments.campaign.CampaignRunner` and its process pool.
Serial campaign execution is a deliberate design choice, not a
limitation: together with the content-addressed cache (and the
runner's own within-sweep dedup) it gives the service its coalescing
guarantee — when N clients concurrently submit overlapping manifests,
every distinct config hash is simulated **exactly once**; later campaigns
replay the overlap from cache.  Parallelism lives inside a campaign
(``jobs`` worker processes), where the runner already dedupes.

Campaign state transitions: ``queued -> running -> done | failed``; per
config the run states are ``pending -> running -> done`` (cache hits jump
straight to ``done``).
"""

from __future__ import annotations

import queue as _queuemod
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.experiments.campaign import (
    CampaignError,
    CampaignRunner,
    config_hash,
)
from repro.service.index import ExperimentIndex, entry_from_result
from repro.service.schemas import manifest_specs, sweep_request

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.campaign import CampaignRun, RunSpec
    from repro.service.journal import ServiceJournal

__all__ = ["CampaignQueue", "CampaignState", "QueueFullError", "RunState"]


class QueueFullError(RuntimeError):
    """The queue is at its bounded depth; try again after ``retry_after``."""

    def __init__(self, depth: int, retry_after: float):
        self.depth = depth
        self.retry_after = retry_after
        super().__init__(
            f"queue is full ({depth} campaigns queued or running); "
            f"retry after {retry_after:g}s"
        )


@dataclass
class RunState:
    """Live status of one (label, config) cell of a campaign."""

    label: str
    config_hash: str
    status: str = "pending"  # pending | running | done
    from_cache: bool = False
    wall_seconds: float = 0.0
    act: Optional[float] = None
    ae: Optional[float] = None
    n_done: Optional[int] = None
    n_workflows: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "config_hash": self.config_hash,
            "status": self.status,
            "from_cache": self.from_cache,
            "wall_seconds": self.wall_seconds,
            "act": self.act,
            "ae": self.ae,
            "n_done": self.n_done,
            "n_workflows": self.n_workflows,
        }


@dataclass
class CampaignState:
    """Live status of one submitted campaign.

    ``version`` increments on every observable mutation (status
    transitions and per-run updates) — the long-poll in
    :meth:`CampaignQueue.get` returns as soon as it changes.
    """

    id: str
    manifest: dict
    runs: list[RunState] = field(default_factory=list)
    status: str = "queued"  # queued | running | done | failed
    #: ``campaign`` (fixed grid, runs known at submit time) or ``sweep``
    #: (adaptive capacity search, runs appended as probes are chosen).
    kind: str = "campaign"
    #: The capacity-envelope report, set when a sweep finishes.
    report: Optional[dict] = None
    error: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    version: int = 0
    #: True when this campaign was recreated from the submission journal
    #: after a server restart (it keeps its original id).
    resumed: bool = False

    def to_dict(self, with_runs: bool = True) -> dict:
        completed = sum(1 for r in self.runs if r.status == "done")
        out = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "error": self.error,
            "manifest": self.manifest,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": {"completed": completed, "total": len(self.runs)},
            "n_cached": sum(1 for r in self.runs if r.from_cache),
            "version": self.version,
            "resumed": self.resumed,
        }
        if with_runs:
            out["runs"] = [r.to_dict() for r in self.runs]
        if self.report is not None:
            out["report"] = self.report
        return out


class CampaignQueue:
    """Accept manifests, execute them serially, expose poll-able status.

    Parameters
    ----------
    index:
        The persistent experiment index; every completed run (cache hits
        included) is recorded there.
    journal:
        Optional :class:`~repro.service.journal.ServiceJournal`.  When
        given, accepted submissions are journaled before the client sees
        them, and any submitted-but-unfinished campaign from a previous
        process is recreated (original id, ``resumed`` flag) and
        re-enqueued — finished cells replay from cache.
    max_pending:
        Overload bound: when this many campaigns are queued or running, a
        new submission raises :class:`QueueFullError` (the HTTP layer
        turns it into ``429`` + ``Retry-After``) instead of growing the
        backlog without limit.  ``None`` = unbounded.
    runner_options:
        Settings of the queue's one
        :class:`~repro.experiments.campaign.CampaignRunner` (``cache_dir``,
        ``jobs``, ``runner``, ``use_cache``, ``mp_context``, ``faults``,
        ...).  Every campaign and sweep runs on it, so ``runner.stats``
        counts retries, pool rebuilds and cache errors over the queue's
        lifetime (exposed on ``/metrics``).  Disable ``use_cache`` only in
        diagnostics — without the cache the coalescing guarantee degrades
        to within-campaign dedup.
    """

    def __init__(
        self,
        index: ExperimentIndex,
        journal: "Optional[ServiceJournal]" = None,
        max_pending: Optional[int] = None,
        **runner_options,
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.index = index
        self.journal = journal
        self.max_pending = max_pending
        self.runner = CampaignRunner(
            progress=self._run_done, on_start=self._run_started, **runner_options
        )
        self._queue: _queuemod.Queue = _queuemod.Queue()
        self._campaigns: dict[str, CampaignState] = {}
        self._lock = threading.RLock()
        #: Long-poll wakeups: every state mutation bumps the campaign's
        #: ``version`` and notifies all waiters (see :meth:`get`).
        self._changed = threading.Condition(self._lock)
        self._seq = 0
        #: The campaign the worker thread has in flight (the runner hooks
        #: update it); the worker runs one at a time.
        self._current: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if journal is not None:
            self._seq = journal.max_seq
            self._replay(journal.unfinished)

    def _replay(self, unfinished: "list[dict]") -> None:
        """Recreate journaled unfinished campaigns under their original ids.

        Manifests were validated at submission; one that no longer
        validates (schema drift across an upgrade) is journaled as failed
        rather than wedging the queue.
        """
        for entry in unfinished:
            cid, kind, manifest = entry["id"], entry["kind"], entry["manifest"]
            try:
                self._enqueue(kind, manifest, resumed_id=cid)
            except Exception as exc:
                if self.journal is not None:
                    self.journal.finished(cid, "failed")
                self._campaigns[cid] = CampaignState(
                    id=cid,
                    manifest=dict(manifest),
                    kind=kind,
                    status="failed",
                    error=f"resume: manifest no longer valid: {exc}",
                    submitted_at=time.time(),
                    resumed=True,
                )

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._worker, name="repro-service-worker", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Stop the worker after the campaign in flight (if any) finishes."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # ----------------------------------------------------------- submission
    def submit(self, manifest: Mapping) -> dict:
        """Validate a manifest, enqueue the campaign, return its status.

        Raises :class:`~repro.service.schemas.ManifestError` on any
        validation failure — nothing invalid ever reaches the worker —
        and :class:`QueueFullError` when the bounded queue is at depth.
        """
        return self._enqueue("campaign", manifest)

    def submit_sweep(self, manifest: Mapping) -> dict:
        """Validate a sweep manifest, enqueue the capacity sweep.

        Unlike :meth:`submit`, the run list starts empty: the adaptive
        search *chooses* its probes as earlier ones complete, so
        :class:`RunState` entries are appended live (each probe config is
        one run, exactly as cached).  The finished envelope report lands
        on the state's ``report`` field.  Raises
        :class:`~repro.service.schemas.ManifestError` on any validation
        failure — including trace-replay scenarios, whose arrival rate a
        sweep cannot scale — and :class:`QueueFullError` at depth.
        """
        return self._enqueue("sweep", manifest)

    def _enqueue(
        self, kind: str, manifest: Mapping, resumed_id: Optional[str] = None
    ) -> dict:
        """Validate, register and enqueue one submission; return its status.

        A new submission is capacity-checked, gets the next id and is
        journaled; a journal replay (``resumed_id``) keeps its original id.
        """
        if kind == "sweep":
            payload: object = sweep_request(manifest)
            runs: list[RunState] = []
        else:
            payload = specs = manifest_specs(manifest)
            runs = [RunState(s.label, config_hash(s.config)) for s in specs]
        with self._lock:
            cid = resumed_id
            if cid is None:
                self._check_capacity()
                self._seq += 1
                cid = f"c{self._seq:06d}"
            state = CampaignState(
                id=cid,
                manifest=dict(manifest),
                kind=kind,
                runs=runs,
                submitted_at=time.time(),
                resumed=resumed_id is not None,
            )
            self._campaigns[cid] = state
            snapshot = state.to_dict()
        if resumed_id is None and self.journal is not None:
            self.journal.submitted(cid, kind, manifest)
        self._queue.put((cid, payload))
        return snapshot

    def _check_capacity(self) -> None:
        """Reject a submission when the backlog is at ``max_pending``.

        Called under ``self._lock``.  ``Retry-After`` scales with the
        backlog: one serial slot frees per campaign, so a deeper queue
        advertises a longer wait (capped at 30 s).
        """
        if self.max_pending is None:
            return
        active = sum(
            1
            for s in self._campaigns.values()
            if s.status in ("queued", "running")
        )
        if active >= self.max_pending:
            raise QueueFullError(active, min(30.0, float(max(1, active))))

    def get(
        self,
        campaign_id: str,
        wait: float = 0.0,
        since: Optional[int] = None,
    ) -> Optional[dict]:
        """One campaign's status; ``None`` for an unknown id.

        ``wait > 0`` long-polls: the call blocks up to ``wait`` seconds,
        returning early as soon as the campaign's state changes (any
        ``version`` bump) or it is already terminal (``done``/``failed``)
        — a client sees progress the moment it happens instead of on its
        next poll tick.

        ``since`` is the client's last-observed ``version``.  Without it
        the poll waits for a change relative to the state *at call time*,
        which loses any bump that landed between the client's previous
        response and this request — the client then parks for the full
        ``wait`` despite a transition having already happened.  With
        ``since`` given, such a poll returns immediately.
        """
        deadline = time.monotonic() + wait
        with self._changed:
            state = self._campaigns.get(campaign_id)
            if state is None:
                return None
            seen = state.version if since is None else since
            while (
                wait > 0
                and state.version == seen
                and state.status not in ("done", "failed")
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._changed.wait(remaining):
                    break
            return state.to_dict()

    def list(self) -> list[dict]:
        """Submission-ordered campaign summaries (runs omitted)."""
        with self._lock:
            return [s.to_dict(with_runs=False) for s in self._campaigns.values()]

    def status_counts(self) -> dict[str, int]:
        """Campaign counts per lifecycle state (for ``GET /metrics``)."""
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        with self._lock:
            for state in self._campaigns.values():
                counts[state.status] = counts.get(state.status, 0) + 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._campaigns)

    # ------------------------------------------------------------- worker
    def _worker(self) -> None:
        # Graceful drain: the stop check precedes each dequeue, so a
        # SIGTERM finishes the campaign in flight but leaves the queued
        # backlog to the submission journal (replayed on next start)
        # instead of racing to drain it inside the shutdown window.
        while not self._stop.is_set():
            try:
                cid, payload = self._queue.get(timeout=0.2)
            except _queuemod.Empty:
                continue
            try:
                self._execute(cid, payload)
            finally:
                self._queue.task_done()

    def _bump(self, state: CampaignState) -> None:
        """Mark a state mutation: bump ``version``, wake long-pollers.

        Callers hold ``self._lock`` (the condition shares it).
        """
        state.version += 1
        self._changed.notify_all()

    def _upsert_run(self, label: str, config_hash: str, **updates) -> None:
        """Update a run state of the campaign in flight, appending it first
        if unknown.

        A campaign's runs are declared at submission; sweep probes are
        chosen adaptively, so their run states are appended as they start.
        """
        with self._lock:
            state = self._campaigns[self._current]
            for run in state.runs:
                if run.label == label:
                    break
            else:
                run = RunState(label, config_hash)
                state.runs.append(run)
            for key, value in updates.items():
                setattr(run, key, value)
            self._bump(state)

    def _run_started(self, spec: "RunSpec", key: str) -> None:
        self._upsert_run(spec.label, key, status="running")

    def _run_done(self, run: "CampaignRun") -> None:
        self._upsert_run(
            run.label,
            run.cache_key,
            status="done",
            from_cache=run.from_cache,
            wall_seconds=run.wall_seconds,
            act=float(run.result.act),
            ae=float(run.result.ae),
            n_done=run.result.n_done,
            n_workflows=run.result.n_workflows,
        )
        self.index.record(
            entry_from_result(
                run.cache_key,
                run.result,
                label=run.label,
                campaign_id=self._current,
                source="service",
                from_cache=run.from_cache,
            )
        )

    def _execute(self, cid: str, payload) -> None:
        """Run one campaign or sweep on the queue's runner:
        ``running -> done | failed``."""
        with self._lock:
            state = self._campaigns[cid]
            state.status = "running"
            state.started_at = time.time()
            self._current = cid
            self._bump(state)
        report = error = None
        try:
            if state.kind == "sweep":
                from repro.experiments.sweep import SweepSettings, run_sweep

                report = run_sweep(
                    payload["scenarios"],
                    payload["algorithms"],
                    settings=SweepSettings(
                        threshold=payload["threshold"],
                        resolution=payload["resolution"],
                        max_scale=payload["max_scale"],
                        seeds=tuple(payload["seeds"]),
                    ),
                    runner=self.runner,
                    **payload["overrides"],
                )
            else:
                self.runner.run(payload)
        except (CampaignError, ValueError) as exc:  # SweepError is a ValueError
            error = str(exc)
        except Exception as exc:  # pragma: no cover - defensive: never wedge
            error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            state.status = "done" if error is None else "failed"
            state.error = error
            state.report = report
            state.finished_at = time.time()
            self._current = None
            self._bump(state)
        if self.journal is not None:
            self.journal.finished(cid, state.status)
