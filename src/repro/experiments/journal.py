"""Crash-safe run journal: ``repro campaign --resume`` / ``repro sweep --resume``.

A multi-hour campaign killed at cell 37/48 should not restart from cell
one.  The cache already guarantees the *results* survive (each finished
cell is an atomically-written ``<hash>.pkl``); what a crash loses is the
*bookkeeping* — which cells of which request were done, and what their
digests were.  The journal persists exactly that, one JSON object per
line, so a ``SIGKILL`` can lose at most the record being written:

``begin``
    opens a journal: the request's *identity hash* (a content hash of the
    ordered cell labels + config hashes, so ``--resume`` refuses a
    journal from a different request) plus a human-readable request echo.
``done``
    one per finished cell: config hash, label, result digest.
``finish``
    the campaign completed; carries the final fingerprint.

Resume (:meth:`RunJournal.start` with ``resume=True``) = load the
journal, verify identity, re-run the same request against the same cache:
journaled-done cells replay as cache hits (no re-execution), and their
digests are checked against the journaled ones by
:meth:`RunJournal.record_run` — a mismatch means the cache changed
identity mid-campaign, and :meth:`RunJournal.finish` raises it as an
error, not a warning.  The file itself is an
:class:`~repro.experiments.appendlog.AppendLog`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.experiments.appendlog import AppendLog
from repro.faults import NULL_FAULTS

__all__ = ["JournalState", "ResumeError", "RunJournal", "request_identity"]

JOURNAL_SCHEMA = 1


class ResumeError(Exception):
    """A ``--resume`` the journal cannot honour (missing, foreign, diverged)."""


def request_identity(kind: str, payload) -> str:
    """Content hash identifying one campaign/sweep request.

    For a campaign, ``payload`` is the ordered ``(label, config_hash)``
    grid — covering the algorithms, seeds, scenario, overrides, code
    version, and cache schema (all folded into each config hash), plus
    the grid order.  For a sweep it is the JSON request dict.
    """
    blob = json.dumps([kind, payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class JournalState:
    """What a loaded journal says happened so far."""

    kind: str
    identity: str
    request: dict
    #: config_hash -> result digest for every journaled-done cell.
    done: dict = field(default_factory=dict)
    finished: bool = False
    fingerprint: Optional[str] = None
    #: Unparseable lines skipped on load (torn tail writes).
    skipped_lines: int = 0


class RunJournal(AppendLog):
    """Append-side journal handle for one campaign/sweep process.

    ``faults`` may inject ``index.append`` tears.  Use :meth:`start` to
    open one for a fresh or resumed run.
    """

    def __init__(self, path: "str | os.PathLike", faults=NULL_FAULTS):
        super().__init__(path, faults)
        #: The journal state a resumed run is verified against.
        self.resumed: Optional[JournalState] = None
        self._echo: Optional[Callable[[str], None]] = None
        self._diverged: list[str] = []
        self._replayed = 0

    @classmethod
    def start(
        cls,
        path: "str | os.PathLike",
        kind: str,
        identity: str,
        request: Mapping,
        resume: bool = False,
        faults=NULL_FAULTS,
        echo: Optional[Callable[[str], None]] = None,
    ) -> "RunJournal":
        """Open the journal for one run and write its ``begin`` record.

        A fresh run truncates any stale journal at ``path``; ``resume``
        instead loads it and refuses a missing one or one written by a
        different request (:class:`ResumeError`).  ``echo`` (e.g. a
        stderr printer; ``None`` = silent) reports the resume.
        """
        journal = cls(path, faults)
        journal._echo = echo
        if resume:
            state = cls.load(path)
            if state is None:
                raise ResumeError(f"--resume: no journal at {path}")
            if state.identity != identity:
                raise ResumeError(
                    f"--resume: the journal was written by a different {kind} "
                    "request — start fresh without --resume"
                )
            journal.resumed = state
            if echo is not None:
                echo(f"resuming: {len(state.done)} {kind} cells journaled done "
                     "(replayed from cache)")
        else:
            journal.clear()
        journal.begin(kind, identity, request)
        return journal

    def begin(self, kind: str, identity: str, request: Mapping) -> None:
        self.append(
            {
                "event": "begin",
                "schema": JOURNAL_SCHEMA,
                "kind": kind,
                "identity": identity,
                "request": dict(request),
            }
        )

    def record_done(self, key: str, label: str, digest: str) -> None:
        self.append({"event": "done", "key": key, "label": label, "digest": digest})

    def record_run(self, run) -> None:
        """Journal one finished :class:`~repro.experiments.campaign.CampaignRun`
        and, when resuming, check its digest against the journaled one."""
        digest = run.digest()
        self.record_done(run.cache_key, run.label, digest)
        journaled = self.resumed.done.get(run.cache_key) if self.resumed else None
        if journaled is None:
            return
        if journaled != digest:
            self._diverged.append(run.label)
        elif run.from_cache:
            self._replayed += 1

    def finish(self, fingerprint: str) -> None:
        """Write the ``finish`` record and close; on a resumed run, raise
        :class:`ResumeError` naming every cell whose digest diverged."""
        self.append({"event": "finish", "fingerprint": fingerprint})
        self.close()
        if self.resumed is None:
            return
        if self._diverged:
            raise ResumeError(
                "--resume: cached digests diverged from the journal for: "
                + ", ".join(dict.fromkeys(self._diverged))
            )
        if self._echo is not None:
            self._echo(f"resume verified: {self._replayed} journaled cells "
                       "replayed from cache, digests match")

    # ------------------------------------------------------------- loading
    @staticmethod
    def load(path: "str | os.PathLike") -> Optional[JournalState]:
        """Parse a journal; ``None`` if it doesn't exist or has no valid
        ``begin`` record.  Corrupt lines (torn tails) are skipped, and a
        later ``begin`` resets the state (a resumed run re-begins)."""
        log = AppendLog(path)
        state: Optional[JournalState] = None
        for rec in log.records():
            event = rec.get("event")
            if event == "begin":
                if (
                    rec.get("schema") == JOURNAL_SCHEMA
                    and isinstance(rec.get("kind"), str)
                    and isinstance(rec.get("identity"), str)
                ):
                    # Done cells carry across a re-begin only when it is
                    # the *same* request resuming.
                    done = (
                        state.done
                        if state is not None and state.identity == rec["identity"]
                        else {}
                    )
                    state = JournalState(
                        kind=rec["kind"],
                        identity=rec["identity"],
                        request=dict(rec.get("request") or {}),
                        done=done,
                    )
                else:
                    log.skipped_lines += 1
            elif state is None:
                log.skipped_lines += 1
            elif event == "done":
                key, digest = rec.get("key"), rec.get("digest")
                if isinstance(key, str) and isinstance(digest, str):
                    state.done[key] = digest
                else:
                    log.skipped_lines += 1
            elif event == "finish":
                state.finished = True
                fp = rec.get("fingerprint")
                state.fingerprint = fp if isinstance(fp, str) else None
            else:
                log.skipped_lines += 1
        if state is not None:
            state.skipped_lines = log.skipped_lines
        return state
