"""The one crash-safe JSON-lines log behind every journal and index.

Three logs keep the stack alive through crashes — the campaign/sweep run
journal (:mod:`repro.experiments.journal`), the service submission journal
(:mod:`repro.service.journal`) and the experiment index
(:mod:`repro.service.index`).  They differ only in their record schema and
in how they fold records into state; the durability contract is this
class, once:

* one JSON object per line (``sort_keys``, compact separators), flushed
  and ``fsync``'d per record, so a ``SIGKILL`` can lose at most the record
  being written and never corrupts earlier ones;
* the append handle opens lazily, and a torn tail (a crash mid-write
  leaves no trailing newline) is terminated before the first new record;
* an append ``OSError`` (``ENOSPC``, ``EIO``, or an injected
  ``index.append`` tear, which writes half the line and then raises) is
  counted in ``append_errors``, drops the handle and never propagates —
  the next append reopens and repairs the tail;
* :meth:`records` yields every parseable dict line and counts the rest
  (torn tails, garbage, non-objects) in ``skipped_lines``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterator, Mapping

from repro.faults import NULL_FAULTS

__all__ = ["AppendLog"]


class AppendLog:
    """Thread-safe append-only JSONL file with torn-tail repair.

    The domain views subclass it and add only their record schema and
    fold.  ``faults`` may inject ``index.append`` tears; recovery is the
    same code path a real IO error takes.  ``lock`` is re-entrant so a view
    can hold it across an append and its own in-memory update.
    """

    def __init__(self, path: "str | os.PathLike", faults=NULL_FAULTS):
        self.path = Path(path)
        self.faults = faults
        self.lock = threading.RLock()
        self._fh = None
        #: Appends that failed (torn writes, IO errors).
        self.append_errors = 0
        #: Lines skipped on load: unparseable, not an object, or rejected
        #: by the domain view's schema (the view counts those itself).
        self.skipped_lines = 0

    # ------------------------------------------------------------- reading
    def records(self) -> Iterator[dict]:
        """Yield every JSON-object line in file order (nothing if absent)."""
        if not self.path.is_file():
            return
        with self.path.open("r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    rec = None
                if isinstance(rec, dict):
                    yield rec
                else:
                    self.skipped_lines += 1

    # ------------------------------------------------------------- writing
    def _handle(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            needs_newline = False
            if self.path.is_file() and self.path.stat().st_size > 0:
                with self.path.open("rb") as fh:
                    fh.seek(-1, os.SEEK_END)
                    needs_newline = fh.read(1) != b"\n"
            self._fh = self.path.open("a", encoding="utf-8")
            if needs_newline:
                self._fh.write("\n")
        return self._fh

    def append(self, record: Mapping) -> None:
        """Durably append one record; an IO error is counted, not raised."""
        line = json.dumps(dict(record), sort_keys=True, separators=(",", ":"))
        with self.lock:
            try:
                fh = self._handle()
                if self.faults.enabled and self.faults.check("index.append") is not None:
                    # A torn write: half the line lands, no newline, and the
                    # writer sees an IO error — what a crash or full disk
                    # leaves behind.
                    fh.write(line[: max(1, len(line) // 2)])
                    fh.flush()
                    raise OSError("injected torn append")
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            except OSError:
                self.append_errors += 1
                self._drop()

    def clear(self) -> None:
        """Delete the file so the next append starts an empty log."""
        with self.lock:
            self._drop()
            self.path.unlink(missing_ok=True)

    def _drop(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - double-fault close
                pass
            self._fh = None

    def close(self) -> None:
        with self.lock:
            self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
