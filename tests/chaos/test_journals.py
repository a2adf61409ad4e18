"""Crash-safety tests for the three JSONL logs — the campaign/sweep run
journal (``--resume``), the service submission journal and the experiment
index.  The shared :class:`~repro.experiments.appendlog.AppendLog`
contract (byte format, torn-tail repair, skip-on-load, injected tears, IO
errors) is one test class parametrized over all three; the domain folds
each keep their own tests below it and in ``tests/service/test_index.py``."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.experiments.journal import RunJournal, request_identity
from repro.faults import NULL_FAULTS, FaultPlan, FaultSpec
from repro.service.index import ExperimentIndex
from repro.service.journal import ServiceJournal


@dataclass(frozen=True)
class LogView:
    """How the contract drives one domain view of an AppendLog."""

    #: (path, faults) -> writer with ``append_errors`` and ``close()``.
    open: Callable
    #: (writer, i) -> append the view's i-th record.
    write: Callable
    #: path -> (record keys in load order, skipped_lines).
    load: Callable


def _open_run(path, faults=NULL_FAULTS):
    # Done records only count under a begin; write it fault-free so record
    # i is the i-th fault check for every view.
    if not path.exists():
        with RunJournal(path) as header:
            header.begin("campaign", "id", {})
    return RunJournal(path, faults=faults)


def _load_run(path):
    state = RunJournal.load(path)
    return list(state.done), state.skipped_lines


def _load_service(path):
    journal = ServiceJournal(path)
    journal.close()
    return [rec["id"] for rec in journal.unfinished], journal.skipped_lines


def _load_index(path):
    index = ExperimentIndex(path)
    index.close()
    return [e["config_hash"] for e in index.entries()], index.skipped_lines


LOGS = {
    "run": LogView(
        open=_open_run,
        write=lambda j, i: j.record_done(f"k{i}", f"cell{i}", f"d{i}"),
        load=_load_run,
    ),
    "service": LogView(
        # The submission journal stays on the null fault plan.
        open=lambda path, faults=NULL_FAULTS: ServiceJournal(path),
        write=lambda j, i: j.submitted(f"c{i:06d}", "campaign", {"i": i}),
        load=_load_service,
    ),
    "index": LogView(
        open=lambda path, faults=NULL_FAULTS: ExperimentIndex(path, faults=faults),
        write=lambda j, i: j.record({"config_hash": f"k{i}", "i": i}),
        load=_load_index,
    ),
}
KEYS = {"run": "k{}", "service": "c{:06d}", "index": "k{}"}
#: The logs that take the ``index.append`` fault hook.
FAULTED = ["run", "index"]


class TestAppendLogContract:
    @pytest.mark.parametrize("name", list(LOGS))
    def test_records_are_compact_sorted_lines(self, tmp_path, name):
        view, path = LOGS[name], tmp_path / "log.jsonl"
        writer = view.open(path)
        view.write(writer, 1)
        writer.close()
        last = path.read_bytes().splitlines(keepends=True)[-1]
        rec = json.loads(last)
        assert last == (
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode()
        assert view.load(path) == ([KEYS[name].format(1)], 0)

    @pytest.mark.parametrize("name", list(LOGS))
    def test_torn_tail_skipped_and_repaired(self, tmp_path, name):
        view, path = LOGS[name], tmp_path / "log.jsonl"
        key = KEYS[name].format
        writer = view.open(path)
        view.write(writer, 1)
        writer.close()
        # A writer killed mid-append: half a record, no newline.
        with path.open("a") as fh:
            fh.write('{"event":"done","id":"c0000')
        assert view.load(path) == ([key(1)], 1)
        # A reopened writer terminates the torn tail before appending, so
        # the new record lands on its own parseable line.
        writer = view.open(path)
        view.write(writer, 2)
        writer.close()
        assert json.loads(path.read_text().splitlines()[-1])
        assert view.load(path) == ([key(1), key(2)], 1)

    @pytest.mark.parametrize("name", list(LOGS))
    def test_corrupt_lines_skipped(self, tmp_path, name):
        view, path = LOGS[name], tmp_path / "log.jsonl"
        writer = view.open(path)
        view.write(writer, 1)
        writer.close()
        with path.open("a") as fh:
            fh.write('{torn garbage\n["not", "a", "dict"]\n\n')
        writer = view.open(path)
        view.write(writer, 2)
        writer.close()
        # Blank lines are not counted; garbage and non-objects are.
        assert view.load(path) == ([KEYS[name].format(1), KEYS[name].format(2)], 2)

    @pytest.mark.parametrize("name", FAULTED)
    def test_injected_tear_recovers(self, tmp_path, name):
        view, path = LOGS[name], tmp_path / "log.jsonl"
        plan = FaultPlan([FaultSpec("index.append", at=1)])
        writer = view.open(path, plan)
        view.write(writer, 1)  # torn: half the line, then an IO error
        view.write(writer, 2)  # reopens, repairs the tail, lands
        writer.close()
        assert writer.append_errors == 1
        assert plan.fired_count("index.append") == 1
        assert view.load(path) == ([KEYS[name].format(2)], 1)

    def test_service_journal_ignores_the_fault_plan(self, tmp_path):
        assert ServiceJournal(tmp_path / "s.jsonl").faults is NULL_FAULTS

    @pytest.mark.parametrize("name", list(LOGS))
    def test_append_io_error_is_counted_not_raised(self, tmp_path, name):
        view, path = LOGS[name], tmp_path / "log.jsonl"
        path.mkdir()  # opening a directory for append raises IsADirectoryError
        writer = view.open(path)
        view.write(writer, 1)
        view.write(writer, 2)
        writer.close()
        assert writer.append_errors == 2


class TestRequestIdentity:
    def test_deterministic_and_sensitive(self):
        cells = [("dsmf#s1", "abc"), ("dsmf#s2", "def")]
        assert request_identity("campaign", cells) == request_identity("campaign", cells)
        assert request_identity("campaign", cells) != request_identity("sweep", cells)
        assert request_identity("campaign", cells) != request_identity(
            "campaign", list(reversed(cells))
        )


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        identity = request_identity("campaign", [("a", "h1")])
        with RunJournal(path) as journal:
            journal.begin("campaign", identity, {"algorithms": ["dsmf"]})
            journal.record_done("h1", "a", "digest-1")
            journal.finish("fp")
        state = RunJournal.load(path)
        assert state.kind == "campaign"
        assert state.identity == identity
        assert state.done == {"h1": "digest-1"}
        assert state.finished and state.fingerprint == "fp"
        assert state.skipped_lines == 0

    def test_load_missing_or_headerless(self, tmp_path):
        assert RunJournal.load(tmp_path / "nope.jsonl") is None
        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text('{"event":"done","key":"h","digest":"d"}\n')
        assert RunJournal.load(orphan) is None

    def test_rebegin_same_identity_keeps_done(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.begin("campaign", "same", {})
            journal.record_done("h1", "a", "d1")
            journal.begin("campaign", "same", {})  # a --resume re-begins
            journal.record_done("h2", "b", "d2")
        assert RunJournal.load(path).done == {"h1": "d1", "h2": "d2"}

    def test_rebegin_different_identity_resets_done(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.begin("campaign", "one", {})
            journal.record_done("h1", "a", "d1")
            journal.begin("campaign", "two", {})
        assert RunJournal.load(path).done == {}


class TestServiceJournal:
    def test_unfinished_survive_and_seq_advances(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal(path)
        journal.submitted("c000001", "campaign", {"algorithms": ["dsmf"]})
        journal.submitted("c000002", "sweep", {"scenarios": ["poisson-steady"]})
        journal.finished("c000001", "done")
        journal.close()

        reloaded = ServiceJournal(path)
        assert reloaded.max_seq == 2
        assert [rec["id"] for rec in reloaded.unfinished] == ["c000002"]
        assert reloaded.unfinished[0]["kind"] == "sweep"
        reloaded.close()
