"""Kill-and-resume: a real ``repro campaign`` process is SIGKILLed
mid-campaign and resumed with ``--resume`` — the journal plus the
content-addressed cache must hand back an identical campaign."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

ARGS = [
    "--algorithms", "dsmf", "dheft",
    "--seeds", "1", "2", "3",
    "--profile", "small",
    "--set", "n_nodes=24",
    "--set", "load_factor=1",
    "--set", "total_time=14400",
]


def _campaign(journal, cache, *extra, **popen_kwargs):
    cmd = [
        sys.executable, "-m", "repro.experiments.cli", "campaign", *ARGS,
        "--cache-dir", str(cache), "--journal", str(journal), *extra,
    ]
    env = dict(os.environ)
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, **popen_kwargs,
    )


def _journal_events(path) -> list[dict]:
    if not path.is_file():
        return []
    events = []
    for line in path.read_text().splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    return events


def _fingerprint(stdout: str) -> str:
    for line in stdout.splitlines():
        if "fingerprint" in line:
            return line.rsplit(" ", 1)[-1]
    raise AssertionError(f"no fingerprint line in output:\n{stdout}")


def test_sigkill_then_resume_completes_identically(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    cache = tmp_path / "cache"

    # Phase 1: start the campaign, kill it after at least one cell lands.
    proc = _campaign(journal, cache)
    deadline = time.monotonic() + 90.0
    try:
        while True:
            done = [e for e in _journal_events(journal) if e.get("event") == "done"]
            if done:
                break
            if proc.poll() is not None:
                out, err = proc.communicate()
                pytest.fail(f"campaign finished before it could be killed:\n{err}")
            if time.monotonic() > deadline:
                pytest.fail("no journaled cell within 90s")
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(30)
    events = _journal_events(journal)
    assert events[0]["event"] == "begin"
    journaled_done = [e for e in events if e.get("event") == "done"]
    assert journaled_done and not any(e.get("event") == "finish" for e in events)

    # Phase 2: --resume completes the campaign on the same dirs.
    resumed = _campaign(journal, cache, "--resume")
    out, err = resumed.communicate(timeout=120)
    assert resumed.returncode == 0, err
    assert "resuming:" in err
    assert "resume verified" in err
    events = _journal_events(journal)
    assert any(e.get("event") == "finish" for e in events)
    # Every cell journaled before the kill replayed from cache.
    cached = int(out.split(" runs (")[1].split(" from cache")[0])
    assert cached >= len(journaled_done)

    # Phase 3: the resumed fingerprint matches a from-scratch run.
    fresh = _campaign(tmp_path / "fresh.jsonl", tmp_path / "fresh-cache")
    fresh_out, fresh_err = fresh.communicate(timeout=120)
    assert fresh.returncode == 0, fresh_err
    assert _fingerprint(out) == _fingerprint(fresh_out)


def test_resume_without_journal_is_an_error(tmp_path):
    proc = _campaign(tmp_path / "missing.jsonl", tmp_path / "cache", "--resume")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert "no journal at" in err


# --------------------------------------------------------------------------
# Digest divergence: a journaled digest the cache no longer reproduces
# --------------------------------------------------------------------------

TINY_CLI = [
    "--algorithms", "dsmf", "--seeds", "1", "2", "--profile", "small",
    "--set", "n_nodes=24", "--set", "load_factor=1", "--set", "total_time=14400",
]


def _tamper_digest(path) -> str:
    """Rewrite the last journaled ``done`` digest; returns its cell label."""
    lines = path.read_text().splitlines()
    done = [i for i, line in enumerate(lines) if json.loads(line)["event"] == "done"]
    rec = json.loads(lines[done[-1]])
    rec["digest"] = "0" * 64
    lines[done[-1]] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    return rec["label"]


def test_diverged_digest_fails_the_resume(tmp_path):
    from chaos_helpers import tiny_specs
    from repro.experiments.campaign import CampaignRunner, config_hash
    from repro.experiments.journal import ResumeError, RunJournal, request_identity

    specs = tiny_specs(algorithms=("dsmf",), seeds=(1, 2))
    identity = request_identity(
        "campaign", [(s.label, config_hash(s.config)) for s in specs]
    )
    path, cache = tmp_path / "run.jsonl", tmp_path / "cache"

    def journaled_run(resume: bool, echo=None) -> None:
        journal = RunJournal.start(path, "campaign", identity, {}, resume=resume, echo=echo)
        with journal:
            runner = CampaignRunner(jobs=1, cache_dir=cache, progress=journal.record_run)
            journal.finish(runner.run(specs).fingerprint())

    journaled_run(resume=False)
    said: list[str] = []
    journaled_run(resume=True, echo=said.append)
    assert said[-1].startswith("resume verified: 2 journaled cells replayed")

    label = _tamper_digest(path)
    with pytest.raises(ResumeError, match="diverged") as exc:
        journaled_run(resume=True)
    assert str(exc.value).endswith(label)
    assert specs[0].label not in str(exc.value)


def test_diverged_digest_fails_campaign_resume_cli(tmp_path):
    from repro.experiments.cli import main

    journal, cache = tmp_path / "run.jsonl", tmp_path / "cache"
    argv = ["campaign", *TINY_CLI, "--journal", str(journal),
            "--cache-dir", str(cache), "--quiet"]
    assert main(argv) == 0
    label = _tamper_digest(journal)
    with pytest.raises(SystemExit, match="diverged") as exc:
        main([*argv, "--resume"])
    assert label in str(exc.value)


# --------------------------------------------------------------------------
# repro sweep --journal/--resume
# --------------------------------------------------------------------------

SWEEP = ["sweep", "--quick", "--scenarios", "paper-fig4", "--algorithms", "dsmf"]


def test_sweep_resume_replays_journaled_probes(tmp_path, capsys):
    from repro.experiments.cli import main

    journal, cache = tmp_path / "sweep.jsonl", tmp_path / "cache"
    dirs = ["--journal", str(journal), "--cache-dir", str(cache)]
    assert main([*SWEEP, *dirs]) == 0
    n_done = sum(1 for e in _journal_events(journal) if e["event"] == "done")
    assert n_done > 0
    capsys.readouterr()

    assert main([*SWEEP, *dirs, "--resume"]) == 0
    out, err = capsys.readouterr()
    assert f"resuming: {n_done} sweep cells journaled done" in err
    assert f"resume verified: {n_done} journaled cells replayed from cache" in err
    assert f"{n_done} probes ({n_done} from cache)" in out

    # --quiet silences the resume report, exactly as for `repro campaign`.
    assert main([*SWEEP, *dirs, "--resume", "--quiet"]) == 0
    assert "resum" not in capsys.readouterr().err

    with pytest.raises(SystemExit, match="different sweep request"):
        main([*SWEEP, "--seeds", "2", *dirs, "--resume"])
