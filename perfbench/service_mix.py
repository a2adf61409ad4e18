"""The ``service-mix`` workload: a ``repro serve --jobs 1`` child under load.

The server starts from a cache of the 16 finished ``fig4-campaign`` cells
(the results users fetch when they reproduce the paper's Fig. 4).  Three
phases follow:

1. an open loop (independent users, Poisson arrivals at a fixed rate well
   below capacity): about 90% reads, ``GET /results/{hash}`` on a new
   connection each, and about 10% writes, ``POST /campaigns`` with a
   manifest whose cell is already cached, long-polled to ``done``;
2. a closed loop of reads on one persistent HTTP/1.1 connection;
3. a stepped open-loop ramp of the same mix, to find the highest offered
   rate whose p99 stays under :data:`SLO_MS` while the generator keeps up.

Open-loop requests are timed from when they were due, so a stall also
charges the requests queued behind it.  At most two requests are in
flight at once (two generator threads on a two-core machine).  Every
response is checked: a non-2xx status, a timeout or a digest that differs
from the one the producing campaign computed counts as failed, and as a
miss of the latency limit.

Every launch first serves a fixed batch of the same mix back to back;
``cpu_s`` is the server's CPU time for that batch, the median over the
launches.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perfbench.common import (
    HERE,
    ROOT,
    Outcome,
    median,
    percentile,
    process_cpu_s,
    vm_hwm_mb,
)
from perfbench.layers import write_chrome_trace
from perfbench.simulator import FIG4_SETTING, check_campaign, fig4_specs

#: Server launches per run; ``setup_s`` and ``cpu_s`` are their medians.
LAUNCHES = 5
#: Requests of the read/write mix each launch serves back to back.
BATCH = 200
#: Open-loop offered rate (requests/s) and write share.
OPEN_RATE = 40.0
WRITE_SHARE = 0.1
#: Reads on the persistent connection.
KEEPALIVE_READS = 100
#: Ramp: offered rates (requests/s), seconds per step, the p99 limit and
#: the generator-lag bound beyond which a step does not count.
RAMP_RATES = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0)
RAMP_STEP_S = 2.0
SLO_MS = 100.0
LAG_BOUND_MS = 50.0
#: Per-request socket timeout and long-poll wait (seconds).
TIMEOUT_S = 10.0
POLL_WAIT_S = 5.0
GENERATOR_THREADS = 2


def cell_manifest(algorithm: str, seed: int) -> dict:
    """The ``POST /campaigns`` body of one ``fig4_specs`` cell."""
    return {
        "algorithms": [algorithm],
        "seeds": [seed],
        "scenario": "paper-fig4",
        "overrides": FIG4_SETTING,
    }


# --------------------------------------------------------------------------
# The server process
# --------------------------------------------------------------------------

class Server:
    """One ``repro serve`` child; ``traced_out`` selects the traced launcher."""

    def __init__(self, cache: Path, work: Path, traced_out: Path | None = None):
        state = Path(tempfile.mkdtemp(prefix="state-", dir=work))
        args = [
            "serve", "--port", "0", "--jobs", "1", "--cache-dir", str(cache),
            "--index", str(state / "experiments.jsonl"),
            "--journal", str(state / "service.jsonl"),
        ]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(traced_out), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._stderr = (state / "stderr.log").open("w")
        self.launched = perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, text=True, env=env
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}, see {state / 'stderr.log'}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.setup_s = self._wait_healthy() - self.launched
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self) -> float:
        deadline = perf_counter() + 60.0
        while perf_counter() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return perf_counter()
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        try:
            conn.request("GET", path, headers={"Accept": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def post(self, path: str, payload: dict) -> tuple[int, bytes]:
        body = json.dumps(payload).encode()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        try:
            conn.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json", "Accept": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def cpu_s(self) -> float:
        return process_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(str(self.proc.pid))

    def stop(self) -> None:
        """SIGTERM (the server drains and exits 0); kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


# --------------------------------------------------------------------------
# Requests
# --------------------------------------------------------------------------

@dataclass
class Sample:
    kind: str  # "read" | "write" | "keepalive"
    due: float
    start: float
    end: float
    ok: bool

    @property
    def latency_ms(self) -> float:
        """From due time to completion; a failed request never met a limit."""
        return (self.end - self.due) * 1e3 if self.ok else float("inf")

    @property
    def lag_ms(self) -> float:
        return (self.start - self.due) * 1e3


class Client:
    """The requests of the mix, with their correctness checks."""

    def __init__(self, server: Server, digests: dict[str, str]):
        self.server = server
        self.digests = digests
        #: Body size of every read, in bytes.
        self.served: list[int] = []

    def read(self, key: str) -> tuple[float, bool]:
        status, body = self.server.get(f"/results/{key}")
        end = perf_counter()
        self.served.append(len(body))
        return end, status == 200 and json.loads(body)["result_digest"] == self.digests[key]

    def write(self, cell: tuple[str, int]) -> tuple[float, bool]:
        status, body = self.server.post("/campaigns", cell_manifest(*cell))
        if status != 202:
            return perf_counter(), False
        record = json.loads(body)
        deadline = perf_counter() + TIMEOUT_S
        while record["status"] not in ("done", "failed") and perf_counter() < deadline:
            status, body = self.server.get(
                f"/campaigns/{record['id']}?wait={POLL_WAIT_S:g}&version={record['version']}"
            )
            if status != 200:
                return perf_counter(), False
            record = json.loads(body)
        end = perf_counter()
        ok = record["status"] == "done" and all(
            run["status"] == "done" and run["from_cache"] for run in record["runs"]
        )
        return end, ok

    def call(self, kind: str, arg) -> tuple[float, bool]:
        """One request; any error (refused, reset, timeout, bad body) fails it."""
        try:
            return self.read(arg) if kind == "read" else self.write(arg)
        except Exception:
            return perf_counter(), False


def schedule(rng: random.Random, rate: float, seconds: float, keys, cells) -> list:
    """Poisson arrivals of the read/write mix: ``(offset, kind, target)``.

    A Poisson process with a given number of arrivals in a window places
    them uniformly, so the request count (``rate * seconds``), the number
    of writes and the window are fixed for every seed; the seed draws the
    arrival times, the order and the targets.
    """
    n = round(rate * seconds)
    writes = set(rng.sample(range(n), round(n * WRITE_SHARE)))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    return [
        (t, "write", rng.choice(cells)) if i in writes else (t, "read", rng.choice(keys))
        for i, t in enumerate(times)
    ]


def open_loop(client: Client, plan: list) -> list[Sample]:
    """Issue ``plan`` on schedule from two generator threads."""
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = iter(range(len(plan)))
    origin = perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            offset, kind, arg = plan[i]
            due = origin + offset
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = perf_counter()
            end, ok = client.call(kind, arg)
            with lock:
                samples.append(Sample(kind, due, start, end, ok))

    threads = [threading.Thread(target=worker) for _ in range(GENERATOR_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


def batch(client: Client, rng: random.Random, keys, cells, samples: list) -> float:
    """Serve :data:`BATCH` requests of the mix back to back; return the
    server's CPU seconds for them and append their samples."""
    plan = schedule(rng, BATCH, 1.0, keys, cells)
    cpu0 = client.server.cpu_s()
    for _, kind, arg in plan:
        start = perf_counter()
        end, ok = client.call(kind, arg)
        samples.append(Sample(kind, start, start, end, ok))
    return client.server.cpu_s() - cpu0


def closed_loop(client: Client, keys: list[str]) -> list[Sample]:
    """Sequential reads on one persistent HTTP/1.1 connection."""
    server = client.server
    conn = http.client.HTTPConnection(server.host, server.port, timeout=TIMEOUT_S)
    samples = []
    try:
        for key in keys:
            start = perf_counter()
            try:
                conn.request("GET", f"/results/{key}", headers={"Accept": "application/json"})
                resp = conn.getresponse()
                body = resp.read()
                end = perf_counter()
                client.served.append(len(body))
                ok = resp.status == 200 and (
                    json.loads(body)["result_digest"] == client.digests[key]
                )
            except (OSError, http.client.HTTPException, ValueError, KeyError):
                end, ok = perf_counter(), False
                conn.close()
                conn = http.client.HTTPConnection(server.host, server.port, timeout=TIMEOUT_S)
            samples.append(Sample("keepalive", start, start, end, ok))
    finally:
        conn.close()
    return samples


def handler_ms(server: Server) -> dict[str, float]:
    """Mean handler time per route, scraped from the server's ``/metrics``."""
    status, body = server.get("/metrics")
    if status != 200:
        return {}
    count, total = {}, {}
    for line in body.decode().splitlines():
        m = re.match(r'repro_http_request_seconds_(count|sum)\{route="([^"]+)"\} (\S+)', line)
        if m:
            (count if m.group(1) == "count" else total)[m.group(2)] = float(m.group(3))
    return {route: 1e3 * total[route] / n for route, n in count.items() if n}


# --------------------------------------------------------------------------
# The workload
# --------------------------------------------------------------------------

def _latency_line(name: str, samples: list[Sample], out: Outcome) -> None:
    lat = [s.latency_ms for s in samples]
    for q in (50, 99) if lat else ():
        out.report.append(f"{name}_p{q}_ms = {percentile(lat, q):.3f} ms (n={len(lat)})")


def _fill_cache(seed: int, work: Path, out: Outcome) -> tuple[Path, dict, list]:
    """Run the ``fig4_specs`` cells into the server's cache; checked like
    ``fig4-campaign`` at the default seed."""
    from repro.experiments.campaign import CampaignRunner

    specs = fig4_specs(seed)
    cache = work / "cache"
    result = CampaignRunner(jobs=2, cache_dir=cache).run(specs)
    check_campaign(out, seed, result, None)
    digests = {run.cache_key: run.digest() for run in result.runs}
    cells = [(spec.config.algorithm, spec.config.seed) for spec in specs]
    return cache, digests, cells


def session(seed: int, seconds: int, work: Path, out: Outcome, traced_out: Path | None) -> dict:
    """Fill the cache, launch, drive the three phases; return measurements."""
    cache, digests, cells = _fill_cache(seed, work, out)
    keys = sorted(digests)
    rng = random.Random(seed)
    setups, cpus, batches = [], [], []
    for _ in range(LAUNCHES - 1):
        server = Server(cache, work)
        try:
            setups.append(server.setup_s)
            cpus.append(batch(Client(server, digests), rng, keys, cells, batches))
        finally:
            server.stop()
    server = Server(cache, work, traced_out)
    try:
        setups.append(server.setup_s)
        client = Client(server, digests)
        cpus.append(batch(client, rng, keys, cells, batches))
        mix = open_loop(client, schedule(rng, OPEN_RATE, seconds / 2.0, keys, cells))
        keep = closed_loop(client, [rng.choice(keys) for _ in range(KEEPALIVE_READS)])
        # What the users waited for, leaving out the fixed arrival schedule:
        # the launch, the open loop's overrun past its last due time, and
        # the closed loop.
        wall_s = (
            server.setup_s
            + max(s.end for s in mix) - max(s.due for s in mix)
            + keep[-1].end - keep[0].start
        )
        served = sorted(client.served)
        steps = []
        for rate in RAMP_RATES:
            step = open_loop(client, schedule(rng, rate, RAMP_STEP_S, keys, cells))
            p99 = percentile([s.latency_ms for s in step], 99)
            lag = percentile([s.lag_ms for s in step], 99)
            steps.append((rate, p99, lag, step))
            if not (p99 <= SLO_MS and lag <= LAG_BOUND_MS):
                break
        routes = handler_ms(server)
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "setups": setups,
        "wall_s": wall_s,
        "cpus": cpus,
        "batches": batches,
        "served": served,
        "mix": mix,
        "keep": keep,
        "steps": steps,
        "routes": routes,
        "peak_rss_mb": peak,
    }


#: Server routes whose handler time is reported, by metric suffix.
ROUTES = {
    "/results/{hash}": "results",
    "/campaigns": "campaigns",
    "/campaigns/{id}": "campaign_poll",
    "/healthz": "healthz",
}


def service_mix(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    m = session(seed, seconds, work, out, None)
    reported = _report(m, out)
    if not trace:
        out.put("cpu_s", median(m["cpus"]))
        out.put("setup_s", median(m["setups"]))
        out.put("run_s", reported["run_s"])
        out.put("events_per_s", reported["n"] / reported["run_s"])
        out.put("peak_rss_mb", m["peak_rss_mb"])
        out.report.append(f"wall_s = {m['wall_s']:.6g} s (ungated)")
        return out

    spans_path = work / "server-spans.json"
    t = session(seed, seconds, work, out, spans_path)
    checked = Outcome()
    traced = _report(t, checked)
    out.attempted += checked.attempted
    out.failed += checked.failed
    out.problems += [f"traced session: {p}" for p in checked.problems]
    record = json.loads(spans_path.read_text())
    for name in ("validate_s", "encode_s", "cache_read_s", "index_s", "journal_s", "campaign_s"):
        out.put(f"service.{name}", record["layers"].get(f"service.{name}", 0.0))
    for route, name in ROUTES.items():
        out.put(f"service.handler_ms.{name}", t["routes"].get(route, 0.0))
    kept = [s.latency_ms for s in t["keep"] if s.ok] or [0.0]
    keep_mean = sum(kept) / len(kept)
    out.put("service.transport_ms", keep_mean - t["routes"].get("/results/{hash}", 0.0))
    out.put("bench.gen_lag_p99_ms", percentile([s.lag_ms for s in t["mix"]], 99))
    out.put("bench.setup_s", t["setups"][-1])
    out.put("bench.run_s", traced["run_s"])
    out.put("bench.trace_overhead_s", traced["run_s"] - reported["run_s"])
    path = work.parent / f"trace-service-mix-seed{seed}.json"
    write_chrome_trace(path, record["events"])
    out.report.append(f"chrome trace: {path}")
    return out


def _report(m: dict, out: Outcome) -> dict:
    """Count failures, print the latency lines; return run_s and its n."""
    everything = (
        m["batches"] + m["mix"] + m["keep"] + [s for step in m["steps"] for s in step[3]]
    )
    out.attempted += len(everything)
    bad = sum(1 for s in everything if not s.ok)
    if bad:
        out.fail(f"service-mix: {bad} failed requests", bad)
    reads = [s for s in m["mix"] if s.kind == "read"]
    writes = [s for s in m["mix"] if s.kind == "write"]
    _latency_line("read", reads, out)
    _latency_line("write", writes, out)
    _latency_line("keepalive", m["keep"], out)
    served = m["served"]
    out.report.append(
        f"served result size: median {median(served) / 1024:.1f} KiB, "
        f"max {served[-1] / 1024:.1f} KiB (n={len(served)})"
    )
    lags = [s.lag_ms for s in m["mix"]]
    out.report.append(f"gen_lag_p99_ms = {percentile(lags, 99):.3f} ms (n={len(lags)})")
    passed = 0.0
    for rate, p99, lag, step in m["steps"]:
        ok = p99 <= SLO_MS and lag <= LAG_BOUND_MS
        out.report.append(
            f"ramp {rate:g} req/s: p99 {p99:.2f} ms, lag p99 {lag:.2f} ms, "
            f"n={len(step)} -> {'meets' if ok else 'misses'} the {SLO_MS:g} ms limit"
        )
        if ok:
            passed = rate
    out.report.append(f"max_rps_at_slo = {passed:g} req/s")
    # Each kind of request at its median latency: a stall of the shared
    # host moves a sum of raw latencies more than the service does.
    kinds = [reads, writes, m["keep"]]
    run_s = sum(len(k) * median([s.latency_ms for s in k]) for k in kinds if k) / 1e3
    return {"run_s": run_s, "n": sum(len(k) for k in kinds)}
