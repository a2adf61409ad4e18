"""End-to-end tests against a live ``repro serve`` stack: submit, poll,
cache replay, result fetch, index persistence across restarts."""

from __future__ import annotations

import http.client
import socket
import statistics
import time

from repro.experiments.campaign import result_digest
from repro.service.app import ServiceState, build_server
from repro.service.client import ServiceClient



def test_healthz_and_root(service):
    _, client = service
    for record in (client.health(), client._request("GET", "/")):
        assert record["status"] == "ok"
        assert record["campaigns"] == 0
        assert record["experiments"] == 0


def test_submit_poll_fetch_and_cache_replay(service, tiny_manifest):
    server, client = service
    record = client.submit(tiny_manifest)
    assert record["status"] in ("queued", "running")
    assert record["url"] == f"/campaigns/{record['id']}"
    assert record["progress"] == {"completed": 0, "total": 1}

    record = client.wait(record["id"], timeout=60)
    assert record["status"] == "done"
    assert record["error"] is None
    [run] = record["runs"]
    assert run["status"] == "done"
    assert run["from_cache"] is False
    assert run["n_done"] > 0  # 6 simulated hours finish real workflows
    assert run["wall_seconds"] > 0

    # The cached result is served by hash, digest included.
    result = client.result(run["config_hash"])
    assert result["config_hash"] == run["config_hash"]
    assert result["act"] == run["act"]
    assert result["result_digest"]

    # Resubmitting the identical manifest replays fully from cache.
    replay = client.wait(client.submit(tiny_manifest)["id"], timeout=30)
    assert replay["status"] == "done"
    assert replay["n_cached"] == 1
    assert replay["runs"][0]["from_cache"] is True
    assert replay["runs"][0]["config_hash"] == run["config_hash"]
    assert client.result(run["config_hash"])["result_digest"] == result["result_digest"]

    # Both campaigns are listed; the index has exactly one distinct hash.
    assert [c["id"] for c in client.campaigns()] == [record["id"], replay["id"]]
    [entry] = client.experiments()
    assert entry["config_hash"] == run["config_hash"]
    assert entry["source"] == "service"


def test_multi_cell_campaign_progress_shape(service, tiny_manifest):
    _, client = service
    manifest = tiny_manifest
    manifest["seeds"] = [5, 6]
    record = client.wait(client.submit(manifest)["id"], timeout=120)
    assert record["status"] == "done"
    assert record["progress"] == {"completed": 2, "total": 2}
    assert len({r["config_hash"] for r in record["runs"]}) == 2
    assert len(client.experiments()) == 2


def test_unknown_campaign_404(service):
    _, client = service
    from repro.service.client import ServiceError
    try:
        client.campaign("c999999")
    except ServiceError as exc:
        assert exc.status == 404 and exc.code == "not-found"
    else:
        raise AssertionError("expected a 404")


def test_index_survives_restart_with_and_without_journal(service, tmp_path, tiny_manifest):
    server, client = service
    record = client.wait(client.submit(tiny_manifest)["id"], timeout=60)
    run_hash = record["runs"][0]["config_hash"]
    cache_dir = server.state.cache_dir
    index_path = server.state.index.path

    # Restart: a fresh ServiceState on the same dirs lists the prior run.
    restarted = ServiceState(cache_dir=cache_dir, index_path=index_path)
    try:
        assert restarted.index_rebuilt == 0  # journal already knew it
        assert [e["config_hash"] for e in restarted.index.entries()] == [run_hash]
    finally:
        restarted.close(timeout=5)

    # Even with the journal lost, the cache rebuild recovers the entry.
    recovered = ServiceState(cache_dir=cache_dir, index_path=tmp_path / "fresh.jsonl")
    try:
        assert recovered.index_rebuilt == 1
        [entry] = recovered.index.entries()
        assert entry["config_hash"] == run_hash
        assert entry["source"] == "cache-rebuild"
    finally:
        recovered.close(timeout=5)


def test_served_result_digest_matches_local_pickle(service, tiny_manifest):
    """The JSON the service hands out fingerprints the same simulated
    outcome as the pickled cache entry."""
    server, client = service
    record = client.wait(client.submit(tiny_manifest)["id"], timeout=60)
    run_hash = record["runs"][0]["config_hash"]
    from repro.experiments.campaign import load_cached_result

    local = load_cached_result(run_hash, cache_dir=server.state.cache_dir)
    assert local is not None
    assert client.result(run_hash)["result_digest"] == result_digest(local)


def test_client_wait_times_out_cleanly(service, tiny_manifest):
    _, client = service
    record = client.submit(tiny_manifest)
    probe = ServiceClient(client.base_url, timeout=5.0)
    try:
        probe.wait(record["id"], timeout=0.0, poll=0.01)
    except TimeoutError as exc:
        assert record["id"] in str(exc)
    else:  # pragma: no cover - only on an implausibly instant run
        pass
    client.wait(record["id"], timeout=60)  # leave the queue drained


def test_listen_backlog_absorbs_a_burst_of_clients(tmp_path):
    """A burst of connections lands in the listen backlog at once.

    Nothing accepts here (no ``serve_forever``), so every connect must be
    completed by the kernel from the backlog alone.  With socketserver's
    default backlog of 5 the seventh SYN is dropped and its connect hangs
    until the client's retransmit.
    """
    server = build_server(port=0, cache_dir=tmp_path / "cache")
    clients = []
    try:
        for _ in range(64):
            sock = socket.create_connection(server.server_address[:2], timeout=1.0)
            clients.append(sock)
    finally:
        for sock in clients:
            sock.close()
        server.server_close()
        server.state.close()
    assert len(clients) == 64


def test_keep_alive_round_trips_do_not_wait_for_delayed_ack(service):
    """Sequential requests on one persistent connection answer promptly.

    A response goes out as two writes (headers, then body).  With Nagle
    on, the second write waits for the client's ACK of the first, and the
    client delays that ACK by ~40 ms, so every keep-alive round trip
    stalls for the whole delayed-ACK timer.
    """
    server, _ = service
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=5.0)
    walls = []
    try:
        for _ in range(10):
            t0 = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            walls.append(time.perf_counter() - t0)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(walls) < 0.020, walls
