"""Loopback integration test of the full HTTP service.

One real :class:`DDToolServer` (event-loop HTTP front end + process worker
pool) serves 8 concurrent clients, each of which drives a complete
session-stepping workflow, a one-shot ``/simulate`` and a one-shot
``/verify`` — including paper Ex. 12's three-qubit QFT alternating check,
which must report a peak of 9 nodes through the API.  Zero dropped
requests allowed; afterwards a repeated identical request must be served
from the result cache and the cache-hit counter must be visible at
``/metrics``.
"""

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.qc import library
from repro.service import DDToolServer, ServiceConfig

CLIENTS = 8
QFT = library.qft(3).to_qasm()
QFT_COMPILED = library.qft_compiled(3).to_qasm()


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        host="127.0.0.1", port=0, workers=2,
        max_sessions=32, cache_capacity=64,
    )
    instance = DDToolServer(config).start()
    yield instance
    instance.stop()


class _Client:
    """A tiny JSON-over-HTTP client on a persistent loopback connection."""

    def __init__(self, server):
        host, port = server.address
        self.connection = HTTPConnection(host, port, timeout=30)

    def request(self, method, path, payload=None):
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        data = json.loads(raw) if content_type.startswith("application/json") else raw
        return response.status, data

    def close(self):
        self.connection.close()


def _drive_one_client(server, index, failures):
    try:
        client = _Client(server)
        # --- session stepping -----------------------------------------
        status, created = client.request("POST", "/sessions", {
            "kind": "simulation", "qasm": QFT, "seed": index,
        })
        assert status == 201, created
        sid = created["session_id"]
        status, state = client.request(
            "POST", f"/sessions/{sid}/step", {"action": "forward"}
        )
        assert status == 200 and state["position"] == 1, state
        status, state = client.request(
            "POST", f"/sessions/{sid}/step", {"action": "to_end"}
        )
        assert status == 200 and state["at_end"], state
        assert state["node_count"] == 3, state
        status, svg = client.request("GET", f"/sessions/{sid}/svg")
        assert status == 200 and svg.startswith(b"<svg"), svg[:40]
        status, dump = client.request("GET", f"/sessions/{sid}/text")
        assert status == 200, dump
        status, counts = client.request(
            "GET", f"/sessions/{sid}/counts?shots=32&seed={index}"
        )
        assert status == 200 and sum(counts["counts"].values()) == 32, counts
        status, _ = client.request("DELETE", f"/sessions/{sid}")
        assert status == 200

        # --- one-shot batch simulation ---------------------------------
        status, result = client.request("POST", "/simulate", {
            "qasm": QFT, "shots": 16, "seed": 7,
        })
        assert status == 200, result
        assert result["nodes"] == 3 and result["peak_nodes"] == 3, result

        # --- one-shot verification (paper Ex. 12 through the API) ------
        status, verdict = client.request("POST", "/verify", {
            "left": QFT, "right": QFT_COMPILED, "strategy": "compilation-flow",
        })
        assert status == 200, verdict
        assert verdict["equivalent"] is True, verdict
        assert verdict["peak_nodes"] == 9, verdict
        client.close()
    except Exception as error:  # noqa: BLE001 - collected and re-raised
        failures.append((index, repr(error)))


def test_eight_concurrent_clients_zero_drops(server):
    failures = []
    threads = [
        threading.Thread(target=_drive_one_client, args=(server, i, failures))
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "client hung"
    assert failures == []


def test_repeat_request_hits_cache_and_metrics_show_it(server):
    client = _Client(server)
    payload = {"qasm": QFT, "shots": 16, "seed": 7}
    status, result = client.request("POST", "/simulate", payload)
    assert status == 200
    # The concurrency test already simulated this exact request, so by now
    # it must come from the cache; hit it once more to be self-contained.
    status, repeated = client.request("POST", "/simulate", payload)
    assert status == 200 and repeated["cached"] is True
    assert {k: v for k, v in repeated.items() if k != "cached"} == \
           {k: v for k, v in result.items() if k != "cached"}

    status, metrics = client.request("GET", "/metrics")
    assert status == 200
    text = metrics.decode()
    hits = [
        line for line in text.splitlines()
        if line.startswith("service_cache_hits_total")
    ]
    assert hits, text
    assert float(hits[0].split()[-1]) >= 1
    # per-endpoint request counters and latency histograms are exposed
    assert 'service_requests_total{endpoint="/simulate"' in text
    assert 'service_request_seconds_bucket{endpoint="/simulate"' in text
    assert 'service_requests_total{endpoint="/sessions/{id}/step"' in text
    client.close()


def test_verification_session_stepping_over_http(server):
    client = _Client(server)
    status, created = client.request("POST", "/sessions", {
        "kind": "verification", "left": QFT, "right": QFT_COMPILED,
    })
    assert status == 201, created
    sid = created["session_id"]
    status, state = client.request(
        "POST", f"/sessions/{sid}/step", {"action": "compilation_flow"}
    )
    assert status == 200, state
    assert state["finished"] and state["is_identity"], state
    assert state["peak_node_count"] == 9, state
    client.request("DELETE", f"/sessions/{sid}")
    client.close()


def test_healthz_under_load(server):
    client = _Client(server)
    status, body = client.request("GET", "/healthz")
    assert status == 200 and body["status"] == "ok"
    client.close()
