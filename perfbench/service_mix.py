"""The service-mix workload: ``qdd-tool serve`` under an open-loop client.

The server (default config, port 0) runs in its own process; its worker
shards are its children.  This process is the only client: at most
``nproc`` keep-alive connections on one ``selectors`` loop, so the client
never shares a GIL with the front end.  It imports nothing from the
program while load runs.

Phases, after set-up: open-loop steps at fixed rates (latency timed from
each request's due time, so a stall also charges the requests queued
behind it), then closed-loop bursts of a fixed request list over the same
connections.  Reads are ~80% repeats of a 16-request hot set that
set-up put in the ``ResultCache``; writes are fresh random circuits that
cross the shard ring into a worker.

Every process of the run shares one CPU (``common.pin_to_one_cpu``).
"""

import bisect
import http.client
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from time import perf_counter

import calibrate
import circuits
import common
import tracing

RATES = (20, 40, 60)            # requests per second; the middle one is reported
STEP_SHARES = (0.1, 0.5, 0.1)    # of --seconds; the rest goes to bursts
HOT_SET = 16
WRITE_EVERY = 5                 # one write per four hot-set reads
SHOTS = 64
BURST_SIZE = 40
LATENCY_LIMIT_MS = 250.0
SETUPS = 3
STEP_GRACE_S = 30.0


# ---------------------------------------------------------------------------
# server process
# ---------------------------------------------------------------------------
class Server:
    def __init__(self, index):
        os.makedirs(common.OUT_DIR, exist_ok=True)
        self.log_path = os.path.join(common.OUT_DIR, f"server-{index}.log")
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=common.ROOT, env=common.program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.log,
        )
        self.address = None

    def wait_listening(self, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                match = re.search(r"listening on http://([\d.]+):(\d+)", handle.read())
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def get(self, path):
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def peak_rss_mb(self):
        """Peak RSS of the server and its worker shards, read while alive."""
        pid = self.process.pid
        return common.peak_rss_mb(pid) + sum(common.peak_rss_mb(c) for c in common.child_pids(pid))

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def scrape(server):
    """``/metrics`` as ``{series: value}`` plus the ``/healthz`` body."""
    _, text = server.get("/metrics")
    series = {}
    for line in text.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    _, health = server.get("/healthz")
    return series, json.loads(health)


# ---------------------------------------------------------------------------
# HTTP/1.1 keep-alive client on raw sockets
# ---------------------------------------------------------------------------
def encode_request(address, payload):
    body = json.dumps(payload).encode()
    head = (
        f"POST /simulate HTTP/1.1\r\nHost: {address[0]}:{address[1]}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


class Connection:
    def __init__(self, address):
        self.address = address
        self.connect()

    def connect(self):
        self.sock = socket.create_connection(self.address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.request = None

    def reconnect(self):
        self.sock.close()
        self.connect()

    def read_response(self):
        """Consume readable bytes; ``(status, body)`` once a response is whole."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buffer += data
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body, self.buffer = self.buffer[head_end + 4:end], self.buffer[end:]
        return int(head[0].split()[1]), body


class Record:
    __slots__ = ("key", "due", "seen", "sent", "done", "status", "body")

    def __init__(self, key, due):
        self.key, self.due = key, due
        self.seen = self.sent = self.done = None
        self.status, self.body = 0, b""


def drive(connections, payloads, keys, schedule, tracer, span_name, loops=None):
    """Send ``payloads[i]`` once ``schedule[i]`` seconds have passed and a
    connection is free; return one :class:`Record` per request.  An
    all-zero schedule is a closed loop.

    With a ``loops`` list, the client spends each idle gap (no request in
    flight or waiting) timing the reference loop, appending ``(start,
    seconds)`` to ``loops`` each time, and then polls the clock until the
    next request is due.  The
    server has nothing to do meanwhile, and the CPU does not go idle, so a
    request is not charged the host's time to wake it up.
    """
    selector = selectors.DefaultSelector()
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    start = perf_counter()
    records = [Record(key, start + offset) for key, offset in zip(keys, schedule)]
    free = list(connections)
    pending = deque()
    next_index, remaining = 0, len(records)
    give_up = start + max(schedule) + STEP_GRACE_S
    try:
        while remaining:
            now = perf_counter()
            if now > give_up:
                break
            while next_index < len(records) and records[next_index].due <= now:
                records[next_index].seen = now
                pending.append(next_index)
                next_index += 1
            while pending and free:
                index = pending.popleft()
                connection = free.pop()
                connection.request = index
                records[index].sent = perf_counter()
                try:
                    connection.sock.sendall(payloads[index])
                except OSError:
                    records[index].done = perf_counter()
                    remaining -= 1
                    selector.unregister(connection.sock)
                    connection.reconnect()
                    selector.register(connection.sock, selectors.EVENT_READ, connection)
                    free.append(connection)
            if (
                loops is not None and not pending
                and len(free) == len(connections) and next_index < len(records)
            ):
                due = records[next_index].due
                while due - perf_counter() > 1.5 * loops[-1][1]:
                    loops.append((perf_counter(), calibrate.loop_seconds()))
                while perf_counter() < due:
                    pass
                continue
            timeout = 0.05
            if next_index < len(records):
                timeout = min(max(records[next_index].due - perf_counter(), 0.0), timeout)
            for key, _ in selector.select(timeout):
                connection = key.data
                try:
                    response = connection.read_response()
                except (OSError, ValueError, IndexError):
                    response = (0, b"")
                    selector.unregister(connection.sock)
                    connection.reconnect()
                    selector.register(connection.sock, selectors.EVENT_READ, connection)
                if response is None:
                    continue
                record = records[connection.request]
                record.done = perf_counter()
                record.status, record.body = response
                tracer.add(span_name, record.sent, record.done)
                connection.request = None
                free.append(connection)
                remaining -= 1
    finally:
        selector.close()
    return records


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------
def hot_set(seed):
    texts = [circuits.to_qasm(6, circuits.qft(6))]
    for slot in range(HOT_SET - 1):
        rng = circuits.rng_for("service-mix", seed, "hot", slot)
        texts.append(circuits.to_qasm(8, circuits.random_gates(8, 40, rng)))
    return [{"qasm": text, "shots": SHOTS, "seed": slot} for slot, text in enumerate(texts)]


def fresh_request(seed, number):
    rng = circuits.rng_for("service-mix", seed, "fresh", number)
    return {"qasm": circuits.to_qasm(6, circuits.random_gates(6, 30, rng)), "shots": SHOTS, "seed": 0}


def start_server(index, hot):
    """Set-up: spawn, wait for ``/healthz``, then warm the hot set.

    Returns the server and the first response body for each hot request.
    """
    server = Server(index)
    try:
        server.wait_listening()
        status, _ = server.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        connection = Connection(server.address)
        first = []
        try:
            for payload in hot:
                records = drive([connection], [encode_request(server.address, payload)],
                                ["warm"], [0.0], tracing.Tracer(False), "")
                if records[0].status != 200:
                    raise RuntimeError(f"warm-up request answered {records[0].status}")
                first.append(json.loads(records[0].body))
        finally:
            connection.sock.close()
    except BaseException:
        server.stop()
        raise
    return server, first


class Mix:
    """Seeded request stream: every fifth request is a fresh write, the
    others are reads of a hot request picked at random.

    A fixed interleave keeps the queueing pattern the same for every seed;
    the seed picks which hot request is read and what each write holds.
    """

    def __init__(self, seed, address, hot):
        self.seed, self.address = seed, address
        self.hot = [encode_request(address, payload) for payload in hot]
        self.rng = circuits.rng_for("service-mix", seed, "mix")
        self.position = 0
        self.fresh = 0

    def take(self, count):
        payloads, keys = [], []
        for _ in range(count):
            self.position += 1
            if self.position % WRITE_EVERY:
                slot = self.rng.randrange(len(self.hot))
                payloads.append(self.hot[slot])
                keys.append(("hot", slot))
            else:
                payloads.append(encode_request(self.address, fresh_request(self.seed, self.fresh)))
                keys.append(("fresh", self.fresh))
                self.fresh += 1
        return payloads, keys


def check(records, first):
    """Failures among ``records``: non-200, bad counts, or a hot response
    that differs from the first response for its key."""
    failed = []
    for record in records:
        problem = None
        if record.status != 200:
            problem = f"status {record.status}"
        else:
            body = json.loads(record.body)
            if sum(body.get("counts", {}).values()) != SHOTS:
                problem = "counts do not sum to shots"
            elif record.key[0] == "hot":
                reference = dict(first[record.key[1]], cached=None)
                if dict(body, cached=None) != reference:
                    problem = f"hot response {record.key[1]} differs from its first response"
        if problem:
            failed.append(problem)
    return failed


def latency_ms(record, since="due"):
    return ((record.done or record.due) - getattr(record, since)) * 1000.0


def calibrated_ms(records, loops):
    """Due-time latency of each answered request, calibrated by the
    reference loops timed last before it was due and first after it was
    answered (``loops`` as :func:`drive` fills it)."""
    starts = [start for start, _ in loops]
    latencies = []
    for record in records:
        if record.status == 200:
            before = max(bisect.bisect_right(starts, record.due) - 1, 0)
            after = min(bisect.bisect_left(starts, record.done), len(loops) - 1)
            latencies.append(
                latency_ms(record) * calibrate.factor([loops[before][1], loops[after][1]])
            )
    return latencies


def run(seed, seconds, trace):
    tracer = tracing.Tracer(bool(trace))
    hot = hot_set(seed)
    setups, servers, connections = [], [], []
    try:
        for index in range(SETUPS):
            with calibrate.Interval() as interval:
                server, first = start_server(index, hot)
            setups.append((interval.seconds, interval.raw))
            servers.append(server)
            if index < SETUPS - 1:
                servers.pop().stop()
        connections = [Connection(server.address) for _ in range(os.cpu_count() or 1)]
        result = measure(server, connections, hot, first, seed, seconds, tracer, setups, trace)
    finally:
        for connection in connections:
            connection.sock.close()
        for server in servers:
            server.stop()
    if trace:
        tracer.write(os.path.join(common.OUT_DIR, f"trace-service-mix-s{seed}.json"))
    return result


def measure(server, connections, hot, first, seed, seconds, tracer, setups, trace):
    mix = Mix(seed, server.address, hot)
    errors, attempted = [], 0
    steps = []
    before, _ = scrape(server)
    start_series = before
    for rate, share in zip(RATES, STEP_SHARES):
        count = max(1, int(rate * seconds * share))
        payloads, keys = mix.take(count)
        schedule = [i / rate for i in range(count)]
        loops = [(perf_counter(), calibrate.loop_seconds())]
        records = drive(connections, payloads, keys, schedule, tracer, "http.simulate", loops)
        loops.append((perf_counter(), calibrate.loop_seconds()))
        after, health = scrape(server)
        problems = check(records, first)
        errors += problems
        attempted += len(records)
        steps.append((rate, records, problems, before, after, loops))
        before = after

    # Closed-loop bursts: a fixed-size request list, untraced and (with
    # --trace 1) traced alternately, until the run's time is used.
    burst_plain, burst_traced, burst_raw = [], [], []
    budget_end = perf_counter() + seconds * (1.0 - sum(STEP_SHARES))
    while True:
        order = (False, True) if len(burst_plain) % 2 == 0 else (True, False)
        for traced in order if trace else (False,):
            payloads, keys = mix.take(BURST_SIZE)
            with calibrate.Interval() as interval:
                records = drive(connections, payloads, keys, [0.0] * len(payloads),
                                tracer if traced else tracing.Tracer(False), "http.simulate")
            if traced:
                burst_traced.append(interval.seconds)
            else:
                burst_plain.append(interval.seconds)
                burst_raw.append(interval.raw)
            problems = check(records, first)
            errors += problems
            attempted += len(records)
        if perf_counter() + common.median(burst_plain) * (2 if trace else 1) > budget_end:
            break
    final_series, health = scrape(server)
    rss = server.peak_rss_mb() + common.peak_rss_mb()

    _, records, _, _, _, loops = steps[1]
    raw_ms = [latency_ms(r) for r in records if r.status == 200]
    due_ms = calibrated_ms(records, loops)
    result = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:10],
        "end_to_end": {
            "setup_s": (common.median([s for s, _ in setups]), len(setups)),
            "wall_s": (common.median(burst_plain), len(burst_plain)),
            "p50_ms": (common.median(due_ms), len(due_ms)),
            "p95_ms": (common.percentile(due_ms, 95), len(due_ms)),
            "peak_rss_mb": (rss, 1),
            "raw.setup_s": (common.median([r for _, r in setups]), len(setups)),
            "raw.wall_s": (common.median(burst_raw), len(burst_raw)),
            "raw.p50_ms": (common.median(raw_ms), len(raw_ms)),
            "raw.p95_ms": (common.percentile(raw_ms, 95), len(raw_ms)),
        },
    }
    if trace:
        result["per_layer"] = layer_metrics(
            steps, start_series, final_series, health, burst_plain, burst_traced, tracer, hot,
        )
    return result


def delta(after, before, series):
    return after.get(series, 0.0) - before.get(series, 0.0)


def layer_metrics(steps, start_series, final_series, health, plain, traced, tracer, hot):
    _, records, _, before, after, _ = steps[1]
    ok = [r for r in records if r.status == 200]
    cached = [latency_ms(r, "sent") for r in ok if json.loads(r.body).get("cached")]
    fresh = [latency_ms(r, "sent") for r in ok if not json.loads(r.body).get("cached")]
    request = 'service_request_seconds_%s{endpoint="/simulate"}'
    job = 'service_job_seconds_%s{kind="simulate"}'
    request_ms = 1000.0 * common.ratio(delta(after, before, request % "sum"),
                                       delta(after, before, request % "count"))
    job_count = delta(after, before, job % "count")
    job_ms = 1000.0 * common.ratio(delta(after, before, job % "sum"), job_count)
    hits = delta(final_series, start_series, "service_cache_hits_total")
    misses = delta(final_series, start_series, "service_cache_misses_total")
    metrics = {
        "service.cached_ms_p50": (common.median(cached), len(cached)),
        "service.fresh_ms_p50": (common.median(fresh), len(fresh)),
        "service.request_ms_mean": (request_ms, int(delta(after, before, request % "count"))),
        "service.job_ms_mean": (job_ms, int(job_count)),
        "service.queue_ms_mean": (
            (sum(fresh) / len(fresh) - job_ms) if fresh else 0.0, len(fresh),
        ),
        "service.cache.hit_ratio": (common.ratio(hits, hits + misses), int(hits + misses)),
        "service.worker_table_bytes": (health["governance"]["table_bytes"], 1),
        "trace.overhead_pct": (
            100.0 * common.ratio(sum(traced) - sum(plain[:len(traced)]), sum(plain[:len(traced)])),
            len(traced),
        ),
    }
    max_rate, sustained = 0.0, True
    lags = []
    for rate, step_records, problems, _, _, _ in steps:
        lag = [(r.seen - r.due) * 1000.0 for r in step_records if r.seen is not None]
        lags += lag
        due = [latency_ms(r) for r in step_records]
        tail = due[-max(1, len(due) // 10):]
        succeeded = len(step_records) - len(problems)
        sustained = sustained and not problems and (
            common.percentile(due, 95) <= LATENCY_LIMIT_MS
            and common.median(tail) <= LATENCY_LIMIT_MS
        )
        if sustained:
            max_rate = float(rate)
        metrics[f"loadgen.rate{rate}.sent"] = (len(step_records), 1)
        metrics[f"loadgen.rate{rate}.succeeded"] = (succeeded, 1)
        metrics[f"loadgen.rate{rate}.failed"] = (len(problems), 1)
    metrics["service.max_rate_rps"] = (max_rate, len(steps))
    metrics["loadgen.lag_ms_p99"] = (common.percentile(lags, 99), len(lags))
    for name, seconds in tracing.self_times(tracer.spans).items():
        count = max(1, len(tracing.durations(tracer.spans, name)))
        metrics[f"trace.self_ms.{name}"] = (1000.0 * seconds / count, count)
    # The front end parses the QASM before its cache lookup; time that
    # call from outside, in this process, now that the load is over.
    sys.path.insert(0, os.path.join(common.ROOT, "src"))
    from repro import parse_qasm

    parse = []
    for payload in hot:
        begin = perf_counter()
        parse_qasm(payload["qasm"])
        parse.append(perf_counter() - begin)
    metrics["qc.qasm.parse_ms"] = (common.median(parse) * 1000.0, len(parse))
    return metrics
