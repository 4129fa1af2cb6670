"""``serve-mixed``: ``python -m repro serve --pool-workers 2`` under a
40/40/20 mix of OLE-OPE joins, OBE-OPE joins and OLE-OPE ``inside``
predicates, over at most two keep-alive HTTP/1.1 connections.

Each of the seed's input draws gets its own daemon. Set-up, timed per
daemon, runs from spawn until every pool worker has answered every
request kind. The end-to-end run then drives a closed loop on both
connections for the daemon's share of ``--seconds``: request latency,
its tail and ``throughput_rps`` all come from it. The loop runs in
slices of :data:`SLICE_S` seconds between two host probes
(:mod:`perfbench.probe`); each request's latency and each slice's time
are divided by that slice's host factor, so they read as on the
reference host, as do set-up times. The traced run first
spends :data:`OPEN_SHARE` of that share on an open loop of Poisson
arrivals at :data:`RATE`. Each open-loop request is timed from its due
time, so the time it waits for a busy connection counts in its latency
(its ``serve.backlog`` span); the open loop's median and tail go to the
details line. The traced run builds each request's span tree after the
request, from the client's timing and the response's ``service``,
``wall_seconds`` and ``stats`` fields. Nothing is installed in the
daemon and no span is built inside a timed request, so the trace costs
the program nothing and ``trace_overhead_ratio`` is 1 here. Every
response's rows are compared with the ST2 oracle, and
``repro_april_built_total`` on ``/metrics`` must not move while
measuring.

Why the end-to-end latency is closed loop: a 6 req/s open loop holds
the two pool workers at roughly two thirds of their capacity, and in
the few dozen requests one run can afford its median and tail moved by
30-90% from seed to seed (one stalled request queues the next several),
far outside any bound a later change could be judged against. The open
loop stays in the traced run, whose numbers carry no bound.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep

from perfbench.common import (
    GRID_ORDER,
    PROCESS_TIMEOUT,
    Outcome,
    alive,
    child_pids,
    oracle,
    prepare_inputs,
    rows_of,
    tree_bytes,
    vm_hwm_kb,
)
from perfbench.layers import counter_total, op_record, per_layer_metrics, program_counts
from perfbench.probe import host_factor, probe
from perfbench.stats import percentile, poisson_schedule, request_mix, tail

POOL_WORKERS = 2
#: Open-loop (traced run) arrival rate, requests per second.
RATE = 6.0
#: Share of the traced run spent in the open loop; the rest is closed loop.
OPEN_SHARE = 0.6
#: Closed-loop seconds between two host probes.
SLICE_S = 2.5
#: An open loop whose generator sends this late (p95), counted from
#: when the request was due and a connection was free, measured the
#: generator, not the program, and is repeated.
LATE_LIMIT_S = 0.05

#: Request kind -> (endpoint, body); datasets are index directories
#: under the daemon's ``--root``.
KINDS = {
    "join-ole": ("/v1/join", {"r": "ole", "s": "ope", "grid_order": GRID_ORDER}),
    "join-obe": ("/v1/join", {"r": "obe", "s": "ope", "grid_order": GRID_ORDER}),
    "inside-ole": ("/v1/predicate", {"r": "ole", "s": "ope", "grid_order": GRID_ORDER,
                                     "predicate": "inside"}),
}
MIX = {"join-ole": 0.4, "join-obe": 0.4, "inside-ole": 0.2}

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list:
    """Samples of a Prometheus text exposition as counter dicts."""
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match and not line.startswith("#"):
            labels = dict(_LABEL.findall(match.group(2) or ""))
            samples.append({"name": match.group(1), "labels": labels,
                            "value": float(match.group(3))})
    return samples


class Client:
    """One persistent keep-alive connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PROCESS_TIMEOUT)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple:
        """``(status, body_bytes, sent, done)`` on the perf_counter clock."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        sent = perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, sent, perf_counter()

    def close(self) -> None:
        self.conn.close()


class Daemon:
    """``repro serve`` as a subprocess, spawned with ``--port 0``."""

    def __init__(self, root, env) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet",
                "--pool-workers", str(POOL_WORKERS), "--root", str(root)]
        self.proc = subprocess.Popen(argv, env=env, cwd=root, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.log: list = []
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, args=(lines,), daemon=True)
        self._reader.start()
        self.port = None
        while self.port is None:
            try:
                line = lines.get(timeout=PROCESS_TIMEOUT)
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("repro serve never reported readiness: "
                                   + "".join(self.log[-10:]))
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(2))

    def _read(self, lines: queue.Queue) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            lines.put(line)
        lines.put(None)

    def counters(self) -> list:
        client = Client(self.port)
        try:
            status, body, _s, _d = client.request("GET", "/metrics")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_prometheus(body.decode("utf-8"))

    def processes(self) -> list:
        return [self.proc.pid, *child_pids(self.proc.pid)]

    def stop(self) -> list:
        """SIGTERM, wait for the drain; returns what went wrong."""
        problems = []
        pids = self.processes() if self.proc.poll() is None else []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=PROCESS_TIMEOUT / 4)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
            problems.append("repro serve did not exit after SIGTERM")
        if code != 0:
            problems.append(f"repro serve exited {code} after SIGTERM")
        for pid in pids[1:]:
            if alive(pid):
                problems.append(f"pool worker {pid} outlived the daemon")
                os.kill(pid, signal.SIGKILL)
        self._reader.join(timeout=5)
        self.proc.stderr.close()
        return problems


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def _post(client: Client, kind: str) -> dict:
    path, body = KINDS[kind]
    status, data, sent, done = client.request("POST", path, json.dumps(body).encode())
    return {"kind": kind, "status": status, "data": data, "sent": sent, "done": done}


def _judge(sample: dict, expected: dict, out: Outcome) -> dict | None:
    """Count one measured request; returns its wire document when ok."""
    out.attempted += 1
    if sample["status"] != 200:
        out.fail(f"{sample['kind']}: HTTP {sample['status']}")
        return None
    doc = json.loads(sample["data"])
    if rows_of(doc["results"]) != expected[sample["kind"]]:
        out.fail(f"{sample['kind']}: rows differ from the ST2 oracle", mismatch=True)
        return None
    return doc


def _concurrently(clients: list, work) -> list:
    """Run ``work(client_index, client)`` on one thread per client."""
    results: list = [None] * len(clients)
    errors: list = []

    def body(i: int) -> None:
        try:
            results[i] = work(i, clients[i])
        except Exception as exc:  # reported, then re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _warm(clients: list, expected: dict, out: Outcome) -> None:
    """Every worker serves every kind: one request of a kind per
    connection at once, and two requests in flight together always
    occupy two different pool workers."""
    for kind in KINDS:
        barrier = threading.Barrier(len(clients))

        def one(_i, client, kind=kind, barrier=barrier):
            barrier.wait()
            return _post(client, kind)

        for sample in _concurrently(clients, one):
            check = Outcome()
            if _judge(sample, expected, check) is None:
                out.problem(f"warm-up {kind}: {check.problems}")


def _open_loop(clients: list, due: list, kinds: list) -> list:
    """Requests sent at ``due`` offsets (seconds from now) in ``kinds``
    order. Each sample keeps its due time (``due``), so its latency is
    ``done - due`` and includes any wait for a busy connection, and how
    late the generator itself sent it once it was due and a connection
    was free (``late``)."""
    count = len(due)
    lock = threading.Lock()
    cursor = [0]
    base = perf_counter() + 0.05

    def loop(_i, client):
        samples = []
        while True:
            free_at = perf_counter()
            with lock:
                k = cursor[0]
                cursor[0] += 1
            if k >= count:
                return samples
            due_at = base + due[k] - due[0]
            if due_at > free_at:
                sleep(due_at - free_at)
            sample = _post(client, kinds[k])
            sample["due"] = due_at
            sample["late"] = sample["sent"] - max(due_at, free_at)
            samples.append(sample)

    return [s for part in _concurrently(clients, loop) for s in part]


def _closed_loop(clients: list, kinds, seconds: float) -> tuple:
    """Back-to-back requests on every connection, sent for ``seconds``,
    their kinds drawn in turn from the iterator ``kinds``; returns the
    samples and the seconds from the start to the last reply. Each
    sample records how long its connection sat between the previous
    reply and this send (``late``)."""
    lock = threading.Lock()
    began = perf_counter()
    deadline = began + seconds

    def loop(_i, client):
        samples, free_at = [], began
        while perf_counter() < deadline:
            with lock:
                kind = next(kinds)
            sample = _post(client, kind)
            sample["late"] = sample["sent"] - free_at
            free_at = perf_counter()
            samples.append(sample)
        return samples

    samples = [s for part in _concurrently(clients, loop) for s in part]
    return samples, max(s["done"] for s in samples) - began


# ----------------------------------------------------------------------
# span trees
# ----------------------------------------------------------------------
def request_spans(sample: dict, doc: dict) -> list:
    """One request's span tree, rebuilt from client timing and the
    response: transport (the request's own remainder) over queue and
    dispatch, dispatch over the engine's ``wall_seconds``, and — for a
    serial join, whose stage times nest inside its wall — the engine
    over filter and refinement. An open-loop request (one with a
    ``due`` time) starts at its due time with a ``serve.backlog`` span
    up to its send."""
    backlog = sample["sent"] - sample.get("due", sample["sent"])
    latency = sample["done"] - sample["sent"]
    service = doc["service"]
    queued, seconds, wall = service["queued_seconds"], service["seconds"], doc["wall_seconds"]
    a = backlog + max(0.0, (latency - queued - seconds) / 2.0)
    b = a + queued + max(0.0, (seconds - wall) / 2.0)
    spans = [
        {"id": 0, "parent": None, "name": "serve.transport", "start": backlog,
         "end": backlog + latency},
        {"id": 1, "parent": 0, "name": "serve.queue", "start": a, "end": a + queued},
        {"id": 2, "parent": 0, "name": "serve.dispatch", "start": a + queued,
         "end": a + queued + seconds},
        {"id": 3, "parent": 2, "name": "serve.engine", "start": b, "end": b + wall},
    ]
    stats = doc["stats"]
    if doc.get("mode") == "serial":
        f, r = stats["filter_seconds"], stats["refine_seconds"]
        spans.append({"id": 4, "parent": 3, "name": "filters.filter", "start": b,
                      "end": b + f})
        spans.append({"id": 5, "parent": 3, "name": "topology.refine", "start": b + f,
                      "end": b + f + r})
    if "due" in sample:
        spans.append({"id": 6, "parent": None, "name": "serve.backlog", "start": 0.0,
                      "end": backlog})
    return spans


def _record(sample: dict, doc: dict) -> dict:
    stats = doc["stats"]
    run = {
        "pairs": stats["pairs"],
        "resolved": stats["resolved_mbr"] + stats["resolved_if"],
        "refined": stats["refined"],
        "filter_seconds": stats["filter_seconds"],
        "refine_seconds": stats["refine_seconds"],
        "partitions": doc.get("partitions"),
        "decision": (doc.get("meta", {}).get("cost_model") or {}).get("decision",
                                                                       doc.get("mode")),
    }
    start = sample.get("due", sample["sent"])
    return op_record(sample["done"] - start, request_spans(sample, doc), run)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _measure_draw(daemon, clients, seed, k, seconds, trace) -> dict:
    """The measured phases on one warm daemon: a closed loop for the
    end-to-end run, in slices of :data:`SLICE_S` between host probes
    (``busy`` is its time scaled to the reference host); the traced run
    first adds the Poisson open loop."""
    before = daemon.counters()
    opened, late = [], 0.0
    if trace:
        n_open = max(10, round(RATE * seconds * OPEN_SHARE))
        due = poisson_schedule(seed * 100 + k, RATE, n_open)
        for _attempt in range(2):
            opened = _open_loop(clients, due, request_mix(seed * 100 + k, n_open, MIX))
            late = percentile([s["late"] for s in opened], 95)
            if late <= LATE_LIMIT_S:
                break
        else:
            raise RuntimeError("the load generator fell behind its schedule twice "
                               f"(p95 send lateness {late:.3f}s); this run measured "
                               "the generator, not the program")
        seconds *= 1 - OPEN_SHARE
    kinds = itertools.cycle(request_mix(seed * 100 + k, 4096, MIX))
    closed, busy = [], 0.0
    while seconds > 1e-9:
        part = min(SLICE_S, seconds)
        probed = probe()
        samples, took = _closed_loop(clients, kinds, part)
        factor = host_factor(probed, probe())
        for sample in samples:
            sample["factor"] = factor
        closed += samples
        busy += took / factor
        seconds -= part
    after = daemon.counters()
    delta = [{**c, "value": c["value"] - counter_total(before, c["name"], **c["labels"])}
             for c in after]
    return {"opened": opened, "late": late, "closed": closed, "busy": busy,
            "counts": program_counts(delta),
            "rss_kb": max(vm_hwm_kb(pid) for pid in daemon.processes())}


def run(checkout, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.store import build_dataset

    out = Outcome()
    work = checkout.workdir(f"serve-mixed-{seed}")
    draws = prepare_inputs(seed, work)
    env = checkout.env()
    expected = [dict(zip(KINDS, rows)) for rows in oracle([
        [(d["OLE"], d["OPE"], None), (d["OBE"], d["OPE"], None),
         (d["OLE"], d["OPE"], "inside")] for d in draws], env)]

    setup_s, phases, index_bytes = [], [], 0
    for k, paths in enumerate(draws):
        root = work / f"svc{k}"
        for name, src in paths.items():
            build_dataset(src, root / name.lower())
        probed = probe()
        start = perf_counter()
        daemon = Daemon(root, env)
        clients = [Client(daemon.port) for _ in range(min(2, os.cpu_count() or 1))]
        try:
            _warm(clients, expected[k], out)
            took = perf_counter() - start
            setup_s.append(took / host_factor(probed, probe()))
            phase = _measure_draw(daemon, clients, seed, k, seconds / len(draws), trace)
            index_bytes += tree_bytes(root)
        finally:
            for client in clients:
                client.close()
            for why in daemon.stop():
                out.problem(why)
        for sample in phase["opened"] + phase["closed"]:
            sample["draw"] = k
        phases.append(phase)
        if phase["counts"]["april_built"]:
            out.problem("the warm daemon rasterised while measuring "
                        f"(repro_april_built_total +{phase['counts']['april_built']:g})")

    latencies, lat_draws, opened, records, sizes, engine = [], [], [], [], [], []
    for sample in (s for p in phases for s in p["opened"] + p["closed"]):
        doc = _judge(sample, expected[sample["draw"]], out)
        if "due" in sample:
            opened.append(1000 * (sample["done"] - sample["due"]) if doc
                          else 1000 * PROCESS_TIMEOUT)
            if doc:
                records.append(_record(sample, doc))
            continue
        latencies.append((sample["done"] - sample["sent"]) / sample["factor"] if doc
                         else PROCESS_TIMEOUT)
        lat_draws.append(sample["draw"])
        if doc:
            records.append(_record(sample, doc))
            sizes.append(len(sample["data"]))
            engine.append(doc["wall_seconds"])

    closed = [s for p in phases for s in p["closed"]]
    out.details.update(workload="serve-mixed", seed=seed, requests=len(closed),
                       host_factor=statistics.median(s["factor"] for s in closed),
                       client_gap_p95_ms=1000 * percentile([s["late"] for s in closed], 95))
    if opened:
        value, q, n = tail(opened)
        backlog = [s["sent"] - s["due"] for p in phases for s in p["opened"]]
        out.details.update(open_loop_requests=n, open_loop_p50_ms=statistics.median(opened),
                           open_loop_tail_ms=value, open_loop_tail_percentile=q,
                           open_loop_backlog_p95_ms=1000 * percentile(backlog, 95))
    if trace:
        late = max(p["late"] for p in phases)
        out.metrics = per_layer_metrics(
            records,
            cache_hits=sum(p["counts"]["cache_hits"] for p in phases),
            cache_lookups=sum(p["counts"]["cache_lookups"] for p in phases),
            fallbacks=sum(p["counts"]["fallbacks"] for p in phases),
            trace_overhead=1.0,
            serve={
                "engine_ms": 1000 * statistics.median(engine),
                "response_bytes": statistics.median(sizes),
                "generator_late_ms": 1000 * late,
            },
        )
    else:
        source_bytes = sum(p.stat().st_size for d in draws for p in d.values())
        out.latency_metrics(latencies, lat_draws, setup_s)
        out.metric("throughput_rps", (out.attempted - out.failed) / sum(p["busy"] for p in phases),
                   "1/s")
        out.metric("peak_rss_mb", max(p["rss_kb"] for p in phases) / 1024.0, "MB")
        out.metric("index_bytes_ratio", index_bytes / source_bytes, "ratio")
    return out
