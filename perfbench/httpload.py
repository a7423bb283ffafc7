"""Closed-loop HTTP load against a ``repro serve`` process.

The generator is this one process holding one keep-alive
``http.client`` connection per worker thread.  Each connection sends its
next request only after the previous reply (closed loop).  Connections
keep the default socket options, so transport stalls show in the
client-observed latency.  A request that raises or answers with a status
other than 200 is counted as failed and is not retried; its latency is
recorded as infinite, so it misses any latency limit.

Calls outside the measured load (the start-up ``/health``, counter scrapes
and correctness checks) go through :class:`repro.serve.ServeClient`.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.serve import ServeClient
from timing import parse_prometheus

JSON_HEADERS = {"Content-Type": "application/json"}
#: Upper bound on one phase, far above any healthy run; reaching it is an error.
PHASE_LIMIT_S = 120.0
#: A hung server fails the request instead of hanging the benchmark.
REQUEST_TIMEOUT_S = 60.0
#: The server's main thread takes a signal within one 0.1 s poll interval.
DUMP_WAIT_S = 10.0


class ServerProcess:
    """``python -m repro.experiments.cli serve CKPT --port 0`` as a child process.

    With ``layer_dump`` set, the server runs under ``traced_server.py``,
    which times the benchmark's wrapped calls inside the server and writes
    them to that path on request (:meth:`layers`).  Use as a context
    manager: the process is stopped on exit.
    """

    def __init__(self, root: Path, checkpoint: Path, layer_dump: Path = None):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("REPRO_OBS", None)
        serve = ["serve", str(checkpoint), "--port", "0"]
        if layer_dump is None:
            command = [sys.executable, "-m", "repro.experiments.cli", *serve]
        else:
            command = [sys.executable, str(Path(__file__).with_name("traced_server.py")),
                       str(layer_dump), *serve]
        self.layer_dump = layer_dump
        self.client = None
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)
        try:
            # The CLI prints its banner once the model is loaded, the
            # snapshot is warm and the socket is bound.  An answered
            # /health means the serving loop and its SIGINT handler run.
            banner = self.proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            if match is None:
                raise RuntimeError(f"server did not start: {banner!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.client = ServeClient(self.host, self.port,
                                      timeout=REQUEST_TIMEOUT_S)
            self.client.health()
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def scrape(self) -> dict:
        """The server's ``/metrics`` exposition, parsed."""
        return parse_prometheus(self.client.metrics())

    def layers(self) -> dict:
        """Wrapped-call counts of a traced server so far."""
        self.layer_dump.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + DUMP_WAIT_S
        while not self.layer_dump.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("the traced server wrote no layer counts")
            time.sleep(0.01)
        return json.loads(self.layer_dump.read_text())

    def stop(self) -> None:
        """Graceful SIGINT shutdown; kill if it does not exit in time."""
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


@dataclass
class OpLog:
    """Client-observed outcome of one operation kind in one phase."""

    latencies: list = field(default_factory=list)
    failed: int = 0
    applied: list = field(default_factory=list)

    @classmethod
    def merge(cls, logs) -> "OpLog":
        merged = cls()
        for log in logs:
            merged.latencies += log.latencies
            merged.failed += log.failed
        return merged

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def percentile_ms(self, q: float) -> float:
        """Client latency percentile; failures count as infinitely slow."""
        return 1e3 * float(np.percentile(self.latencies, q,
                                         method="inverted_cdf"))

    def mean_ms(self) -> float:
        ok = [x for x in self.latencies if math.isfinite(x)]
        return 1e3 * float(np.mean(ok)) if ok else math.inf


def _send(conn_box: list, server: ServerProcess, path: str, body: str,
          log: OpLog):
    """One request on the worker's connection; the reply body, or None on failure."""
    start = time.perf_counter()
    try:
        conn = conn_box[0]
        conn.request("POST", path, body, JSON_HEADERS)
        response = conn.getresponse()
        data = response.read()
        ok = response.status == 200
    except (OSError, http.client.HTTPException):
        ok, data = False, None
        conn_box[0].close()
        conn_box[0] = server.connect()
    elapsed = time.perf_counter() - start
    log.latencies.append(elapsed if ok else math.inf)
    if not ok:
        log.failed += 1
        return None
    return data


def read_body(rng: np.random.Generator, num_nodes: int) -> str:
    """Mostly single-node queries, one in ten a multi-node body.

    Single-node ``/predict`` is the query ``ServeClient.predict`` sends and
    the one the repository's serving test times.  The one-in-ten share of
    multi-node bodies and their size (2 to 16 nodes) are a choice of this
    benchmark, not a measured traffic mix: they keep the coalescer's
    multi-node path in the measured load.
    """
    if rng.random() < 0.9:
        return json.dumps({"node": int(rng.integers(num_nodes))})
    size = int(rng.integers(2, 17))
    return json.dumps({"nodes": rng.integers(num_nodes, size=size).tolist()})


def run_phase(server: ServerProcess, workers: list, enough) -> tuple:
    """Run closed-loop ``workers`` until ``enough(elapsed_seconds)`` holds.

    Each worker is ``fn(conn_box, stop_event)`` and owns one connection.
    Returns ``(wall_seconds, generator_cpu_seconds)``.
    """
    stop = threading.Event()
    boxes = [[server.connect()] for _ in workers]
    threads = [threading.Thread(target=fn, args=(box, stop))
               for fn, box in zip(workers, boxes)]
    cpu0, start = time.process_time(), time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        while True:
            elapsed = time.perf_counter() - start
            if enough(elapsed):
                break
            if elapsed > PHASE_LIMIT_S:
                raise RuntimeError("load phase did not reach its sample "
                                   f"minimum within {PHASE_LIMIT_S:.0f} s")
            time.sleep(0.02)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        for box in boxes:
            box[0].close()
    return time.perf_counter() - start, time.process_time() - cpu0


def reader(server: ServerProcess, log: OpLog, rng: np.random.Generator,
           num_nodes: int):
    def work(conn_box, stop):
        while not stop.is_set():
            _send(conn_box, server, "/predict", read_body(rng, num_nodes), log)
    return work


def arrival_bodies(graph, rng: np.random.Generator, num_deltas: int,
                   nodes_per_delta: int) -> list:
    """``/delta`` bodies that replay the served graph's own nodes as arrivals.

    ``make_stream_scenario`` models an arrival as a real node with its
    feature row, its label and its edges to the nodes already there.  The
    served graph already holds every node of the generated dataset, so
    each arrival here is a copy of one of its nodes, linked to that node's
    neighbours.  The copied nodes are a seeded sample without repeats; the
    server symmetrizes the edges.
    """
    src, dst = graph.edge_index
    order = np.argsort(src, kind="stable")
    starts = np.searchsorted(src[order], np.arange(graph.num_nodes + 1))
    sample = rng.permutation(graph.num_nodes)[:num_deltas * nodes_per_delta]
    next_id, bodies = graph.num_nodes, []
    for batch in sample.reshape(num_deltas, nodes_per_delta):
        copies, neighbours = [], []
        for offset, node in enumerate(batch):
            linked = dst[order[starts[node]:starts[node + 1]]]
            copies += [next_id + offset] * len(linked)
            neighbours += linked.tolist()
        bodies.append({"features": graph.features[batch].tolist(),
                       "edges": [copies, neighbours],
                       "labels": graph.labels[batch].tolist()})
        next_id += nodes_per_delta
    return bodies


def writer(server: ServerProcess, log: OpLog, bodies: list):
    """Post the delta ``bodies`` in order, back to back.

    A failed delta stops the writer: later bodies name node ids the server
    would not have.  The bodies the server accepted are kept in
    ``log.applied``, in order, for the replay check.
    """
    encoded = [json.dumps(body) for body in bodies]

    def work(conn_box, stop):
        for body, payload in zip(bodies, encoded):
            if stop.is_set():
                return
            if _send(conn_box, server, "/delta", payload, log) is None:
                return
            log.applied.append(body)
    return work
