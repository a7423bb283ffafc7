"""The three workloads: train, serve and stream.

Each workload goes through the public surface only
(``OpenWorldClassifier``, ``repro serve`` over HTTP, ``StreamRunner``),
keeps its set-up time apart from its measured time, and raises
:class:`CheckFailed` when an output is wrong.  Checks run outside the
timed regions.

Every workload reports the same metric names.  End-to-end, a workload
has one operation its user waits for (a ``fit``, a ``/predict`` read, a
``StreamRunner.step``) and one that writes the model or the graph (a
``fit``, a ``/delta`` post, a ``StreamRunner.step``).  With ``trace`` set,
a workload returns the per-layer metrics of :func:`layer_metrics`
instead, taken in the process that does the work; a layer that is idle
in a workload reads 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import httpload
from timing import LayerTimer, RegistryDiff, parse_prometheus, wrap_layers, wrapped_layers

from repro.api import OpenWorldClassifier
from repro.core.config import ClusteringConfig, OpenIMAConfig, TrainerConfig
from repro.datasets.synthetic import load_open_world_dataset
from repro.graphs.delta import GraphDelta
from repro.obs import REGISTRY
from repro.serve import PredictionService
from repro.streaming import StreamRunner, make_stream_scenario

DATASET = "citeseer"
#: ``train`` fits the paper-default OpenIMA (GAT, hidden 128, 8 heads) for
#: 10 epochs; the models behind ``serve`` and ``stream`` get 2 set-up epochs.
TRAIN_EPOCHS = 10
SETUP_EPOCHS = 2
#: A ``train`` run times at least this many fits, for a median.
MIN_FITS = 2
#: Repeated set-up steps whose median is reported in ``setup_s``: whole
#: set-ups for ``serve`` and ``stream``, dataset generations per ``fit``
#: for ``train`` (each takes milliseconds).
SETUP_REPEATS = 3
TRAIN_SETUP_REPEATS = 8
STREAM_STEPS = 40
#: ``serve``'s ingest phase posts this many deltas of three arriving nodes.
#: A fixed count keeps the phase's work, and the server's peak memory, the
#: same from run to run; each delta carries one read or a few more.
INGEST_DELTAS, INGEST_NODES = 80, 3
#: ``repro stream`` defaults.
REVEAL_FRACTION = 0.3
BIRTH_THRESHOLD = 0.2
#: Tail percentiles; a run collects enough samples that ten lie beyond each.
#: A read beside deltas waits behind one delta (~250 ms), so 200 of them
#: would take ~50 s plus as long again for the replay check: p85 instead.
READ_TAIL, INGEST_TAIL = 95, 85
CHECK_NODES = 64
PARITY_TOL = 1e-8
#: Wrapped calls must cover this share of a traced fit and of a traced replay.
MIN_COVERAGE = 0.9


class CheckFailed(AssertionError):
    """An output of the program under test is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass
class Measured:
    """A workload's metrics as ``name -> (value, sample count)``.

    ``report`` holds further figures printed for the reader only, as
    ``(name, value, unit, sample count)``.
    """

    metrics: dict
    attempted: int
    failed: int = 0
    report: list = dataclasses.field(default_factory=list)


def timed(fn, *args, **kwargs) -> tuple:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def tail_samples(percentile: float) -> int:
    """Samples needed for ten of them to lie beyond ``percentile``."""
    return math.ceil(10 / (1 - percentile / 100) - 1e-9)


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input a run generates from ``seed``."""
    return 100 * seed + index


def load_dataset(seed: int):
    return load_open_world_dataset(DATASET, seed=seed, scale=1.0)


def paper_classifier(seed: int, epochs: int, clustering=None) -> OpenWorldClassifier:
    trainer = TrainerConfig(max_epochs=epochs, seed=seed)
    if clustering is not None:
        trainer = dataclasses.replace(trainer, clustering=clustering)
    return OpenWorldClassifier("openima", OpenIMAConfig(trainer=trainer))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(setup: list, op_s: list, op_time_s: float, write_s: list) -> dict:
    """The end-to-end metrics of this process's workload.

    ``op_s`` and ``write_s`` are the latencies of the workload's operation
    and of its write operation; ``op_time_s`` is the measured time the
    operations took, for the throughput.
    """
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "op_p50_ms": (1e3 * statistics.median(op_s), len(op_s)),
        "ops_per_s": (len(op_s) / op_time_s, len(op_s)),
        "write_p50_ms": (1e3 * statistics.median(write_s), len(write_s)),
    }


def registry_scrape() -> dict:
    """This process's ``repro.obs`` instruments, as the server exposes its own."""
    return parse_prometheus(REGISTRY.render_prometheus())


def layer_metrics(moved: dict, registry: RegistryDiff, measured_s: float) -> dict:
    """Per-layer metrics of one measured region, taken alike in every workload.

    ``moved`` is :func:`timing.wrapped_layers` over the region, ``registry``
    what the program's instruments counted in it, and ``measured_s`` the
    time of the region's operations; what the wrapped calls do not cover
    of it is ``untraced_s``.
    """
    layers = {name: (seconds, calls) for name, (seconds, calls, _) in moved.items()}
    _, refreshes, affected = moved["inference.partial_refresh_s"]
    hits, misses, partial, full = (
        registry.value(family, labels=labels) for family, labels in (
            ("repro_inference_cache_events_total", '{event="hit"}'),
            ("repro_inference_cache_events_total", '{event="miss"}'),
            ("repro_inference_refreshes_total", '{kind="partial"}'),
            ("repro_inference_refreshes_total", '{kind="full"}')))
    layers.update({
        "gnn.forward_calls": (moved["gnn.forward_s"][1], 1),
        "inference.forwards": (
            registry.total("repro_inference_forward_seconds", "_count"), 1),
        "inference.cache_hit_ratio": (ratio(hits, hits + misses), hits + misses),
        "inference.affected_fraction": (ratio(affected, refreshes), refreshes),
        "inference.partial_share": (ratio(partial, partial + full), partial + full),
        "clustering.iterations": (
            registry.total("repro_cluster_iterations", "_sum"), 1),
        "clustering.births": (registry.total("repro_cluster_births_total"), 1),
        "untraced_s": (measured_s - sum(s for s, _ in layers.values()), 1),
    })
    return layers


#: Per-layer metrics of the serving transport; no HTTP request is made in
#: ``train`` and ``stream``, so there they read 0.
SERVE_LAYERS = (
    "serve.server_mean_ms", "serve.wire_gap_ms", "serve.requests_per_batch",
    "serve.snapshot_builds", "serve.client_cpu_ms", "serve.delta_server_mean_ms",
    "serve.snapshot_build_mean_ms", "serve.delta_apply_mean_ms",
    "serve.reader_stall_ms", "serve.ingest_read_p85_ms")


class TracedRegion:
    """Wrapped-call times and instrument counts of the region it is entered around."""

    def __init__(self):
        self.timer = wrap_layers(LayerTimer())
        self.empty = self.timer.snapshot()

    def __enter__(self) -> "TracedRegion":
        self.before = registry_scrape()
        self.timer.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.timer.__exit__(exc_type, exc, tb)
        self.after = registry_scrape()
        return False

    def total(self) -> float:
        return self.timer.total()

    def layers(self, measured_s: float) -> dict:
        """Per-layer metrics of the region; ``measured_s`` is its operations' time."""
        registry = RegistryDiff(self.before, self.after, fail)
        layers = layer_metrics(wrapped_layers(self.empty, self.timer.snapshot()),
                               registry, measured_s)
        layers.update({name: (0.0, 0) for name in SERVE_LAYERS})
        return layers


def fail(message: str) -> None:
    raise CheckFailed(message)


def peak_rss_mb(status: Path = Path("/proc/self/status")) -> float:
    """``VmHWM`` (peak resident set size) of a process, in MB."""
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def _fit(dataset, epochs: int, seed: int, region: TracedRegion = None) -> tuple:
    """One ``fit``; returns the classifier and its wall time."""
    clf = paper_classifier(seed, epochs)
    with region or contextlib.nullcontext():
        _, fit_s = timed(clf.fit, dataset)
    losses = clf.history.losses
    check(len(losses) == epochs and bool(np.all(np.isfinite(losses))),
          f"fit losses are not finite: {losses}")
    return clf, fit_s


def coverage(region: TracedRegion, measured_s: float, what: str) -> list:
    """Check that wrapped calls cover the measured time; report lines."""
    share = region.total() / measured_s
    check(share >= MIN_COVERAGE, f"wrapped calls cover {share:.3f} of {what}")
    return [("coverage", share, "ratio", 1)]


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def train(seed: int, seconds: float, trace: bool) -> Measured:
    """10-epoch fits on datasets generated from sub-seeds of ``seed``.

    The operation and the write operation are both a ``fit``.
    """
    if trace:
        return trace_fit(sub_seed(seed, 0))
    # The first fit in a process is slower; warm up on a 1-epoch fit.
    _fit(load_dataset(sub_seed(seed, 0)), 1, seed)
    fits, setup = [], []
    while len(fits) < MIN_FITS or sum(fit_s for _, fit_s in fits) < seconds:
        sub = sub_seed(seed, len(fits))
        for _ in range(TRAIN_SETUP_REPEATS):
            dataset, setup_s = timed(load_dataset, sub)
            setup.append(setup_s)
        fits.append(_fit(dataset, TRAIN_EPOCHS, sub))
    fit_s = [elapsed for _, elapsed in fits]
    return Measured(end_to_end(setup, fit_s, sum(fit_s), fit_s), len(fits), report=[
        ("fit_s", statistics.median(fit_s), "s", len(fit_s)),
        ("test_acc", test_accuracy(fits[0][0]), "%", 1)])


def test_accuracy(clf: OpenWorldClassifier) -> float:
    """Overall open-world test accuracy, in percent."""
    return 100.0 * clf.evaluate().overall


def trace_fit(seed: int) -> Measured:
    """Per-layer metrics of one ``fit``, and the tracing overhead.

    Fits get faster over the first few in a process, so after a 1-epoch
    warm-up the traced fit runs between two untraced ones and the overhead
    is measured against their mean.
    """
    _fit(load_dataset(seed), 1, seed)
    _, before_s = _fit(load_dataset(seed), TRAIN_EPOCHS, seed)
    region = TracedRegion()
    clf, fit_s = _fit(load_dataset(seed), TRAIN_EPOCHS, seed, region)
    _, after_s = _fit(load_dataset(seed), TRAIN_EPOCHS, seed)
    report = coverage(region, fit_s, "fit_s") + [
        ("trace_overhead_s", fit_s - (before_s + after_s) / 2, "s", 2),
        ("test_acc", test_accuracy(clf), "%", 1)]
    return Measured(region.layers(fit_s), attempted=4, report=report)


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
def base_model(seed: int) -> tuple:
    """A seeded scenario and the paper-default model fitted on its base."""
    scenario = make_stream_scenario(load_dataset(seed), num_steps=STREAM_STEPS,
                                    reveal_fraction=REVEAL_FRACTION, seed=seed)
    split = scenario.base.split
    # ``repro stream``'s default cap: every real class plus two births.
    clustering = ClusteringConfig(
        strategy="online", birth_threshold=BIRTH_THRESHOLD,
        max_clusters=int(split.seen_classes.shape[0]
                         + split.novel_classes.shape[0]
                         + scenario.withheld_classes.shape[0] + 2))
    clf = paper_classifier(seed, SETUP_EPOCHS, clustering)
    clf.fit(scenario.base)
    return scenario, clf


@dataclasses.dataclass
class Replay:
    setup_s: float
    step_s: list
    stream_s: float
    prequential_acc: float


def replay(seed: int, region: TracedRegion = None) -> Replay:
    """Set up a seeded scenario and replay all of it.

    ``region``, when given, is entered around the steps only.  The
    embeddings the last partially refreshed step published are checked
    against a full recompute of the graph as it stood after that step.  A
    traced replay skips that check, whose cache lookup would count in the
    region; the untraced replays around it check the same scenario.
    """
    def build():
        scenario, clf = base_model(seed)
        return scenario, StreamRunner(clf, scenario)
    (scenario, runner), setup_s = timed(build)
    step_s, patched = [], None
    with region or contextlib.nullcontext():
        for _ in scenario.events:
            record, seconds = timed(runner.step)
            step_s.append(seconds)
            if record.partial and region is None:
                patched = published_embeddings(runner.trainer)

    if region is None:
        check(patched is not None, "no step of the replay was a partial refresh")
        # Arrivals append rows and an edge arrives with its later endpoint,
        # so the graph after that step is the first rows' induced subgraph.
        trainer = runner.trainer
        graph = trainer.dataset.graph.subgraph(np.arange(patched.shape[0]))
        error = float(np.max(np.abs(patched - trainer.encoder.embed(graph))))
        check(error <= PARITY_TOL, "partially refreshed embeddings differ from "
              f"a full recompute by {error:.3g}")
    result = runner.result()
    return Replay(setup_s, step_s, sum(step_s), result.accuracy.overall)


def published_embeddings(trainer):
    """The embeddings a partial refresh just published, without a new pass."""
    engine = trainer.inference_engine
    forwards = engine.forward_count
    embeddings = trainer.node_embeddings()
    check(engine.forward_count == forwards, "node_embeddings() after a partial "
          "refresh ran an encoder pass instead of returning the patched cache")
    return embeddings


def stream(seed: int, seconds: float, trace: bool) -> Measured:
    """Replays of scenarios generated from sub-seeds of ``seed``.

    The operation and the write operation are both a ``StreamRunner.step``.
    """
    if trace:
        return trace_replay(sub_seed(seed, 0))
    # The first replay in a process is slower; warm up on one that is not timed.
    replay(sub_seed(seed, 0))
    replays = []
    while sum(r.stream_s for r in replays) < seconds or len(replays) < SETUP_REPEATS:
        replays.append(replay(sub_seed(seed, len(replays) + 1)))
    steps = [s for r in replays for s in r.step_s]
    setup = [r.setup_s for r in replays]
    stream_s = [r.stream_s for r in replays]
    return Measured(end_to_end(setup, steps, sum(stream_s), steps), len(steps), report=[
        ("step_p95_ms", 1e3 * float(np.percentile(steps, 95, method="inverted_cdf")),
         "ms", len(steps)),
        ("stream_s", statistics.median(stream_s), "s", len(stream_s)),
        ("prequential_acc", replays[0].prequential_acc, "ratio", 1)])


def trace_replay(seed: int) -> Measured:
    """Per-layer metrics of one replay's steps, and the tracing overhead.

    As for :func:`trace_fit`, after a warm-up replay the traced replay runs
    between two untraced ones and the overhead is measured against their mean.
    """
    replay(seed)
    before = replay(seed)
    region = TracedRegion()
    traced = replay(seed, region)
    after = replay(seed)
    report = coverage(region, traced.stream_s, "the steps") + [
        ("trace_overhead_s",
         traced.stream_s - (before.stream_s + after.stream_s) / 2, "s", 2),
        ("prequential_acc", traced.prequential_acc, "ratio", 1)]
    return Measured(region.layers(traced.stream_s), attempted=4 * STREAM_STEPS,
                    report=report)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve(root: Path, workdir: Path, seed: int, seconds: float, trace: bool) -> Measured:
    """Serve a checkpoint: a read phase, then an ingest phase.

    The operation is a ``/predict`` read of the read phase, the write
    operation a ``/delta`` post of the ingest phase.
    """
    # Set up SETUP_REPEATS times for the median (once for the traced run,
    # which reports no set-up time): generate the inputs, fit, checkpoint
    # and start the server.  The last server is the one measured.
    repeats = 1 if trace else SETUP_REPEATS
    layer_dump = workdir / "layers.json" if trace else None
    setups = []
    for attempt in range(repeats):
        begin = time.perf_counter()
        dataset = load_dataset(seed)
        clf = paper_classifier(seed, SETUP_EPOCHS)
        clf.fit(dataset)
        checkpoint = clf.save(workdir / f"served-{attempt}")
        with httpload.ServerProcess(root, checkpoint, layer_dump) as server:
            setups.append(time.perf_counter() - begin)
            if attempt == repeats - 1:
                load = _drive(server, checkpoint, dataset, seed, seconds / 2, trace)
                peak = peak_rss_mb(Path(f"/proc/{server.proc.pid}/status"))

    read, ingest, deltas = load.read, load.ingest, load.deltas
    attempted = read.attempted + ingest.attempted + deltas.attempted
    failed = read.failed + ingest.failed + deltas.failed
    report = [("read_attempted", read.attempted, "count", 1),
              ("ingest_read_attempted", ingest.attempted, "count", 1),
              ("delta_attempted", deltas.attempted, "count", 1)]
    if trace:
        return Measured(serve_layers(load), attempted, failed, report)
    report += [
        ("read_p95_ms", read.percentile_ms(READ_TAIL), "ms", read.attempted),
        ("ingest_read_p50_ms", ingest.percentile_ms(50), "ms", ingest.attempted),
        ("ingest_read_p85_ms", ingest.percentile_ms(INGEST_TAIL), "ms", ingest.attempted),
        ("client_cpu_ms", 1e3 * load.read_cpu / read.attempted, "ms", read.attempted)]
    return Measured({
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak, 1),
        "op_p50_ms": (read.percentile_ms(50), read.attempted),
        "ops_per_s": (read.succeeded / load.read_wall, read.attempted),
        "write_p50_ms": (deltas.percentile_ms(50), deltas.attempted),
    }, attempted, failed, report)


@dataclasses.dataclass
class Load:
    """What the generator saw, and the server's counts around each phase.

    ``scrapes`` (and, from a traced server, ``layers``) are taken before
    the read phase, between the phases and after the ingest phase.
    """

    read: httpload.OpLog
    ingest: httpload.OpLog
    deltas: httpload.OpLog
    read_wall: float
    read_cpu: float
    scrapes: list
    layers: list


def _drive(server, checkpoint: Path, dataset, seed: int, phase_seconds: float,
           trace: bool) -> Load:
    num_nodes = dataset.graph.num_nodes
    rng = [np.random.default_rng([seed, stream]) for stream in range(5)]

    # Reads leave the snapshot as it is, so it is checked before the load.
    sample = rng[2].choice(num_nodes, size=CHECK_NODES, replace=False)
    served = [r["prediction"] for r in server.client.predict_batch(sample)]
    offline = OpenWorldClassifier.load(checkpoint).predict()[sample]
    check(served == offline.tolist(),
          "served /predict answers differ from the offline predict()")

    scrapes, layers = [], []

    def mark():
        scrapes.append(server.scrape())
        if trace:
            layers.append(server.layers())

    # read: two connections query the warm snapshot.
    mark()
    reads = [httpload.OpLog(), httpload.OpLog()]
    read_min = tail_samples(READ_TAIL)
    read_wall, read_cpu = httpload.run_phase(
        server, [httpload.reader(server, reads[0], rng[0], num_nodes),
                 httpload.reader(server, reads[1], rng[1], num_nodes)],
        enough=lambda elapsed: elapsed >= phase_seconds
        and reads[0].attempted + reads[1].attempted >= read_min)
    mark()

    # ingest: one connection posts arrival deltas back to back, the other
    # reads.  The phase ends when the writer has stopped (after the last
    # delta, or after a failed one).
    deltas, ingest = httpload.OpLog(), httpload.OpLog()
    bodies = httpload.arrival_bodies(dataset.graph, rng[3], INGEST_DELTAS,
                                     INGEST_NODES)
    ingest_min = tail_samples(INGEST_TAIL)
    httpload.run_phase(
        server, [httpload.writer(server, deltas, bodies),
                 httpload.reader(server, ingest, rng[4], num_nodes)],
        enough=lambda elapsed: deltas.attempted == len(bodies) or deltas.failed)
    if ingest.attempted < ingest_min:
        raise RuntimeError(f"{deltas.attempted} deltas carried only "
                           f"{ingest.attempted} reads, fewer than {ingest_min}")
    mark()
    _check_replay(server, checkpoint, num_nodes, deltas.applied)
    return Load(httpload.OpLog.merge(reads), ingest, deltas, read_wall, read_cpu,
                scrapes, layers)


def serve_layers(load: Load) -> dict:
    """Per-layer metrics of the server over both phases, and of its transport."""
    start, middle, end = load.scrapes
    whole, read_phase, ingest_phase = (RegistryDiff(a, b, fail) for a, b in (
        (start, end), (start, middle), (middle, end)))
    request_s = whole.total("repro_serve_request_seconds", "_sum")
    layers = layer_metrics(wrapped_layers(load.layers[0], load.layers[2]),
                           whole, request_s)
    server_sum, server_count = read_phase.hist(
        "repro_serve_request_seconds", '{endpoint="/predict"}')
    server_mean = 1e3 * ratio(server_sum, server_count)
    batch_requests, batches = read_phase.hist("repro_serve_coalescer_batch_requests")
    delta_sum, delta_count = ingest_phase.hist(
        "repro_serve_request_seconds", '{endpoint="/delta"}')
    build_sum, build_count = ingest_phase.hist("repro_serve_snapshot_build_seconds")
    read, ingest = load.read, load.ingest
    layers.update({
        "serve.server_mean_ms": (server_mean, server_count),
        "serve.wire_gap_ms": (read.mean_ms() - server_mean, read.attempted),
        "serve.requests_per_batch": (ratio(batch_requests, batches), batches),
        "serve.snapshot_builds": (
            read_phase.value("repro_serve_snapshot_builds_total"), 1),
        "serve.client_cpu_ms": (1e3 * load.read_cpu / read.attempted, read.attempted),
        "serve.delta_server_mean_ms": (1e3 * ratio(delta_sum, delta_count), delta_count),
        "serve.snapshot_build_mean_ms": (1e3 * ratio(build_sum, build_count), build_count),
        "serve.delta_apply_mean_ms": (
            1e3 * ratio(delta_sum - build_sum, delta_count), delta_count),
        "serve.reader_stall_ms": (ingest.mean_ms() - read.mean_ms(), ingest.attempted),
        "serve.ingest_read_p85_ms": (ingest.percentile_ms(INGEST_TAIL), ingest.attempted),
    })
    return layers


def _check_replay(server, checkpoint: Path, num_nodes: int, applied: list) -> None:
    """New nodes answer as an in-process replay of the same deltas does."""
    check(len(applied) > 0, "no delta was applied")
    service = PredictionService(OpenWorldClassifier.load(checkpoint))
    service.warm()
    for payload in applied:
        service.apply_delta(GraphDelta.undirected(
            np.asarray(payload["features"], dtype=np.float64),
            np.asarray(payload["edges"], dtype=np.int64),
            np.asarray(payload["labels"], dtype=np.int64)))
    new_nodes = np.arange(num_nodes, service.snapshot().num_nodes)
    expected = json.loads(json.dumps(service.query(new_nodes)))
    check(server.client.predict_batch(new_nodes) == expected,
          "served answers for ingested nodes differ from an in-process replay")
