"""Per-layer accounting for the traced run.

Two sources, both read the same way in every workload, in the process
that does the workload's work (this process for ``train`` and ``stream``,
the server process for ``serve``):

* :class:`LayerTimer` swaps the public calls named in :func:`wrap_layers`
  for wrappers that record, per layer name, the number of calls and the
  *self* time: a call's wall time minus the time spent in nested wrapped
  calls.  Self times of all layers add up to the time spent inside any
  wrapped call; the rest of the measured region is ``untraced_s``.
* :class:`RegistryDiff` reads what the program's own ``repro.obs``
  instruments counted between two Prometheus expositions.

A layer that does no work in a workload reads 0 from either source.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class LayerTimer:
    """Patch ``owner.attr`` callables with self-time recording wrappers.

    Register targets with :meth:`wrap`, then enter the timer around the
    region to measure; every patched attribute is restored on exit.  Each
    thread keeps its own call stack, so calls made on the server's handler
    and coalescer threads are timed as well.
    """

    def __init__(self):
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        #: Sums of the values ``sample(*args)`` returned, per layer.
        self.sampled = defaultdict(float)
        self._targets = []
        self._local = threading.local()
        # Re-entrant: the server dumps a snapshot from a signal handler.
        self._lock = threading.RLock()
        self._patched = []

    def wrap(self, owner, attr: str, layer: str, sample=None) -> None:
        """Time ``owner.attr`` as ``layer`` while this timer is entered.

        ``sample``, if given, maps a call's positional arguments to a number
        that is summed into ``sampled[layer]``.
        """
        self._targets.append((owner, attr, layer, sample))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, original, layer: str, sample):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = self._stack()
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    self.self_seconds[layer] += duration - child[0]
                    self.calls[layer] += 1
                    if sample is not None:
                        self.sampled[layer] += sample(*args)
        return timed

    def total(self) -> float:
        """Time spent inside any wrapped call."""
        return sum(self.self_seconds.values())

    def snapshot(self) -> dict:
        """The counts so far, as plain dicts (JSON-ready)."""
        with self._lock:
            return {"self_seconds": dict(self.self_seconds),
                    "calls": dict(self.calls), "sampled": dict(self.sampled)}

    def __enter__(self) -> "LayerTimer":
        for owner, attr, layer, sample in self._targets:
            # Remember the owner's own namespace entry (not the looked-up
            # bound or inherited value) so restoring leaves it exactly as it was.
            self._patched.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, self._timed(getattr(owner, attr), layer, sample))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()
        return False


def _affected_share(engine, encoder, graph, report) -> float:
    return report.num_affected / graph.num_nodes


#: Wrapped public calls: (module, owner attribute or None, call, layer).
WRAPPED = (
    ("repro.gnn.gat", "GATEncoder", "forward", "gnn.forward_s"),
    ("repro.core.openima", "OpenIMATrainer", "compute_loss", "core.loss_s"),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward_s"),
    ("repro.nn.optim", "Adam", "step", "nn.optim_s"),
    ("repro.core.openima", "OpenIMATrainer", "refresh_pseudo_labels",
     "core.pseudo_label_s"),
    ("repro.inference.engine", "InferenceEngine", "embeddings", "inference.embed_s"),
    ("repro.inference.engine", "InferenceEngine", "refresh_after_delta",
     "inference.partial_refresh_s"),
    ("repro.clustering.engine", "ClusteringEngine", "refresh", "clustering.refresh_s"),
    ("repro.streaming.dynamic", "DynamicGraph", "apply", "streaming.graph_apply_s"),
    # Each module that calls the alignment imported it by name.
    ("repro.streaming.runner", None, "align_clusters_to_classes", "assignment.align_s"),
    ("repro.core.pseudo_labels", None, "align_clusters_to_classes", "assignment.align_s"),
    ("repro.core.inference", None, "align_clusters_to_classes", "assignment.align_s"),
)


def wrap_layers(timer: LayerTimer) -> LayerTimer:
    """Register every call of :data:`WRAPPED` with ``timer``."""
    import importlib

    for module_name, owner_name, attr, layer in WRAPPED:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        sample = _affected_share if attr == "refresh_after_delta" else None
        timer.wrap(owner, attr, layer, sample)
    return timer


def wrapped_layers(before: dict, after: dict) -> dict:
    """Layer name -> (self seconds, calls, sampled sum) added between snapshots."""
    moved = {}
    for layer in dict.fromkeys(layer for *_, layer in WRAPPED):
        moved[layer] = tuple(
            after[part].get(layer, 0) - before[part].get(layer, 0)
            for part in ("self_seconds", "calls", "sampled"))
    return moved


def parse_prometheus(text: str) -> dict:
    """Samples and declared families of a Prometheus text exposition."""
    samples, families = {}, set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.add(line.split()[2])
        elif line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return {"samples": samples, "families": families}


class RegistryDiff:
    """What ``repro.obs`` instruments counted between two expositions.

    Series appear on their first observation, so a series absent from a
    scrape counts as zero.  A metric family absent from the later scrape
    fails the run: a renamed instrument must not read as idle.
    """

    def __init__(self, before: dict, after: dict, on_missing):
        self.before, self.after, self.on_missing = before, after, on_missing

    def value(self, family: str, suffix: str = "", labels: str = "") -> float:
        if family not in self.after["families"]:
            self.on_missing(f"the exposition declares no {family}")
        key = f"{family}{suffix}{labels}"
        return (self.after["samples"].get(key, 0.0)
                - self.before["samples"].get(key, 0.0))

    def hist(self, family: str, labels: str = "") -> tuple:
        """(sum, count) added to a histogram series."""
        return (self.value(family, "_sum", labels),
                self.value(family, "_count", labels))

    def total(self, family: str, suffix: str = "") -> float:
        """``value`` summed over every labelled series of a family."""
        name = family + suffix
        keys = {key for scrape in (self.before, self.after)
                for key in scrape["samples"] if key.startswith(name + "{")}
        return self.value(family, suffix) + sum(
            self.value(family, suffix, key[len(name):]) for key in keys)
