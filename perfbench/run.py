"""One benchmark for the train, serve and stream surfaces of ``repro``.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Workloads (inputs are generated from ``--seed``):

* ``train`` -- ``OpenWorldClassifier("openima").fit`` with the paper-default
  config (GAT, hidden 128, 8 heads) on the ``citeseer`` profile at scale
  1.0 (900 nodes), 10 epochs, after a 1-epoch warm-up, repeated for
  ``--seconds`` (at least twice).
* ``serve`` -- a 2-epoch model is checkpointed and served by
  ``python -m repro.experiments.cli serve CKPT`` in its own process.  A
  closed-loop generator in this process holds two keep-alive connections:
  a ``read`` phase of ``/predict`` queries, then an ``ingest`` phase in
  which one connection posts 80 ``/delta`` arrivals (copies of the
  served graph's nodes with their edges) back to back while the other
  keeps reading.  The read phase lasts ``--seconds / 2`` and at least 200
  reads (ten beyond p95); the ingest phase needs 67 reads beside deltas
  (ten beyond p85).
* ``stream`` -- in-process ``StreamRunner`` replays of a 40-step
  ``make_stream_scenario`` over a 2-epoch model fitted on
  ``scenario.base``, after an untimed warm-up replay, repeated for
  ``--seconds`` (at least three).

Every workload reports the same metrics.  ``--trace 0`` prints the
end-to-end metrics of the workload's operation (a ``fit``, a ``/predict``
read, a ``step``) and of its write operation (a ``fit``, a ``/delta``
post, a ``step``).  ``--trace 1`` is a separate run that prints the
per-layer metrics instead, taken in the process that does the work: self
times of wrapped public calls and the program's own ``repro.obs``
counters (through ``/metrics`` for the server, whose wrapped calls
``traced_server.py`` times).  A layer idle in a workload reads 0.
Further figures (``fit_s``, ``read_p95_ms``, accuracies, coverage) are
printed above the result line with their units and sample counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("train", "serve", "stream"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind through the ``finally`` blocks that stop the server process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    import stages

    trace = bool(args.trace)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.workload == "train":
            measured = stages.train(args.seed, args.seconds, trace)
        elif args.workload == "serve":
            measured = stages.serve(ROOT, workdir, args.seed, args.seconds, trace)
        else:
            measured = stages.stream(args.seed, args.seconds, trace)
    except stages.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(measured.metrics) != set(units):
        raise RuntimeError(f"{args.workload} measured {sorted(measured.metrics)}, "
                           f"the manifest names {sorted(units)}")
    metrics = {}
    for name, (value, samples) in measured.metrics.items():
        metrics[name] = {"value": float(value), "unit": units[name]}
        print(f"{name:34s} {value:14.4f} {units[name]:6s} n={int(samples)}")
    error_rate = measured.failed / measured.attempted
    extra = [*measured.report, ("error_rate", error_rate, "ratio", measured.attempted)]
    for name, value, unit, samples in extra:
        print(f"  {name:32s} {value:14.4f} {unit:6s} n={int(samples)}")
    print(json.dumps({"correct": True, "attempted": measured.attempted,
                      "failed": measured.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
