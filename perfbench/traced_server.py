"""``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/traced_server.py DUMP_JSON serve CKPT --port 0

Runs the ``repro`` command line (everything after ``DUMP_JSON``) in this
process with every call of :data:`timing.WRAPPED` timed.  On ``SIGUSR1``
it writes the counts so far to ``DUMP_JSON``, replacing the file in one
rename, so the benchmark can take them before and after each load phase.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

import timing


def main(dump_path: str, argv: list) -> None:
    from repro.experiments.cli import main as cli_main

    timer = timing.wrap_layers(timing.LayerTimer())

    def dump(signum, frame):
        partial = f"{dump_path}.partial"
        Path(partial).write_text(json.dumps(timer.snapshot()))
        os.replace(partial, dump_path)

    signal.signal(signal.SIGUSR1, dump)
    with timer:
        cli_main(argv)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
