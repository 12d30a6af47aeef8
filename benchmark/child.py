"""Child processes started by ``run.py``.

    python3 benchmark/child.py setup <workload>
        In this fresh process, time ``import jordanet.cli`` plus the
        workload's one-time builds, and print their CPU seconds.
    python3 benchmark/child.py trace <span file> <jordanet args...>
        Run ``jordanet.cli.main`` with the layer wrappers installed, write
        the spans to <span file> when it returns, and exit with its code.

The parent sets PYTHONPATH (checkout ``src`` first) and JORDANET_CACHE_DIR.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str) -> int:
    from workloads import WORKLOADS

    prepare = WORKLOADS[workload].prepare
    start = time.process_time()
    prepare(ROOT)
    print(f"{time.process_time() - start!r}")
    return 0


def trace(span_file: str, argv: list) -> int:
    from tracing import Recorder, install

    import jordanet.cli

    recorder = Recorder()
    install(recorder)
    try:
        code = jordanet.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(span_file).write_text(json.dumps(
            {"spans": recorder.spans, "rref_shapes": recorder.rref_shapes}))
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest[0]))
    sys.exit(trace(rest[0], rest[1:]))
