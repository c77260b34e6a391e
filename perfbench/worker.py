"""One pass of one workload in a fresh process.

Run by ``perfbench/run.py`` as ``python3 -m perfbench.worker WORKLOAD SEED
INDEX TRACE`` from the checkout root.  Prints one JSON line: when set-up
ended on the shared monotonic clock, each op's host time and outcome, the
pass's output digest, its peak RSS, samples of a calibration loop taken
between ops, and, when traced, the layer self times.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from typing import Dict, List, Optional

from .spans import SpanRecorder, install, no_span
from .stats import geomean
from .workloads import LAYERS, WORKLOADS, Pass

#: Host seconds of ops between two calibration samples.
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, the same in every process,
    so results taken at different times or on different machines can be
    put side by side."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def run_pass(work: Pass, recorder: Optional[SpanRecorder] = None) -> Dict:
    """Time and check every op of ``work``; an op that raises or fails
    its check is counted as failed and the pass goes on.  The host's speed
    is sampled before, after, and every :data:`CALIBRATE_EVERY_S` between
    the ops."""
    span = recorder.span if recorder is not None else no_span
    ops: List[Dict] = []
    digests, sims = [], []
    counters: Dict[str, int] = {}
    unattributed = 0.0
    calibration = [calibrate()]
    sampled = time.perf_counter()
    for op in work.ops:
        if time.perf_counter() - sampled >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            sampled = time.perf_counter()
        covered = recorder.root_s if recorder is not None else 0.0
        record = {"kind": op.kind, "label": op.label, "items": op.items,
                  "ok": False, "sample": len(calibration) - 1}
        ops.append(record)
        start = time.perf_counter()
        try:
            out = op.call(span)
        except Exception as exc:  # every failure is counted, none is fatal
            out, error = None, exc
        else:
            error = None
        record["wall_s"] = wall = time.perf_counter() - start
        if recorder is not None:
            unattributed += wall - (recorder.root_s - covered)
        if error is None:
            try:
                checked = op.check(out)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = exc
        if error is not None:
            record["error"] = "".join(traceback.format_exception_only(
                type(error), error)).strip()
            continue
        record["ok"] = True
        digests.append(checked.digest)
        if checked.sim is not None and op.kind == work.primary:
            sims.append(checked.sim)
        for name, n in checked.counters.items():
            counters[name] = counters.get(name, 0) + n
    canonical = json.dumps(sorted(json.dumps(d, sort_keys=True)
                                  for d in digests))
    calibration.append(calibrate())
    out = {"ops": ops, "counters": counters, "calibration_s": calibration,
           "sim": geomean(sims) if sims else None,
           "digest": hashlib.sha256(canonical.encode()).hexdigest()}
    if recorder is not None:
        out["self_s"] = dict(recorder.self_s)
        out["span_counts"] = dict(recorder.counts)
        out["unattributed_s"] = unattributed
    return out


def main(argv: List[str]) -> int:
    workload, seed, index, traced = argv[0], int(argv[1]), int(argv[2]), \
        argv[3] == "1"
    work = WORKLOADS[workload](seed, index)
    import numpy

    result = {"ready": time.perf_counter(), "numpy": numpy.__version__,
              "sim_name": work.sim_name, "primary": work.primary}
    recorder = None
    if traced:
        recorder = SpanRecorder()
        result["absent"], _ = install(recorder, LAYERS)
    result.update(run_pass(work, recorder))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
