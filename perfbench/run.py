"""Absolute host-time benchmark of the compile -> sweep -> shard -> fleet stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-zoo --seed 1 --seconds 30 --trace 0

Runs closed-loop passes of one workload, one after another, each in a
fresh single-threaded ``python3 -m perfbench.worker`` process, until the
next pass would overrun ``--seconds``.  Prints every metric by name and
unit, then one JSON object as the last line: ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (every other pass
traced, the rest untraced to price the tracing).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, percentile, tail_percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CALL_SITE_LAYERS,
    LAYERS,
    WORKLOADS,
)

#: End-to-end metrics: name -> (unit, what kind of time it is).
END_TO_END = {
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "success_rate": ("fraction", "outcome"),
    "items_per_s": ("1/s", "host"),
    "op_p50_ms": ("ms", "host"),
    "op_tail_ms": ("ms", "host"),
    "sim_result_cycles": ("cycles", "simulated"),
}

#: Per-layer self times, in layer order (call-site layers first).
LAYER_NAMES = list(dict.fromkeys(CALL_SITE_LAYERS
                                 + [spec.layer for spec in LAYERS]))

#: Per-layer counters: span counters first, then output counters.
COUNTERS = list(dict.fromkeys(
    [spec.counter for spec in LAYERS if spec.counter]
    + ["explore.points_deduped", "fleet.requests_completed",
       "fleet.requests_rejected", "fleet.scale_events"]))


#: What ``items_per_s`` counts, by the workload's primary op kind.
ITEMS = {"compile": "compiled networks", "sweep": "sweep points",
         "shard": "sweep points", "fleet": "simulated requests"}


def per_layer_metrics() -> Dict[str, str]:
    """Every per-layer metric name -> unit."""
    out = {f"{layer}_ms": "ms" for layer in LAYER_NAMES}
    out.update({name: "count" for name in COUNTERS})
    out.update({"fleet.engine_us_per_request": "us",
                "unattributed_ms": "ms",
                "trace_overhead_ratio": "ratio"})
    return out


#: Time of the worker's calibration loop on the reference host.  Host
#: times are reported at reference speed, divided by the measured loop
#: time over this one (around each op for op times, over the run for
#: set-up), because the host's own speed drifts by up to a fifth from
#: one minute to the next.  The times as taken are printed too.
REFERENCE_LOOP_S = 0.010

#: Ceiling on one run, inside the 180 s every run must end within.
HARD_LIMIT_S = 165.0

#: Environment variables that switch the program's caches or code paths.
SCRUBBED_PREFIX = "REPRO_"


def worker_env(cache_dirs: Dict[str, Path]) -> Dict[str, str]:
    """Hermetic worker environment: no ``REPRO_*`` switch survives, every
    on-disk cache points into an empty temp dir, numeric libraries use
    one thread, and string hashing is fixed so outputs repeat."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_PREFIX) and k != "PYTHONPATH"}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_CACHE_DIR": str(cache_dirs["explore"]),
        "REPRO_COMPILE_CACHE_DIR": str(cache_dirs["compile"]),
    })
    return env


def run_worker(workload: str, seed: int, index: int, traced: bool,
               env: Dict[str, str], timeout: float
               ) -> Tuple[Optional[Dict], str]:
    """One pass in a fresh process: ``(result, "")`` or ``(None, why)``.

    Set-up time runs from just before the process is spawned to the
    worker's ``ready`` stamp; both read the same monotonic clock.
    """
    cmd = [sys.executable, "-m", "perfbench.worker", workload, str(seed),
           str(index), "1" if traced else "0"]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"pass {index} killed after {timeout:.0f} s"
    except BaseException:
        # Interrupted: leave no worker behind.
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, f"pass {index} exited {proc.returncode}: {tail[0]}"
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = traced
    return result, ""


def host_speed(passes: List[Dict]) -> float:
    """How much slower than the reference the host ran during ``passes``:
    their median calibration-loop time over :data:`REFERENCE_LOOP_S`."""
    return median([c for p in passes for c in p["calibration_s"]]) \
        / REFERENCE_LOOP_S


def reference_wall(p: Dict, op: Dict) -> float:
    """An op's host time at reference speed, by the calibration samples
    taken just before and just after it."""
    cal = p["calibration_s"]
    return op["wall_s"] * 2 * REFERENCE_LOOP_S \
        / (cal[op["sample"]] + cal[op["sample"] + 1])


def reference_pass_wall(p: Dict) -> float:
    """Host seconds of every op of one pass, at reference speed."""
    return sum(reference_wall(p, op) for op in p["ops"])


def pass_wall(p: Dict) -> float:
    """Host seconds of every op of one pass."""
    return sum(op["wall_s"] for op in p["ops"])


def outcome(passes: List[Dict], crashed: int) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, errors)``: every op, every crashed process,
    and one digest check per clean pass (all must agree)."""
    attempted, failed, errors = crashed, crashed, []
    reference = None
    for p in passes:
        bad = [op for op in p["ops"] if not op["ok"]]
        attempted += len(p["ops"])
        failed += len(bad)
        errors += [f"{op['label']}: {op['error']}" for op in bad]
        if bad:
            continue
        attempted += 1
        reference = reference or p["digest"]
        if p["digest"] != reference:
            failed += 1
            errors.append(f"output digest {p['digest'][:16]} != "
                          f"{reference[:16]} of an earlier pass")
    return attempted, failed, errors


def end_to_end(passes: List[Dict], attempted: int, failed: int
               ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end metric values, and a note on how each was taken."""
    primary = passes[0]["primary"]
    done = [(p, op) for p in passes for op in p["ops"] if op["ok"]]
    walls = [reference_wall(p, op) for p, op in done if op["kind"] == primary]
    timed = [op["wall_s"] for _, op in done if op["kind"] == primary]
    per_pass = sum(op["kind"] == primary for op in passes[0]["ops"])
    q = tail_percentile(per_pass) or 50.0
    items = sum(op["items"] for _, op in done)
    setup = median([p["setup_s"] for p in passes])
    values = {
        "setup_s": setup / host_speed(passes),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024.0,
        "success_rate": (attempted - failed) / attempted,
        "items_per_s": items / sum(reference_wall(p, op) for p, op in done),
        "op_p50_ms": median(walls) * 1e3,
        "op_tail_ms": percentile(walls, q) * 1e3,
        "sim_result_cycles": median([p["sim"] for p in passes
                                     if p["sim"] is not None]),
    }
    as_timed = {
        "setup_s": setup,
        "items_per_s": items / sum(op["wall_s"] for _, op in done),
        "op_p50_ms": median(timed) * 1e3,
        "op_tail_ms": percentile(timed, q) * 1e3,
    }
    notes = {
        "setup_s": f"median of {len(passes)} fresh processes",
        "peak_rss_mb": f"max of {len(passes)} processes",
        "success_rate": f"{attempted - failed} of {attempted} ops passed",
        "items_per_s": f"{items} {ITEMS[primary]} over the host time of "
                       f"{len(done)} ops",
        "op_p50_ms": f"median of {len(walls)} {primary} ops",
        "op_tail_ms": f"p{q:g} of {len(walls)} {primary} ops "
                      f"({per_pass} per pass)",
        "sim_result_cycles": passes[0]["sim_name"],
    }
    for name, value in as_timed.items():
        notes[name] += f"; {value:.6g} as timed"
    return values, notes


def layer_self_check(p: Dict) -> float:
    """``layer self times + unattributed - op wall`` for a traced pass;
    0 up to rounding when every span closed inside its op."""
    return sum(p["self_s"].values()) + p["unattributed_s"] - pass_wall(p)


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    """Per-layer metric values, each a mean per traced pass, times at
    reference speed."""
    n = len(traced)

    def mean(get) -> float:
        return sum(get(p) for p in traced) / n

    def mean_ms(get) -> float:
        return mean(lambda p: get(p) / host_speed([p])) * 1e3

    values = {f"{layer}_ms": mean_ms(lambda p: p["self_s"].get(layer, 0.0))
              for layer in LAYER_NAMES}
    for name in COUNTERS:
        values[name] = mean(lambda p: p["span_counts"].get(
            name, p["counters"].get(name, 0)))
    requests = mean(lambda p: sum(op["items"] for op in p["ops"]
                                  if op["kind"] == "fleet"))
    values["fleet.engine_us_per_request"] = \
        values["fleet.engine_ms"] * 1e3 / requests if requests else 0.0
    values["unattributed_ms"] = mean_ms(lambda p: p["unattributed_s"])
    values["trace_overhead_ratio"] = (
        median([reference_pass_wall(p) for p in traced])
        / median([reference_pass_wall(p) for p in untraced]))
    return values


def measure(args: argparse.Namespace, tmp: Path) -> int:
    cache_dirs = {"explore": tmp / "explore-cache",
                  "compile": tmp / "compile-cache"}
    for d in cache_dirs.values():
        d.mkdir()
    env = worker_env(cache_dirs)
    start = time.perf_counter()
    deadline = start + args.seconds
    min_passes = 4 if args.trace else 3
    passes: List[Dict] = []
    crashed, problems, durations = 0, [], []
    index = 0
    while True:
        now = time.perf_counter()
        typical = median(durations) if durations else 0.0
        if index >= min_passes and now + typical > deadline:
            break
        budget = start + HARD_LIMIT_S - now
        if budget <= typical:
            break
        traced = bool(args.trace) and index % 2 == 0
        result, why = run_worker(args.workload, args.seed, index, traced,
                                 env, budget)
        durations.append(time.perf_counter() - now)
        index += 1
        if result is None:
            crashed += 1
            problems.append(why)
        else:
            passes.append(result)
    leftovers = [str(path) for d in cache_dirs.values()
                 for path in d.iterdir()]
    if leftovers:
        crashed += 1
        problems.append(f"on-disk cache written during the run: "
                        f"{leftovers[:3]}")

    for why in problems:
        print(f"perfbench: {why}", file=sys.stderr)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no pass completed; no result", file=sys.stderr)
        return 1
    attempted, failed, errors = outcome(passes, crashed)
    for err in errors[:20]:
        print(f"perfbench: failed op: {err}", file=sys.stderr)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: python {platform.python_version()}, numpy "
          f"{passes[0]['numpy']}, nproc {os.cpu_count()}, calibration loop "
          f"{host_speed(passes) * REFERENCE_LOOP_S * 1e3:.3f} ms (reference "
          f"{REFERENCE_LOOP_S * 1e3:g} ms; host times below are scaled to "
          f"it), {len(passes)} passes in {time.perf_counter() - start:.1f} s")
    print(f"ops: {attempted} attempted, {failed} failed; output digest "
          f"{passes[0]['digest']}")
    if args.trace:
        values = per_layer(traced, untraced)
        units = per_layer_metrics()
        absent = sorted({t for p in traced for t in p["absent"]})
        print(f"layers (means over {len(traced)} traced passes; "
              f"absent: {', '.join(absent) or 'none'}; self + unattributed "
              f"- op wall = "
              f"{max(abs(layer_self_check(p)) for p in traced):.2e} s)")
        for name, unit in units.items():
            print(f"  {name} = {values[name]:.6g} {unit}")
    else:
        values, notes = end_to_end(untraced, attempted, failed)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        for name, (unit, kind) in END_TO_END.items():
            print(f"  {name} = {values[name]:.6g} {unit}  [{kind}; "
                  f"{notes[name]}]")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running worker
    # is killed and reaped and the temp dir removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; this "
              f"checkout holds no program to measure", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
