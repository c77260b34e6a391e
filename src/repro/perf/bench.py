"""The ``bench`` reproduce entry: hot-path workloads pinned by digest.

Each workload runs once from *cold* in-process caches
(:func:`~repro.perf.cache.clear_process_caches`) and is reduced to a
SHA-256 :func:`~repro.reproduce.digest.result_digest` of everything it
computed.  :func:`run_bench` returns ``{name, points, digest}`` rows,
which the ``bench`` registry entry of ``repro reproduce`` pins exactly
against ``benchmarks/goldens/bench.json``.  Wall times are perfbench's
business (``perfbench/README.md``), not this module's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..reproduce.digest import result_digest
from .cache import clear_process_caches

#: Benchmark registry: name -> factory() -> (workload, points).
#: Each workload() call performs one full measurement and returns a
#: JSON-able digest of everything it computed.
_BENCHES: Dict[str, Callable] = {}


def _bench(name: str):
    def register(factory):
        _BENCHES[name] = factory
        return factory
    return register


def bench_names() -> List[str]:
    """Registered benchmark names, in definition order."""
    return list(_BENCHES)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _compile_inputs():
    from ..arch import isaac_baseline
    from ..models import resnet18

    return resnet18(), isaac_baseline().with_xb_size((128, 256))


@_bench("compile")
def _bench_compile() -> Tuple[Callable, int]:
    """One full multi-level compile (schedule + simulate)."""
    from ..sched import CIMMLC

    graph, arch = _compile_inputs()

    def workload():
        result = CIMMLC(arch).compile(graph)
        return {"total_cycles": result.report.total_cycles,
                "op_latency": result.report.op_latency,
                "peak_power": result.report.power.peak_power}

    return workload, len(graph)


@_bench("duplication")
def _bench_duplication() -> Tuple[Callable, int]:
    """The two CG duplication searches over the whole model.

    Repeated to model the sweep/fleet reality where the same search
    keys recur, so the within-workload search memo is exercised too.
    """
    from ..sched.cg import duplicate_min_bottleneck, duplicate_min_total
    from ..sched.costs import CostModel

    graph, arch = _compile_inputs()
    profiles = list(CostModel(arch).profiles(graph).values())
    repeats = 10

    def workload():
        digest = []
        for _ in range(repeats):
            digest.append(duplicate_min_bottleneck(
                profiles, arch.chip.core_number))
            digest.append(duplicate_min_total(
                profiles, arch.chip.core_number))
        return digest

    return workload, repeats * 2


@_bench("placement")
def _bench_placement() -> Tuple[Callable, int]:
    """Greedy NoC placement of every segment of a compiled schedule
    (repeated, so the placement memo is exercised too)."""
    from ..sched import CIMMLC
    from ..sched.placement import annotate_placement

    graph, arch = _compile_inputs()
    schedule = CIMMLC(arch).schedule(graph)
    repeats = 10

    def workload():
        placements = {}
        for _ in range(repeats):
            for seg in range(len(schedule.segments)):
                placements.update(annotate_placement(schedule, segment=seg))
        return {name: list(cores) for name, cores in placements.items()}

    return workload, len(schedule.segments)


@_bench("perf_sim")
def _bench_perf_sim() -> Tuple[Callable, int]:
    """The performance simulator alone, on a prebuilt schedule."""
    from ..sched import CIMMLC
    from ..sim.performance import PerformanceSimulator

    graph, arch = _compile_inputs()
    schedule = CIMMLC(arch).schedule(graph)
    repeats = 50

    def workload():
        report = None
        for _ in range(repeats):
            report = PerformanceSimulator(arch).run(schedule)
        return {"total_cycles": report.total_cycles,
                "op_latency": report.op_latency,
                "intervals": list(report.segment_intervals)}

    return workload, repeats


@_bench("power")
def _bench_power() -> Tuple[Callable, int]:
    """The power/energy model alone, on a prebuilt schedule.

    Pins the power/energy numbers separately from the latency
    simulation, so a change in either is attributed to its model.
    """
    from ..sched import CIMMLC
    from ..sim.power import PowerModel

    graph, arch = _compile_inputs()
    schedule = CIMMLC(arch).schedule(graph)
    repeats = 50

    def workload():
        model = PowerModel(arch)
        report = None
        for _ in range(repeats):
            report = model.evaluate(schedule, total_cycles=1e6)
        return {"peak_power": report.peak_power,
                "avg_power": report.avg_power,
                "energy": [report.energy_crossbar, report.energy_converter,
                           report.energy_movement,
                           report.energy_reconfiguration],
                "write_energy": model.weight_write_energy(schedule)}

    return workload, repeats


@_bench("sweep_fig22")
def _bench_sweep_fig22() -> Tuple[Callable, int]:
    """The Fig. 22(a) sensitivity sweep (ViT-Tiny, all four series)."""
    from ..experiments.fig22 import fig22a_cores
    from ..explore import SweepRunner
    from ..models import vit_tiny

    cores = (256, 512, 768, 1024)
    graph = vit_tiny()

    def workload():
        result = fig22a_cores(core_numbers=cores, graph=graph,
                              runner=SweepRunner())
        return result.as_dict()

    return workload, len(cores) * 4


@_bench("serve_capacity")
def _bench_serve_capacity() -> Tuple[Callable, int]:
    """A 2-tenant serve capacity sweep riding the explore bridge."""
    from ..arch import get_preset
    from ..explore import SweepRunner
    from ..serve import TenantSpec, serve_sweep

    arch = get_preset("isaac-flash")
    specs = [TenantSpec("resnet18", "resnet18", 4.0),
             TenantSpec("mobilenet", "mobilenet", 1.0)]
    rates = [5e-6, 10e-6, 22e-6]
    requests = 300

    def workload():
        points = serve_sweep(arch, specs, rates, num_requests=requests,
                             runner=SweepRunner())
        return [{"rate": p.rate, "mode": p.mode, "policy": p.policy,
                 **p.report.to_dict()} for p in points]

    return workload, len(rates) * 2


@_bench("fleet")
def _bench_fleet() -> Tuple[Callable, int]:
    """A replicated fleet under a diurnal+bursty trace with autoscaling.

    The digest covers the full :class:`~repro.fleet.FleetReport` dict,
    so any change in trace generation, routing, admission, or scaling
    changes it.
    """
    from ..arch import get_preset
    from ..fleet import (
        AdmissionControl,
        Autoscaler,
        build_fleet,
        simulate_fleet,
    )
    from ..serve import TenantSpec, make_trace

    arch = get_preset("isaac-flash")
    specs = [TenantSpec("resnet18", "resnet18", 4.0),
             TenantSpec("mobilenet", "mobilenet", 1.0)]
    replicas = 8
    requests = 20_000

    def workload():
        fleet = build_fleet(arch, specs, replicas=replicas)
        trace = make_trace("diurnal-bursty", specs, rate=120e-6,
                           num_requests=requests, seed=0)
        report = simulate_fleet(
            fleet, trace,
            admission=AdmissionControl(max_outstanding=64),
            autoscaler=Autoscaler(min_replicas=2))
        return report.to_dict()

    return workload, requests


@_bench("trace")
def _bench_trace() -> Tuple[Callable, int]:
    """Trace capture + critical path + a link-grid what-if replay.

    Shards a model, records the pipeline trace, extracts its critical
    path, and re-prices a link-bandwidth grid through
    :func:`repro.trace.replay` instead of re-simulating.  The result is
    the recording's SHA-256 plus every replayed metric set, so a change
    anywhere in capture or replay changes the digest; the workload
    additionally refuses to report if identity replay is not
    bit-identical to the recording.
    """
    from ..arch import MultiChipSystem, isaac_baseline
    from ..models import resnet18
    from ..scale import shard
    from ..trace import Mutation, critical_path, record_shard, replay

    graph = resnet18()
    arch = isaac_baseline()
    bandwidths = (16.0, 64.0, 256.0, 1024.0)

    def workload():
        plan = shard(graph, MultiChipSystem(arch, 3))
        trace = record_shard(plan)
        if replay(trace).trace.digest() != trace.digest():
            raise RuntimeError(
                "identity replay diverged from the recording")
        cp = critical_path(trace)
        rows = [{"digest": trace.digest(), "cp_total": cp.total,
                 "cp_by_category": cp.by_category}]
        for bw in bandwidths:
            result = replay(trace, Mutation(link_bandwidth=bw))
            rows.append({"bw": bw, **result.metrics})
        return rows

    return workload, len(bandwidths) + 1


@_bench("faults")
def _bench_faults() -> Tuple[Callable, int]:
    """Degraded planning plus fault-injected fleet serving.

    Builds a serving plan around a spread of dead cores, then runs a
    fleet with drift rewrites and a mid-trace chip death.  The digest
    covers the degraded serve report, the fault-injected fleet report
    (availability ledger included), and the fault-free fleet report;
    the workload refuses to report if a zero-fault run diverges from
    the fault-free one.
    """
    from ..arch import isaac_baseline
    from ..faults import FaultModel, plan_degraded, spread_mask
    from ..fleet import build_fleet, simulate_fleet
    from ..serve import TenantSpec, make_trace, simulate

    arch = isaac_baseline()
    specs = [TenantSpec("resnet18", "resnet18", 4.0),
             TenantSpec("mobilenet", "mobilenet", 1.0)]
    requests = 6_000
    kill = 96

    def workload():
        mask = FaultModel(
            dead_cores=spread_mask(arch.chip.core_number, kill))
        degraded = plan_degraded(arch, specs, mask)
        trace = make_trace("poisson", specs, rate=50e-6,
                           num_requests=requests, seed=0)
        serve_report = simulate(degraded, trace)
        fleet = build_fleet(arch, specs, replicas=4)
        horizon = trace[-1].arrival
        injected = FaultModel(drift_interval=horizon / 6,
                              chip_death_time=horizon / 2,
                              chip_death_rid=1)
        faulty = simulate_fleet(fleet, trace, fault=injected)
        clean = simulate_fleet(fleet, trace)
        zero = simulate_fleet(fleet, trace, fault=FaultModel())
        if zero.digest() != clean.digest():
            raise RuntimeError(
                "zero-fault run diverged from the fault-free run")
        return [serve_report.to_dict(), faulty.to_dict(),
                clean.to_dict()]

    return workload, requests


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_bench(names: Optional[Sequence[str]] = None) -> List[Dict]:
    """Run the selected workloads, each once from cold in-process
    caches, and return one ``{name, points, digest}`` row per workload
    (the ``bench`` golden's payload rows)."""
    chosen = list(names) if names else bench_names()
    unknown = [n for n in chosen if n not in _BENCHES]
    if unknown:
        raise KeyError(f"unknown benchmarks {unknown}; "
                       f"choose from {bench_names()}")
    rows: List[Dict] = []
    for name in chosen:
        workload, points = _BENCHES[name]()
        clear_process_caches()
        rows.append({"name": name, "points": points,
                     "digest": result_digest(workload())})
    return rows
