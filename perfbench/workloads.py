"""The four workloads: their inputs, their timed ops, and each op's check.

Every workload calls only public entry points of ``repro``.  Each process
runs one *pass* of one workload; a pass never repeats an input that a
process-wide cache of the program could have kept, so every op starts as
cold as it would in a fresh ``repro`` process.

An op's ``call`` is the timed production path; its ``check`` runs after
the clock stops, raises :class:`CheckFailed` on a wrong output, and
returns the op's simulated figure and the payload of the output digest.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional

from .spans import Layer
from .stats import geomean

Span = Callable[[str], ContextManager[None]]


class CheckFailed(Exception):
    """An op returned an output that fails its check."""


@dataclass
class Checked:
    """What an op's check returns."""

    sim: Optional[float]            # simulated figure, None for none
    digest: Any                     # JSON-able payload of the output digest
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class Op:
    """One timed call and its check."""

    kind: str
    label: str
    items: int                      # work items the op stands for
    call: Callable[[Span], Any]
    check: Callable[[Any], Checked]


@dataclass
class Pass:
    """One process's share of a workload."""

    ops: List[Op]
    #: Kind of op the latency metrics are taken over.
    primary: str
    #: Name of the simulated figure, for the printed report.
    sim_name: str


def _finite_positive(value: float, what: str) -> float:
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and value > 0):
        raise CheckFailed(f"{what} is {value!r}, not finite and > 0")
    return float(value)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# ---------------------------------------------------------------------------
# compile-zoo
# ---------------------------------------------------------------------------

#: Small graphs the functional simulator runs in well under a second.
VERIFY_MODELS = ("tiny-conv", "lenet", "mlp", "conv-relu")


def _compile_op(model: str, preset: str) -> Op:
    from repro import arch, models, sched

    def call(span: Span):
        target = arch.get_preset(preset)
        with span("models.build"):
            graph = models.MODEL_ZOO[model]()
        return sched.CIMMLC(target).compile(graph)

    def check(result) -> Checked:
        cycles = _finite_positive(result.total_cycles,
                                  f"{model}@{preset} total_cycles")
        return Checked(cycles, [model, preset, repr(cycles)])

    return Op("compile", f"{model}@{preset}", 1, call, check)


def _verify_op(model: str, mode_name: str, seed: int) -> Op:
    import numpy as np

    from repro import arch, models, mops, quant, sched
    from repro.sched import lowering
    from repro.sim import functional, reference

    mode = arch.ComputingMode[mode_name]
    target = arch.functional_testbed(mode)
    graph = models.MODEL_ZOO[model]()
    weights = quant.random_weights(graph, seed=seed, low=-4, high=4)
    inputs = quant.random_input(graph, seed=seed + 100)

    def call(span: Span):
        schedule = sched.CIMMLC(target).schedule(graph)
        program = lowering.lower_to_flow(schedule, weights)
        mops.FlowValidator(target).validate(program.flow)
        machine = functional.CIMMachine(target)
        machine.run(program, inputs)
        got = {out: machine.read_tensor(program, out,
                                        graph.tensors[out].shape)
               for out in graph.outputs}
        expected = reference.ReferenceExecutor(graph, weights).run(inputs)
        return got, expected

    def check(out) -> Checked:
        got, expected = out
        for name in graph.outputs:
            want = np.asarray(expected[name]).astype(np.float64)
            if got[name].shape != want.shape or \
                    not np.array_equal(got[name], want):
                raise CheckFailed(f"{model} in {mode_name}: output {name!r} "
                                  f"differs from the reference executor")
        return Checked(None, [model, mode_name] + [
            got[name].tobytes().hex() for name in graph.outputs])

    return Op("verify", f"{model}/{mode_name}", 1, call, check)


def compile_zoo(seed: int, index: int, tiny: bool = False) -> Pass:
    """Every zoo model on every preset, cold and in seeded order, then
    verified codegen for four small graphs in all three modes."""
    from repro import arch, models

    model_names = sorted(models.MODEL_ZOO)
    preset_names = sorted(arch.PRESETS)
    verify_models, modes = VERIFY_MODELS, ("CM", "XBM", "WLM")
    if tiny:
        model_names, preset_names = ["lenet", "mlp"], ["isaac-baseline"]
        verify_models, modes = ("tiny-conv",), ("XBM",)
    rng = _rng("compile-zoo", seed, index)
    pairs = [(m, p) for m in model_names for p in preset_names]
    rng.shuffle(pairs)
    ops = [_compile_op(m, p) for m, p in pairs]
    # Verify inputs depend on the seed alone, so every pass of a run
    # produces the same output digest.
    data = _rng("compile-zoo-verify", seed, 0)
    ops += [_verify_op(m, mode, data.randrange(1 << 16))
            for m in verify_models for mode in modes]
    return Pass(ops, primary="compile", sim_name="geomean total_cycles")


# ---------------------------------------------------------------------------
# sweep-cached and shard-links
# ---------------------------------------------------------------------------


def _sweep_op(kind: str, label: str, space, sim_key: str) -> Op:
    from repro import explore

    points = list(space)

    def call(span: Span):
        return explore.SweepRunner(workers=1, cache_dir=None).run(space)

    def check(result) -> Checked:
        rows = list(result)
        if len(rows) != len(points):
            raise CheckFailed(f"{len(rows)} results for {len(points)} points")
        values, payload = [], []
        for point, row in zip(points, rows):
            if row.label != point.label or row.series != point.series:
                raise CheckFailed(f"result {row.label}/{row.series} out of "
                                  f"order (expected {point.label}/"
                                  f"{point.series})")
            value = _finite_positive(row.summary[sim_key],
                                     f"{point.label}/{point.series} "
                                     f"{sim_key}")
            values.append(value)
            payload.append([point.graph.name, point.label, point.series,
                            repr(value)])
        return Checked(geomean(values), sorted(payload),
                       {"explore.points_deduped": result.deduped})

    return Op(kind, label, len(points), call, check)


def sweep_cached(seed: int, index: int, tiny: bool = False) -> Pass:
    """Cold single-chip sweeps, one per model, run back to back in one
    process: the same work as one sweep over all three models, since the
    program's process-wide caches carry over from one sweep to the next
    as they would from point to point, timed in three parts."""
    from repro import arch, explore, models

    names = ["resnet18", "vit-tiny", "mobilenet"]
    cores = [256, 384, 512, 640, 768, 1024]
    xbs = [(128, 128), (128, 256)]
    if tiny:
        names, cores, xbs = ["lenet"], [256, 512], [(128, 128)]
    rng = _rng("sweep-cached", seed, index)
    for axis in (names, cores, xbs):
        rng.shuffle(axis)
    ops = [_sweep_op("sweep", name, explore.SweepSpace.grid(
        arch.isaac_baseline(), models.MODEL_ZOO[name](),
        {"cores": cores, "xb_size": xbs}), "total_cycles") for name in names]
    return Pass(ops, primary="sweep", sim_name="geomean total_cycles")


def shard_links(seed: int, index: int, tiny: bool = False) -> Pass:
    """Cold multi-chip sweeps, one per (chip count, link bandwidth), run
    back to back in one process: the same work as one sweep over both
    axes, for the reason given in :func:`sweep_cached`, timed in nine
    parts."""
    from repro import arch, explore, models

    model, chips, link_bw = "resnet18", [2, 3, 4], [16, 64, 256]
    if tiny:
        model, chips, link_bw = "lenet", [2], [16, 64]
    rng = _rng("shard-links", seed, index)
    pairs = [(n, bw) for n in chips for bw in link_bw]
    rng.shuffle(pairs)
    graph = models.MODEL_ZOO[model]()
    ops = [_sweep_op("shard", f"chips={n},link_bw={bw}",
                     explore.SweepSpace.grid(arch.isaac_baseline(), graph,
                                             {"chips": [n], "link_bw": [bw]}),
                     "steady_state_interval") for n, bw in pairs]
    return Pass(ops, primary="shard", sim_name="geomean steady_state_interval")


# ---------------------------------------------------------------------------
# fleet-diurnal
# ---------------------------------------------------------------------------


def fleet_diurnal(seed: int, index: int, tiny: bool = False) -> Pass:
    """Plan an 8-replica fleet once, then serve eight seeded diurnal-bursty
    traces through it with admission control and autoscaling, exporting
    each report."""
    from repro import arch, fleet, serve

    preset, replicas, requests, traces = "isaac-flash", 8, 12_500, 8
    tenants = [("resnet18", 4.0), ("mobilenet", 1.0)]
    if tiny:
        preset, replicas, requests, traces = "functional-testbed", 2, 100, 2
        tenants = [("lenet", 4.0), ("mlp", 1.0)]
    target = arch.get_preset(preset)
    specs = [serve.TenantSpec(name, name, weight) for name, weight in tenants]
    built: Dict[str, Any] = {}

    def plan_call(span: Span):
        built["plan"] = fleet.build_fleet(target, specs, replicas=replicas)
        return built["plan"]

    def plan_check(plan) -> Checked:
        if plan.size != replicas:
            raise CheckFailed(f"{plan.size} replicas planned, not {replicas}")
        return Checked(None, [plan.arch_name, list(plan.tenant_names),
                              plan.size])

    def serve_op(trace_seed: int) -> Op:
        def call(span: Span):
            trace = serve.make_trace("diurnal-bursty", specs, rate=120e-6,
                                     num_requests=requests, seed=trace_seed)
            report = fleet.simulate_fleet(
                built["plan"], trace,
                admission=fleet.AdmissionControl(max_outstanding=64),
                autoscaler=fleet.Autoscaler(min_replicas=2))
            return len(trace), report.to_dict()

        def check(out) -> Checked:
            arrived, report = out
            if report["completed"] + report["rejected"] != arrived:
                raise CheckFailed(f"{report['completed']} completed + "
                                  f"{report['rejected']} rejected != "
                                  f"{arrived} requests")
            p99 = _finite_positive(report["p99"], "p99 latency")
            return Checked(p99, report, {
                "fleet.requests_completed": report["completed"],
                "fleet.requests_rejected": report["rejected"],
                "fleet.scale_events": len(report["scale_events"])})

        return Op("fleet", f"trace {trace_seed}: {requests} requests",
                  requests, call, check)

    # Trace seeds depend on the seed alone, so every pass serves the
    # same traces and produces the same output digest.
    data = _rng("fleet-diurnal", seed, 0)
    ops = [Op("plan", f"plan of {replicas} replicas", 0, plan_call,
              plan_check)]
    ops += [serve_op(data.randrange(1 << 31)) for _ in range(traces)]
    return Pass(ops, primary="fleet", sim_name="geomean p99 latency")


#: Workload name -> pass builder ``(seed, index, tiny) -> Pass``.
WORKLOADS: Dict[str, Callable[..., Pass]] = {
    "compile-zoo": compile_zoo,
    "sweep-cached": sweep_cached,
    "shard-links": shard_links,
    "fleet-diurnal": fleet_diurnal,
}


#: The program's public names the traced run wraps, by layer.
LAYERS = [
    Layer("repro.sched.costs:CostModel.profiles", "sched.costs.profiles",
          "sched.costs.ops_profiled", len),
    Layer("repro.sched.cg:schedule_cg", "sched.cg"),
    Layer("repro.sched.cg:segment_graph", "sched.cg.segment",
          "sched.cg.segments", len),
    Layer("repro.sched.cg:duplicate_min_bottleneck", "sched.cg.duplicate",
          "sched.cg.duplicate_calls"),
    Layer("repro.sched.cg:duplicate_min_total", "sched.cg.duplicate",
          "sched.cg.duplicate_calls"),
    Layer("repro.sched.mvm:schedule_mvm", "sched.mvm"),
    Layer("repro.sched.vvm:schedule_vvm", "sched.vvm"),
    Layer("repro.sched.placement:annotate_placement", "sched.placement"),
    Layer("repro.sim.performance:PerformanceSimulator.run",
          "sim.performance"),
    Layer("repro.sim.power:PowerModel.evaluate", "sim.power"),
    Layer("repro.sched.lowering:lower_to_flow", "sched.lowering",
          "mops.statements", lambda program: len(program.flow)),
    Layer("repro.mops.validate:FlowValidator.validate", "mops.validate"),
    Layer("repro.sim.functional:CIMMachine.run", "sim.functional"),
    Layer("repro.sim.reference:ReferenceExecutor.run", "sim.reference"),
    Layer("repro.explore.runner:SweepRunner.run", "explore.runner"),
    Layer("repro.explore.runner:evaluate_point", "explore.evaluate",
          "explore.points_evaluated"),
    Layer("repro.scale.partition:partition_layers", "scale.partition"),
    Layer("repro.scale.shard:shard", "scale.shard"),
    Layer("repro.fleet.plan:build_fleet", "fleet.plan"),
    Layer("repro.serve.workload:make_trace", "serve.workload.trace"),
    Layer("repro.fleet.engine:simulate_fleet", "fleet.engine"),
    Layer("repro.fleet.report:FleetReport.to_dict", "fleet.report"),
]

#: Layers recorded at the benchmark's own call sites, not by wrapping.
CALL_SITE_LAYERS = ["models.build"]
