"""Multi-tenant inference serving simulator.

The compiler stack answers "how fast is one inference"; this package
answers the *online* question the ROADMAP's north star poses: what
throughput, tail latency, and SLO attainment does a compiled schedule
deliver under a live request stream, when segment reconfiguration — the
dominant cost of weight movement on ReRAM/FLASH crossbars (Section 2.1)
— is paid whenever the chip switches tenants?

* :mod:`~repro.serve.workload` — seeded request traces (Poisson, bursty
  MMPP, diurnal ramp) over mixed model populations.
* :mod:`~repro.serve.partition` — spatial chip partitioning (per-tenant
  core regions, region-constrained placement, weights stay resident)
  versus the time-multiplexed baseline that reprograms crossbars on
  every tenant switch; :func:`~repro.serve.partition.plan_sharded`
  spans each tenant across several chips of a
  :class:`~repro.arch.MultiChipSystem` (via :mod:`repro.scale`).
* :mod:`~repro.serve.engine` — deterministic discrete-event loop with
  per-model queues and dynamic batching (fixed-size / timeout).
* :mod:`~repro.serve.report` — p50/p95/p99 latency, throughput,
  utilization, and SLO attainment.
* :mod:`~repro.serve.sweep` — capacity grids (arrival rate x partition x
  batch policy) riding the :mod:`repro.explore` result cache.

Quickstart
----------
>>> from repro.arch import isaac_baseline
>>> from repro.serve import TenantSpec, make_plan, poisson_trace, simulate
>>> tenants = [TenantSpec("resnet18", "resnet18"),
...            TenantSpec("mobilenet", "mobilenet")]
>>> plan = make_plan("spatial", isaac_baseline(), tenants)
>>> trace = poisson_trace(tenants, rate=10e-6, num_requests=50, seed=0)
>>> report = simulate(plan, trace)
>>> 0 < report.p99 and report.completed == 50
True
"""

from .engine import (
    EventLoop,
    FixedBatch,
    ReplicaCore,
    ServingEngine,
    TimeoutBatch,
    parse_policy,
    simulate,
)
from .partition import (
    MODES,
    ServiceProfile,
    ServingPlan,
    TenantPlan,
    fit_power_budget,
    make_plan,
    min_cores,
    partition_cores,
    plan_sharded,
    plan_spatial,
    plan_temporal,
    resolve_graphs,
)
from .report import (
    ExecutorStats,
    ServeReport,
    TenantStats,
    percentile,
    percentiles,
)
from .sweep import ServeSweepPoint, build_plans, capacity_table, serve_sweep
from .workload import (
    TRACES,
    Request,
    TenantSpec,
    bursty_trace,
    diurnal_bursty_trace,
    diurnal_trace,
    make_trace,
    poisson_trace,
    tenant_counts,
    trace_digest,
)

__all__ = [
    "EventLoop",
    "ExecutorStats",
    "FixedBatch",
    "MODES",
    "ReplicaCore",
    "Request",
    "ServeReport",
    "ServeSweepPoint",
    "ServiceProfile",
    "ServingEngine",
    "ServingPlan",
    "TRACES",
    "TenantPlan",
    "TenantSpec",
    "TenantStats",
    "TimeoutBatch",
    "build_plans",
    "bursty_trace",
    "capacity_table",
    "diurnal_bursty_trace",
    "diurnal_trace",
    "fit_power_budget",
    "make_plan",
    "make_trace",
    "min_cores",
    "parse_policy",
    "partition_cores",
    "percentile",
    "percentiles",
    "plan_sharded",
    "plan_spatial",
    "plan_temporal",
    "poisson_trace",
    "resolve_graphs",
    "serve_sweep",
    "simulate",
    "tenant_counts",
    "trace_digest",
]
