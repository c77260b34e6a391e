"""Degradation sweeps: serving quality as a function of dead silicon.

The headline fault experiment: kill ``d`` cores (evenly spread — the
hardest case for contiguous region placement), rebuild the serving plan
on the surviving hardware, and replay the *same* seeded request trace.
Throughput, tail latency, and SLO attainment then degrade for exactly
one reason: less silicon.

Compilations ride the explore cache (:func:`repro.serve.sweep.build_plans`
on each degraded architecture), so repeated sweeps and overlapping dead
counts are essentially free on a warm cache.  Every point is
deterministic; :func:`sweep_digest` hashes the canonical rows and is the
currency of the EXPERIMENTS.md pin.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..arch import CIMArchitecture
from ..errors import CapacityError
from ..explore import SweepRunner
from ..sched import CompilerOptions
from ..serve.engine import BatchPolicy, simulate
from ..serve.report import ServeReport
from ..serve.sweep import build_plans
from ..serve.workload import TenantSpec, make_trace
from .model import FaultModel, spread_mask


@dataclass(frozen=True)
class DegradationPoint:
    """One cell of a degradation sweep: a dead-core count and what the
    surviving hardware could still serve (``report`` is ``None`` when
    the masked chip could no longer fit the tenants)."""

    dead: int
    fault: FaultModel
    report: Optional[ServeReport]
    error: Optional[str] = None

    @property
    def feasible(self) -> bool:
        """True when the degraded chip still served the trace."""
        return self.report is not None

    def row(self) -> Dict:
        """Canonical JSON-able row (the digest currency)."""
        out: Dict = {"dead": self.dead, "feasible": self.feasible}
        if self.report is not None:
            out.update({
                "completed": self.report.completed,
                "rejected": self.report.rejected,
                "p50": self.report.p50,
                "p99": self.report.p99,
                "slo_attainment": self.report.slo_attainment,
            })
        else:
            out["error"] = self.error
        return out


def degradation_sweep(arch: CIMArchitecture, specs: Sequence[TenantSpec],
                      dead_counts: Sequence[int],
                      rate: float,
                      mode: str = "spatial",
                      num_requests: int = 400,
                      seed: int = 0,
                      trace_kind: str = "poisson",
                      policy: Optional[BatchPolicy] = None,
                      slo_factor: float = 10.0,
                      max_queue: Optional[int] = None,
                      options: Optional[CompilerOptions] = None,
                      runner: Optional[SweepRunner] = None
                      ) -> List[DegradationPoint]:
    """Serve the same seeded trace on progressively more dead cores.

    For each count in ``dead_counts`` a :func:`~repro.faults.model.
    spread_mask` kills that many evenly-spaced cores; the plan is
    rebuilt on the surviving core count through the explore cache
    (every degraded architecture is a distinct cached point) and the
    shared trace is replayed.  Counts the masked chip cannot serve
    yield an infeasible point carrying the planner's capacity error.

    Each dead-core count is a one-axis architecture mutation, so with
    the fast path on the rebuilds share the runner's process-wide
    :class:`~repro.perf.CompileCache`: a duplication search whose
    profiles and core budget recur is a cache hit rather than a fresh
    search (see ``docs/PERFORMANCE.md``), bit-identically to a cold
    rebuild.
    """
    runner = runner or SweepRunner()
    trace = make_trace(trace_kind, specs, rate, num_requests, seed=seed)
    die = arch.chip.core_number
    points: List[DegradationPoint] = []
    for dead in dead_counts:
        fault = FaultModel(dead_cores=spread_mask(die, dead))
        try:
            degraded = fault.degrade_arch(arch)
            plan = build_plans(degraded, specs, modes=(mode,),
                               options=options, runner=runner)[mode]
        except CapacityError as exc:
            points.append(DegradationPoint(
                dead=dead, fault=fault, report=None,
                error=f"{exc} [{fault.mask_note(arch)}]"))
            continue
        report = simulate(plan, trace, policy=policy, max_queue=max_queue,
                          slo_factor=slo_factor)
        points.append(DegradationPoint(dead=dead, fault=fault,
                                       report=report))
    return points


def sweep_rows(points: Sequence[DegradationPoint]) -> List[Dict]:
    """Canonical rows of a sweep, in dead-count order as run."""
    return [p.row() for p in points]


def sweep_digest(points: Sequence[DegradationPoint]) -> str:
    """SHA-256 over the canonical rows — the EXPERIMENTS.md pin."""
    payload = json.dumps(sweep_rows(points), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def sweep_table(points: Sequence[DegradationPoint]) -> str:
    """Readable degradation table (one row per dead-core count)."""
    lines = [f"  {'dead':>5} {'done':>7} {'rej':>6} {'p50':>11} "
             f"{'p99':>12} {'SLO':>7}"]
    for p in points:
        if p.report is None:
            lines.append(f"  {p.dead:>5} {'— infeasible:':<14} {p.error}")
            continue
        r = p.report
        lines.append(
            f"  {p.dead:>5} {r.completed:>7,} {r.rejected:>6,} "
            f"{r.p50:>11,.0f} {r.p99:>12,.0f} {r.slo_attainment:>6.1%}")
    return "\n".join(lines)
