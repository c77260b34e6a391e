"""Scalar oracle: the plain-Python forms of the production kernels.

Production runs one path: vectorized NoC cost aggregation, a
constant-folded min-bottleneck search, array-form refine-exchange,
array-scored greedy placement, one-pass segment latencies, implicit
process-wide memos, batched trace generation, and a serving event loop
that streams trace arrivals past its heap.  This module keeps the
straightforward forms those kernels replaced — one Python evaluation
per core pair, per operator, per candidate, one RNG call per draw, one
heap entry per arrival — so the tests can check that production
reproduces them bit for bit.

Two ways to use it:

* call the functions directly and compare with the production function
  of the same name (``tests/test_perf_cache.py``);
* run a whole pipeline inside :func:`scalar_reference`, which patches
  every production entry point with its oracle wherever a ``repro``
  module looks it up and clears the implicit memos, then compare the
  report with a production run (the energy, faults, fleet and event
  loop suites).
"""

import contextlib
import heapq
import math
import random
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch.noc import NocSpec
from repro.errors import CapacityError, ScheduleError
from repro.explore import runner as runner_mod
from repro.perf import CompileCache, kernels
from repro.perf.cache import clear_process_caches
from repro.sched import cg, placement
from repro.serve import engine
from repro.serve.workload import Request

# ---------------------------------------------------------------------------
# NoC cost
# ---------------------------------------------------------------------------


def average_cost(spec: NocSpec, n: int) -> float:
    """Mean off-diagonal entry of ``spec.hop_matrix(n)``, summed left to
    right (0.0 for n <= 1)."""
    if n <= 1:
        return 0.0
    matrix = spec.hop_matrix(n)
    total = sum(matrix[i][j] for i in range(n) for j in range(n) if i != j)
    return total / (n * (n - 1))


def max_cost(spec: NocSpec, n: int) -> float:
    """Largest entry of ``spec.hop_matrix(n)`` (0.0 when empty)."""
    matrix = spec.hop_matrix(n)
    return max((matrix[i][j] for i in range(n) for j in range(n)),
               default=0.0)


# ---------------------------------------------------------------------------
# Duplication searches
# ---------------------------------------------------------------------------


def useful_dups_scan(num_mvms: int, cap: int) -> List[int]:
    """Every duplication where ``ceil(num_mvms / d)`` changes, walking
    window counts one at a time."""
    options = {1}
    k = math.ceil(num_mvms / 1)
    while k > 1:
        k -= 1
        d = math.ceil(num_mvms / k)
        if d > cap:
            continue
        options.add(d)
    options.add(max(1, cap))
    return sorted(options)


def useful_dups(p, budget: int) -> List[int]:
    """The useful duplication levels of profile ``p`` under ``budget``."""
    cap = min(p.max_useful_dup, budget // p.cores_per_replica)
    return useful_dups_scan(p.num_mvms, cap)


def _min_total_exact(cim, budget: int) -> Dict[str, int]:
    """Knapsack DP over (operator, cores spent)."""
    inf = float("inf")
    dp = [0.0] + [inf] * budget
    choice: List[Dict[str, int]] = [dict() for _ in range(budget + 1)]
    for p in cim:
        ndp = [inf] * (budget + 1)
        nchoice: List[Dict[str, int]] = [dict() for _ in range(budget + 1)]
        for d in useful_dups(p, budget):
            cost = d * p.cores_per_replica
            lat = p.latency(d)
            for b in range(cost, budget + 1):
                if dp[b - cost] + lat < ndp[b]:
                    ndp[b] = dp[b - cost] + lat
                    nchoice[b] = dict(choice[b - cost], **{p.name: d})
        dp, choice = ndp, nchoice
    best_b = min(range(budget + 1), key=lambda b: dp[b])
    if dp[best_b] == inf:
        raise CapacityError(f"operators do not fit in {budget} cores")
    return {p.name: choice[best_b].get(p.name, 1) for p in cim}


def duplicate_min_total(profiles, budget: int,
                        cache=None) -> Dict[str, int]:
    """Jump greedy with ``p.latency`` calls, then :func:`refine_exchange`
    (the exact DP up to ``cg._EXACT_DP_BUDGET`` cores).  ``cache`` is
    accepted for signature compatibility and ignored."""
    dups = {p.name: 1 for p in profiles}
    cim = [p for p in profiles if p.is_cim]
    need = sum(p.cores_per_replica for p in cim)
    if need > budget:
        raise CapacityError(f"operators need {need} cores, chip has {budget}")
    if not cim:
        return dups
    if budget <= cg._EXACT_DP_BUDGET:
        dups.update(_min_total_exact(cim, budget))
        return dups
    remaining = budget - need
    by_name = {p.name: p for p in cim}

    def next_jump(p, d: int) -> Optional[int]:
        if d >= p.max_useful_dup:
            return None
        windows = math.ceil(p.num_mvms / d)
        if windows <= 1:
            return None
        d2 = min(max(math.ceil(p.num_mvms / (windows - 1)), d + 1),
                 p.max_useful_dup)
        if p.latency(d2) >= p.latency(d) - 1e-12:
            return None
        return d2

    heap: List[Tuple[float, str, int, int, int]] = []

    def push(p) -> None:
        d = dups[p.name]
        d2 = next_jump(p, d)
        if d2 is None:
            return
        cost = (d2 - d) * p.cores_per_replica
        gain = (p.latency(d) - p.latency(d2)) / cost
        heapq.heappush(heap, (-gain, p.name, d, d2, cost))

    for p in cim:
        push(p)
    while heap:
        _, name, d_from, d_to, cost = heapq.heappop(heap)
        p = by_name[name]
        if dups[name] != d_from:
            continue
        if cost > remaining:
            d_mid = d_from + remaining // p.cores_per_replica
            if d_mid > d_from and p.latency(d_mid) < p.latency(d_from):
                remaining -= (d_mid - d_from) * p.cores_per_replica
                dups[name] = d_mid
                push(p)
            continue
        dups[name] = d_to
        remaining -= cost
        push(p)
    return refine_exchange(cim, budget, dups)


def refine_exchange(cim, budget: int,
                    dups: Dict[str, int]) -> Dict[str, int]:
    """Pairwise-exchange hill climbing: each iteration scans every
    operator's next useful level and every donor's largest sufficient
    down-level, then applies the smallest candidate tuple."""
    levels = {p.name: useful_dups(p, budget) for p in cim}
    free = budget - sum(p.cores_per_replica * dups[p.name] for p in cim)
    for _ in range(8 * max(1, sum(len(v) for v in levels.values()))):
        best = None
        for p in cim:
            ups = [lv for lv in levels[p.name] if lv > dups[p.name]]
            if not ups:
                continue
            d_up = min(ups)
            need = (d_up - dups[p.name]) * p.cores_per_replica
            gain = p.latency(dups[p.name]) - p.latency(d_up)
            if gain <= 1e-12:
                continue
            if need <= free:
                cand = (-gain, p.name, d_up, None, None)
                best = cand if best is None or cand < best else best
                continue
            for q in cim:
                if q.name == p.name:
                    continue
                downs = [lv for lv in levels[q.name] if lv < dups[q.name]]
                for d_down in sorted(downs, reverse=True):
                    if free + (dups[q.name] - d_down) * q.cores_per_replica \
                            < need:
                        continue
                    loss = q.latency(d_down) - q.latency(dups[q.name])
                    if gain - loss > 1e-9:
                        cand = (-(gain - loss), p.name, d_up, q.name, d_down)
                        best = cand if best is None or cand < best else best
                    break
        if best is None:
            return dups
        _, up_name, d_up, down_name, d_down = best
        up = next(p for p in cim if p.name == up_name)
        free -= (d_up - dups[up_name]) * up.cores_per_replica
        dups[up_name] = d_up
        if down_name is not None:
            down = next(p for p in cim if p.name == down_name)
            free += (dups[down_name] - d_down) * down.cores_per_replica
            dups[down_name] = d_down
    return dups


def duplicate_min_bottleneck(profiles, budget: int,
                             cache=None) -> Dict[str, int]:
    """Bisection on the bottleneck with one ``dup_for_target`` call per
    operator, then greedy leftover spending on ``max(..., key=latency)``.
    ``cache`` is accepted for signature compatibility and ignored."""
    dups = {p.name: 1 for p in profiles}
    cim = [p for p in profiles if p.is_cim and p.num_mvms > 0]
    if not cim:
        return dups
    base_cores = sum(p.cores_per_replica for p in cim)
    if base_cores > budget:
        raise CapacityError(
            f"operators need {base_cores} cores, chip has {budget}")

    def dup_for_target(p, target: float) -> int:
        mvm = p.mvm_cycles_base
        floor = max(p.mov_cycles, mvm) + p.alu_cycles
        if target < floor:
            return p.max_useful_dup + budget + 1
        windows_per_replica = int((target - p.alu_cycles) // mvm)
        return min(p.max_useful_dup,
                   math.ceil(p.num_mvms / max(1, windows_per_replica)))

    def cost(target: float) -> int:
        return sum(p.cores_per_replica * dup_for_target(p, target)
                   for p in cim)

    lo = max(p.mvm_cycles_base for p in cim)
    hi = max(p.latency(1) for p in cim)
    if cost(hi) > budget:
        raise CapacityError("even duplication 1 exceeds the core budget")
    for _ in range(60):
        mid = (lo + hi) / 2
        if cost(mid) <= budget:
            hi = mid
        else:
            lo = mid
    for p in cim:
        dups[p.name] = max(1, dup_for_target(p, hi))
    remaining = budget - sum(p.cores_per_replica * dups[p.name] for p in cim)
    while remaining > 0:
        b = max(cim, key=lambda p: p.latency(dups[p.name]))
        if (dups[b.name] >= b.max_useful_dup
                or b.cores_per_replica > remaining
                or b.latency(dups[b.name] + 1) >= b.latency(dups[b.name])):
            break
        dups[b.name] += 1
        remaining -= b.cores_per_replica
    return dups


# ---------------------------------------------------------------------------
# Segment latency
# ---------------------------------------------------------------------------


def ordered_sum(values) -> float:
    """Left-to-right float sum.  ``sum()`` is compensated from Python
    3.12 on, so it is not the reference order there."""
    total = 0.0
    for value in values:
        total += value
    return total


def pipelined_latency(decisions) -> float:
    """Bottleneck latency plus every other operator's fill."""
    if not decisions:
        return 0.0
    lats = [d.latency() for d in decisions]
    bottleneck = max(lats)
    fills = ordered_sum(d.fill() for d in decisions) - \
        decisions[lats.index(bottleneck)].fill()
    return bottleneck + max(0.0, fills)


def sequential_latency(decisions) -> float:
    """Plain left-to-right sum of operator latencies."""
    return ordered_sum(d.latency() for d in decisions)


def segment_cycles(decisions, pipelined: bool):
    """``(latencies, bottleneck index, cycles)`` per decision, the shape
    of :func:`repro.perf.kernels.segment_cycles`."""
    lats = [d.latency() for d in decisions]
    b_idx = max(range(len(decisions)), key=lambda i: lats[i])
    cycles = (pipelined_latency(decisions) if pipelined
              else sequential_latency(decisions))
    return lats, b_idx, cycles


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def place_greedy(schedule, segment: int = 0,
                 region: Optional[Sequence[int]] = None,
                 die_cores: Optional[int] = None,
                 io_anchor: Optional[int] = None) -> placement.Placement:
    """Greedy placement sorting every free core by its summed
    traffic-weighted hop cost to the anchors, one Python sum per core."""
    cores = placement._resolve_region(schedule, region)
    hop = placement._hop_matrix(
        schedule, cores if io_anchor is None else [*cores, io_anchor],
        die_cores)
    free = set(cores)
    result: placement.Placement = {}
    inbound: Dict[str, List[Tuple[str, int]]] = {}
    for producer, consumer, bits in placement._edges(schedule, segment):
        inbound.setdefault(consumer, []).append((producer, bits))
    for name in placement._segment_cim_nodes(schedule, segment):
        need = placement._cores_needed(schedule, name)
        if need > len(free):
            raise ScheduleError(
                f"segment {segment}: not enough free cores for {name!r}")
        anchors = [(core, bits)
                   for producer, bits in inbound.get(name, [])
                   for core in result.get(producer, [])]
        if io_anchor is not None:
            io_bits = placement._io_traffic_bits(schedule, name)
            if io_bits > 0:
                anchors.append((io_anchor, io_bits))
        if anchors:
            def attraction(core: int) -> Tuple[float, int]:
                return (sum(w * hop[a][core] for a, w in anchors), core)

            chosen = sorted(free, key=attraction)[:need]
        else:
            chosen = sorted(free)[:need]
        result[name] = sorted(chosen)
        free.difference_update(chosen)
    return result


# ---------------------------------------------------------------------------
# Event loop
# ---------------------------------------------------------------------------


class EventLoop:
    """The heap-only event loop: every arrival is pushed onto the
    ``(time, seq)`` heap, in trace order, before the loop starts, so
    arrivals tie-break by trace position and ahead of any event pushed
    later at the same time."""

    def __init__(self, arrivals=(), kind: int = engine._ARRIVAL) -> None:
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self.last_arrival = max((req.arrival for req in arrivals),
                                default=0.0)
        for req in arrivals:
            self.push(req.arrival, kind, req)

    def push(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def pop(self) -> Tuple[float, int, object]:
        time, _, kind, payload = heapq.heappop(self._heap)
        return time, kind, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# ---------------------------------------------------------------------------
# Trace generators
# ---------------------------------------------------------------------------


def pick(rng: random.Random, tenants) -> str:
    """Weighted tenant choice: one ``rng.random()`` draw, inverse CDF by
    sequential weight subtraction."""
    total = sum(t.weight for t in tenants)
    x = rng.random() * total
    for t in tenants:
        x -= t.weight
        if x < 0:
            return t.name
    return tenants[-1].name


def poisson_trace(tenants, rate, num_requests, seed=0) -> List[Request]:
    """:func:`repro.serve.workload.poisson_trace` with one RNG call per
    draw."""
    rng = random.Random(seed)
    clock = 0.0
    out: List[Request] = []
    for i in range(num_requests):
        clock += rng.expovariate(rate)
        out.append(Request(i, pick(rng, tenants), clock))
    return out


def bursty_trace(tenants, rate, num_requests, seed=0,
                 burst_factor=1.75, calm_factor=0.25,
                 mean_dwell_requests=16.0) -> List[Request]:
    """:func:`repro.serve.workload.bursty_trace` (the MMPP-2) with one
    RNG call per draw."""
    rng = random.Random(seed)
    clock = 0.0
    bursting = False
    mean_dwell = mean_dwell_requests / rate
    state_ends = rng.expovariate(1.0 / mean_dwell)
    out: List[Request] = []
    for i in range(num_requests):
        while True:
            state_rate = rate * (burst_factor if bursting else calm_factor)
            gap = rng.expovariate(state_rate)
            if clock + gap <= state_ends:
                clock += gap
                break
            # The state flips before this arrival would land; restart the
            # (memoryless) draw from the flip instant.
            clock = state_ends
            bursting = not bursting
            state_ends = clock + rng.expovariate(1.0 / mean_dwell)
        out.append(Request(i, pick(rng, tenants), clock))
    return out


def diurnal_trace(tenants, rate, num_requests, seed=0,
                  period=2_000_000.0, depth=0.8) -> List[Request]:
    """:func:`repro.serve.workload.diurnal_trace` (thinning sampler) with
    one RNG call per draw."""
    rng = random.Random(seed)
    peak = rate * (1.0 + depth)
    clock = 0.0
    out: List[Request] = []
    while len(out) < num_requests:
        clock += rng.expovariate(peak)
        current = rate * (1.0 + depth * math.sin(2 * math.pi * clock / period))
        if rng.random() * peak <= current:
            out.append(Request(len(out), pick(rng, tenants), clock))
    return out


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_summaries(space) -> List[Dict]:
    """Every point of ``space`` evaluated serially, each with its own
    fresh compile cache: no dedup, no worker pool, no sharing."""
    return [runner_mod.evaluate_point(point, cache=CompileCache())
            for point in space]


# ---------------------------------------------------------------------------
# Whole-pipeline switch
# ---------------------------------------------------------------------------

#: Production function (or class) -> its oracle, patched wherever it is
#: looked up.
_FUNCTIONS = [
    (cg.duplicate_min_total, duplicate_min_total),
    (cg.duplicate_min_bottleneck, duplicate_min_bottleneck),
    (cg.pipelined_latency, pipelined_latency),
    (cg.sequential_latency, sequential_latency),
    (kernels.segment_cycles, segment_cycles),
    (placement.place_greedy, place_greedy),
    (engine.EventLoop, EventLoop),
]

#: ``NocSpec`` methods replaced for the duration of the context.
_METHODS = {"average_cost": average_cost, "max_cost": max_cost}


def _swap(replacement_of: Dict[int, object]) -> None:
    """In every loaded ``repro`` module, replace each attribute whose
    ``id`` is a key of ``replacement_of`` with its value."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            replacement = replacement_of.get(id(value))
            if replacement is not None:
                setattr(module, attr, replacement)


@contextlib.contextmanager
def scalar_reference() -> Iterator[None]:
    """Run everything inside on the scalar oracle.

    Patches each production function in :data:`_FUNCTIONS` in every
    ``repro`` module that holds it (callers look names up in their own
    globals), swaps the ``NocSpec`` cost methods, and clears the
    implicit process-wide memos on entry and exit, so neither side can
    read a value the other computed.  On exit every module holding an
    oracle gets the production function back, including modules first
    imported inside the context.
    """
    originals = {attr: vars(NocSpec)[attr] for attr in _METHODS}
    _swap({id(prod): oracle for prod, oracle in _FUNCTIONS})
    for attr, oracle in _METHODS.items():
        setattr(NocSpec, attr, oracle)
    clear_process_caches()
    try:
        yield
    finally:
        _swap({id(oracle): prod for prod, oracle in _FUNCTIONS})
        for attr, original in originals.items():
            setattr(NocSpec, attr, original)
        clear_process_caches()
