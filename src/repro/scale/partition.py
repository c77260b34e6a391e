"""Min-cut style layer partitioning of a model graph across N chips.

The partitioner splits the topological operator order into contiguous
*stages*, one per chip, under two hard constraints and one objective:

* **Weight capacity** — every stage's weights must be simultaneously
  resident on its chip (cores at duplication 1, plus raw crossbar
  capacity).  Residency is the whole point of sharding: a stage never
  pays the Section 2.1 reconfiguration cost, unlike a single chip forced
  to swap segments.
* **Compute balance** — the maximum per-stage work is minimized, because
  the slowest stage paces the inter-chip pipeline.
* **Min cut** — among balanced partitions, the one moving the fewest
  activation bits across chip boundaries wins (every crossing tensor pays
  link serialization per inference).

Contiguous splits keep stage ``i`` -> ``i+1`` traffic on adjacent chips of
a ring, which is why the dynamic program optimizes boundary positions
(exactly, over all ``O(nodes^2)`` contiguous stages per chip) rather than
arbitrary node sets.  The DP itself is cheap; pricing its inputs
dominates: every stage that fits a chip gets a predicted interval from a
48-step bisection over its CIM ops, all stages batched in numpy
(``O(fitting stages x CIM ops x 49)`` arithmetic per distinct chip
architecture).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch import CIMArchitecture
from ..errors import CapacityError
from ..graph import Graph
from ..sched.costs import CostModel, OpProfile

#: Bisection rows per chunk of :func:`_interval_matrix`, scaled so each
#: ``(CIM ops x rows)`` work array holds about this many float64s.
_CHUNK_ELEMS = 1 << 16


def _floor(p: OpProfile) -> float:
    """Duplication-independent interval floor of one operator.

    No amount of replication beats data movement (replicas re-read input
    halos), one MVM wave, or the digital tail — the quantities a stage's
    steady-state interval can never undercut on one chip.
    """
    if not p.is_cim:
        return max(p.alu_cycles, p.mov_cycles)
    return max(p.mov_cycles, float(p.mvm_cycles_base)) + p.alu_cycles


def _load(p: OpProfile) -> float:
    """Core-cycles of compute one inference demands of this operator.

    Duplication spreads ``num_mvms`` windows over replicas, so an
    operator targeted at interval ``T`` needs about ``load / T`` cores
    (never fewer than one replica's worth) — the balance term of the
    partition objective.
    """
    if not p.is_cim:
        return 0.0
    return float(p.num_mvms * p.mvm_cycles_base * p.cores_per_replica)


def _interval_matrix(order: Sequence[str], profiles: Dict[str, OpProfile],
                     arch: CIMArchitecture) -> np.ndarray:
    """``mat[j, i]``: predicted steady-state interval of stage
    ``order[j:i]`` on one ``arch`` chip; ``inf`` where the stage does not
    fit (cores at duplication 1 or weight capacity) and where ``j >= i``.

    The interval is a continuous relaxation of the duplication search
    (:func:`repro.sched.cg.duplicate_min_bottleneck`): interval ``T`` is
    feasible when ``sum(max(cores_k, load_k / T)) <= budget`` over the
    stage's CIM ops — every operator keeps at least one replica and
    elastic operators take ``load / T`` cores.  A stage without CIM ops
    gets its floor (the max per-op :func:`_floor`).  Otherwise ``T`` is
    the floor clamped to ``>= 1`` when that already fits, else the result
    of 48 bisection steps between it and the largest per-op duplication-1
    interval ``load / cores``.

    Every feasible stage is bisected at once, in chunks of rows: a
    stage's sum runs over all CIM ops with zero terms outside the stage,
    accumulated sequentially in topological order, so it rounds exactly
    as a left-to-right sum over the stage's own ops does.
    """
    n = len(order)
    ps = [profiles[name] for name in order]
    cores = np.cumsum([0] + [p.cores_per_replica if p.is_cim else 0
                             for p in ps], dtype=np.int64)
    weights = np.cumsum([0] + [p.weight_bits if p.is_cim else 0
                               for p in ps], dtype=np.int64)
    mat = np.full((n, n + 1), math.inf)
    j, i = np.triu_indices(n + 1, k=1)
    fits = ((cores[i] - cores[j] <= arch.chip.core_number)
            & (weights[i] - weights[j] <= arch.chip_capacity_bits))
    j, i = j[fits], i[fits]
    if not len(j):
        return mat
    # floor_to[j, k] = max(0, floors[j..k]): the stage floor of
    # order[j:k + 1].
    floors = np.array([_floor(p) for p in ps])
    ks = np.arange(n)
    floor_to = np.maximum.accumulate(
        np.where(ks[None, :] >= ks[:, None], floors[None, :], 0.0), axis=1)
    floor = floor_to[j, i - 1]
    mat[j, i] = floor

    cim = [p for p in ps if p.is_cim]
    # CIM ops before each position: stage j..i-1 covers CIM columns
    # cim_before[j] .. cim_before[i] - 1.
    cim_before = np.cumsum([0] + [int(p.is_cim) for p in ps])
    first, stop = cim_before[j], cim_before[i]
    rows = np.flatnonzero(stop > first)
    if not len(rows):
        return mat
    c = np.array([float(p.cores_per_replica) for p in cim])
    load = np.array([_load(p) for p in cim])
    budget = max(1, arch.chip.core_number)
    col = np.arange(len(cim))[:, None]
    chunk = max(1, _CHUNK_ELEMS // len(cim))
    for at in range(0, len(rows), chunk):
        r = rows[at:at + chunk]
        inside = (col >= first[r]) & (col < stop[r])
        c_in = np.where(inside, c[:, None], 0.0)
        load_in = np.where(inside, load[:, None], 0.0)

        def cores_at(target: np.ndarray) -> np.ndarray:
            terms = np.maximum(c_in, load_in / target)
            return np.add.accumulate(terms, axis=0)[-1]

        lo = np.maximum(floor[r], 1.0)
        done = cores_at(lo) <= budget
        mat[j[r[done]], i[r[done]]] = lo[done]
        busy = ~done
        if not busy.any():
            continue
        r, lo = r[busy], lo[busy]
        inside = inside[:, busy]
        c_in, load_in = c_in[:, busy], load_in[:, busy]
        hi = np.maximum(lo, np.where(inside, (load / c)[:, None],
                                     -math.inf).max(axis=0))
        for _ in range(48):
            mid = (lo + hi) / 2
            ok = cores_at(mid) <= budget
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid)
        mat[j[r], i[r]] = hi
    return mat


def _cut_bits(graph: Graph, order: Sequence[str]) -> List[int]:
    """``cuts[p]`` = :func:`boundary_cut_bits` ``(graph, order, p)`` for
    every ``p`` in ``0..len(order)``, in one pass over nodes and edges.

    A tensor produced at position ``a`` whose last consumer sits at
    position ``b > a`` crosses exactly the boundaries ``a + 1 .. b``.
    """
    pos = {name: k for k, name in enumerate(order)}
    diff = [0] * (len(order) + 2)
    for a, name in enumerate(order):
        for out in graph.node(name).outputs:
            spec = graph.tensors.get(out)
            if spec is None or spec.is_weight:
                continue
            last = max((pos[c.name] for c in graph.consumers(out)),
                       default=a)
            if last > a:
                diff[a + 1] += spec.size_bits
                diff[last + 1] -= spec.size_bits
    return list(accumulate(diff[:-1]))


def boundary_cut_bits(graph: Graph, order: Sequence[str],
                      position: int) -> int:
    """Activation bits crossing a split after ``order[:position]``.

    Counts every tensor produced by a node before the boundary and
    consumed by a node at/after it (weights excluded — they are resident,
    never streamed).  A tensor spanning several boundaries is counted at
    each, matching the physical cost of relaying it through intermediate
    chips on a ring.
    """
    before = set(order[:position])
    after = set(order[position:])
    bits = 0
    for name in before:
        node = graph.node(name)
        for out in node.outputs:
            if any(c.name in after for c in graph.consumers(out)):
                spec = graph.tensors.get(out)
                if spec is not None and not spec.is_weight:
                    bits += spec.size_bits
    return bits


def _stage_fits(cores_used: int, weight_bits: int,
                arch: CIMArchitecture) -> bool:
    return (cores_used <= arch.chip.core_number
            and weight_bits <= arch.chip_capacity_bits)


def _min_chips(order: Sequence[str], profiles: Dict[str, OpProfile],
               arch: CIMArchitecture) -> int:
    chips = 1
    cores = 0
    weights = 0
    for name in order:
        p = profiles[name]
        need_cores = p.cores_per_replica if p.is_cim else 0
        need_bits = p.weight_bits if p.is_cim else 0
        if not _stage_fits(need_cores, need_bits, arch):
            raise CapacityError(
                f"operator {name!r} alone exceeds one {arch.name} chip "
                f"({need_cores} cores / {need_bits} weight bits)")
        if not _stage_fits(cores + need_cores, weights + need_bits, arch):
            chips += 1
            cores, weights = need_cores, need_bits
        else:
            cores += need_cores
            weights += need_bits
    return chips


def min_chips(graph: Graph, arch: CIMArchitecture,
              cost_model: Optional[CostModel] = None) -> int:
    """Fewest chips keeping the whole model resident (contiguous stages).

    Greedy longest-prefix packing is optimal for minimizing the number of
    contiguous stages under monotone per-stage constraints.

    Example
    -------
    >>> from repro.arch import functional_testbed
    >>> from repro.models import lenet
    >>> min_chips(lenet(), functional_testbed())
    1
    """
    profiles = (cost_model or CostModel(arch)).profiles(graph)
    return _min_chips([n.name for n in graph.topological()], profiles, arch)


def _best_split(mats: Sequence[np.ndarray], cuts: Sequence[int]
                ) -> Optional[List[int]]:
    """Stage boundaries ``[0, b1, ..., n]`` minimizing the lexicographic
    ``(max stage interval, total cut bits)`` with stage ``k`` priced by
    ``mats[k - 1]``; ``None`` when no split into ``len(mats)`` feasible
    stages exists.  Ties go to the earliest previous boundary."""
    n = mats[0].shape[0]
    inf = math.inf
    # best_*[j]: minimal (max predicted interval, cut bits) splitting
    # order[:j] into k - 1 feasible stages (inf when none).
    best_int = np.full(n + 1, inf)
    best_cut = np.full(n + 1, inf)
    best_int[0] = best_cut[0] = 0.0
    cut_at = np.array(cuts[:n], dtype=np.float64)
    choice = []
    for mat in mats:
        valid = np.isfinite(mat) & np.isfinite(best_int[:n])[:, None]
        cand_int = np.where(valid, np.maximum(best_int[:n, None], mat), inf)
        cand_cut = np.where(valid, (best_cut[:n] + cut_at)[:, None], inf)
        best_int = cand_int.min(axis=0)
        tie = cand_int == best_int
        best_cut = np.where(tie, cand_cut, inf).min(axis=0)
        choice.append(np.argmax(tie & (cand_cut == best_cut), axis=0))
    if not np.isfinite(best_int[n]):
        return None
    bounds = [n]
    for back in reversed(choice):
        bounds.append(int(back[bounds[-1]]))
    bounds.reverse()
    return bounds


def partition_layers(graph: Graph, num_chips: int, arch: CIMArchitecture,
                     cost_model: Optional[CostModel] = None,
                     chip_archs: Optional[Sequence[CIMArchitecture]] = None
                     ) -> List[List[str]]:
    """Split ``graph`` into ``num_chips`` contiguous resident stages.

    Dynamic program over boundary positions: minimize the lexicographic
    objective ``(max predicted stage interval, total boundary cut bits)``
    subject to every stage fitting its chip (cores at duplication 1 and
    weight capacity).  The predicted interval of a stage is
    ``max(per-op floors, core-cycle load / core_number)`` — what the
    duplication search can achieve at best, so balancing it balances the
    *pipelined* stages rather than raw work.  Returns per-stage node-name
    lists in topological order; raises
    :class:`~repro.errors.CapacityError` when even ``num_chips`` stages
    cannot hold the model resident.  More chips than nodes yields one
    stage per node.

    ``cost_model`` profiles the graph (once per call); pass one carrying
    a :class:`~repro.perf.CompileCache` to share the profiles with other
    compilations.

    ``chip_archs`` (degraded hardware) gives each chip its *own*
    architecture: stage ``k`` must fit ``chip_archs[k-1]`` and is
    interval-balanced against that chip's surviving core budget, so the
    DP shifts work off weakened chips.  Stage→chip identity mapping is
    kept (stage ``k`` runs on chip ``k-1``).  Each distinct chip
    architecture is profiled with a default-binding
    :class:`~repro.sched.costs.CostModel` sharing ``cost_model``'s cache.
    ``None`` (the default) is the uniform, fault-free path.

    Example
    -------
    >>> from repro.arch import isaac_baseline
    >>> from repro.models import lenet
    >>> stages = partition_layers(lenet(), 2, isaac_baseline())
    >>> len(stages)
    2
    """
    if num_chips < 1:
        raise CapacityError(f"num_chips must be >= 1, got {num_chips}")
    if chip_archs is not None:
        chip_archs = list(chip_archs)
        if len(chip_archs) != num_chips:
            raise CapacityError(
                f"chip_archs supplies {len(chip_archs)} architectures "
                f"for {num_chips} chips")
    order = [n.name for n in graph.topological()]
    n = len(order)
    if not order:
        raise CapacityError("cannot partition an empty graph")
    stages_wanted = min(num_chips, n)
    if chip_archs is None:
        profiles = (cost_model or CostModel(arch)).profiles(graph)
        needed = _min_chips(order, profiles, arch)
        if needed > num_chips:
            raise CapacityError(
                f"{graph.name} needs at least {needed} {arch.name} chips "
                f"to stay resident ({graph.total_weight_bits():,} weight "
                f"bits, chip capacity {arch.chip_capacity_bits:,}); got "
                f"{num_chips}")
        mats = [_interval_matrix(order, profiles, arch)] * stages_wanted
    else:
        # One matrix per *distinct* degraded shape — chips sharing a
        # shape share the tables.
        cache = cost_model.cache if cost_model is not None else None
        by_sig: Dict[Tuple, np.ndarray] = {}
        mats = []
        for a in chip_archs[:stages_wanted]:
            sig = (a.chip.core_number, a.core.xb_number,
                   a.chip_capacity_bits)
            if sig not in by_sig:
                by_sig[sig] = _interval_matrix(
                    order, CostModel(a, cache=cache).profiles(graph), a)
            mats.append(by_sig[sig])

    bounds = _best_split(mats, _cut_bits(graph, order))
    if bounds is None:
        if chip_archs is not None:
            raise CapacityError(
                f"no feasible {stages_wanted}-stage partition of "
                f"{graph.name} on the degraded system (surviving cores "
                f"per chip: {[a.chip.core_number for a in chip_archs]}, "
                f"capacity bits per chip: "
                f"{[a.chip_capacity_bits for a in chip_archs]})")
        # Feasible with `needed` stages but not with exactly stages_wanted
        # non-empty ones (can happen only when stages_wanted < needed —
        # already raised — so this is defensive).
        raise CapacityError(  # pragma: no cover
            f"no feasible {stages_wanted}-stage partition of {graph.name}")
    return [order[bounds[s]:bounds[s + 1]] for s in range(stages_wanted)]


def stage_transfers(graph: Graph, stages: Sequence[Sequence[str]]
                    ) -> List[Tuple[int, int, int]]:
    """Cross-stage activation traffic: ``(src_stage, dst_stage, bits)``.

    One entry per directed stage pair with any crossing tensors; a tensor
    consumed by several later stages contributes to each destination
    (it is re-sent — stages share no memory).
    """
    stage_of: Dict[str, int] = {}
    for idx, names in enumerate(stages):
        for name in names:
            stage_of[name] = idx
    traffic: Dict[Tuple[int, int], int] = {}
    for node in graph.nodes:
        src = stage_of[node.name]
        for out in node.outputs:
            spec = graph.tensors.get(out)
            if spec is None or spec.is_weight:
                continue
            dsts = {stage_of[c.name] for c in graph.consumers(out)}
            for dst in sorted(dsts):
                if dst != src:
                    key = (src, dst)
                    traffic[key] = traffic.get(key, 0) + spec.size_bits
    return [(s, d, bits) for (s, d), bits in sorted(traffic.items())]
