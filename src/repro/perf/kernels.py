"""Hot-loop kernels of the scheduler, simulator and NoC model.

Each kernel is value-identical to the plain per-element loop it stands
for (kept as a test oracle in ``tests/scalar_oracle.py``), so the
golden regressions and the cached-vs-live sweeps stay bit-exact.  Each
takes the form that is faster at the input sizes real compiles produce
(``docs/PERFORMANCE.md`` records the timings):

* :func:`segment_cycles` is plain Python: segments are a handful of
  operators, where numpy's per-call dispatch costs more than the loop;
* the min-total search's jump-chain table (:class:`DupLatencyColumns`,
  :func:`level_latency_table`), its refine-exchange frontier
  (:class:`RefineExchange`) and the NoC hop matrices are numpy: they
  work on hundreds to thousands of cells at once.

Where array and scalar forms must agree, they agree operation by
operation:

* elementwise steps (``ceil``, ``floor-divide``, ``min``/``max``,
  multiply, add) are single IEEE-754 operations in both forms;
* ordered reductions add left to right (:func:`seq_sum` uses
  ``np.add.accumulate``, *not* ``np.sum``, whose pairwise summation
  would round differently);
* argmax-style selections keep first-wins tie-breaking (``np.argmax``
  and ``list.index(max(...))`` both return the first maximal index).

``tests/test_perf_cache.py`` pins the equivalence against the oracle on
model/preset pairs, synthetic segments and degenerate inputs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np


def seq_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to a plain ``for`` loop.

    ``np.add.accumulate`` is a sequential prefix scan, so its last
    element applies the additions in exactly the reference order
    (``np.sum`` would use pairwise summation and round differently).
    """
    if len(values) == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


# ---------------------------------------------------------------------------
# Segment latency
# ---------------------------------------------------------------------------


def segment_cycles(decisions: Sequence,
                   pipelined: bool) -> Tuple[List[float], int, float]:
    """(latencies, bottleneck index, segment cycles) in one pass.

    The single body shared by
    :func:`repro.sched.cg.pipelined_latency` /
    :func:`~repro.sched.cg.sequential_latency` and
    :meth:`repro.sim.performance.PerformanceSimulator.run`, so the
    bit-identity-critical bottleneck/fill-spill formula exists exactly
    once.  Pipelined: bottleneck latency plus the other operators'
    fills (``OpDecision.fill`` is the latency times the fill fraction);
    the bottleneck is the first maximal latency.  Sequential: the
    ordered latency sum.  Both sums add left to right in an explicit
    loop, because ``sum()`` of floats is compensated from Python 3.12 on
    and would round differently.
    """
    lats = [d.latency() for d in decisions]
    bottleneck = max(lats)
    b_idx = lats.index(bottleneck)
    total = 0.0
    if pipelined:
        for d, lat in zip(decisions, lats):
            total += lat * d.profile.fill_fraction
        spill = total - bottleneck * decisions[b_idx].profile.fill_fraction
        cycles = bottleneck + max(0.0, spill)
    else:
        for lat in lats:
            total += lat
        cycles = total
    return lats, b_idx, cycles


# ---------------------------------------------------------------------------
# Min-total duplication search
# ---------------------------------------------------------------------------


class DupLatencyColumns:
    """Default-argument ``OpProfile.latency`` over a CIM profile sequence.

    The duplication searches evaluate ``p.latency(d)`` with no wave
    reduction and no window override, so the whole formula collapses to
    four per-operator constants: the per-window unit
    ``mvm_cycles(1) * seq_passes``, the reload base
    ``seq_passes * reload_cycles``, the movement floor, and the ALU
    tail.  Every step mirrors the scalar method — the same float
    division and ``ceil``, the same integer-valued products (exact in
    float64 far below 2**53), the same ``max(compute, mov) + alu`` —
    so the values are bit-identical to :meth:`repro.sched.costs.
    OpProfile.latency`.
    """

    def __init__(self, profiles: Sequence) -> None:
        as_f = np.asarray
        self.names = [p.name for p in profiles]
        self.cores = as_f([p.cores_per_replica for p in profiles],
                          dtype=np.int64)
        self.num_mvms = as_f([p.num_mvms for p in profiles],
                             dtype=np.float64)
        self.max_dup = as_f([p.max_useful_dup for p in profiles],
                            dtype=np.float64)
        self.per_window = as_f([p.mvm_cycles(1) * p.seq_passes
                                for p in profiles], dtype=np.float64)
        self.base = as_f([p.seq_passes * p.reload_cycles
                          for p in profiles], dtype=np.float64)
        self.mov = as_f([p.mov_cycles for p in profiles], dtype=np.float64)
        self.alu = as_f([p.alu_cycles for p in profiles], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.names)

    def latency(self, dup: np.ndarray) -> np.ndarray:
        """``p.latency(dup[i])`` for every operator in one pass."""
        dup = np.asarray(dup, dtype=np.float64)
        eff = np.minimum(dup, self.max_dup)
        windows = np.ceil(self.num_mvms / np.maximum(eff, 1.0))
        compute = windows * self.per_window + self.base
        return np.maximum(compute, self.mov) + self.alu


#: Sentinel padding the ragged per-operator useful-level table; large
#: enough that a padded cell never satisfies a ``level <= threshold``
#: test yet still converts to float64 without overflow.
_LEVEL_PAD = 2 ** 62


def level_latency_table(table: DupLatencyColumns,
                        levels: Sequence[Sequence[int]]
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Padded per-operator level matrix and the latency at every cell.

    ``levels[i]`` is operator ``i``'s ascending duplication-level list;
    rows are padded with :data:`_LEVEL_PAD` (padded cells clamp to the
    useful-duplication cap and must be masked by callers).  The latency
    evaluation applies exactly :meth:`DupLatencyColumns.latency`
    broadcast over columns.
    """
    n = len(table)
    width = max((len(row) for row in levels), default=1) or 1
    lv = np.full((n, width), _LEVEL_PAD, dtype=np.int64)
    for i, row in enumerate(levels):
        lv[i, :len(row)] = row
    eff = np.minimum(lv.astype(np.float64), table.max_dup[:, None])
    windows = np.ceil(table.num_mvms[:, None] / np.maximum(eff, 1.0))
    compute = windows * table.per_window[:, None] + table.base[:, None]
    lat = np.maximum(compute, table.mov[:, None]) + table.alu[:, None]
    return lv, lat


class RefineExchange:
    """Whole-frontier evaluation of the pairwise-exchange refinement.

    The reference loop (``refine_exchange`` in the scalar oracle) scans, per
    iteration, every operator ``p`` for its next useful duplication
    level and every donor ``q`` for the *largest* down-level that frees
    enough cores, then applies the best strictly-improving move from a
    sorted candidate list.  This class evaluates the entire frontier —
    all ``(p, q)`` pairs — as a handful of array expressions per
    iteration.

    Bit-identity is preserved move for move:

    * latencies come from :class:`DupLatencyColumns` (value-exact with
      ``OpProfile.latency``), so every ``gain``/``loss`` float equals
      the reference's;
    * the reference breaks at the *first* (largest) feasible donor
      down-level and evaluates only that one; the vectorized threshold
      count selects exactly that level;
    * a no-donor move short-circuits the donor scan for its operator
      (the reference ``continue``), mirrored by masking;
    * the winning move is the minimum of the reference's sort tuples
      ``(-net, p.name, d_up, q.name, d_down)``; ties on the exact
      float ``net`` are resolved by rebuilding those tuples for the
      tied candidates only and taking ``min`` — candidates of
      different operators are decided at ``p.name``, so the reference's
      ``None`` donor fields (only ever compared within one operator's
      branch) never meet a string.
    """

    def __init__(self, cim: Sequence,
                 levels: Sequence[Sequence[int]]) -> None:
        self.table = DupLatencyColumns(cim)
        self.names = self.table.names
        self.nlev = np.asarray([len(row) for row in levels], dtype=np.int64)
        self.lv, self.lv_lat = level_latency_table(self.table, levels)

    def best_move(self, dups: np.ndarray, free: int
                  ) -> Optional[Tuple[int, int, Optional[int],
                                      Optional[int]]]:
        """The reference iteration's winning move for the current
        duplication vector, or ``None`` when no candidate improves.

        Returns ``(p, d_up, q, d_down)`` with operator *indices* (``q``
        and ``d_down`` are ``None`` for a no-donor move).
        """
        t = self.table
        n = len(self.names)
        rows = np.arange(n)
        cur = t.latency(dups)
        # First useful level strictly above the current duplication.
        cnt_up = np.add.reduce(self.lv <= dups[:, None], axis=1)
        has_up = cnt_up < self.nlev
        up_idx = np.minimum(cnt_up, self.lv.shape[1] - 1)
        d_up = np.where(has_up, self.lv[rows, up_idx], dups)
        gain = cur - self.lv_lat[rows, up_idx]
        active = has_up & (gain > 1e-12)
        if not active.any():
            return None
        need = (d_up - dups) * t.cores
        nodonor = active & (need <= free)
        donors_from = active & ~nodonor
        best_net = -math.inf
        if nodonor.any():
            best_net = float(gain[nodonor].max())
        valid = None
        if donors_from.any():
            # Largest donor level lv <= dups[q] - ceil((need-free)/cores[q])
            # — exactly the first feasible level of the reference's
            # descending scan.  Non-donor rows carry clamped garbage and
            # are masked out.
            deficit = np.maximum(need - free, 1)
            per_donor = ((deficit[:, None] + t.cores[None, :] - 1)
                         // t.cores[None, :])
            thr = dups[None, :] - per_donor
            cnt_dn = np.add.reduce(
                self.lv[None, :, :] <= thr[:, :, None], axis=2)
            valid = donors_from[:, None] & (cnt_dn > 0)
            valid[rows, rows] = False
            dn_idx = np.maximum(cnt_dn - 1, 0)
            qmat = np.broadcast_to(rows[None, :], (n, n))
            d_down = self.lv[qmat, dn_idx]
            loss = self.lv_lat[qmat, dn_idx] - cur[None, :]
            net = gain[:, None] - loss
            valid &= net > 1e-9
            if valid.any():
                best_net = max(best_net, float(net[valid].max()))
        if best_net == -math.inf:
            return None
        # Exact-float ties: rebuild the reference sort tuples for the
        # tied candidates only and take their minimum.
        ties: List[Tuple[Tuple, Tuple]] = []
        if nodonor.any():
            for p in np.flatnonzero(nodonor & (gain == best_net)):
                p = int(p)
                ties.append(((self.names[p], int(d_up[p])),
                             (p, int(d_up[p]), None, None)))
        if valid is not None and valid.any():
            tied = valid & (net == best_net)
            for p, q in zip(*np.nonzero(tied)):
                p, q = int(p), int(q)
                ties.append(((self.names[p], int(d_up[p]), self.names[q],
                              int(d_down[p, q])),
                             (p, int(d_up[p]), q, int(d_down[p, q]))))
        return min(ties)[1]


# ---------------------------------------------------------------------------
# NoC hop matrices
# ---------------------------------------------------------------------------


def mesh_hop_array(n: int, rows: int, cols: int) -> np.ndarray:
    """Manhattan hop counts on a ``rows x cols`` mesh (int64, n x n)."""
    idx = np.arange(n, dtype=np.int64)
    r, c = idx // cols, idx % cols
    return (np.abs(r[:, None] - r[None, :])
            + np.abs(c[:, None] - c[None, :]))


def htree_hop_array(n: int) -> np.ndarray:
    """H-tree hop counts: ``2 * depth_of_lca`` for each pair (int64).

    ``depth_of_lca(a, b)`` — the number of simultaneous halvings until
    the indices merge — equals the bit length of ``a XOR b``; the bit
    length is read off the float64 exponent (exact for any index far
    below 2**53).
    """
    idx = np.arange(n, dtype=np.int64)
    xor = idx[:, None] ^ idx[None, :]
    depth = np.frexp(xor.astype(np.float64))[1]
    return 2 * depth.astype(np.int64)


def shared_bus_hop_array(n: int) -> np.ndarray:
    """Uniform one-hop cost matrix with a zero diagonal (int64)."""
    hops = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(hops, 0)
    return hops
