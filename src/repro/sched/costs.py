"""The cost model: every latency/resource quantity the scheduler consumes.

This module is the single source of truth shared by all scheduling levels and
by the performance simulator.  Units:

* **cycle** — one crossbar activation wave (ADC conversion folded in), also
  the ALU and buffer clock.
* **crossbar** — one physical array; a VXB groups several (Fig. 7).

Per CIM-supported operator we derive an :class:`OpProfile`:

``mvm_cycles``
    ``input_passes(a_bits) * ceil(rows_per_tile / parallel_row)`` — bit-serial
    DAC passes times sequential row waves.  The VVM remap divides the wave
    count (Section 3.3.4); XBM/CM chips pay the waves internally on every
    ``cim.readxb``/``cim.readcore``.
``compute_cycles``
    ``ceil(num_mvms / duplication) * mvm_cycles`` — sliding windows are
    spread round-robin over replicas.
``alu_cycles`` / ``mov_cycles``
    Digital work over the tier ALU rate and data movement over buffer
    bandwidth plus average NoC hops.  Ideal (``None``) parameters contribute
    zero, matching the paper's "\\" convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from ..arch import BitBinding, CIMArchitecture, ComputingMode, VXBShape, bind
from ..errors import ScheduleError, ShapeError
from ..graph import Graph, Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf import CompileCache


#: Digital ops that re-gather data (windows / global reductions) and so pay
#: buffer traffic; plain elementwise ops stream for free.
_WINDOWED_OPS = frozenset({
    "MaxPool", "AveragePool", "GlobalAveragePool", "MatMul", "Softmax",
    "Concat",
})


@dataclass(frozen=True)
class OpProfile:
    """Static per-operator quantities (duplication-independent)."""

    name: str
    op_type: str
    is_cim: bool
    #: MVM decomposition (CIM ops only; 0 / None otherwise).
    num_mvms: int
    vxb: Optional[VXBShape]
    n_xb: int                 # physical crossbars per replica
    cores_per_replica: int    # cores one replica occupies (CIM ops; 0 digital)
    mvm_cycles_base: int      # cycles per MVM without VVM remap
    row_waves: int            # sequential row waves inside one MVM
    input_passes: int         # bit-serial DAC passes per MVM
    alu_cycles: float         # digital work (ALU) per inference
    mov_cycles: float         # data movement per inference
    weight_bits: int
    in_bits: int
    out_bits: int
    fill_fraction: float      # share of latency before the successor can start
    max_useful_dup: int       # duplication beyond this cannot help
    #: Sequential passes when one replica exceeds the whole chip (the VXB is
    #: time-multiplexed; weights reload between passes).
    seq_passes: int = 1
    #: Weight-reload cycles per pass (0 for single-pass deploy-time loading).
    reload_cycles: float = 0.0

    def latency(self, dup: int = 1, wave_reduction: int = 1,
                window_waves: Optional[int] = None) -> float:
        """End-to-end cycles of this operator at a given duplication and
        VVM wave reduction.

        Data movement overlaps with computation (double-buffered loads, the
        paper's "load/store time can be hidden within the computation
        time"), so the operator is bound by the slower of the two; digital
        post-processing (bias/shift-add) is additive.

        ``window_waves`` overrides the total sequential waves per window
        (used by the VVM remap of time-multiplexed operators, which already
        folds the pass structure in; reload cost stays per-pass).
        """
        if dup < 1 or wave_reduction < 1:
            raise ScheduleError(
                f"{self.name}: dup/wave_reduction must be >= 1"
            )
        if not self.is_cim:
            return max(self.alu_cycles, self.mov_cycles)
        windows = math.ceil(self.num_mvms / min(dup, self.max_useful_dup))
        if window_waves is not None:
            compute = windows * self.input_passes * window_waves
        else:
            compute = windows * self.mvm_cycles(wave_reduction) * \
                self.seq_passes
        compute += self.seq_passes * self.reload_cycles
        return max(compute, self.mov_cycles) + self.alu_cycles

    def mvm_cycles(self, wave_reduction: int = 1) -> int:
        """Cycles per MVM after dividing row waves by ``wave_reduction``."""
        waves = math.ceil(self.row_waves / max(1, wave_reduction))
        return self.input_passes * max(1, waves)

    def fill_cycles(self, dup: int = 1, wave_reduction: int = 1,
                    window_waves: Optional[int] = None) -> float:
        """Pipeline fill: cycles until the first outputs that unblock the
        successor are ready."""
        return self.latency(dup, wave_reduction, window_waves) * \
            self.fill_fraction


class CostModel:
    """Derives :class:`OpProfile` objects for one (graph, architecture).

    Pass a :class:`~repro.perf.CompileCache` to share the derived
    profile dicts across compilations: the cache key is the
    architecture *value* (frozen dataclass), the bit binding, and the
    graph's content signature, so any two evaluations with equal inputs
    reuse the same frozen profiles no matter which subsystem (sweep
    point, serve tenant, shard stage) asked first.
    """

    def __init__(self, arch: CIMArchitecture,
                 bit_binding: BitBinding = BitBinding.XBC,
                 cache: Optional["CompileCache"] = None) -> None:
        self.arch = arch
        self.bit_binding = bit_binding
        self.cache = cache

    # ------------------------------------------------------------------

    def profile(self, graph: Graph, node: Node) -> OpProfile:
        """Build the profile of one node."""
        arch = self.arch
        in_specs = graph.input_specs(node)
        activation_bits = in_specs[0].bits if in_specs else 8
        in_bits = sum(s.size_bits for s in in_specs if not s.is_weight)
        out_bits = sum(
            graph.output_spec(node, i).size_bits
            for i in range(len(node.outputs))
        )
        alu_cycles = self._alu_cycles(graph.alu_ops(node))
        # Elementwise digital ops (ReLU, BatchNorm, residual Add...) fuse
        # into the producer's output stream and cause no extra buffer
        # traffic; CIM ops and window/reduction ops pay for gathering
        # inputs to cores and scattering results back.  The buffer port is
        # per core (ISAAC-style tiled eDRAM), so an operator spanning k
        # cores streams through k ports; duplication does NOT divide the
        # traffic (replicas re-read overlapping input halos — the paper's
        # balance step likewise treats duplication as increasing transfer).
        if graph.is_cim_supported(node):
            mov_cycles = self._mov_cycles(in_bits + out_bits)  # scaled below
        elif node.op_type in _WINDOWED_OPS:
            ports = (1 if self.arch.mode is ComputingMode.CM
                     else self.arch.chip.core_number)
            mov_cycles = self._mov_cycles(in_bits + out_bits) / ports
        else:
            mov_cycles = 0.0

        if not graph.is_cim_supported(node):
            return OpProfile(
                name=node.name, op_type=node.op_type, is_cim=False,
                num_mvms=0, vxb=None, n_xb=0, cores_per_replica=0,
                mvm_cycles_base=0, row_waves=0, input_passes=0,
                alu_cycles=alu_cycles, mov_cycles=mov_cycles,
                weight_bits=0, in_bits=in_bits, out_bits=out_bits,
                fill_fraction=self._fill_fraction(graph, node),
                max_useful_dup=1,
            )

        matrix = graph.weight_matrix(node)
        assert matrix is not None
        vxb = bind(matrix, arch.xb, self.bit_binding)
        n_xb = vxb.num_crossbars
        cores_per_replica = max(1, math.ceil(n_xb / arch.core.xb_number))
        # Intra-operator time multiplexing: when one replica exceeds the
        # whole chip (typical for resource-constrained SRAM CIMs), the VXB
        # executes in sequential passes with a weight reload between passes.
        seq_passes = 1
        reload_cycles = 0.0
        weight_bits = matrix[0] * matrix[1] * matrix[2]
        if cores_per_replica > arch.chip.core_number:
            seq_passes = math.ceil(cores_per_replica / arch.chip.core_number)
            cores_per_replica = arch.chip.core_number
            weight_rows = math.ceil(
                weight_bits / (arch.xb.cols * arch.xb.cell_bits))
            rows_per_core_pass = math.ceil(
                weight_rows / (seq_passes * cores_per_replica))
            reload_cycles = rows_per_core_pass * \
                arch.xb.cell_type.write_cost_ratio
            # Only one pass worth of crossbars is ever resident.
            n_xb = min(n_xb, cores_per_replica * arch.core.xb_number)
        # Worst (fullest) vertical tile dominates the wave count: tiles run
        # in parallel on distinct crossbars, so the full-height tiles set
        # the pace.
        rows_per_tile = arch.xb.rows if vxb.v_rows > 1 else vxb.rows_used
        row_waves = arch.xb.row_waves(rows_per_tile)
        input_passes = arch.xb.input_passes(activation_bits)
        num_mvms = graph.num_mvms(node)
        return OpProfile(
            name=node.name, op_type=node.op_type, is_cim=True,
            num_mvms=num_mvms, vxb=vxb, n_xb=n_xb,
            cores_per_replica=cores_per_replica,
            mvm_cycles_base=input_passes * row_waves,
            row_waves=row_waves, input_passes=input_passes,
            alu_cycles=alu_cycles,
            mov_cycles=mov_cycles / cores_per_replica,
            weight_bits=weight_bits,
            in_bits=in_bits, out_bits=out_bits,
            fill_fraction=self._fill_fraction(graph, node),
            max_useful_dup=1 if seq_passes > 1 else max(1, num_mvms),
            seq_passes=seq_passes,
            reload_cycles=reload_cycles,
        )

    def profiles(self, graph: Graph) -> Dict[str, OpProfile]:
        """Profiles for every node, keyed by node name (memoized when a
        :class:`~repro.perf.CompileCache` is attached)."""
        key = None
        if self.cache is not None:
            key = ("profiles", self.arch, self.bit_binding,
                   graph.signature())
            hit = self.cache.get_profiles(key)
            if hit is not None:
                return hit
        result = {n.name: self.profile(graph, n)
                  for n in graph.topological()}
        if key is not None:
            self.cache.put_profiles(key, result)
        return result

    # ------------------------------------------------------------------

    def _alu_cycles(self, alu_ops: int) -> float:
        """Digital work on the visible ALUs.

        In CM only the chip-tier ALU is exposed (Fig. 4(a): one shared
        digital unit beside the cores).  In XBM/WLM every core carries its
        own ALU (Fig. 4(b)), and elementwise/digital work is data-parallel
        across them, so the aggregate rate scales with the core count.
        """
        if alu_ops <= 0:
            return 0.0
        if self.arch.mode is ComputingMode.CM:
            rate = self.arch.chip.alu_ops
        else:
            per_core = self.arch.core.alu_ops or self.arch.chip.alu_ops
            rate = None if per_core is None else \
                per_core * self.arch.chip.core_number
        if rate is None:
            return 0.0
        return alu_ops / rate

    def _mov_cycles(self, bits: int) -> float:
        """Global-buffer traffic plus average NoC hop penalty."""
        chip = self.arch.chip
        if chip.l0_bw_bits is None or bits <= 0:
            return 0.0
        base = bits / chip.l0_bw_bits
        hops = chip.core_noc.average_cost(chip.core_number)
        return base * (1.0 + hops)

    def _fill_fraction(self, graph: Graph, node: Node) -> float:
        """Fraction of this op's latency the successor must wait before
        starting (inter-operator pipeline, Section 3.3.2).

        Convolutions stream output rows: a 3x3 successor needs ~kernel rows,
        i.e. ``k / OH`` of the output.  Token-wise ops (Gemm/MatMul) need one
        token: ``1 / T``.  Reductions (pooling over everything, softmax) need
        the entire input: 1.0.  An output without an inferred shape also
        gets 1.0 (wait for everything); any other error propagates.
        """
        try:
            out_shape = graph.output_spec(node).shape
        except ShapeError:
            return 1.0
        if node.op_type in ("GlobalAveragePool", "Softmax", "Flatten",
                            "Reshape", "Transpose"):
            return 1.0
        if len(out_shape) == 4:
            oh = out_shape[2]
            k = 3  # typical receptive rows a downstream conv window needs
            return min(1.0, k / max(1, oh))
        if len(out_shape) >= 2:
            tokens = out_shape[-2] if len(out_shape) >= 2 else 1
            return min(1.0, 1.0 / max(1, tokens))
        return 1.0


def chip_fits(profiles: Dict[str, OpProfile], arch: CIMArchitecture) -> bool:
    """True when every CIM op fits simultaneously at duplication 1."""
    need = sum(p.cores_per_replica for p in profiles.values() if p.is_cim)
    return need <= arch.chip.core_number


def reconfiguration_cycles(profiles: Dict[str, OpProfile],
                           arch: CIMArchitecture) -> float:
    """Cycles to (re)load all weights of a segment into crossbars.

    SRAM rewrites at read speed; ReRAM/FLASH pay
    :attr:`CellType.write_cost_ratio`.  One cycle writes one row of one
    crossbar (``cols * cell_bits`` bits), and cores load in parallel.
    """
    xb = arch.xb
    total_rows = 0
    for p in profiles.values():
        if p.is_cim:
            total_rows += math.ceil(p.weight_bits / (xb.cols * xb.cell_bits))
    parallel_cores = max(1, arch.chip.core_number)
    return total_rows * xb.cell_type.write_cost_ratio / parallel_cores
