"""Power/energy model for CIM schedules.

Four components.  The first three follow the paper's Section 4.2
breakdown for PUMA ("ADC/DAC, XB activation computation, and data
movement ... account for 10%, 83%, and 7%"); the fourth prices the
weight writes that Section 2.1 identifies as the dominant cost of
weight movement on ReRAM/FLASH:

* **Crossbar activation**: energy per crossbar per active cycle; every row
  wave of every MVM on every resident crossbar pays it.
* **ADC/DAC conversion**: per crossbar activation, scaled by converter
  precision (an 8-bit ADC costs ~2x a 4-bit one per conversion; cost grows
  linearly with resolution bits in our model).
* **Data movement**: per bit crossing the global buffer / NoC.
* **Weight reconfiguration**: per weight bit programmed into a crossbar,
  scaled by the cell technology's
  :attr:`~repro.arch.params.CellType.write_cost_ratio` (a FLASH write
  costs ~100x a read).  Multi-segment schedules pay it *per inference*
  (every segment swap reprograms crossbars); single-segment schedules
  program once at deployment — that one-time cost is
  :meth:`PowerModel.weight_write_energy`, which serving charges on
  tenant switches.

*Peak power* is the instantaneous maximum: the number of simultaneously
active crossbars (plus their converters) at the busiest moment.  The
MVM-grained staggered pipeline reduces exactly this quantity
(:meth:`repro.sched.schedule.OpDecision.active_crossbars`).

All energies are in the same arbitrary units as the latency model's
cycles (the paper's plots are normalized); see ``docs/ENERGY.md`` for
the calibration knobs and the assumptions behind each constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from ..arch import CIMArchitecture
from ..sched.schedule import OpDecision, Schedule

#: Reference energy of one crossbar active for one cycle (arbitrary units;
#: all reported powers are relative, as in the paper's normalized plots).
E_XB_CYCLE = 1.0
#: Converter energy per crossbar activation per resolution bit.
E_CONVERTER_PER_BIT = 0.015
#: Movement energy per bit through the global buffer + NoC.
E_MOVE_PER_BIT = 0.00015
#: Write energy per weight bit programmed into a crossbar at write cost
#: ratio 1 (SRAM); ReRAM/FLASH/PCM scale it by
#: :attr:`~repro.arch.params.CellType.write_cost_ratio`.
E_WRITE_PER_BIT = 0.0005


@dataclass(frozen=True)
class PowerReport:
    """Peak and average power plus the energy breakdown of one schedule."""

    peak_active_crossbars: int
    peak_power: float            # instantaneous worst case (energy/cycle)
    avg_power: float             # total energy / total cycles
    energy_crossbar: float
    energy_converter: float
    energy_movement: float
    #: Per-inference weight-write energy: zero for single-segment
    #: schedules (weights programmed once, at deployment), the full
    #: segment-swap reprogram cost otherwise.
    energy_reconfiguration: float = 0.0

    @property
    def total_energy(self) -> float:
        """Energy of one inference: all four components summed."""
        return self.energy_crossbar + self.energy_converter + \
            self.energy_movement + self.energy_reconfiguration

    def breakdown(self) -> Dict[str, float]:
        """Fractional energy split (sums to 1)."""
        total = self.total_energy
        if total <= 0:
            return {"crossbar": 0.0, "converter": 0.0, "movement": 0.0,
                    "reconfiguration": 0.0}
        return {
            "crossbar": self.energy_crossbar / total,
            "converter": self.energy_converter / total,
            "movement": self.energy_movement / total,
            "reconfiguration": self.energy_reconfiguration / total,
        }


class PowerModel:
    """Evaluates :class:`PowerReport` for a schedule."""

    def __init__(self, arch: CIMArchitecture) -> None:
        self.arch = arch
        xb = arch.xb
        self._e_conv_per_activation = \
            E_CONVERTER_PER_BIT * (xb.adc_bits + xb.dac_bits)
        self._e_write_per_bit = \
            E_WRITE_PER_BIT * xb.cell_type.write_cost_ratio

    # ------------------------------------------------------------------

    def per_xb_cycle_power(self) -> float:
        """Power of one active crossbar including its converters."""
        return E_XB_CYCLE + self._e_conv_per_activation

    def weight_write_energy(self, schedule: Schedule) -> float:
        """Energy to program *every* segment's weights from scratch.

        The deployment analogue of
        :attr:`~repro.sim.performance.PerformanceReport.weight_load_cycles`:
        what a serving system pays to bring this model's weights onto the
        chip, e.g. on a tenant switch.  Like the reconfiguration latency
        model (:func:`repro.sched.costs.reconfiguration_cycles`), it
        counts each operator's weight footprint once — replica copies are
        a calibration simplification documented in ``docs/ENERGY.md``.
        """
        bits = sum(d.profile.weight_bits
                   for d in schedule.decisions.values() if d.profile.is_cim)
        return bits * self._e_write_per_bit

    def evaluate(self, schedule: Schedule, total_cycles: float) -> PowerReport:
        """Compute peak/average power for a scheduled inference taking
        ``total_cycles`` (from the performance simulator).

        The per-decision accumulation deliberately stays scalar: one
        pass over a few dozen operators is cheaper than building numpy
        columns for it (energy reporting is a rounding error next to
        the compile path; see docs/ENERGY.md).
        """
        peak_xbs = self.peak_active_crossbars(schedule)
        e_xb = e_conv = e_move = 0.0
        for d in schedule.decisions.values():
            p = d.profile
            if p.is_cim and p.num_mvms > 0:
                waves = math.ceil(p.row_waves / max(1, d.wave_reduction))
                activations = p.num_mvms * p.input_passes * waves * p.n_xb
                e_xb += activations * E_XB_CYCLE
                e_conv += activations * self._e_conv_per_activation
            e_move += (p.in_bits + p.out_bits) * E_MOVE_PER_BIT
        # Multi-segment schedules reprogram every segment's crossbars on
        # every inference (the latency model's reconfiguration stall);
        # single-segment weights are written once, at deployment.
        e_reconf = 0.0
        if len(schedule.segments) > 1:
            e_reconf = self.weight_write_energy(schedule)
        peak_power = peak_xbs * self.per_xb_cycle_power()
        avg = (e_xb + e_conv + e_move + e_reconf) / max(1.0, total_cycles)
        return PowerReport(
            peak_active_crossbars=peak_xbs,
            peak_power=peak_power,
            avg_power=avg,
            energy_crossbar=e_xb,
            energy_converter=e_conv,
            energy_movement=e_move,
            energy_reconfiguration=e_reconf,
        )

    def peak_active_crossbars(self, schedule: Schedule) -> int:
        """Most crossbars simultaneously active at any time.

        In a pipelined segment every operator computes concurrently, so
        actives sum across the segment; without the inter-operator pipeline
        only one operator runs at a time.
        """
        peak = 0
        for seg in range(len(schedule.segments)):
            decisions = schedule.segment_decisions(seg)
            if schedule.pipelined:
                active = sum(d.active_crossbars() for d in decisions)
            else:
                active = max((d.active_crossbars() for d in decisions),
                             default=0)
            peak = max(peak, active)
        return peak
