"""The complete CIM hardware abstraction: three tiers plus a computing mode.

:class:`CIMArchitecture` is the single object handed to the compiler; it
bundles :class:`ChipTier`, :class:`CoreTier`, :class:`CrossbarTier` and the
:class:`ComputingMode`, enforces the mode's tier-visibility rule
(Section 3.2: "the hardware scheduling granularity provided by the CIM
architecture determines the supported computing mode and the architecture
abstraction parameters exposed to the compiler"), and offers derived
capacity quantities used throughout scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..errors import ArchitectureError, ModeError
from .modes import ComputingMode
from .params import CellType, ChipTier, CoreTier, CrossbarTier


@dataclass(frozen=True)
class CIMArchitecture:
    """One CIM accelerator as seen by the compiler."""

    name: str
    chip: ChipTier
    core: CoreTier
    xb: CrossbarTier
    mode: ComputingMode = ComputingMode.XBM

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError("architecture name must be non-empty")

    # ------------------------------------------------------------------
    # Derived capacities
    # ------------------------------------------------------------------

    @property
    def total_crossbars(self) -> int:
        """Crossbars on the whole chip."""
        return self.chip.core_number * self.core.xb_number

    @property
    def core_capacity_bits(self) -> int:
        """Weight storage of one core."""
        return self.core.xb_number * self.xb.capacity_bits

    @property
    def chip_capacity_bits(self) -> int:
        """Weight storage of the whole chip."""
        return self.chip.core_number * self.core_capacity_bits

    # ------------------------------------------------------------------
    # Mode-gated tier access
    # ------------------------------------------------------------------

    def visible_chip(self) -> ChipTier:
        """Chip-tier parameters (visible in every mode)."""
        return self.chip

    def visible_core(self) -> CoreTier:
        """Core-tier parameters; requires XBM or WLM."""
        if self.mode.visible_tiers < 2:
            raise ModeError(
                f"{self.name}: core tier is not exposed in {self.mode} mode"
            )
        return self.core

    def visible_xb(self) -> CrossbarTier:
        """Crossbar-tier parameters; requires WLM."""
        if self.mode.visible_tiers < 3:
            raise ModeError(
                f"{self.name}: crossbar tier is not exposed in {self.mode} mode"
            )
        return self.xb

    def supports(self, level: str) -> bool:
        """Whether scheduling level "CG"/"MVM"/"VVM" applies to this chip."""
        return self.mode.supports(level)

    # ------------------------------------------------------------------
    # Variation helpers (sensitivity studies, Fig. 22)
    # ------------------------------------------------------------------

    def with_cores(self, core_number: int) -> "CIMArchitecture":
        """Vary the chip-tier core count (Fig. 22(a))."""
        return replace(self, chip=replace(self.chip, core_number=core_number,
                                          core_grid=None))

    def with_xb_number(self, xb_number: int) -> "CIMArchitecture":
        """Vary the per-core crossbar count (Fig. 22(b))."""
        return replace(self, core=replace(self.core, xb_number=xb_number,
                                          xb_grid=None))

    def with_xb_size(self, xb_size: Tuple[int, int]) -> "CIMArchitecture":
        """Vary the crossbar shape (Fig. 22(c)); clamps parallel_row."""
        parallel = self.xb.parallel_row
        if parallel is not None:
            parallel = min(parallel, xb_size[0])
        return replace(self, xb=replace(self.xb, xb_size=tuple(xb_size),
                                        parallel_row=parallel))

    def with_parallel_row(self, parallel_row: Optional[int]) -> "CIMArchitecture":
        """Vary the simultaneously-activated wordline count (Fig. 22(d))."""
        return replace(self, xb=replace(self.xb, parallel_row=parallel_row))

    def with_cell_type(self, cell_type: CellType,
                       name: Optional[str] = None) -> "CIMArchitecture":
        """Same tiers on a different memory device (write-cost studies)."""
        return replace(self, name=name or self.name,
                       xb=replace(self.xb, cell_type=cell_type))

    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """The Figs. 17-19-style abstraction dictionary for display."""
        chip: Dict[str, Any] = {
            "core_number": self.chip.core_number,
            "ALU": self.chip.alu_ops,
            "core_noc": self.chip.core_noc.topology,
            "L0 size": self.chip.l0_size_bits,
            "L0 BW": self.chip.l0_bw_bits,
        }
        core: Dict[str, Any] = {
            "xb_number": self.core.xb_number,
            "ALU": self.core.alu_ops,
            "xb_noc": self.core.xb_noc.topology,
            "L1 size": self.core.l1_size_bits,
            "L1 BW": self.core.l1_bw_bits,
        }
        xb: Dict[str, Any] = {
            "xb_size": list(self.xb.xb_size),
            "parallel row": self.xb.effective_parallel_row,
            "DAC": f"{self.xb.dac_bits}-bit",
            "ADC": f"{self.xb.adc_bits}-bit",
            "Type": self.xb.cell_type.value,
            "Precision": f"{self.xb.cell_bits}-bit",
        }
        return {
            "Chip_tier": chip,
            "Core_tier": core,
            "XB_tier": xb,
            "Computing_Mode": self.mode.value,  # type: ignore[dict-item]
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.name} [{self.mode}] cores={self.chip.core_number} "
                f"xbs/core={self.core.xb_number} "
                f"xb={self.xb.rows}x{self.xb.cols} "
                f"{self.xb.cell_type.value}/{self.xb.cell_bits}b")
