"""Exception hierarchy for the CIM-MLC reproduction.

Every error raised by the library derives from :class:`CIMError` so callers
can catch library failures without masking programming mistakes.
"""

from __future__ import annotations


class CIMError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(CIMError):
    """Malformed computation graph (dangling edges, cycles, bad shapes)."""


class ShapeError(GraphError):
    """Shape inference failed or shapes are inconsistent."""


class UnknownOpError(GraphError):
    """An operator type is not present in the op registry."""


class ArchitectureError(CIMError):
    """Invalid hardware-abstraction parameters (Abs-arch)."""


class ModeError(ArchitectureError):
    """Operation not available in the architecture's computing mode."""


class ObjectiveError(CIMError):
    """An optimization objective names no scalar sweep-summary key."""


class ScheduleError(CIMError):
    """The scheduler could not produce a valid mapping."""


class CapacityError(ScheduleError):
    """A single operator does not fit on the CIM even without duplication."""


class CodegenError(CIMError):
    """Meta-operator flow generation or parsing failed."""


class SimulationError(CIMError):
    """The functional or performance simulator hit an invalid state."""


class AllocationError(SimulationError):
    """Crossbar or buffer allocation failed (out of resources)."""
