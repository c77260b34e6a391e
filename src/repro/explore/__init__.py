"""Design-space exploration: declarative sweeps, parallel execution,
result caching, and Pareto/bottleneck analysis.

The paper's evaluation beyond single-model compilation is a family of
*sweeps* — architecture sensitivity (Fig. 22), cross-accelerator
generality (Table 1 / Fig. 20) — and every future scaling study has the
same shape.  This package makes that shape first-class:

* :mod:`~repro.explore.space` — declare a :class:`SweepSpace` (grid or
  explicit points) over architecture variations x models x optimization
  levels.
* :mod:`~repro.explore.runner` — a :class:`SweepRunner` evaluates the
  space, fanning out over processes and memoizing each point's
  performance summary in a content-addressed disk cache.
* :mod:`~repro.explore.pareto` — non-dominated frontier extraction and
  per-point bottleneck attribution (reconfiguration / compute / NoC).
* :mod:`~repro.explore.prefilter` — replay-based link-axis pruning
  (:func:`replay_prefilter`): one full evaluation per link group, the
  rest re-priced exactly through :mod:`repro.trace`.
* :mod:`~repro.explore.report` — CSV / JSON export plus the classic
  experiment-table rendering.

Quickstart
----------
>>> from repro.arch import isaac_baseline
>>> from repro.models import mlp
>>> from repro.explore import SweepRunner, SweepSpace
>>> space = SweepSpace.grid(isaac_baseline(), mlp(), {"cores": [64, 128]})
>>> sweep = SweepRunner().run(space)
>>> len(sweep) == len(space)
True
"""

from .pareto import (
    DEFAULT_OBJECTIVES,
    ENERGY_OBJECTIVES,
    OBJECTIVE_ALIASES,
    OBJECTIVE_KEYS,
    attribute_bottleneck,
    attribute_sweep,
    dominates,
    frontier_labels,
    pareto_frontier,
    resolve_objectives,
)
from .prefilter import PrefilterResult, PrefilterStats, replay_prefilter
from .report import metric_result, speedup_result, to_csv, to_json
from .runner import (
    PointResult,
    ResultCache,
    SweepResult,
    SweepRunner,
    default_cache_dir,
    evaluate_point,
    summarize_multichip,
    summarize_report,
)
from .space import (
    LEVEL_SERIES,
    SCALE_AXES,
    VARIATIONS,
    SweepPoint,
    SweepSpace,
    apply_variation,
    graph_signature,
    level_series,
    resolve_variation,
)

__all__ = [
    "DEFAULT_OBJECTIVES",
    "ENERGY_OBJECTIVES",
    "LEVEL_SERIES",
    "OBJECTIVE_ALIASES",
    "OBJECTIVE_KEYS",
    "PointResult",
    "PrefilterResult",
    "PrefilterStats",
    "ResultCache",
    "SCALE_AXES",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpace",
    "VARIATIONS",
    "apply_variation",
    "attribute_bottleneck",
    "attribute_sweep",
    "default_cache_dir",
    "dominates",
    "evaluate_point",
    "frontier_labels",
    "graph_signature",
    "level_series",
    "metric_result",
    "pareto_frontier",
    "replay_prefilter",
    "resolve_objectives",
    "resolve_variation",
    "speedup_result",
    "summarize_multichip",
    "summarize_report",
    "to_csv",
    "to_json",
]
