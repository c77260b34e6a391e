"""Performance layer: fast-path toggle, compile cache, numpy kernels.

The hot compile→simulate path is accelerated by three cooperating
pieces, all bit-identical to the reference implementations they bypass
(see ``docs/PERFORMANCE.md``):

* :mod:`repro.perf.fastpath` — a global switch selecting the optimized
  or the reference route (``repro bench`` times both);
* :mod:`repro.perf.cache` — :class:`CompileCache`, the in-process
  content-addressed memo for per-op profiles, duplication searches, and
  graph segmentations, shared across sweep points / serve tenants /
  shard stages / fleet replicas.  Every cached compile is
  ``CIMMLC(arch, options, cache=cache).compile(graph)``;
* :mod:`repro.perf.kernels` — vectorized (numpy) forms of the
  per-operator scheduler and simulator loops.

:mod:`repro.perf.bench` adds the ``repro bench`` harness that measures
the speedup and pins reference/fast report equality.
"""

from .cache import CompileCache
from .fastpath import fastpath, fastpath_enabled, set_fastpath

__all__ = [
    "CompileCache",
    "fastpath",
    "fastpath_enabled",
    "set_fastpath",
]
