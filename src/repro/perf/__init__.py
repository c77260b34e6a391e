"""Performance layer: compile cache, numpy kernels, bench workloads.

The hot compile→simulate path is accelerated by two cooperating
pieces (see ``docs/PERFORMANCE.md``):

* :mod:`repro.perf.cache` — :class:`CompileCache`, the in-process
  content-addressed memo for per-op profiles, duplication searches, and
  graph segmentations, shared across sweep points / serve tenants /
  shard stages / fleet replicas.  Every cached compile is
  ``CIMMLC(arch, options, cache=cache).compile(graph)``;
* :mod:`repro.perf.kernels` — vectorized (numpy) forms of the
  per-operator scheduler and simulator loops.  Their scalar oracles
  live in ``tests/scalar_oracle.py``, which pins them bit-identical.

:mod:`repro.perf.bench` holds the hot-path workloads whose result
digests the ``bench`` entry of ``repro reproduce`` pins.
"""

from .cache import CompileCache

__all__ = [
    "CompileCache",
]
