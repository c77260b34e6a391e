"""Vectorized trace generation: bit-identical to the scalar references.

The vectorized generators in :mod:`repro.serve.workload` batch their
draws through numpy but must reproduce the original scalar algorithms
*bit for bit* — every arrival float, every tenant pick, in order.  These
tests compare against the scalar twins in ``tests/scalar_oracle.py``
across trace kinds, sizes, and seeds, and pin absolute digests so an accidental
change to either side (or to numpy's RNG plumbing) fails loudly.
"""

import struct

import pytest
import scalar_oracle as oracle

from repro.errors import ScheduleError
from repro.serve import TenantSpec, make_trace, trace_digest
from repro.serve.workload import (
    bursty_trace,
    diurnal_bursty_trace,
    diurnal_trace,
    poisson_trace,
)

TENANTS = [TenantSpec("a", "mlp", 3.0), TenantSpec("b", "mlp", 1.0)]
SIZES = (0, 1, 7, 500)
SEEDS = (0, 1, 42)

#: (vectorized, scalar reference) per trace kind.
PAIRS = {
    "poisson": (poisson_trace, oracle.poisson_trace),
    "bursty": (bursty_trace, oracle.bursty_trace),
    "diurnal": (diurnal_trace, oracle.diurnal_trace),
}


def bits(trace):
    """Exact byte image of a trace (distinguishes even -0.0 vs 0.0)."""
    return [(r.index, r.tenant, struct.pack("<d", r.arrival))
            for r in trace]


class TestBitIdentical:
    @pytest.mark.parametrize("kind", sorted(PAIRS))
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_reference(self, kind, n, seed):
        fast, ref = PAIRS[kind]
        assert bits(fast(TENANTS, 1e-4, n, seed=seed)) == \
            bits(ref(TENANTS, 1e-4, n, seed=seed))

    def test_bursty_custom_knobs(self):
        kw = dict(burst_factor=3.0, calm_factor=0.1,
                  mean_dwell_requests=5.0)
        assert bits(bursty_trace(TENANTS, 2e-4, 300, seed=9, **kw)) == \
            bits(oracle.bursty_trace(TENANTS, 2e-4, 300, seed=9, **kw))

    def test_diurnal_custom_knobs(self):
        kw = dict(period=300_000.0, depth=0.95)
        assert bits(diurnal_trace(TENANTS, 2e-4, 300, seed=9, **kw)) == \
            bits(oracle.diurnal_trace(TENANTS, 2e-4, 300, seed=9, **kw))

    def test_single_tenant(self):
        one = [TenantSpec("solo", "mlp")]
        for kind, (fast, ref) in PAIRS.items():
            assert bits(fast(one, 1e-4, 50)) == bits(ref(one, 1e-4, 50))


class TestPinnedDigests:
    """Absolute digests: the generators are a compatibility contract."""

    EXPECTED = {
        "poisson": "8c36fbefa679ae94",
        "bursty": "fd6c36eae333a6b1",
        "diurnal": "4ca21cc9ea9ddc59",
        "diurnal-bursty": "4d04233da3cb408f",
    }

    @pytest.mark.parametrize("kind", sorted(EXPECTED))
    def test_digest_pinned(self, kind):
        trace = make_trace(kind, TENANTS, rate=1e-4, num_requests=500,
                           seed=7)
        assert trace_digest(trace)[:16] == self.EXPECTED[kind]


class TestDiurnalBursty:
    """The fleet-scale MMPP-under-envelope kind (no scalar twin: it is
    new with the fleet subsystem, so its digest above is the pin)."""

    def test_shape_and_determinism(self):
        t1 = diurnal_bursty_trace(TENANTS, 1e-4, 400, seed=3)
        t2 = diurnal_bursty_trace(TENANTS, 1e-4, 400, seed=3)
        assert bits(t1) == bits(t2)
        assert len(t1) == 400
        assert [r.index for r in t1] == list(range(400))
        arrivals = [r.arrival for r in t1]
        assert arrivals == sorted(arrivals)
        assert all(r.tenant in ("a", "b") for r in t1)

    def test_seed_changes_trace(self):
        assert bits(diurnal_bursty_trace(TENANTS, 1e-4, 200, seed=0)) != \
            bits(diurnal_bursty_trace(TENANTS, 1e-4, 200, seed=1))

    def test_long_run_rate_near_nominal(self):
        trace = diurnal_bursty_trace(TENANTS, 1e-3, 20_000, seed=0)
        realized = len(trace) / trace[-1].arrival
        assert 0.8e-3 < realized < 1.25e-3

    def test_bad_knobs_rejected(self):
        with pytest.raises(ScheduleError):
            diurnal_bursty_trace(TENANTS, 1e-4, 10, depth=1.5)
        with pytest.raises(ScheduleError):
            diurnal_bursty_trace(TENANTS, 1e-4, 10, burst_factor=0.0)

    def test_make_trace_dispatch(self):
        via = make_trace("diurnal-bursty", TENANTS, 1e-4, 50, seed=5)
        direct = diurnal_bursty_trace(TENANTS, 1e-4, 50, seed=5)
        assert bits(via) == bits(direct)


class TestTraceDigest:
    def test_digest_distinguishes_fields(self):
        base = poisson_trace(TENANTS, 1e-4, 20, seed=0)
        other = poisson_trace(TENANTS, 1e-4, 20, seed=1)
        assert trace_digest(base) == trace_digest(list(base))
        assert trace_digest(base) != trace_digest(other)
        assert trace_digest([]) == trace_digest(())
