"""The serving event loop: arrival-stream order, oracle differential,
and pinned outputs on degenerate traces.

Production streams trace arrivals past the event heap
(:class:`repro.serve.engine.EventLoop`); the oracle in
``tests/scalar_oracle.py`` pushes every arrival onto the heap before the
loop starts.  Both must simulate every serve and fleet scenario to the
same report digest.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import scalar_reference

from repro.arch import ChipLink
from repro.faults import FaultModel
from repro.fleet import (
    AdmissionControl,
    Autoscaler,
    FleetPlan,
    parse_router,
    simulate_fleet,
)
from repro.serve import (
    EventLoop,
    FixedBatch,
    ServiceProfile,
    ServingPlan,
    TenantPlan,
    TenantSpec,
    TimeoutBatch,
    simulate,
)
from repro.serve.engine import _ARRIVAL, _COMPLETE, _TIMER
from repro.serve.workload import Request

#: Every time in these scenarios is a multiple of this grid, so
#: arrivals, batch deadlines, completions, link hops, autoscaler ticks
#: and fault times coincide often.
GRID = 50.0


def replica(mode="spatial"):
    """Two tenants whose service times sit on the grid."""
    plans = tuple(
        TenantPlan(spec=TenantSpec(name, "mlp"), cores=(i,),
                   service=ServiceProfile(latency_cycles=latency,
                                          interval_cycles=GRID,
                                          switch_cycles=GRID,
                                          energy_per_inference=2.0,
                                          switch_energy=1.0,
                                          deploy_cycles=2 * GRID,
                                          deploy_energy=500.0))
        for i, (name, latency) in enumerate([("a", 2 * GRID),
                                             ("b", 3 * GRID)]))
    return ServingPlan(mode=mode, arch_name="synthetic", tenants=plans)


def fleet_plan(mode="spatial", n=3):
    """``n`` replicas behind a front end whose hops take one grid step."""
    return FleetPlan(replicas=tuple(replica(mode) for _ in range(n)),
                     link=ChipLink(bandwidth_bits=1.0, latency_cycles=0.0,
                                   energy_per_bit=0.01),
                     request_bits=GRID, response_bits=GRID)


def make_requests(pairs):
    """``(tenant, grid step)`` pairs as a trace, in the given order."""
    return [Request(i, tenant, GRID * step)
            for i, (tenant, step) in enumerate(pairs)]


def stably_sorted(trace):
    return sorted(trace, key=lambda req: req.arrival)


POLICIES = [FixedBatch(2), TimeoutBatch(3, 2 * GRID)]
ADMISSIONS = [None, AdmissionControl(max_outstanding=2),
              AdmissionControl(max_outstanding=3, slo_budget=2.0,
                               fairness=True)]
AUTOSCALER = Autoscaler(tick_cycles=4 * GRID, min_replicas=1,
                        up_threshold=2.0, down_threshold=1.0,
                        hold_ticks=1)

traces = st.lists(st.tuples(st.sampled_from(["a", "b"]),
                            st.integers(0, 40)),
                  max_size=60).map(make_requests)

faults = st.one_of(
    st.none(),
    st.builds(lambda k: FaultModel(drift_interval=GRID * k),
              st.integers(1, 20)),
    st.builds(lambda k, rid: FaultModel(chip_death_time=GRID * k,
                                        chip_death_rid=rid),
              st.integers(0, 40), st.integers(0, 2)),
    st.builds(lambda d, k, rid: FaultModel(drift_interval=GRID * d,
                                           chip_death_time=GRID * k,
                                           chip_death_rid=rid),
              st.integers(1, 20), st.integers(0, 40), st.integers(0, 2)),
)


# ---------------------------------------------------------------------------
# The loop itself
# ---------------------------------------------------------------------------


class TestEventLoop:
    def test_stream_pops_in_stable_arrival_order(self):
        trace = make_requests([("a", 3), ("b", 1), ("a", 3), ("b", 1)])
        loop = EventLoop(trace)
        assert len(loop) == 4
        popped = [loop.pop() for _ in range(4)]
        assert [p[2].index for p in popped] == [1, 3, 0, 2]
        assert {p[1] for p in popped} == {_ARRIVAL}
        assert not loop and len(loop) == 0

    def test_arrival_wins_a_tie_with_an_earlier_push(self):
        loop = EventLoop(make_requests([("a", 2)]), kind=7)
        loop.push(GRID * 2, _TIMER, "timer")
        loop.push(GRID * 1, _COMPLETE, "done")
        assert [loop.pop()[1:] for _ in range(3)] == [
            (_COMPLETE, "done"), (7, Request(0, "a", GRID * 2)),
            (_TIMER, "timer")]

    def test_heap_events_tie_break_by_push_order(self):
        loop = EventLoop()
        for name in ("x", "y", "z"):
            loop.push(GRID, _TIMER, name)
        assert [loop.pop()[2] for _ in range(3)] == ["x", "y", "z"]

    def test_last_arrival(self):
        assert EventLoop().last_arrival == 0.0
        trace = make_requests([("a", 5), ("b", 2)])
        assert EventLoop(trace).last_arrival == GRID * 5


# ---------------------------------------------------------------------------
# Differential: production against the heap-only oracle
# ---------------------------------------------------------------------------


class TestOracleDifferential:
    @settings(max_examples=40, deadline=None)
    @given(trace=traces, mode=st.sampled_from(["spatial", "temporal"]),
           policy=st.sampled_from(POLICIES),
           max_queue=st.sampled_from([None, 2]))
    def test_serve_matches_oracle(self, trace, mode, policy, max_queue):
        def digest():
            return simulate(replica(mode), trace, policy=policy,
                            max_queue=max_queue).digest()

        fast = digest()
        with scalar_reference():
            assert digest() == fast

    @settings(max_examples=60, deadline=None)
    @given(trace=traces, mode=st.sampled_from(["spatial", "temporal"]),
           policy=st.sampled_from(POLICIES),
           router=st.sampled_from(["rr", "least-loaded", "affinity:3",
                                   "power:100"]),
           admission=st.sampled_from(ADMISSIONS),
           autoscaler=st.sampled_from([None, AUTOSCALER]),
           fault=faults)
    def test_fleet_matches_oracle(self, trace, mode, policy, router,
                                  admission, autoscaler, fault):
        def digest():
            return simulate_fleet(
                fleet_plan(mode), trace, policy=policy,
                router=parse_router(router), admission=admission,
                autoscaler=autoscaler, fault=fault).digest()

        fast = digest()
        with scalar_reference():
            assert digest() == fast

    def test_reroutes_drift_and_scaling_match_oracle(self):
        # One scenario that provably exercises every runtime event kind:
        # a chip death with queued and in-flight requests to re-route,
        # drift rewrites, and autoscaler ticks on arrival times.
        trace = make_requests([("a" if i % 3 else "b", i // 4)
                               for i in range(80)])
        kw = dict(policy=TimeoutBatch(3, 2 * GRID), autoscaler=AUTOSCALER,
                  fault=FaultModel(drift_interval=4 * GRID,
                                   chip_death_time=6 * GRID,
                                   chip_death_rid=0))
        report = simulate_fleet(fleet_plan(), trace, **kw)
        assert report.fault["rerouted_requests"] > 0
        assert report.drift_rewrites > 0
        assert any(e[1] == "up" for e in report.scale_events)
        with scalar_reference():
            assert simulate_fleet(fleet_plan(), trace, **kw).digest() \
                == report.digest()


# ---------------------------------------------------------------------------
# Degenerate traces
# ---------------------------------------------------------------------------


class TestDegenerateTraces:
    def test_empty_trace_serve(self):
        report = simulate(replica(), [])
        assert report.completed == 0
        assert report.p99 == 0.0
        assert report.horizon_cycles == 0.0

    def test_empty_trace_fleet(self):
        report = simulate_fleet(fleet_plan(), [], autoscaler=AUTOSCALER)
        assert report.completed == 0
        assert report.p99 == 0.0
        assert report.horizon_cycles == 0.0
        assert report.scale_events == ()

    def test_one_request_serve(self):
        report = simulate(replica(), make_requests([("b", 2)]))
        assert report.completed == 1
        # Flushed at once (no further arrivals): the first weight load
        # plus one isolated inference.
        assert report.p50 == report.p99 == 4 * GRID
        assert report.horizon_cycles == 6 * GRID

    def test_one_request_fleet(self):
        report = simulate_fleet(fleet_plan(), make_requests([("b", 2)]))
        assert report.completed == 1
        # Inbound hop + weight load + isolated inference + response hop.
        assert report.p50 == report.p99 == 6 * GRID
        assert report.horizon_cycles == 8 * GRID
        assert [r.completed for r in report.replicas] == [1, 0, 0]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unsorted_trace_equals_stably_sorted(self, seed):
        pairs = [("a" if i % 2 else "b", i % 7) for i in range(40)]
        random.Random(seed).shuffle(pairs)
        trace = make_requests(pairs)
        assert trace != stably_sorted(trace)
        assert simulate(replica(), trace).digest() == \
            simulate(replica(), stably_sorted(trace)).digest()
        kw = dict(autoscaler=AUTOSCALER,
                  fault=FaultModel(drift_interval=2 * GRID))
        assert simulate_fleet(fleet_plan(), trace, **kw).digest() == \
            simulate_fleet(fleet_plan(), stably_sorted(trace),
                           **kw).digest()
