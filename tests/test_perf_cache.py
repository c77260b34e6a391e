"""Production vs. the scalar oracle: bit-identical results, observable
reuse.

Three layers of pinning:

* **kernel equality** — every production kernel (NoC costs, latency/
  fill evaluation, useful-duplication scan, duplication searches,
  refine-exchange, placement scoring) produces values ``==`` to its
  plain form in ``tests/scalar_oracle.py`` across models, presets,
  topologies, synthetic segments of up to 120 operators, and
  degenerate inputs;
* **report equality** — whole ``PerformanceReport`` /
  ``MultiChipReport`` objects and sweep summaries match field-for-field
  between production and a run inside ``scalar_reference()``;
* **cache behaviour** — :class:`repro.perf.CompileCache` hit counters
  prove profiles/duplication searches are shared, the sweep runner
  deduplicates identical points, and its worker pool persists across
  runs; a one-axis architecture family sharing one cache compiles
  bit-identically to from-scratch, and equal graph copies sharing a
  cache never share a schedule.
"""

import math
import random
import re
import types

import pytest
import scalar_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import scalar_reference

from repro.arch import (
    MultiChipSystem,
    functional_testbed,
    isaac_baseline,
    noc,
    table2_example,
)
from repro.errors import CapacityError
from repro.explore import SweepPoint, SweepRunner, SweepSpace, level_series
from repro.explore import runner as runner_mod
from repro.models import lenet, mlp, resnet18, vit_tiny
from repro.perf import CompileCache, kernels
from repro.perf.bench import run_bench
from repro.reproduce import DEFAULT_GOLDENS_DIR, load_golden
from repro.sched import CIMMLC, CompilerOptions, cg, no_optimization
from repro.sched.cg import (
    _refine_exchange,
    _useful_dups,
    duplicate_min_bottleneck,
    duplicate_min_total,
    pipelined_latency,
    sequential_latency,
)
from repro.sched.costs import CostModel, OpProfile
from repro.sched.placement import place_greedy
from repro.sched.schedule import OpDecision
from repro.scale import shard
from repro.sim.performance import PerformanceSimulator


def _report_fields(report):
    return {
        "total": report.total_cycles,
        "compute": report.compute_cycles,
        "reconf": report.reconfiguration_cycles,
        "segments": report.segments,
        "op_latency": report.op_latency,
        "power": report.power,
        "weight_load": report.weight_load_cycles,
        "intervals": report.segment_intervals,
        "steady": report.steady_state_interval,
    }


class TestNocKernelEquality:
    @pytest.mark.parametrize("spec", [
        noc.mesh(1.0), noc.mesh(2.5), noc.mesh(1.0, grid=(4, 8)),
        noc.htree(1.0), noc.htree(0.7), noc.shared_bus(3.0),
        noc.NocSpec("ideal"),
        noc.matrix_noc([[0.5 * abs(i - j) + (0.1 if i == j else 0.0)
                         for j in range(32)] for i in range(32)]),
    ])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 17, 32])
    def test_average_and_max_cost(self, spec, n):
        prod = (spec.average_cost(n), spec.max_cost(n))
        ref = (oracle.average_cost(spec, n), oracle.max_cost(spec, n))
        assert prod == ref  # exact, not approx
        assert all(isinstance(v, float) for v in prod)


#: (model factory, architecture factory) pairs covering the three
#: computing modes and both big and tiny graphs.
CASES = [
    (mlp, functional_testbed),
    (lenet, isaac_baseline),
    (vit_tiny, lambda: isaac_baseline().with_xb_size((128, 256))),
    (mlp, table2_example),
]


#: One synthetic operator: (is_cim, num_mvms, row_waves, input_passes,
#: cores, alu, mov, seq_passes, reload, max-dup share, fill fraction).
#: Few MVMs, large movement, multi-pass operators and the useful-dup cap
#: all make latency plateaus where one more replica does not help.
_OP_PARAMS = st.tuples(
    st.sampled_from([True, True, True, False]),
    st.one_of(st.integers(0, 12), st.integers(1, 5000)),
    st.integers(1, 8), st.integers(1, 16), st.integers(1, 4),
    st.one_of(st.just(0.0), st.floats(0.0, 5e4)),
    st.one_of(st.just(0.0), st.floats(0.0, 2e6)),
    st.sampled_from([1, 1, 1, 2, 3]),
    st.floats(0.0, 1e4),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)


def _synthetic_profile(name, params):
    """An ``OpProfile`` with the field relations ``CostModel`` keeps."""
    (is_cim, num_mvms, row_waves, passes, cores, alu, mov, seq_passes,
     reload, dup_share, fill) = params
    if not is_cim:
        return OpProfile(
            name=name, op_type="Relu", is_cim=False, num_mvms=0, vxb=None,
            n_xb=0, cores_per_replica=0, mvm_cycles_base=0, row_waves=0,
            input_passes=0, alu_cycles=alu, mov_cycles=mov, weight_bits=0,
            in_bits=1, out_bits=1, fill_fraction=fill, max_useful_dup=1)
    max_dup = 1 if seq_passes > 1 else \
        max(1, math.ceil(dup_share * num_mvms))
    return OpProfile(
        name=name, op_type="Conv", is_cim=True, num_mvms=num_mvms,
        vxb=None, n_xb=cores, cores_per_replica=cores,
        mvm_cycles_base=passes * row_waves, row_waves=row_waves,
        input_passes=passes, alu_cycles=alu, mov_cycles=mov,
        weight_bits=1, in_bits=1, out_bits=1, fill_fraction=fill,
        max_useful_dup=max_dup, seq_passes=seq_passes,
        reload_cycles=reload if seq_passes > 1 else 0.0)


@st.composite
def synthetic_segments(draw):
    """1-120 synthetic operators drawn from a small template pool (so
    equal latencies, and with them bottleneck ties, are common) and a
    core budget from just infeasible to loose."""
    templates = draw(st.lists(_OP_PARAMS, min_size=1, max_size=12))
    n = draw(st.one_of(st.integers(1, 8), st.integers(41, 120),
                       st.integers(1, 120)))
    picks = draw(st.lists(st.integers(0, len(templates) - 1),
                          min_size=n, max_size=n))
    profiles = [_synthetic_profile(f"op{i}", templates[k])
                for i, k in enumerate(picks)]
    base = sum(p.cores_per_replica for p in profiles
               if p.is_cim and p.num_mvms > 0)
    slack = draw(st.one_of(st.integers(-2, 8),
                           st.integers(0, 4 * base + 64)))
    return profiles, max(1, base + slack)


class TestReportEquality:
    @pytest.mark.parametrize("model,arch_fn", CASES)
    def test_compile_reports_identical(self, model, arch_fn):
        arch = arch_fn()
        fast = CIMMLC(arch).compile(model())
        with scalar_reference():
            ref = CIMMLC(arch).compile(model())
        assert _report_fields(ref.report) == _report_fields(fast.report)

    @pytest.mark.parametrize("model,arch_fn", CASES[:2])
    def test_baseline_reports_identical(self, model, arch_fn):
        arch = arch_fn()
        fast = no_optimization(model(), arch)
        with scalar_reference():
            ref = no_optimization(model(), arch)
        assert _report_fields(ref.report) == _report_fields(fast.report)

    def test_simulator_identical_on_one_schedule(self):
        arch = isaac_baseline()
        schedule = CIMMLC(arch).schedule(lenet())
        fast = PerformanceSimulator(arch).run(schedule)
        with scalar_reference():
            ref = PerformanceSimulator(arch).run(schedule)
        assert _report_fields(ref) == _report_fields(fast)

    def test_multichip_report_identical(self):
        fast = shard(resnet18(), MultiChipSystem(isaac_baseline(), 2))
        with scalar_reference():
            ref = shard(resnet18(), MultiChipSystem(isaac_baseline(), 2))
        assert ref.stages == fast.stages
        assert ref.report.total_cycles == fast.report.total_cycles
        assert ref.report.steady_state_interval == \
            fast.report.steady_state_interval
        assert ref.report.channel_occupancies == \
            fast.report.channel_occupancies
        assert ref.report.transfers == fast.report.transfers
        for a, b in zip(ref.report.stages, fast.report.stages):
            assert _report_fields(a) == _report_fields(b)


class TestSearchKernelEquality:
    # table2_example is excluded: the whole model exceeds its 2-core
    # chip, so a single-segment search raises CapacityError on both
    # paths (the compile path segments first — covered above).
    @pytest.mark.parametrize("model,arch_fn", CASES[:3])
    def test_duplication_searches_identical(self, model, arch_fn):
        arch = arch_fn()
        profiles = list(CostModel(arch).profiles(model()).values())
        budget = arch.chip.core_number
        fast = (duplicate_min_bottleneck(profiles, budget),
                duplicate_min_total(profiles, budget))
        ref = (oracle.duplicate_min_bottleneck(profiles, budget),
               oracle.duplicate_min_total(profiles, budget))
        assert ref == fast

    @pytest.mark.parametrize("model,arch_fn", CASES[:3])
    def test_refine_exchange_identical(self, model, arch_fn):
        # From the undivided start every operator is a candidate, so
        # the whole move sequence (not just a no-op) is compared.
        arch = arch_fn()
        cim = [p for p in CostModel(arch).profiles(model()).values()
               if p.is_cim]
        budget = arch.chip.core_number
        start = {p.name: 1 for p in cim}
        assert _refine_exchange(cim, budget, dict(start)) == \
            oracle.refine_exchange(cim, budget, dict(start))

    # 511/512 straddled a former numpy size cutoff; they stay as two
    # regression points of the one scan.
    @pytest.mark.parametrize("num_mvms", [511, 512])
    @pytest.mark.parametrize("cores_per_replica", [1, 3])
    @pytest.mark.parametrize("budget", [1, 7, 64, 511, 4096])
    def test_useful_dups_either_side_of_the_cutoff(
            self, num_mvms, cores_per_replica, budget):
        p = types.SimpleNamespace(num_mvms=num_mvms,
                                  max_useful_dup=num_mvms,
                                  cores_per_replica=cores_per_replica)
        assert _useful_dups(p, budget) == oracle.useful_dups(p, budget)

    @settings(max_examples=120, deadline=None)
    @given(case=synthetic_segments())
    def test_min_bottleneck_matches_oracle_any_size(self, case):
        # Real compiles barely reach past 40 CIM operators; this covers
        # 1-120 with tight and loose budgets, ties and plateaus.
        profiles, budget = case
        try:
            want = oracle.duplicate_min_bottleneck(profiles, budget)
        except CapacityError as exc:
            with pytest.raises(CapacityError, match=re.escape(str(exc))):
                duplicate_min_bottleneck(profiles, budget, CompileCache())
            return
        got = duplicate_min_bottleneck(profiles, budget, CompileCache())
        assert got == want
        assert all(type(d) is int for d in got.values())

    @settings(max_examples=200, deadline=None)
    @given(num_mvms=st.one_of(st.integers(0, 600), st.integers(0, 200_000)),
           cap=st.one_of(st.integers(-2, 70), st.integers(0, 300_000)))
    def test_useful_dups_any_size(self, num_mvms, cap):
        assert cg._useful_dups_scan(num_mvms, cap) == \
            oracle.useful_dups_scan(num_mvms, cap)

    def test_placement_identical(self):
        for model, arch_fn in CASES[:3]:
            schedule = CIMMLC(arch_fn()).schedule(model())
            for seg in range(len(schedule.segments)):
                for io_anchor in (None, 0):
                    assert place_greedy(schedule, seg,
                                        io_anchor=io_anchor) == \
                        oracle.place_greedy(schedule, seg,
                                            io_anchor=io_anchor)


class TestSegmentLatency:
    @pytest.mark.parametrize("model,arch_fn", CASES)
    def test_latencies_and_bottleneck_identical(self, model, arch_fn):
        schedule = CIMMLC(arch_fn()).schedule(model())
        for seg in range(len(schedule.segments)):
            decisions = schedule.segment_decisions(seg)
            assert pipelined_latency(decisions) == \
                oracle.pipelined_latency(decisions)
            assert sequential_latency(decisions) == \
                oracle.sequential_latency(decisions)
            for pipelined in (True, False):
                lats, b_idx, cycles = kernels.segment_cycles(
                    decisions, pipelined)
                assert (lats, b_idx, cycles) == \
                    oracle.segment_cycles(decisions, pipelined)

    @settings(max_examples=80, deadline=None)
    @given(case=synthetic_segments(), dup_seed=st.integers(0, 2**32 - 1))
    def test_synthetic_segments_match_oracle(self, case, dup_seed):
        profiles, _ = case
        rng = random.Random(dup_seed)
        decisions = [OpDecision(p, dup_cg=rng.randint(1, p.max_useful_dup))
                     for p in profiles]
        for pipelined in (True, False):
            assert kernels.segment_cycles(decisions, pipelined) == \
                oracle.segment_cycles(decisions, pipelined)

    def test_empty_segment_is_float_zero(self):
        for fn in (pipelined_latency, sequential_latency):
            value = fn([])
            assert value == 0.0 and isinstance(value, float)


class TestCompileCache:
    def test_profiles_shared_across_compilations(self):
        cache = CompileCache()
        arch = functional_testbed()
        a = CIMMLC(arch, cache=cache).compile(mlp())
        misses = cache.profile_misses
        b = CIMMLC(arch, cache=cache).compile(mlp())
        assert cache.profile_hits >= 1
        assert cache.profile_misses == misses   # no new profile work
        assert _report_fields(a.report) == _report_fields(b.report)

    def test_content_addressing_ignores_object_identity(self):
        # Two distinct but equal graphs / architectures share entries.
        cache = CompileCache()
        graphs = (mlp(), mlp())
        a = CIMMLC(functional_testbed(), cache=cache).compile(graphs[0])
        b = CIMMLC(functional_testbed(), cache=cache).compile(graphs[1])
        assert cache.profile_hits >= 1 and cache.dup_hits >= 1
        # ...but never one schedule: equal copies (fleet replicas, serve
        # tenants) each get their own, annotating only their own graph.
        assert a.schedule is not b.schedule
        for graph, result in zip(graphs, (a, b)):
            assert result.schedule.graph is graph
            for name, decision in result.schedule.decisions.items():
                ann = graph.node(name).annotations
                assert ann["duplication"] == decision.dup_cg
                assert ann["segment"] == decision.segment

    def test_series_share_dup_searches(self):
        # CG and CG+MVM run the same CG-level search: one miss, one hit.
        cache = CompileCache()
        arch = isaac_baseline()
        CIMMLC(arch, CompilerOptions(max_level="CG"),
               cache=cache).compile(lenet())
        hits_before = cache.dup_hits
        CIMMLC(arch, CompilerOptions(max_level="MVM"),
               cache=cache).compile(lenet())
        assert cache.dup_hits > hits_before
        assert cache.segment_hits >= 1

    def test_stats_and_clear(self):
        cache = CompileCache()
        CIMMLC(functional_testbed(), cache=cache).compile(mlp())
        stats = cache.stats()
        assert stats["profiles_stored"] >= 1
        cache.clear()
        stats = cache.stats()
        assert stats["profiles_stored"] == 0 and stats["profile_hits"] == 0

    def test_cache_does_not_change_results(self):
        # A one-axis (core count) family compiled through one shared
        # cache matches a from-scratch compile at every point.
        arch = functional_testbed()
        cache = CompileCache()
        for cores in (16, 24, 32):
            cached = CIMMLC(arch.with_cores(cores),
                            cache=cache).compile(mlp())
            plain = CIMMLC(arch.with_cores(cores)).compile(mlp())
            assert _report_fields(plain.report) == \
                _report_fields(cached.report)
        # Core count is part of every key: no point reused another's
        # profiles, segmentation, or duplication search.
        stats = cache.stats()
        assert stats["profiles_stored"] == stats["segments_stored"] == 3
        assert stats["dups_stored"] == 3


class TestSweepRunnerFastPath:
    def _point(self, label, arch, graph):
        return SweepPoint(label, "CG", arch, graph,
                          CompilerOptions(max_level="CG"))

    def test_dedup_identical_points(self, monkeypatch):
        base = functional_testbed()
        graph = mlp()
        space = SweepSpace([
            self._point("a", base, graph),
            self._point("twin-of-a", base, graph),
            self._point("b", base.with_cores(8), graph),
        ])
        calls = []
        real = runner_mod.evaluate_point
        monkeypatch.setattr(runner_mod, "evaluate_point",
                            lambda p: calls.append(p.label) or real(p))
        result = SweepRunner().run(space)
        assert result.deduped == 1
        assert result.cache_misses == 2
        assert sorted(calls) == ["a", "b"]      # twin never dispatched
        assert result.results[0].summary == result.results[1].summary
        assert len(result) == 3                 # order and size preserved

    def test_pool_persists_until_new_graph(self):
        base = functional_testbed()
        with SweepRunner(workers=2) as runner:
            series = level_series(["CG"])
            space1 = SweepSpace.from_arch_points(
                [("c8", base.with_cores(8)), ("c16", base.with_cores(16))],
                mlp(), series=series)
            runner.run(space1)
            pool = runner._pool
            assert pool is not None
            space2 = SweepSpace.from_arch_points(
                [("c32", base.with_cores(32)),
                 ("c64", base.with_cores(64))], mlp(), series=series)
            runner.run(space2)
            assert runner._pool is pool         # same graph: reused
            space3 = SweepSpace.from_arch_points(
                [("c8", base.with_cores(8)), ("c16", base.with_cores(16))],
                lenet(), series=series)
            runner.run(space3)
            assert runner._pool is not pool     # new graph: recreated
        assert runner._pool is None             # context exit closed it

    def test_parallel_pool_matches_serial(self):
        base = functional_testbed()
        series = level_series(["baseline", "CG"])
        def space():
            return SweepSpace.from_arch_points(
                [("c8", base.with_cores(8)), ("c16", base.with_cores(16))],
                mlp(), series=series)
        serial = SweepRunner(workers=1).run(space())
        with SweepRunner(workers=2) as runner:
            parallel = runner.run(space())
        assert [r.summary for r in serial] == [r.summary for r in parallel]

    def test_reference_path_matches_fast_path(self):
        # Production (process cache, dedup, and a twin point) against
        # the oracle: every point compiled alone on the scalar path.
        base = functional_testbed()
        series = level_series(["baseline", "CG"])
        def space():
            return SweepSpace.from_arch_points(
                [("c8", base.with_cores(8)), ("twin", base.with_cores(8))],
                mlp(), series=series)
        fast = SweepRunner().run(space())
        assert fast.deduped == 2
        with scalar_reference():
            ref = oracle.sweep_summaries(space())
        assert ref == [r.summary for r in fast]


class TestBench:
    def test_schema_and_digest_repeat_from_cold_caches(self):
        names = ["duplication", "power"]
        first = run_bench(names)
        assert run_bench(names) == first
        golden = load_golden(DEFAULT_GOLDENS_DIR, "bench")["payload"]["rows"]
        assert first == [row for row in golden if row["name"] in names]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_bench(["no-such-bench"])


class TestGraphSignature:
    def test_cached_and_invalidated(self):
        g = mlp()
        sig = g.signature()
        assert g.signature() == sig             # cached, stable
        assert mlp().signature() == sig         # content-addressed
        from repro.graph import TensorSpec
        g.add_tensor(TensorSpec("extra", (1, 4), 8))
        assert g.signature() != sig             # mutation invalidates

    def test_annotations_do_not_change_identity(self):
        g = lenet()
        sig = g.signature()
        CIMMLC(isaac_baseline()).compile(g)     # writes annotations
        assert g.signature() == sig

    def test_node_lookup_indexed(self):
        g = mlp()
        name = g.nodes[0].name
        assert g.node(name) is g.nodes[0]
        from repro.errors import GraphError
        with pytest.raises(GraphError):
            g.node("no-such-node")
