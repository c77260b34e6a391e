"""The batched multi-chip partitioner against its scalar oracle.

``repro.scale.partition`` prices every contiguous stage with one batched
numpy bisection and picks boundaries with a vectorized DP.  This module
keeps the plain-Python form of both — one bisection per stage, one
``(interval, cut bits)`` comparison per candidate boundary — and checks
that production reproduces it bit for bit (``float.hex``, so a ``-0.0``
or a last-ulp drift fails), along with the one-pass boundary cut bits
and the partitioner's behaviour on degenerate inputs.
"""

import math
import random

import pytest

from repro.arch import PRESETS, get_preset, isaac_baseline
from repro.errors import CapacityError
from repro.faults import FaultModel
from repro.graph import GraphBuilder
from repro.models import MODEL_ZOO, get_model
from repro.scale import boundary_cut_bits, partition_layers
from repro.scale.partition import (
    _cut_bits,
    _floor,
    _interval_matrix,
    _load,
    _stage_fits,
)
from repro.sched.costs import CostModel, OpProfile

# ---------------------------------------------------------------------------
# Scalar oracle
# ---------------------------------------------------------------------------


def predict_interval(ops, floor, budget):
    """Best steady-state interval of one stage: bisect ``T`` until
    ``sum(max(cores_k, load_k / T)) <= budget``."""
    cim = [(float(p.cores_per_replica), _load(p)) for p in ops if p.is_cim]
    if not cim:
        return floor

    def cores_at(target):
        return sum(max(c, load / target) for c, load in cim)

    lo = max(floor, 1.0)
    if cores_at(lo) <= budget:
        return lo
    hi = max(lo, max(load / c for c, load in cim if c > 0))
    for _ in range(48):
        mid = (lo + hi) / 2
        if cores_at(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def scalar_matrix(order, profiles, arch):
    """``mat[j][i]``: predicted interval of ``order[j:i]`` (inf where the
    stage does not fit), one bisection per fitting stage."""
    n = len(order)
    cores, weights = [0], [0]
    for name in order:
        p = profiles[name]
        cores.append(cores[-1] + (p.cores_per_replica if p.is_cim else 0))
        weights.append(weights[-1] + (p.weight_bits if p.is_cim else 0))
    floors = [_floor(profiles[name]) for name in order]
    budget = max(1, arch.chip.core_number)
    mat = [[math.inf] * (n + 1) for _ in range(n)]
    for i in range(1, n + 1):
        floor = 0.0
        for j in range(i - 1, -1, -1):
            floor = max(floor, floors[j])
            if not _stage_fits(cores[i] - cores[j],
                               weights[i] - weights[j], arch):
                break  # larger stages only get heavier
            mat[j][i] = predict_interval(
                [profiles[name] for name in order[j:i]], floor, budget)
    return mat


def scalar_split(graph, mats):
    """Stage lists from per-stage scalar matrices and the scalar DP over
    boundaries (``None`` when no feasible split exists)."""
    order = [n.name for n in graph.topological()]
    n, stages = len(order), len(mats)
    cuts = [0] + [boundary_cut_bits(graph, order, p)
                  for p in range(1, n)] + [0]
    inf = (math.inf, math.inf)
    best = [[inf] * (n + 1) for _ in range(stages + 1)]
    choice = [[-1] * (n + 1) for _ in range(stages + 1)]
    best[0][0] = (0.0, 0.0)
    for k in range(1, stages + 1):
        interval = mats[k - 1]
        for i in range(k, n + 1):
            for j in range(k - 1, i):
                prev = best[k - 1][j]
                if prev == inf or interval[j][i] == math.inf:
                    continue
                cand = (max(prev[0], interval[j][i]),
                        prev[1] + (cuts[j] if j > 0 else 0))
                if cand < best[k][i]:
                    best[k][i] = cand
                    choice[k][i] = j
    if best[stages][n] == inf:
        return None
    bounds = [n]
    for k in range(stages, 0, -1):
        bounds.append(choice[k][bounds[-1]])
    bounds.reverse()
    return [order[bounds[s]:bounds[s + 1]] for s in range(stages)]


class ScalarOracle:
    """Scalar matrices of one graph, computed once per architecture."""

    def __init__(self, graph):
        self.graph = graph
        self.order = [n.name for n in graph.topological()]
        self._mats = {}

    def matrix(self, arch):
        if arch not in self._mats:
            self._mats[arch] = scalar_matrix(
                self.order, CostModel(arch).profiles(self.graph), arch)
        return self._mats[arch]

    def partition(self, num_chips, arch, chip_archs=None):
        stages = min(num_chips, len(self.order))
        archs = chip_archs[:stages] if chip_archs else [arch] * stages
        return scalar_split(self.graph, [self.matrix(a) for a in archs])


def hex_rows(mat):
    return [[float(v).hex() for v in row] for row in mat]


def production_matrix(graph, arch):
    order = [n.name for n in graph.topological()]
    return _interval_matrix(order, CostModel(arch).profiles(graph),
                            arch).tolist()


def production_or_none(graph, chips, arch, chip_archs=None):
    try:
        return partition_layers(graph, chips, arch, chip_archs=chip_archs)
    except CapacityError:
        return None


def assert_matches_oracle(graph, arch, chip_counts=(1, 2, 3, 4)):
    oracle = ScalarOracle(graph)
    assert hex_rows(production_matrix(graph, arch)) == \
        hex_rows(oracle.matrix(arch))
    for chips in chip_counts:
        assert production_or_none(graph, chips, arch) == \
            oracle.partition(chips, arch)


# ---------------------------------------------------------------------------
# Bit-identity
# ---------------------------------------------------------------------------

#: Model x preset pairs checked on every run, covering every preset:
#: bisection-heavy stages (resnet18 on isaac-baseline), time-multiplexed
#: ops (jain2021, puma), models needing several chips (vgg11 on puma,
#: lenet on functional-testbed) and a transformer, for a few seconds of
#: scalar work.  ``oracle_pairs`` lists the full grid for a by-hand run.
PAIRS = [
    ("resnet18", "isaac-baseline"),
    ("resnet18", "jain2021"),
    ("vgg16", "isaac-flash"),
    ("vgg11", "puma"),
    ("vgg7", "table2-example"),
    ("lenet", "functional-testbed"),
    ("mlp", "jia2021"),
    ("vit-tiny", "functional-testbed"),
]


def oracle_pairs():
    """Every zoo model x preset pair (the by-hand full comparison)."""
    return [(m, p) for m in MODEL_ZOO for p in PRESETS]


@pytest.mark.parametrize("model,preset", PAIRS)
def test_matrix_and_stages_match_scalar_oracle(model, preset):
    assert_matches_oracle(get_model(model), get_preset(preset))


def _synthetic_profiles(seed, n=48):
    """Random stand-in profiles: many CIM ops per stage, so the last
    bisection steps compare sums within a few ulps of the core budget
    and any change of summation order shows."""
    rng = random.Random(seed)
    profiles = {}
    for k in range(n):
        cim = rng.random() < 0.8
        profiles[f"op{k}"] = OpProfile(
            name=f"op{k}", op_type="Conv" if cim else "Relu", is_cim=cim,
            num_mvms=rng.randint(1, 4096) if cim else 0, vxb=None, n_xb=0,
            cores_per_replica=rng.randint(1, 6) if cim else 0,
            mvm_cycles_base=rng.randint(1, 64) if cim else 0,
            row_waves=1, input_passes=1,
            alu_cycles=rng.random() * 100, mov_cycles=rng.random() * 1000,
            weight_bits=rng.randint(1, 10**5) if cim else 0,
            in_bits=0, out_bits=0, fill_fraction=1.0, max_useful_dup=1)
    return list(profiles), profiles


@pytest.mark.parametrize("seed", range(2))
def test_synthetic_profiles_match_scalar_oracle(seed):
    order, profiles = _synthetic_profiles(seed)
    arch = isaac_baseline().with_cores(150)
    mat = _interval_matrix(order, profiles, arch)
    assert hex_rows(mat.tolist()) == \
        hex_rows(scalar_matrix(order, profiles, arch))


def test_degraded_chip_archs_match_scalar_oracle():
    die = isaac_baseline().with_cores(200)
    weak = FaultModel(dead_cores=tuple(range(0, 60, 3)),
                      dead_crossbars=((100, 0),)).degrade_arch(die)
    graph = get_model("resnet18")
    oracle = ScalarOracle(graph)
    assert hex_rows(production_matrix(graph, weak)) == \
        hex_rows(oracle.matrix(weak))
    for archs in ([die, weak, die], [weak, weak, die], [die, die, weak]):
        stages = partition_layers(graph, 3, die, chip_archs=archs)
        assert stages == oracle.partition(3, die, chip_archs=archs)
        assert sum(len(s) for s in stages) == len(oracle.order)


def test_cached_cost_model_profiles_once_and_changes_nothing():
    from repro.perf import CompileCache

    graph, arch = get_model("resnet18"), isaac_baseline()
    cm = CostModel(arch, cache=CompileCache())
    for chips in (2, 3):
        assert partition_layers(graph, chips, arch, cost_model=cm) == \
            partition_layers(graph, chips, arch)
    assert (cm.cache.profile_misses, cm.cache.profile_hits) == (1, 1)


# ---------------------------------------------------------------------------
# Boundary cut bits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
def test_one_pass_cut_bits_match_boundary_cut_bits(model):
    graph = get_model(model)
    order = [n.name for n in graph.topological()]
    assert _cut_bits(graph, order) == \
        [boundary_cut_bits(graph, order, p) for p in range(len(order) + 1)]


# ---------------------------------------------------------------------------
# Degenerate inputs
# ---------------------------------------------------------------------------


def _all_digital():
    b = GraphBuilder("digital")
    x = b.input("x", (1, 4, 8, 8))
    x = b.relu(x, name="relu")
    x = b.maxpool(x, kernel=2, stride=2, name="pool")
    x = b.flatten(x)
    return b.build(outputs=[x])


def _one_conv(in_channels=3, out_channels=4):
    b = GraphBuilder("one")
    x = b.input("x", (1, in_channels, 8, 8))
    return b.build(outputs=[b.conv(x, out_channels, kernel=3, name="c")])


def test_all_digital_graph_has_no_bisection_rows():
    graph = _all_digital()
    assert all(not graph.is_cim_supported(n) for n in graph.nodes)
    assert_matches_oracle(graph, isaac_baseline(), chip_counts=(1, 2, 3, 5))


def test_one_node_graph():
    graph, arch = _one_conv(), isaac_baseline()
    assert_matches_oracle(graph, arch)
    assert partition_layers(graph, 1, arch) == [["c"]]
    assert partition_layers(graph, 4, arch) == [["c"]]


def test_more_chips_than_nodes_gives_one_stage_per_node():
    graph, arch = get_model("mlp"), isaac_baseline()
    stages = partition_layers(graph, 9, arch)
    assert stages == [[n.name] for n in graph.topological()]
    assert stages == ScalarOracle(graph).partition(9, arch)


@pytest.mark.parametrize("chips", [0, -1])
def test_fewer_than_one_chip_raises(chips):
    with pytest.raises(CapacityError, match="num_chips must be >= 1"):
        partition_layers(get_model("lenet"), chips, isaac_baseline())


def test_operator_too_big_for_any_chip():
    # No stage fits: the feasibility mask is empty, the matrix all inf,
    # and partitioning raises the typed error.
    graph, arch = _one_conv(64, 256), isaac_baseline().with_cores(1)
    mat = production_matrix(graph, arch)
    assert all(v == math.inf for row in mat for v in row)
    assert hex_rows(mat) == hex_rows(ScalarOracle(graph).matrix(arch))
    with pytest.raises(CapacityError, match="alone exceeds"):
        partition_layers(graph, 2, arch)
