"""Tests of the benchmark itself: statistics, span arithmetic, metric
names, and a tiny-size pass of every workload, clean and corrupted."""

import json
import re
from pathlib import Path

import pytest

from perfbench import run
from perfbench.spans import Layer, SpanRecorder, install
from perfbench.stats import geomean, percentile, tail_percentile
from perfbench.worker import run_pass
from perfbench.workloads import LAYERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: The characters a benchmark metric or workload name, and a unit, allow.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_and_geomean():
    assert percentile([4.0, 1.0, 3.0, 2.0, 5.0], 50) == 3.0
    assert percentile([1.0, 2.0], 90) == pytest.approx(1.9)
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_spans():
    # a: [0, 10] holding b: [1, 3] and c: [4, 5]; then d: [12, 13] alone.
    rec = SpanRecorder(clock=FakeClock([0, 1, 3, 4, 5, 10, 12, 13]))
    rec.enter("a")
    rec.enter("b")
    rec.exit()
    with rec.span("c"):
        pass
    rec.exit()
    with rec.span("d"):
        pass
    assert dict(rec.self_s) == {"a": 7, "b": 2, "c": 1, "d": 1}
    assert rec.root_s == 11 == sum(rec.self_s.values())


def test_install_patches_where_looked_up_and_reports_absent_names():
    import repro.sched.compiler as compiler
    import repro.sched.mvm as mvm

    original = mvm.schedule_mvm
    rec = SpanRecorder()
    absent, uninstall = install(rec, [
        Layer("repro.sched.mvm:schedule_mvm", "sched.mvm", "calls"),
        Layer("repro.sched.mvm:no_such_function", "gone"),
        Layer("repro.no_such_module:f", "gone")])
    try:
        assert absent == ["repro.sched.mvm:no_such_function",
                          "repro.no_such_module:f"]
        assert compiler.schedule_mvm is mvm.schedule_mvm is not original
        from repro import CIMMLC, isaac_baseline, lenet

        CIMMLC(isaac_baseline()).compile(lenet())
        assert rec.counts["calls"] == 1 and rec.self_s["sched.mvm"] > 0
    finally:
        uninstall()
    assert compiler.schedule_mvm is mvm.schedule_mvm is original


def test_metric_names_units_and_benchmark_json_agree():
    per_layer = run.per_layer_metrics()
    e2e = {name: unit for name, (unit, _) in run.END_TO_END.items()}
    for name, unit in {**e2e, **per_layer}.items():
        assert valid_name(name), name
        assert valid_unit(unit), unit
    assert all(valid_name(w) for w in WORKLOADS)
    assert not valid_name("_leading") and not valid_name("a b")
    assert not valid_unit("ms per op")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == e2e
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_op_time_is_scaled_by_the_samples_either_side():
    run_ = {"calibration_s": [0.010, 0.020, 0.030]}
    op = {"wall_s": 0.3, "sample": 1}
    assert run.reference_wall(run_, op) == pytest.approx(
        0.3 * run.REFERENCE_LOOP_S / 0.025)
    assert run.host_speed([run_]) == pytest.approx(
        0.020 / run.REFERENCE_LOOP_S)


def tiny_pass(workload, seed=1, index=0, recorder=None):
    return run_pass(WORKLOADS[workload](seed, index, tiny=True), recorder)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_pass_is_clean_and_digest_repeats(workload):
    first = tiny_pass(workload)
    assert all(op["ok"] for op in first["ops"]), first["ops"]
    assert all(op["sample"] + 1 < len(first["calibration_s"])
               for op in first["ops"])
    assert first["sim"] > 0
    again = tiny_pass(workload, index=1)
    assert again["digest"] == first["digest"]
    assert again["sim"] == first["sim"]


def _corrupt_reference(monkeypatch):
    from repro.sim.reference import ReferenceExecutor

    real = ReferenceExecutor.run
    monkeypatch.setattr(ReferenceExecutor, "run", lambda self, inputs: {
        k: v + 1 for k, v in real(self, inputs).items()})


def _drop_last_point(monkeypatch):
    from repro.explore import SweepRunner

    real = SweepRunner.run

    def run_short(self, space):
        result = real(self, space)
        result.results.pop()
        return result

    monkeypatch.setattr(SweepRunner, "run", run_short)


def _lose_a_request(monkeypatch):
    from repro.fleet import FleetReport

    real = FleetReport.to_dict

    def to_dict_short(self):
        out = real(self)
        out["completed"] -= 1
        return out

    monkeypatch.setattr(FleetReport, "to_dict", to_dict_short)


CORRUPTIONS = {
    "compile-zoo": (_corrupt_reference, "verify"),
    "sweep-cached": (_drop_last_point, "sweep"),
    "shard-links": (_drop_last_point, "shard"),
    "fleet-diurnal": (_lose_a_request, "fleet"),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_output_counts_as_failed_op(workload, monkeypatch):
    corrupt, kind = CORRUPTIONS[workload]
    corrupt(monkeypatch)
    result = tiny_pass(workload)
    failed = [op for op in result["ops"] if not op["ok"]]
    assert failed and all(op["kind"] == kind for op in failed)
    assert all("CheckFailed" in op["error"] for op in failed)
    attempted, n_failed, _ = run.outcome([result], crashed=0)
    assert n_failed == len(failed) and attempted == len(result["ops"])


def test_traced_pass_layers_plus_unattributed_equal_op_wall():
    rec = SpanRecorder()
    absent, uninstall = install(rec, LAYERS)
    try:
        result = tiny_pass("compile-zoo", recorder=rec)
    finally:
        uninstall()
    assert absent == []
    assert result["unattributed_s"] >= 0
    assert run.layer_self_check(result) == pytest.approx(0.0, abs=1e-9)
    for layer in ("models.build", "sched.cg.duplicate", "sched.lowering",
                  "sim.functional", "sim.reference"):
        assert rec.self_s[layer] > 0, layer


def test_no_result_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "compile-zoo", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
