"""The reproduction harness: registry completeness, golden validation,
and digest properties.

Three layers of protection:

* **Completeness** — every EXPERIMENTS.md heading is rendered by
  exactly one registry entry, in document order, and every entry has a
  committed, internally consistent golden (``check_registry``).
* **End-to-end** — cheap entries run from cold caches against the
  committed goldens and pass; a deliberately corrupted golden fails,
  naming the entry, through both the harness and the CLI exit path; a
  run whose sweeps wrote nothing to the fresh cache fails the
  cold-cache check.
* **Digest properties** — hypothesis fuzz: any single-field
  perturbation of a payload changes its digest, and dict insertion
  order never does.
"""

import copy
import json
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.explore import SweepRunner
from repro.reproduce import (
    DEFAULT_GOLDENS_DIR,
    EXEMPT_TITLES,
    REGISTRY,
    EntryReport,
    ReproduceReport,
    canonical_json,
    check_registry,
    document_titles,
    entry_names,
    registered_titles,
    result_digest,
    run_registry,
)
from repro.reproduce import harness



class TestRegistryCompleteness:
    """EXPERIMENTS.md and the registry are the same list, both ways."""

    def test_every_document_section_is_registered(self):
        with open("EXPERIMENTS.md") as handle:
            titles = [t for t in document_titles(handle.read())
                      if t not in EXEMPT_TITLES]
        assert titles == registered_titles(), \
            "EXPERIMENTS.md headings drifted from the registry — " \
            "regenerate via scripts/generate_experiments_md.py or " \
            "register the new section"

    def test_entry_names_unique_and_kebab(self):
        names = entry_names()
        assert len(names) == len(set(names))
        for name in names:
            assert name == name.lower().strip()

    def test_bench_runs_last(self):
        # BENCH clears process caches around every measurement; nothing
        # may depend on a warm memo after it, so it must close the run.
        assert REGISTRY[-1].kind == "bench"
        assert all(e.kind == "experiment" for e in REGISTRY[:-1])

    def test_check_registry_passes_on_committed_state(self):
        assert check_registry() == []

    def test_every_entry_has_a_committed_golden(self):
        for entry in REGISTRY:
            path = os.path.join(DEFAULT_GOLDENS_DIR, f"{entry.name}.json")
            assert os.path.exists(path), f"missing golden {path}"

    def test_exact_goldens_are_self_consistent(self):
        for entry in REGISTRY:
            if entry.validation != "exact":
                continue
            path = os.path.join(DEFAULT_GOLDENS_DIR, f"{entry.name}.json")
            with open(path) as handle:
                golden = json.load(handle)
            assert golden["digest"] == result_digest(golden["payload"])
            assert golden["name"] == entry.name


class TestQuickProfileEndToEnd:
    """Cheap (quick) entries, real goldens: run -> validate -> report."""

    def test_quick_entries_pass_against_committed_goldens(self):
        report = run_registry(only=["table1", "fig16"])
        assert [e.status for e in report.entries] == ["pass", "pass"]
        assert report.ok
        assert report.failures == []
        assert report.cold
        for entry in report.entries:
            assert entry.digest == entry.golden_digest

    def test_corrupted_golden_fails_naming_the_entry(self, tmp_path):
        goldens = tmp_path / "goldens"
        goldens.mkdir()
        with open(os.path.join(DEFAULT_GOLDENS_DIR, "fig16.json")) as fh:
            golden = json.load(fh)
        first_key = next(iter(golden["payload"]["rows"]))
        golden["payload"]["rows"][first_key] += 1.0
        golden["digest"] = result_digest(golden["payload"])
        with open(goldens / "fig16.json", "w") as fh:
            json.dump(golden, fh)
        report = run_registry(only=["fig16"], goldens_dir=str(goldens))
        assert not report.ok
        assert report.failures == ["fig16"]
        (entry,) = report.entries
        assert entry.status == "fail"
        assert any("digest mismatch" in f for f in entry.failures)

    def test_cli_exits_nonzero_naming_the_corrupted_entry(self, tmp_path):
        from repro.cli import main

        goldens = tmp_path / "goldens"
        goldens.mkdir()
        with open(os.path.join(DEFAULT_GOLDENS_DIR, "fig16.json")) as fh:
            golden = json.load(fh)
        golden["digest"] = "0" * 64
        with open(goldens / "fig16.json", "w") as fh:
            json.dump(golden, fh)
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "--only", "fig16",
                  "--goldens-dir", str(goldens),
                  "--out", str(tmp_path / "reproduce_report.json")])
        assert "fig16" in str(excinfo.value)
        with open(tmp_path / "reproduce_report.json") as fh:
            doc = json.load(fh)
        assert doc["ok"] is False
        assert doc["failures"] == ["fig16"]

    def test_unknown_entry_is_an_error(self):
        with pytest.raises(KeyError):
            run_registry(only=["does-not-exist"])

    def test_blessing_writes_a_loadable_golden(self, tmp_path):
        goldens = tmp_path / "goldens"
        report = run_registry(only=["fig16"], bless=True,
                              goldens_dir=str(goldens))
        assert report.blessed
        assert report.entries[0].status == "blessed"
        check = run_registry(only=["fig16"], goldens_dir=str(goldens))
        assert check.ok


class TestReportSchema:
    """``reproduce_report.json`` round-trips exactly."""

    @staticmethod
    def _sample() -> ReproduceReport:
        return ReproduceReport(
            repro_version="1.9.0", cold=False, wall_s=12.5,
            entries=[
                EntryReport(name="fig16", kind="experiment",
                            validation="exact", status="pass",
                            wall_s=0.4, digest="a" * 64,
                            golden_digest="a" * 64),
                EntryReport(name="bench", kind="bench",
                            validation="exact", status="fail",
                            wall_s=30.0, digest="b" * 64,
                            golden_digest="c" * 64,
                            failures=[f"digest mismatch: fresh {'b' * 16} "
                                      f"!= golden {'c' * 16}"]),
            ])

    def test_round_trip(self):
        report = self._sample()
        rebuilt = ReproduceReport.from_dict(
            json.loads(report.to_json()))
        assert rebuilt == report

    def test_derived_fields(self):
        doc = self._sample().to_dict()
        assert doc["ok"] is False
        assert doc["failures"] == ["bench"]
        assert doc["schema_version"] == 2
        assert "profile" not in doc and "budget_s" not in doc

    def test_table_names_failures(self):
        table = self._sample().table()
        assert "FAIL (bench)" in table
        assert "digest mismatch" in table


# -- digest property fuzz ---------------------------------------------------

_leaves = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)

_payloads = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.recursive(
        _leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(min_size=1, max_size=4), children,
                            max_size=3)),
        max_leaves=8),
    min_size=1, max_size=4)


def _leaf_paths(node, prefix=()):
    """Every path to a JSON leaf in ``node`` (dicts/lists traversed)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaf_paths(value, prefix + (index,))
    else:
        yield prefix


def _get(node, path):
    for step in path:
        node = node[step]
    return node


def _set(node, path, value):
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value


class TestDigestProperties:
    """No silent collisions: perturbations change the digest, dict
    ordering never does."""

    @settings(max_examples=200, deadline=None)
    @given(payload=_payloads, data=st.data())
    def test_any_single_field_perturbation_changes_the_digest(
            self, payload, data):
        paths = list(_leaf_paths(payload))
        assume(paths)
        path = data.draw(st.sampled_from(paths))
        replacement = data.draw(_leaves)
        # "Different field value" means canonically different — 2 and
        # 2.0 (or 1 and True) serialize apart by design, while an equal
        # float reached by another route is the same result.
        assume(canonical_json(replacement) !=
               canonical_json(_get(payload, path)))
        mutated = copy.deepcopy(payload)
        _set(mutated, path, replacement)
        assert result_digest(mutated) != result_digest(payload)

    @settings(max_examples=100, deadline=None)
    @given(payload=_payloads)
    def test_dict_insertion_order_never_matters(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert result_digest(reordered) == result_digest(payload)

    def test_nan_payloads_are_rejected(self):
        with pytest.raises(ValueError):
            result_digest({"x": float("nan")})

    def test_float_formatting_is_repr_exact(self):
        assert result_digest({"x": 0.1}) != result_digest({"x": 0.1 + 1e-16})
        assert result_digest({"x": -0.0}) != result_digest({"x": 0.0})


class TestColdAssertion:
    """Every run proves its cold-cache promise."""

    def test_run_records_cold_and_populates_fresh_cache(self, tmp_path):
        report = run_registry(only=["shard"], bless=True,
                              goldens_dir=str(tmp_path / "goldens"))
        assert report.cold
        assert report.entries[0].status == "blessed"

    def test_sweeps_that_write_nothing_fail_the_runner_entries(
            self, monkeypatch):
        # A runner that ignores the fresh cache directory: the sweeps
        # recompute but leave it empty, so the run cannot prove it was
        # cold.  Only the entries that sweep through the runner fail.
        monkeypatch.setattr(
            harness, "SweepRunner",
            lambda workers, cache_dir: SweepRunner(workers=workers))
        report = run_registry(only=["table1", "fig16"])
        assert not report.cold
        assert report.failures == ["table1"]
        table1, fig16 = report.entries
        assert table1.status == "fail"
        assert table1.failures == [
            "cold-cache assertion: no sweep results were written to the "
            "fresh cache directory"]
        assert fig16.status == "pass"
