"""The reproduction registry: every EXPERIMENTS.md section, declared.

One ordered list (:data:`REGISTRY`) names every figure/table driver and
the BENCH workload suite, each as a :class:`ReproEntry` that knows how
to run itself and which document sections it renders; its result is
validated against the exact digest in the committed golden.

``scripts/generate_experiments_md.py`` and ``repro reproduce`` both
walk this list, so the published document and the validator cannot
drift: a section exists in EXPERIMENTS.md if and only if a registry
entry renders it, and ``tests/test_reproduce.py`` pins the
correspondence both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import headlines

#: The EXPERIMENTS.md preamble: framing, the shape-agreement summary,
#: and known deviations.  Hand-maintained (it states *judgements*, not
#: measurements); everything after it is rendered from registry entries.
EXPERIMENTS_HEADER = """\
# EXPERIMENTS — paper-reported vs. measured

Generated by `scripts/generate_experiments_md.py`.  Every table/figure of
the paper's evaluation (Section 4) has a driver in `repro.experiments` and a
benchmark target in `benchmarks/`.  "paper" columns are the values the paper
reports (blank where the paper gives only a plot); "measured" columns come
from this reproduction's performance simulator.

Absolute cycle counts are not expected to match the authors' simulator —
the substrate differs (see DESIGN.md substitutions).  The claims checked
are the *shapes*: who wins, in what direction, by roughly what factor.

## Summary of shape agreement

| Claim (paper) | Reproduced? |
|---|---|
| CG pipeline speedup grows with ResNet depth (2.3x -> 4.7x) | yes (measured below) |
| CG duplication speedup shrinks with depth (25.4x -> 3.1x) | yes |
| P&D reaches order-100x on ResNet | yes (paper: up to 123x) |
| MVM staggered pipeline cuts peak power >= 75% | yes |
| CIM-MLC beats Poly-Schedule ~3.2x | yes (factor differs, direction and magnitude class hold) |
| VVM remap recovers losses at small parallel-row counts | yes |
| One compiler covers CM / XBM / WLM chips and SRAM / ReRAM / FLASH cells | yes (Table 1 driver executes every cell) |

Known deviations:
* Fig. 20(c) (Jain et al.): the paper reports 2.3x end-to-end; our measured
  stack win is smaller.  VGG7 exceeds the 8-crossbar macro's capacity by
  ~800x, so our model is reload/time-multiplex dominated; the paper does not
  specify its capacity assumptions for this comparison.
* Fig. 21(b): our MVM duplication refinement gains are smaller than the
  paper's 1.8x/1.4x because ResNet VXBs divide the 16-crossbar cores with
  little rounding waste under our dimension binding.

"""

#: EXPERIMENTS.md headings that no registry entry renders (the
#: hand-maintained preamble); the completeness check skips them.
EXEMPT_TITLES = ("Summary of shape agreement",)


@dataclass(frozen=True)
class Section:
    """One rendered EXPERIMENTS.md section: heading, prose, code block."""

    title: str
    prose: str
    body: str

    def render(self) -> str:
        """The section's markdown, exactly as committed."""
        prose = f"{self.prose}\n\n" if self.prose else ""
        return f"## {self.title}\n\n{prose}```\n{self.body}\n```\n\n"


@dataclass(frozen=True)
class EntryOutcome:
    """What running one entry produced: the digestable payload plus the
    document sections rendered from it."""

    payload: object
    sections: Tuple[Section, ...]


@dataclass(frozen=True)
class ReproEntry:
    """One registered reproducible: a name (its golden is
    ``<name>.json``), a generator taking the shared sweep runner, a
    validation policy, and the EXPERIMENTS.md sections it owns (empty
    for BENCH).
    """

    name: str
    kind: str                      # "experiment" | "bench"
    titles: Tuple[str, ...]        # EXPERIMENTS.md headings it renders
    run: Callable[[object], EntryOutcome]
    validation: str = "exact"      # digest policy (the only one)
    uses_runner: bool = False      # sweeps through the runner's cache?


# ---------------------------------------------------------------------------
# Entry constructors
# ---------------------------------------------------------------------------


def _driver(name: str, title: str, fn_name: str,
            needs_runner: bool = False) -> ReproEntry:
    """An entry wrapping one ``repro.experiments`` driver: the payload is
    its measured rows, the section body its side-by-side table."""
    def run(runner) -> EntryOutcome:
        from .. import experiments
        fn = getattr(experiments, fn_name)
        result = fn(runner=runner) if needs_runner else fn()
        return EntryOutcome(
            payload={"rows": result.as_dict()},
            sections=(Section(title, "", result.table()),))
    return ReproEntry(name=name, kind="experiment", titles=(title,),
                      run=run, uses_runner=needs_runner)


def _fig21() -> ReproEntry:
    """Fig. 21 computes all four panels in one pass, so it is one entry
    owning four sections (and one golden covering all panels)."""
    titles = tuple(f"Fig. 21({key})" for key in "abcd")

    def run(runner) -> EntryOutcome:
        from ..experiments import fig21
        panels = fig21()
        return EntryOutcome(
            payload={key: panels[key].as_dict() for key in "abcd"},
            sections=tuple(Section(f"Fig. 21({key})", "",
                                   panels[key].table())
                           for key in "abcd"))
    return ReproEntry(name="fig21", kind="experiment", titles=titles,
                      run=run)


def _headline(name: str, title: str,
              fn: Callable[..., "headlines.HeadlineResult"]) -> ReproEntry:
    """An entry wrapping one post-paper headline generator."""
    def run(runner) -> EntryOutcome:
        result = fn(runner)
        return EntryOutcome(
            payload=result.payload,
            sections=(Section(title, result.prose, result.body),))
    return ReproEntry(name=name, kind="experiment", titles=(title,),
                      run=run, uses_runner=True)


def _bench() -> ReproEntry:
    """The BENCH suite: every :mod:`repro.perf.bench` workload, run
    once from cold caches.  Runs last (it clears the process caches
    around every workload).  The payload is ``{name, points, digest}``
    per workload, so the golden is exact like every other entry."""
    def run(runner) -> EntryOutcome:
        from ..perf.bench import run_bench
        return EntryOutcome(payload={"rows": run_bench()}, sections=())
    return ReproEntry(name="bench", kind="bench", titles=(), run=run)


#: Every reproducible, in EXPERIMENTS.md document order (BENCH last:
#: it clears process caches around each measurement, so nothing may
#: ride a warm memo after it anyway).
REGISTRY: Tuple[ReproEntry, ...] = (
    _driver("table1", "Table 1 — generality", "table1", needs_runner=True),
    _driver("fig16", "Fig. 16 — generated code sizes", "fig16_stats"),
    _driver("fig20a", "Fig. 20(a) — vs Jia et al. [29]", "fig20a_jia"),
    _driver("fig20b", "Fig. 20(b) — vs PUMA [4]", "fig20b_puma"),
    _driver("fig20c", "Fig. 20(c) — vs Jain et al. [27]", "fig20c_jain"),
    _driver("fig20d", "Fig. 20(d) — vs Poly-Schedule [22]", "fig20d_poly"),
    _fig21(),
    _driver("fig22a", "Fig. 22(a) — core-number sweep", "fig22a_cores",
            needs_runner=True),
    _driver("fig22b", "Fig. 22(b) — crossbar-number sweep",
            "fig22b_xb_number", needs_runner=True),
    _driver("fig22c", "Fig. 22(c) — crossbar-size sweep", "fig22c_xb_size",
            needs_runner=True),
    _driver("fig22d", "Fig. 22(d) — parallel-row sweep",
            "fig22d_parallel_row", needs_runner=True),
    _headline("serve",
              "Serving — spatial partitioning vs time multiplexing",
              headlines.serve_headline),
    _headline("shard", "Sharding — resnet18 across a multi-chip ring",
              headlines.shard_headline),
    _headline("energy", "Energy — resnet18 latency x energy x area frontier",
              headlines.energy_headline),
    _headline("power-capped-serve",
              "Energy — power-capped vs. uncapped spatial serving",
              headlines.power_capped_serve_headline),
    _headline("fleet",
              "Fleet — SLO and energy-per-request vs. replica count "
              "and router",
              headlines.fleet_headline),
    _headline("trace-prefilter",
              "Trace — replay prefilter vs. full link sweep",
              headlines.trace_headline),
    _headline("faults-degradation",
              "Faults — serving quality vs. dead-core count",
              headlines.faults_degradation_headline),
    _headline("faults-availability",
              "Faults — availability through a mid-trace chip death",
              headlines.faults_availability_headline),
    _bench(),
)


def entry_names() -> List[str]:
    """Registered entry names, in document order."""
    return [e.name for e in REGISTRY]


def registered_titles() -> List[str]:
    """Every EXPERIMENTS.md heading some entry renders, in order."""
    return [title for e in REGISTRY for title in e.titles]


def find(name: str) -> ReproEntry:
    """The entry called ``name`` (KeyError with the valid names if absent)."""
    for entry in REGISTRY:
        if entry.name == name:
            return entry
    raise KeyError(f"no registry entry {name!r}; "
                   f"choose from {entry_names()}")


def document_titles(experiments_md: str) -> List[str]:
    """The ``## `` headings of an EXPERIMENTS.md text, in order."""
    return [line[3:].strip() for line in experiments_md.splitlines()
            if line.startswith("## ")]
