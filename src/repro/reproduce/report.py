"""The machine-readable ``reproduce_report.json`` and its human table.

:class:`ReproduceReport` is what one ``repro reproduce`` run emits:
one :class:`EntryReport` per registered entry (status, wall clock,
digests, failure messages) plus run-level context (version, cold-cache
verification, total wall).
``to_dict``/``from_dict`` round-trip exactly — ``tests/
test_reproduce.py`` pins the schema — so CI artifacts stay parseable
across runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import json

#: Bump on any incompatible change to the report dict shape.
REPORT_SCHEMA_VERSION = 2


@dataclass
class EntryReport:
    """One entry's outcome: pass/fail/error/blessed plus evidence."""

    name: str
    kind: str
    validation: str
    status: str                    # "pass" | "fail" | "error" | "blessed"
    wall_s: float
    digest: Optional[str] = None         # fresh payload digest
    golden_digest: Optional[str] = None  # committed digest (exact entries)
    failures: List[str] = field(default_factory=list)


@dataclass
class ReproduceReport:
    """A full run: per-entry outcomes plus run-level context."""

    repro_version: str
    entries: List[EntryReport] = field(default_factory=list)
    schema_version: int = REPORT_SCHEMA_VERSION
    cold: bool = False             # ran against empty caches?
    blessed: bool = False          # goldens were (re)written, not checked
    wall_s: float = 0.0

    @property
    def failures(self) -> List[str]:
        """Names of entries that did not pass (empty = reproduction OK)."""
        return [e.name for e in self.entries
                if e.status in ("fail", "error")]

    @property
    def ok(self) -> bool:
        """True when every entry passed (or was just blessed)."""
        return not self.failures

    def to_dict(self) -> Dict:
        """The JSON document (schema pinned by ``tests/test_reproduce.py``)."""
        doc = asdict(self)
        doc["failures"] = self.failures
        doc["ok"] = self.ok
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "ReproduceReport":
        """Rebuild a report from its JSON document (inverse of
        ``to_dict``; the derived ``failures``/``ok`` keys are ignored)."""
        entries = [EntryReport(**entry) for entry in doc["entries"]]
        fields = {k: doc[k] for k in ("repro_version", "schema_version",
                                      "cold", "blessed", "wall_s")}
        return cls(entries=entries, **fields)

    def to_json(self) -> str:
        """Pretty JSON for the CI artifact."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def table(self) -> str:
        """The human pass/fail table printed after a run."""
        lines = [f"{'entry':<22} {'kind':<11} {'check':<11} "
                 f"{'wall':>8} {'status':<8}"]
        for e in self.entries:
            lines.append(f"{e.name:<22} {e.kind:<11} {e.validation:<11} "
                         f"{e.wall_s:>7.1f}s {e.status:<8}")
            for failure in e.failures:
                lines.append(f"  ! {failure}")
        verdict = "BLESSED" if self.blessed else \
            ("PASS" if self.ok else f"FAIL ({', '.join(self.failures)})")
        lines.append(f"{len(self.entries)} entries in {self.wall_s:.1f}s "
                     f"— {verdict}")
        return "\n".join(lines)
