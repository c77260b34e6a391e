"""Committed goldens under ``benchmarks/goldens/`` and their validation.

One JSON file per registry entry (``<golden_key>.json``), written by
``repro reproduce --bless`` and compared on every validation run.
Every golden pins the exact :func:`~repro.reproduce.digest.
result_digest` of the payload — the determinism house invariant means a
byte of drift anywhere in the pipeline fails the entry.  BENCH payloads
carry per-workload result digests, never wall clocks, so they are exact
too.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from .digest import result_digest

#: Default location of the committed goldens, relative to the repo root
#: (``repro reproduce`` is run from the checkout, like the doc
#: generator).
DEFAULT_GOLDENS_DIR = os.path.join("benchmarks", "goldens")

def golden_path(goldens_dir: str, key: str) -> str:
    """Where the golden for ``key`` lives."""
    return os.path.join(goldens_dir, f"{key}.json")


def load_golden(goldens_dir: str, key: str) -> Optional[Dict]:
    """The committed golden for ``key``, or None if never blessed."""
    try:
        with open(golden_path(goldens_dir, key)) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def make_golden(name: str, kind: str, validation: str, payload,
                version: str) -> Dict:
    """A golden document for ``payload``."""
    return {
        "name": name,
        "kind": kind,
        "validation": validation,
        "digest": result_digest(payload),
        "payload": payload,
        "blessed_version": version,
    }


def save_golden(goldens_dir: str, key: str, golden: Dict) -> str:
    """Write one golden (pretty-printed: goldens are reviewed in PRs)."""
    os.makedirs(goldens_dir, exist_ok=True)
    path = golden_path(goldens_dir, key)
    with open(path, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def validate_exact(payload, golden: Dict) -> List[str]:
    """Failure messages for an exact-digest entry (empty = pass)."""
    fresh = result_digest(payload)
    if fresh == golden["digest"]:
        return []
    return [f"digest mismatch: fresh {fresh[:16]} != "
            f"golden {str(golden['digest'])[:16]}"]


def validate(payload, golden: Optional[Dict], key: str) -> List[str]:
    """Failure messages for ``payload`` against the golden stored under
    ``key`` (empty list = pass)."""
    if golden is None:
        return [f"no committed golden {key!r} "
                f"(run `repro reproduce --bless` and commit it)"]
    return validate_exact(payload, golden)
