#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the reproduction registry.

A thin wrapper over ``repro reproduce --bless``: every section of the
document is rendered by a :data:`repro.reproduce.REGISTRY` entry — the
same entries ``repro reproduce`` validates against the committed
goldens — so the published document and the validator cannot drift.
Regenerating therefore also re-blesses the goldens (the document and
the goldens are two renderings of the same payloads and must move
together).

The sweep-shaped drivers run through a shared
``repro.explore.SweepRunner`` whose points fan out over worker
processes; like every ``repro reproduce`` run, regeneration starts from
cold caches.

Run:  python scripts/generate_experiments_md.py [--workers N]
"""

import argparse
import sys

from repro.reproduce import REGISTRY, run_registry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep drivers")
    args = parser.parse_args()
    report = run_registry(
        only=[entry.name for entry in REGISTRY if entry.titles],
        bless=True,
        workers=args.workers,
        progress=lambda message: print(message, file=sys.stderr))
    errors = [e for e in report.entries if e.status == "error"]
    if errors:
        for entry in errors:
            print(f"ERROR in {entry.name}: {'; '.join(entry.failures)}",
                  file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
