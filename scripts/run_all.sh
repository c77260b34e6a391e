#!/usr/bin/env sh
# One-command artifact reproduction (see docs/REPRODUCE.md).
#
#   scripts/run_all.sh [extra `repro reproduce` args...]
#
# Runs every registered entry once from cold caches and validates it
# against the committed goldens.  Exits non-zero naming any entry whose
# result deviates; writes reproduce_report.json at the repo root.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro reproduce --out reproduce_report.json "$@"
