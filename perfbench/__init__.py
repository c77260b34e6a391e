"""Absolute host-time benchmark of the compile -> sweep -> shard -> fleet
stack; run it with ``python3 perfbench/run.py`` (see README.md)."""
