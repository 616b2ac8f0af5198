"""Benchmark of the synthflow pipeline; see perfbench/run.py."""
