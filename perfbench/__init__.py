"""Benchmark of the rfsom CLI pipeline; see README.md in this directory."""
