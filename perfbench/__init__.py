"""Benchmark of the twoec solver; run perfbench/run.py."""
