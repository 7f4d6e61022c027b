"""Benchmark harness for diffeoflow; ``python3 perfbench/run.py --help`` runs it."""
