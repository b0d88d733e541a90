"""End-to-end and per-layer benchmark of wignerflow; entry point ``perfbench/run.py``."""
