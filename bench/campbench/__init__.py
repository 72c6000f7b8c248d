"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

Everything here measures ``src/repro`` from outside, by timing calls into
its public functions; nothing under ``src/`` is edited or monkeypatched.
``bench/run.py`` is the one entry point; ``bench/README.md`` explains the
workloads, the metrics and how each per-layer number is derived.
"""
