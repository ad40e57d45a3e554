"""The repo's benchmark: workloads, per-layer probes and an outside-in traced run.

See ``perf/README.md``.  Nothing here imports ``repro.bench``.
"""
