"""The repository benchmark: public-API workloads measured end to end.

``run.py`` is the command, ``workloads.py`` runs one workload in a
child process, ``trace.py`` records per-layer spans from outside the
library.  See README.md in this directory.
"""
