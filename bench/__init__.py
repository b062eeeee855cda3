"""End-to-end solve benchmark: one command, four workloads, every answer
verified.  See ``bench/README.md``; run with ``python3 bench/run.py``."""
