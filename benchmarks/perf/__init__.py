"""The repo's performance benchmark: one command, six workloads.

See ``README.md`` in this directory for the metric glossary and the
rules.  Entry point: ``python3 benchmarks/perf/run.py`` (or
``PYTHONPATH=src python -m benchmarks.perf.run``).
"""
