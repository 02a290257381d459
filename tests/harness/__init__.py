"""Differential-testing and gradient-checking harnesses.

Two verification tools live here:

* :mod:`tests.harness.grad_check` — numeric (central-difference)
  gradient checking, replacing hand-computed expected values.
* :mod:`tests.harness.parity` — a corpus of small programs executed
  sync-eager, lazy-eager, and ``function``-staged, asserting that
  outputs and gradients agree across all three modes.
"""
