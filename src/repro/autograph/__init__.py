"""AutoGraph-style lowering of Python control flow (PAPERS.md: arXiv 1810.08061).

``repro.function`` applies :func:`convert` to the Python function it is
about to trace (default on; ``autograph=False`` opts a function out).  The
converted function runs identically under eager execution and lowers
tensor-dependent ``if``/``while``/``for``/``break``/``continue``/early-
``return`` onto the staged ``cond``/``while_loop`` ops when traced —
so data-dependent imperative code stages without manual rewrites,
closing the gap paper §4.1 left open ("conditionals that depend on the
value of tensors will need to be written using ``tf.cond`` ...").
"""

from repro.autograph.operators import AutographError, Undefined
from repro.autograph.transform import convert, converted_code, is_converted

__all__ = [
    "AutographError",
    "Undefined",
    "convert",
    "converted_code",
    "is_converted",
]
