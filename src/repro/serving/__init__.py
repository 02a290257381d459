"""Multi-tenant model serving over exported SavedFunctions.

The paper's production story (§4.3) ends at "serializing a trace for
use in a production environment"; this package is the environment.  A
:class:`ModelServer` loads any number of saved artifacts concurrently
and serves them from one long-lived process:

* **Per-model queues and workers** — each served model owns a bounded
  request queue drained by its own worker thread, so a slow or failing
  model cannot starve its neighbors.
* **Cross-request dynamic batching** — compatible pending requests
  (same dtypes, same trailing dimensions) are coalesced into a single
  staged call on the shape-polymorphic trace, concatenated along the
  leading dimension and split back per request.  One trace serves
  every batch size (PR 4's relaxed shapes), so coalescing is free.
* **Admission control** — submissions past the queue bound are
  rejected with :class:`~repro.framework.errors.ResourceExhaustedError`
  instead of growing memory; per-request deadlines turn dropped or
  stalled work into :class:`~repro.framework.errors.DeadlineExceededError`.
* **SLO accounting** — per-model p50/p99 latency via
  :class:`~repro.runtime.profiler.LatencyHistogram`, with every settle
  also reported to the active profiler as a ``serving/<model>`` op.
* **Fault tolerance** — a served model is the same
  :class:`~repro.runtime.workqueue.WorkQueue` a cluster worker is:
  transient failures retry under that module's retry policy, and the
  distribution layer's ``FaultInjector`` drives chaos tests against
  its fault hook unchanged.

Quickstart::

    import repro
    from repro.serving import ModelServer

    repro.saved_function.save(step, "model_a", repro.TensorSpec([None, 8]))
    with ModelServer() as server:
        server.load("a", "model_a.saved.npz")
        future = server.submit("a", example)        # non-blocking
        print(server.predict("a", example))         # blocking
        print(server.stats()["a"]["p99_ms"])
"""

from repro.serving.batching import coalesce_requests, split_results
from repro.serving.server import ModelServer, ServedModel, ServingFuture

__all__ = [
    "ModelServer",
    "ServedModel",
    "ServingFuture",
    "coalesce_requests",
    "split_results",
]
