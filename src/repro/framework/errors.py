"""Exception hierarchy.

A small, flat hierarchy modelled on TensorFlow's ``tf.errors``: every
runtime failure raised by the library derives from :class:`ReproError`
so callers can catch library errors without catching unrelated Python
failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidArgumentError",
    "NotFoundError",
    "AlreadyExistsError",
    "FailedPreconditionError",
    "OutOfRangeError",
    "UnimplementedError",
    "InternalError",
    "UnavailableError",
    "DeadlineExceededError",
    "AbortedError",
    "ResourceExhaustedError",
    "attach_op_name",
]


class ReproError(Exception):
    """Base class for every error raised by the repro runtime."""


class InvalidArgumentError(ReproError, ValueError):
    """An operation received an argument with an invalid value or shape."""


class NotFoundError(ReproError, KeyError):
    """A requested entity (op, kernel, device, node) does not exist."""


class AlreadyExistsError(ReproError, ValueError):
    """An entity that must be unique was registered twice."""


class FailedPreconditionError(ReproError, RuntimeError):
    """The system is not in the state required for the operation."""


class OutOfRangeError(ReproError, IndexError):
    """An iterator was exhausted or an index fell outside valid bounds."""


class UnimplementedError(ReproError, NotImplementedError):
    """The requested behaviour is not implemented (e.g. missing gradient)."""


class InternalError(ReproError, RuntimeError):
    """An invariant inside the runtime was violated; indicates a bug."""


class UnavailableError(ReproError, ConnectionError):
    """The service (a worker, a remote device) is currently unavailable.

    Raised when a request targets a worker that is shut down, killed, or
    unreachable.  Maps to gRPC's ``UNAVAILABLE``: the caller may retry
    against a different replica, but retrying the same endpoint is only
    useful if the outage is transient.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A request did not complete within its deadline.

    Maps to gRPC's ``DEADLINE_EXCEEDED``.  The operation may or may not
    have executed on the server; only idempotent operations are safe to
    retry.
    """


class AbortedError(ReproError, RuntimeError):
    """The service aborted the request before completing it.

    Maps to gRPC's ``ABORTED``: a transient server-side condition (a
    conflict, an injected fault) interrupted the request.  Idempotent
    operations are safe to retry.
    """


class ResourceExhaustedError(ReproError, RuntimeError):
    """A bounded resource (a serving queue, a memory budget) is full.

    Maps to gRPC's ``RESOURCE_EXHAUSTED``.  Raised by admission control
    when accepting more work would grow an explicitly bounded resource:
    the caller should shed load or retry after backing off, not simply
    retry immediately.
    """


def attach_op_name(exc: BaseException, op_name: str) -> BaseException:
    """Return ``exc`` labelled with the op that raised it at a deferred point.

    Used wherever an op's failure surfaces away from the call that
    requested it: a lazy-trace flush, a fused-region replay, a graph
    node inside a staged call.  The exception *type* is preserved
    (callers assert on types), the message gains the op name, and the
    original exception is chained as ``__cause__``.  An exception that
    already carries a label — an error propagating through dependent
    ops — passes through unchanged.
    """
    if getattr(exc, "_repro_async_op", None) is not None:
        return exc
    try:
        labelled = type(exc)(f"{exc} [raised asynchronously by op {op_name!r}]")
        labelled.__cause__ = exc
    except BaseException:
        labelled = exc  # exotic constructor signature: label in place
    try:
        labelled._repro_async_op = op_name  # type: ignore[attr-defined]
    except BaseException:
        pass
    return labelled
