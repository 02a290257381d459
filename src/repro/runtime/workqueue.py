"""The request-queue lifecycle: one queue, one serve thread, one contract.

A :class:`WorkQueue` owns a FIFO of pending requests and the thread that
serves them; it is the only place that knows the serve-thread contract
(DESIGN.md §7.1 has the failure table).  ``distribute.WorkerServer`` and
``serving.ServedModel`` subclass it and keep only what is theirs.

Transient failures retry under the module :class:`RetryPolicy` through
the one retry loop, :func:`call_with_retries`.
"""

from __future__ import annotations

import collections
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.framework.errors import (
    AbortedError,
    DeadlineExceededError,
    InternalError,
    InvalidArgumentError,
    ResourceExhaustedError,
    UnavailableError,
)

__all__ = [
    "DROP_REQUEST",
    "RequestFuture",
    "RetryPolicy",
    "WorkQueue",
    "call_with_retries",
    "get_retry_policy",
    "set_retry_policy",
]

#: Returned by a fault hook to drop the request: it is never answered,
#: and the client's deadline turns that into DeadlineExceededError.
DROP_REQUEST = "drop"


# -- retry policy -----------------------------------------------------------

_jitter_rng = random.Random()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient failures.

    Remote ops apply it only when idempotent — ops whose registry
    definition is not stateful.  Variable mutations, random ops, and
    graph-function calls (conservatively stateful) are never retried: a
    retry after a deadline could apply their side effect twice.

    Attributes:
        max_attempts: total attempts, including the first.
        initial_backoff_ms: sleep before the first retry.
        multiplier: backoff growth factor per attempt.
        max_backoff_ms: backoff ceiling.
        jitter: each backoff is scaled by a uniform factor in
            ``[1 - jitter, 1 + jitter]`` to decorrelate retry storms.
        retryable: exception types worth retrying.
    """

    max_attempts: int = 3
    initial_backoff_ms: float = 2.0
    multiplier: float = 2.0
    max_backoff_ms: float = 1000.0
    jitter: float = 0.25
    retryable: tuple = (UnavailableError, DeadlineExceededError, AbortedError)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidArgumentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0 <= self.jitter <= 1:
            raise InvalidArgumentError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_seconds(self, attempt: int) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        base = min(
            self.initial_backoff_ms * self.multiplier ** (attempt - 1),
            self.max_backoff_ms,
        )
        scale = 1.0 + self.jitter * _jitter_rng.uniform(-1.0, 1.0)
        return base * scale / 1000.0


_retry_policy: Optional[RetryPolicy] = RetryPolicy()


def get_retry_policy() -> Optional[RetryPolicy]:
    """The policy retrying remote ops and served calls (None: no retries)."""
    return _retry_policy


def set_retry_policy(policy: Optional[RetryPolicy]) -> Optional[RetryPolicy]:
    """Install ``policy`` as the module retry policy; returns the previous one."""
    global _retry_policy
    previous, _retry_policy = _retry_policy, policy
    return previous


def call_with_retries(
    attempt_fn: Callable[[], object],
    still_alive: Callable[[], bool],
    on_retry: Callable[[int, BaseException], None],
):
    """Call ``attempt_fn`` until it returns, under the module retry policy.

    A failure is retried when its type is retryable, attempts remain and
    ``still_alive()`` — retrying a worker that is gone for good cannot
    help, so its failure surfaces at once.  ``on_retry(attempt, exc)``
    announces each retry before the backoff sleep.
    """
    policy = _retry_policy
    attempt = 1
    while True:
        try:
            return attempt_fn()
        except BaseException as exc:
            if (
                policy is None
                or attempt >= policy.max_attempts
                or not isinstance(exc, policy.retryable)
                or not still_alive()
            ):
                raise
            on_retry(attempt, exc)
        time.sleep(policy.backoff_seconds(attempt))
        attempt += 1


# -- the future -------------------------------------------------------------


class RequestFuture:
    """The settled-later result of one submitted request.

    ``result()`` blocks until the serve thread settles the future or the
    request's deadline passes — the deadline covers queue wait *and*
    execution, so a dropped or stalled request surfaces as
    :class:`~repro.framework.errors.DeadlineExceededError` rather than
    a hang.  Futures settle exactly once; ``result()`` may be called
    from any thread, any number of times.
    """

    __slots__ = ("_lock", "_done", "_event", "_result", "_error", "deadline")

    def __init__(self, timeout_ms: Optional[float]) -> None:
        # The wake-up Event is allocated lazily, only by a result()
        # call that actually has to block: at saturation most futures
        # are settled before anyone waits, and Event construction is a
        # measurable per-request cost.  The (cheap, C-level) lock makes
        # the settle/create-event handoff race-free.
        self._lock = threading.Lock()
        self._done = False
        self._event: Optional[threading.Event] = None
        self._result = None
        self._error: Optional[BaseException] = None
        #: Absolute ``perf_counter`` time, or None: wait without limit.
        self.deadline = (
            None if timeout_ms is None else time.perf_counter() + timeout_ms / 1000.0
        )

    def _settle(self, result=None, error: Optional[BaseException] = None) -> None:
        with self._lock:
            self._result, self._error = result, error
            self._done = True
            event = self._event
        if event is not None:
            event.set()

    def _fail(self, error: BaseException) -> None:
        self._settle(error=error)

    def done(self) -> bool:
        return self._done

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.perf_counter() if now is None else now) > self.deadline

    def result(self, timeout: Optional[float] = None):
        """The request's result (or its raised failure)."""
        if not self._done:
            with self._lock:
                settled = self._done
                if not settled:
                    event = self._event
                    if event is None:
                        event = self._event = threading.Event()
            if not settled:
                if timeout is not None:
                    wait = timeout
                elif self.deadline is not None:
                    wait = max(self.deadline - time.perf_counter(), 0.0)
                else:
                    wait = None
                if not event.wait(wait):
                    raise DeadlineExceededError(
                        "Request did not complete within its deadline"
                    )
        if self._error is not None:
            raise self._error
        return self._result


# -- the queue and its serve thread -----------------------------------------


class WorkQueue:
    """A FIFO of requests plus the one thread that serves them.

    * **Admission** happens under the condition that also flips the
      running flag, so an admitted request is either served or failed
      by ``close``/``kill`` — never left queued with nobody to answer
      it.  Past the optional ``depth`` a submission is refused with
      :class:`~repro.framework.errors.ResourceExhaustedError`.
    * Every request carries a :class:`RequestFuture` with an absolute
      deadline: the serve thread skips a request whose client gave up,
      and a client never waits past its deadline.
    * ``close(drain=False)`` and ``kill()`` fail every pending future
      with :class:`~repro.framework.errors.UnavailableError`; ``close``
      then joins the serve thread, and one that is still alive at the
      join deadline (a wedged kernel or hook) is an
      :class:`~repro.framework.errors.InternalError`, not a leak.
    * The **fault hook** runs on the serve thread ahead of each unit of
      work; :class:`repro.distribute.FaultInjector` is its API.

    A request is any object with a ``future`` attribute.  Subclasses
    build requests, hand them to :meth:`_enqueue` and implement
    :meth:`_execute_batch`; one that coalesces overrides
    :meth:`_next_batch` too.  The subclass starts ``self._thread`` at the
    end of its own ``__init__``.  ``label`` names the owner in every
    error (``"Worker 'host:1'"``).
    """

    def __init__(
        self, label: str, thread_name: str, depth: Optional[int] = None
    ) -> None:
        self._label = label
        self._depth = depth
        self._queue: collections.deque = collections.deque()
        # Guards the queue *and* the two lifecycle flags: `_running` only
        # flips under it, which is what makes admission race-free.
        self._cond = threading.Condition()
        self._running = True  # admits new requests
        self._abandoned = False  # queued and popped work must not start
        self._reason = "shut down"
        self._fault_hook: Optional[Callable[[str], Optional[str]]] = None
        self._thread = threading.Thread(
            target=self._serve_loop, name=thread_name, daemon=True
        )

    # -- state ---------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """Whether new requests are admitted."""
        return self._running

    @property
    def alive(self) -> bool:
        """Whether admitted work may still be served (False once killed
        or closed without draining)."""
        return not self._abandoned

    def _unavailable_error(self) -> UnavailableError:
        return UnavailableError(f"{self._label} is {self._reason}")

    # -- client side ---------------------------------------------------------
    def _enqueue(self, request) -> None:
        """Admit one request, or raise without queueing it."""
        with self._cond:
            if not self._running:
                raise self._unavailable_error()
            if self._depth is not None and len(self._queue) >= self._depth:
                raise ResourceExhaustedError(
                    f"{self._label} queue is full ({self._depth} pending); "
                    "shed load or retry later"
                )
            self._queue.append(request)
            self._cond.notify()

    # -- serve thread --------------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute_batch(batch)

    def _take(self):
        """The next unexpired request, blocking for one (caller holds the
        condition); None once the queue is closed and empty."""
        while True:
            while not self._queue:
                if not self._running:
                    return None
                self._cond.wait(0.1)
            request = self._queue.popleft()
            if not request.future.expired():
                return request
            self._expire(request)

    def _next_batch(self) -> Optional[list]:
        """What the next serve iteration executes (None: exit)."""
        with self._cond:
            request = self._take()
        return None if request is None else [request]

    def _execute_batch(self, batch: list) -> None:
        raise NotImplementedError

    def _expire(self, request) -> None:
        """Skip a request whose client stopped waiting before it was served."""
        request.future._fail(
            DeadlineExceededError(
                f"Request to {self._label} passed its deadline in the queue"
            )
        )

    # -- fault injection -----------------------------------------------------
    def install_fault_hook(
        self, hook: Optional[Callable[[str], Optional[str]]]
    ) -> None:
        """Install (or with ``None`` remove) the per-request fault hook.

        The hook runs on the serve thread ahead of each unit of work
        with its name (the op name for a worker, the model name for a
        served model); it may sleep (inject latency), raise (fail the
        work), return :data:`DROP_REQUEST` (never answer), or call
        :meth:`kill` (simulate a crash).
        """
        self._fault_hook = hook

    def _fault_step(self, name: str) -> bool:
        """Run the fault hook; False means drop the work unanswered.

        Raises what the hook raised, or ``UnavailableError`` when the
        queue was abandoned meanwhile — by the hook itself (an injected
        crash) or by a concurrent ``kill``/``close``.
        """
        hook = self._fault_hook
        if hook is not None and hook(name) is DROP_REQUEST:
            return False
        if self._abandoned:
            raise self._unavailable_error()
        return True

    # -- lifecycle -----------------------------------------------------------
    def _close(self, reason: str, drain: bool) -> list:
        """Stop admitting; unless ``drain``, fail what is pending.

        Idempotent, and a later non-draining call still empties a queue
        an earlier draining one left.  Returns the requests it failed.
        """
        with self._cond:
            if self._running:
                self._running = False
                self._reason = reason
            pending: list = []
            if not drain:
                self._abandoned = True
                pending = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        for request in pending:
            request.future._fail(self._unavailable_error())
        return pending

    def close(self, drain: bool = False, timeout: float = 5.0) -> None:
        """Stop serving; idempotent, and never leaves a caller hanging.

        With ``drain`` the queued requests are served out first;
        without, they fail with ``UnavailableError`` like any later
        submission.  Raises ``InternalError`` when the serve thread is
        still alive ``timeout`` seconds later: a wedged one is an error.
        """
        self._close("shut down", drain)
        if threading.current_thread() is self._thread:
            return  # closed from a served request; the loop exits next
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise InternalError(
                f"{self._label} serve thread did not terminate within "
                f"{timeout:g} s of shutdown; a kernel or fault hook is "
                "likely wedged"
            )

    def kill(self) -> None:
        """Simulate an abrupt crash: like ``close()`` but without
        waiting for the serve thread, as a remote task dying would look."""
        self._close("dead (killed)", drain=False)
