"""Chaos-testing hooks for worker servers and served models.

The fault-tolerance layer is only trustworthy if it can be exercised:
this module installs controlled faults on a
:class:`~repro.runtime.workqueue.WorkQueue` (a :class:`WorkerServer`, a
:class:`~repro.serving.ServedModel`) so tests and the chaos benchmark
can prove that deadlines fire, retries recover, and strategy steps
degrade instead of hanging.

A :class:`FaultInjector` wraps one worker and applies an ordered list
of rules on the worker's serve thread, one request at a time::

    from repro.distribute.fault_injection import FaultInjector

    with FaultInjector(worker) as chaos:
        chaos.delay(0.2, times=1)          # stall the next request
        chaos.fail(times=2)                # abort the next two (retryable)
        chaos.drop(ops={"Add"}, times=1)   # never answer one Add
        chaos.kill_worker(ops={"Mul"})     # crash on the next Mul
        ...

Rules are consumed in installation order; each applies to the first
``times`` matching requests (``times=None``: forever).  Health-check
pings pass through the same rules, so an injected stall makes
:meth:`WorkerServer.ping` report unhealthy — the property the health
check exists to detect.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional, Set

from repro.framework.errors import AbortedError, InvalidArgumentError
from repro.runtime.workqueue import DROP_REQUEST, WorkQueue

__all__ = ["FaultInjector"]


@dataclass
class _Rule:
    kind: str  # "delay" | "drop" | "fail" | "kill"
    ops: Optional[Set[str]]  # None: match every op
    times: Optional[int]  # None: never expires
    seconds: float = 0.0
    error_type: type = AbortedError

    def matches(self, op_name: str) -> bool:
        return self.ops is None or op_name in self.ops


class FaultInjector:
    """Installable drop / delay / fail / kill faults for one worker."""

    def __init__(self, worker: WorkQueue) -> None:
        self._worker = worker
        self._rules: list[_Rule] = []
        self._lock = threading.Lock()
        # Counters for assertions in tests/benchmarks.
        self.injected: dict[str, int] = {"delay": 0, "drop": 0, "fail": 0, "kill": 0}
        worker.install_fault_hook(self._hook)

    # -- rule installation ---------------------------------------------------
    def _add(self, rule: _Rule) -> "FaultInjector":
        if rule.times is not None and rule.times < 1:
            raise InvalidArgumentError(f"times must be >= 1, got {rule.times}")
        with self._lock:
            self._rules.append(rule)
        return self

    def delay(
        self,
        seconds: float,
        ops: Optional[Set[str]] = None,
        times: Optional[int] = None,
    ) -> "FaultInjector":
        """Stall matching requests for ``seconds`` before serving them."""
        return self._add(_Rule("delay", ops and set(ops), times, seconds=seconds))

    def drop(
        self, ops: Optional[Set[str]] = None, times: Optional[int] = None
    ) -> "FaultInjector":
        """Never answer matching requests (the client's deadline fires)."""
        return self._add(_Rule("drop", ops and set(ops), times))

    def fail(
        self,
        ops: Optional[Set[str]] = None,
        times: Optional[int] = None,
        error_type: type = AbortedError,
    ) -> "FaultInjector":
        """Fail matching requests with ``error_type`` (default: the
        retryable :class:`~repro.framework.errors.AbortedError`)."""
        return self._add(_Rule("fail", ops and set(ops), times, error_type=error_type))

    def kill_worker(
        self, ops: Optional[Set[str]] = None, times: Optional[int] = 1
    ) -> "FaultInjector":
        """Crash the worker when a matching request arrives.

        The triggering request fails with ``UnavailableError``; queued
        requests are drained with the same error; later submissions are
        rejected immediately.
        """
        return self._add(_Rule("kill", ops and set(ops), times))

    def remove(self) -> None:
        """Uninstall the injector; the worker serves normally again."""
        self._worker.install_fault_hook(None)

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # -- the hook (runs on the worker's serve thread) ------------------------
    def _claim(self, op_name: str) -> Optional[_Rule]:
        with self._lock:
            for rule in self._rules:
                if not rule.matches(op_name):
                    continue
                if rule.times is not None:
                    rule.times -= 1
                    if rule.times == 0:
                        self._rules.remove(rule)
                self.injected[rule.kind] += 1
                return rule
        return None

    def _hook(self, op_name: str) -> Optional[str]:
        rule = self._claim(op_name)
        if rule is None:
            return None
        if rule.kind == "delay":
            time.sleep(rule.seconds)
            return None
        if rule.kind == "drop":
            return DROP_REQUEST
        if rule.kind == "fail":
            raise rule.error_type(
                f"Injected fault: {op_name!r} aborted on worker "
                f"{self._worker.address!r}"
            )
        # kind == "kill": the fault step that called us notices the
        # queue is abandoned and fails the triggering request with
        # UnavailableError, exactly like a crash mid-request.
        self._worker.kill()
        return None
