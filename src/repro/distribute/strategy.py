"""Data-parallel training helpers.

The paper's conclusion names "an out-of-the-box solution for
imperatively-driven distributed training" as ongoing work; this module
implements the natural first cut on top of the §4.5 primitives: a
mirrored data-parallel strategy where each replica device runs the same
step on its shard concurrently (one Python thread per worker — §4.5:
"developers need to start these computations concurrently, e.g. using
Python threads") and gradients are reduced on the coordinator.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence


from repro.framework import nest
from repro.framework.errors import (
    DeadlineExceededError,
    InvalidArgumentError,
    UnavailableError,
)
from repro.runtime.context import context, device as device_scope
from repro.ops import array_ops, math_ops
from repro.tensor import Tensor, convert_to_tensor

__all__ = ["DataParallelStrategy", "PerReplica"]


class PerReplica:
    """A tuple of per-replica values, one per strategy device."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence) -> None:
        self.values = tuple(values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        return self.values[index]

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"PerReplica({list(self.values)!r})"


class DataParallelStrategy:
    """Run a step function on shards across devices; reduce the results.

    Usage::

        strategy = DataParallelStrategy([
            "/job:training/task:0/device:CPU:0",
            "/job:training/task:1/device:CPU:0",
        ])
        per_replica = strategy.split_batch((images, labels))
        losses = strategy.run(step_fn, per_replica)
        loss = strategy.reduce_mean(losses)
    """

    #: Exceptions that mean "this replica's worker is gone or stalled",
    #: triggering degradation instead of plain propagation.
    _REPLICA_FAILURES = (UnavailableError, DeadlineExceededError)

    def __init__(
        self, devices: Sequence[str], on_replica_failure: str = "fail"
    ) -> None:
        """Args:
            devices: replica device names (local or remote).
            on_replica_failure: what :meth:`run` does when a replica's
                worker dies or stalls mid-step (``UnavailableError`` /
                ``DeadlineExceededError``).  ``"fail"`` (default) raises
                a clear ``UnavailableError`` naming the dead task;
                ``"reshard"`` re-runs the failed replicas' shards on the
                surviving replicas so the step still completes.  Either
                way the step never hangs.
        """
        if not devices:
            raise InvalidArgumentError("A strategy needs at least one device")
        if on_replica_failure not in ("fail", "reshard"):
            raise InvalidArgumentError(
                "on_replica_failure must be 'fail' or 'reshard', "
                f"got {on_replica_failure!r}"
            )
        # Validate now so typos fail at construction.
        for name in devices:
            context.get_device(name)
        self.devices = list(devices)
        self.on_replica_failure = on_replica_failure
        self._reshard_events = 0

    @property
    def num_replicas(self) -> int:
        return len(self.devices)

    # -- input distribution --------------------------------------------------
    def split_batch(self, batch) -> PerReplica:
        """Shard every tensor leaf of ``batch`` along axis 0."""
        flat = nest.flatten(batch)
        n = self.num_replicas
        shards_per_leaf = []
        for leaf in flat:
            leaf = convert_to_tensor(leaf)
            size = leaf.shape[0]
            if size is None or size % n != 0:
                raise InvalidArgumentError(
                    f"Batch dimension {size} is not divisible by "
                    f"{n} replicas"
                )
            shards_per_leaf.append(array_ops.split(leaf, n, axis=0))
        replicas = []
        for r in range(n):
            replicas.append(
                nest.pack_sequence_as(batch, [s[r] for s in shards_per_leaf])
            )
        return PerReplica(replicas)

    # -- execution ---------------------------------------------------------
    def run(self, fn: Callable, per_replica_args: Optional[PerReplica] = None) -> PerReplica:
        """Invoke ``fn`` once per replica, concurrently, on its device.

        ``fn`` receives the replica's argument structure (or nothing).
        Returns the per-replica results; exceptions from any replica
        propagate.

        When a replica's worker dies or stalls mid-step the strategy
        degrades instead of hanging: with ``on_replica_failure="fail"``
        it raises ``UnavailableError`` naming the dead task, with
        ``"reshard"`` it re-runs the failed shards on the surviving
        replicas (see :attr:`reshard_events`).
        """
        results, errors = self._run_on(
            list(range(self.num_replicas)), self.devices, fn, per_replica_args
        )
        failed = [i for i in range(self.num_replicas) if errors[i] is not None]
        if not failed:
            return PerReplica(results)

        # Non-availability errors (a bug in fn, bad shapes, ...) are not
        # degradation cases; propagate the first as before.
        for i in failed:
            if not isinstance(errors[i], self._REPLICA_FAILURES):
                raise errors[i]

        survivors = [
            i
            for i in range(self.num_replicas)
            if errors[i] is None and self._replica_alive(i)
        ]
        if self.on_replica_failure == "fail" or not survivors:
            first = failed[0]
            raise UnavailableError(
                f"Replica {first} ({self.devices[first]}) became unavailable "
                f"during DataParallelStrategy.run ({len(failed)} of "
                f"{self.num_replicas} replicas failed)"
            ) from errors[first]

        # Re-shard: run each failed replica's arguments on a surviving
        # device (round-robin).  A failure here is no longer transient —
        # it propagates as a clear UnavailableError.
        self._reshard_events += 1
        retry_devices = [
            self.devices[survivors[k % len(survivors)]] for k in range(len(failed))
        ]
        retry_results, retry_errors = self._run_on(
            failed, retry_devices, fn, per_replica_args
        )
        for k, i in enumerate(failed):
            if retry_errors[k] is not None:
                raise UnavailableError(
                    f"Replica {i} ({self.devices[i]}) failed and its shard "
                    f"could not be re-run on surviving device "
                    f"{retry_devices[k]}"
                ) from retry_errors[k]
            results[i] = retry_results[k]
        return PerReplica(results)

    @property
    def reshard_events(self) -> int:
        """How many :meth:`run` calls degraded onto surviving replicas."""
        return self._reshard_events

    def _replica_alive(self, index: int) -> bool:
        """Whether the replica's device can still accept work."""
        try:
            device = context.get_device(self.devices[index])
        except Exception:  # noqa: BLE001 - resolver may be gone entirely
            return False
        server = getattr(device, "server", None)
        return server is None or server.is_running

    def _run_on(
        self,
        indices: Sequence[int],
        devices: Sequence[str],
        fn: Callable,
        per_replica_args: Optional[PerReplica],
    ) -> tuple[list, list]:
        """Run replica ``indices`` on ``devices`` (parallel positions);
        returns (results, errors) aligned with ``indices``."""
        results: list = [None] * len(indices)
        errors: list = [None] * len(indices)

        def worker(pos: int) -> None:
            try:
                with device_scope(devices[pos]):
                    if per_replica_args is None:
                        out = fn()
                    else:
                        args = per_replica_args[indices[pos]]
                        if isinstance(args, tuple):
                            out = fn(*args)
                        else:
                            out = fn(args)
                    # Lazy mode returns LazyTensors: force them
                    # *inside* the replica, so a worker that died
                    # mid-step surfaces here — where the degradation
                    # logic can reshard — not at some later observation
                    # of the value.
                    for leaf in nest.flatten(out):
                        materialize = getattr(leaf, "_materialize", None)
                        if materialize is not None:
                            materialize()
                    results[pos] = out
            except BaseException as exc:  # noqa: BLE001 - handled by caller
                errors[pos] = exc

        if len(indices) == 1:
            worker(0)
        else:
            threads = [
                threading.Thread(target=worker, args=(p,), daemon=True)
                for p in range(len(indices))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return results, errors

    # -- reductions --------------------------------------------------------------
    def _fetch_all(self, values: PerReplica) -> list:
        out = []
        for v in values:
            if isinstance(v, Tensor) and "localhost" not in v.device:
                v = v.cpu()
            out.append(v)
        return out

    def reduce_sum(self, values: PerReplica):
        """Sum per-replica structures onto the coordinator."""
        fetched = self._fetch_all(values)
        flats = [nest.flatten(v) for v in fetched]
        summed = [
            math_ops.add_n([self._to_local(f[i]) for f in flats])
            for i in range(len(flats[0]))
        ]
        return nest.pack_sequence_as(fetched[0], summed)

    def reduce_mean(self, values: PerReplica):
        """Average per-replica structures onto the coordinator."""
        total = self.reduce_sum(values)
        n = float(self.num_replicas)
        return nest.map_structure(lambda t: t / n, total) if nest.is_nested(total) else total / n

    @staticmethod
    def _to_local(t):
        if isinstance(t, Tensor) and "localhost" not in t.device:
            return t.cpu()
        return t

    # -- convenience: a full data-parallel gradient step -----------------------------
    def gradient_step(self, loss_fn: Callable, batch, variables, optimizer) -> object:
        """Shard ``batch``, compute per-replica gradients of ``loss_fn``,
        average them, and apply once on the coordinator.

        Returns the mean loss.  ``loss_fn(shard) -> loss`` must use only
        ``variables`` as trainable state.
        """
        from repro.core.tape import GradientTape

        shards = self.split_batch(batch)

        def replica_step(*args):
            with GradientTape() as tape:
                loss = loss_fn(*args) if args else loss_fn()
            grads = tape.gradient(loss, list(variables))
            return loss, grads

        outcomes = self.run(replica_step, shards)
        losses = PerReplica([loss for loss, _ in outcomes])
        grad_lists = [grads for _, grads in outcomes]
        averaged = []
        for i in range(len(variables)):
            parts = [self._to_local(g[i]) for g in grad_lists if g[i] is not None]
            if not parts:
                averaged.append(None)
                continue
            averaged.append(math_ops.add_n(parts) / float(len(parts)))
        optimizer.apply_gradients(zip(averaged, variables))
        return self.reduce_mean(losses)
