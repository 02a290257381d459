"""The six workloads.  Each is built from the public ``repro`` API only.

A *step* is one operation of a workload — one training step, one cold
staging, one Adam update, one served request — and always ends in a
value observation, so every execution mode pays its sync point inside
the step.  Sizes are fixed here and are the same on every commit; the
seed only chooses the data (and the initial weights).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

import repro
from repro import nn
from repro.framework.errors import ResourceExhaustedError
from repro.runtime import lazy
from repro.serving import ModelServer
from repro.tensor import TensorSpec

from benchmarks.perf import loadgen, reference
from benchmarks.perf.metrics import BLOCKS

# -- sizes (recorded in README.md; change them and the baseline is void) --------
RESNET_WIDTH = 8
RESNET_IMAGE = 32
RESNET_CLASSES = 100
RESNET_BATCHES = 8  # distinct batches cycled through, so nothing is memorised
L2HMC_CHAINS = 64
L2HMC_LEAPFROG = 10
COLD_LEAPFROG = 1  # one cold staging ≈ 90 ms, so a run holds > 100 of them
ADAM_SIZE = 512
ADAM_TENSORS = 4
ADAM_GRAD_SETS = 2
MLP_DIMS = (64, 128, 128, 128, 128, 16)
MLP_PAYLOADS = 256
SERVE_QUEUE_DEPTH = 256
SERVE_TIMEOUT_MS = 1000.0
# Requests/s in phase A.  Phase B sustains ≈55k/s here only by coalescing
# 32-request batches; one request at a time the pinned process manages ≈6k/s,
# so 3000/s keeps it ≈55 % busy: a request still queues behind its
# predecessor now and then, but a neighbour slowing the box by a third does
# not push the server to saturation (at 4000/s it did: latency ×4, not ×1.3).
SERVE_RATE = 3000.0
SERVE_PHASE_A_SHARE = 0.6
CHECK_EVERY = 50


@dataclass
class Window:
    """What one measured window produced."""

    latencies_ms: list[float]  # completed steps, in time order
    rates: list[float]  # items/s in each consecutive block of the window
    cpu_ms: list[float]  # CPU ms per step in each block
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    items_per_step = 1
    closed_loop = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = "numpy"
        self.deferred_failures = 0

    def setup(self) -> None:
        """Build everything and complete the first verified step."""
        raise NotImplementedError

    def step(self, i: int):
        """Closed-loop workloads: run step ``i`` and observe its value."""
        raise NotImplementedError

    def before_step(self, i: int):
        """Anything ``check`` needs from before step ``i`` ran (untimed)."""
        return None

    def check(self, i: int, out, before=None) -> bool:
        """Is step ``i``'s output right?  Runs outside the timed step."""
        raise NotImplementedError

    def run(self, seconds: float, recorder=None) -> "Window":
        """Open-loop workloads drive their own measured window."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that are too slow for the window; may add ``deferred_failures``."""

    def close(self) -> None:
        """Stop threads, delete files."""

    def layer_counts(self) -> dict:
        """Running totals from the layers' public stats surfaces."""
        return {}

    def layer_state(self) -> dict:
        """Point-in-time numbers (not differenced), e.g. the memory plan."""
        return {}


# -- training workloads: loss trajectories against golden / cross-mode -----------

class Training(Workload):
    """A training step whose first losses are checked against a reference."""

    mode = "eager"  # how the measured step runs
    cross_mode = "staged"  # the other mode, for seeds without a golden file

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.losses: list[float] = []
        self.golden = reference.load_golden(self.name, seed)
        self.reference = "golden" if self.golden else "cross-mode"

    def build(self, mode: str):
        """Returns ``step(i) -> loss`` running in ``mode`` from fresh state."""
        raise NotImplementedError

    def setup(self) -> None:
        self._step = self.build(self.mode)
        loss = self.step(0)
        if not self.check(0, loss):
            raise RuntimeError(f"{self.name}: first step gave loss {loss!r}")

    def step(self, i: int) -> float:
        return self._step(i)

    def check(self, i: int, loss: float, before=None) -> bool:
        if i < reference.GOLDEN_STEPS:
            self.losses.append(loss)
            if self.golden:
                return reference.losses_match([loss], [self.golden[i]])[0]
        return math.isfinite(loss)

    def finish(self) -> None:
        if self.golden:
            return
        twin = self.build(self.cross_mode)
        expected = [twin(i) for i in range(len(self.losses))]
        verdicts = reference.losses_match(self.losses, expected)
        self.deferred_failures += verdicts.count(False)

    def golden_trajectory(self) -> list[float]:
        step = self.build("eager")
        return [step(i) for i in range(reference.GOLDEN_STEPS)]


def _staged(train_step, mode: str):
    return repro.function(train_step) if mode == "staged" else train_step


class _ResNet(Training):
    batch = 1  # also the item count: one item is one image

    def build(self, mode: str):
        repro.set_random_seed(self.seed)
        rng = np.random.default_rng(self.seed)
        shape = (self.batch, RESNET_IMAGE, RESNET_IMAGE, 3)
        batches = [
            (
                repro.constant(rng.normal(0.45, 0.25, size=shape).astype(np.float32)),
                repro.constant(
                    rng.integers(0, RESNET_CLASSES, size=(self.batch,)).astype(np.int64)
                ),
            )
            for _ in range(RESNET_BATCHES)
        ]
        model = nn.resnet.resnet50_scaled(num_classes=RESNET_CLASSES, width=RESNET_WIDTH)
        optimizer = nn.SGD(0.01, momentum=0.9)
        # Layers create their variables on first use; do that here, eagerly,
        # so every mode draws its initial weights in the same order.
        model(batches[0][0], training=True)

        def train_step(images, labels):
            with repro.GradientTape() as tape:
                logits = model(images, training=True)
                loss = nn.sparse_softmax_cross_entropy(labels, logits)
            variables = model.trainable_variables
            grads = tape.gradient(loss, variables)
            optimizer.apply_gradients(zip(grads, variables))
            return loss

        fn = _staged(train_step, mode)
        if mode == self.mode:
            self._fn = fn

        def step(i: int) -> float:
            images, labels = batches[i % RESNET_BATCHES]
            return float(fn(images, labels).numpy())

        return step


class ResNetEager(_ResNet):
    name = "resnet_eager_bs1"
    batch = items_per_step = 1
    mode = "eager"
    cross_mode = "staged"


class ResNetStaged(_ResNet):
    name = "resnet_staged_bs16"
    batch = items_per_step = 16
    mode = "staged"
    cross_mode = "eager"

    def layer_counts(self) -> dict:
        return _cache_counts(self._fn.cache_stats())

    def layer_state(self) -> dict:
        return {"graph.executor.peak_live_mb": _peak_live_mb(self._fn)}


def _cache_counts(stats: dict) -> dict:
    return {f"core.function.cache.{key}": stats[key] for key in ("hits", "misses", "traces")}


def _peak_live_mb(fn) -> float:
    """Largest planned live set over the function's traces, forward or backward."""
    peak = 0
    for trace in fn.execution_stats()["traces"]:
        for part in (trace, trace.get("staged_forward"), trace.get("staged_backward")):
            if part:
                peak = max(peak, part["peak_live_bytes"])
    return peak / 2**20


class _L2HMC(Training):
    leapfrog = L2HMC_LEAPFROG
    items_per_step = L2HMC_CHAINS

    def _model(self):
        """``(train_step, x0)`` over fresh sampler state."""
        repro.set_random_seed(self.seed)
        energy = nn.l2hmc.gaussian_mixture_energy([[-2.0, 0.0], [2.0, 0.0]])
        dynamics = nn.l2hmc.L2HMCDynamics(
            2, energy, num_steps=self.leapfrog, eps=0.1, seed=self.seed
        )
        sampler = nn.l2hmc.L2HMCSampler(dynamics)
        optimizer = nn.Adam(1e-3)
        x0 = repro.constant(
            np.random.default_rng(self.seed)
            .normal(size=(L2HMC_CHAINS, 2))
            .astype(np.float32)
        )
        sampler.loss_and_samples(x0)  # creates the variables; see _ResNet.build

        def train_step(x):
            with repro.GradientTape() as tape:
                loss, x_next = sampler.loss_and_samples(x)
            variables = sampler.trainable_variables
            grads = tape.gradient(loss, variables)
            optimizer.apply_gradients(zip(grads, variables))
            return loss, x_next

        return train_step, x0


class L2HMCStaged(_L2HMC):
    name = "l2hmc_staged"
    mode = "staged"
    cross_mode = "eager"

    def build(self, mode: str):
        train_step, x0 = self._model()
        fn = _staged(train_step, mode)
        if mode == self.mode:
            self._fn = fn
        state = [x0]

        def step(i: int) -> float:
            loss, state[0] = fn(state[0])
            return float(loss.numpy())

        return step

    def layer_counts(self) -> dict:
        return _cache_counts(self._fn.cache_stats())

    def layer_state(self) -> dict:
        return {"graph.executor.peak_live_mb": _peak_live_mb(self._fn)}


class StagingCold(_L2HMC):
    """Every step builds, traces and calls a fresh ``repro.function`` once."""

    name = "staging_cold"
    mode = "staged"
    cross_mode = "eager"
    leapfrog = COLD_LEAPFROG
    items_per_step = 1  # one cold trace

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._cache = {"hits": 0, "misses": 0, "traces": 0}

    def build(self, mode: str):
        train_step, x0 = self._model()
        state = [x0]
        measured = mode == self.mode

        def step(i: int) -> float:
            fn = _staged(train_step, mode)
            loss, state[0] = fn(state[0])
            value = float(loss.numpy())
            if measured:
                stats = fn.cache_stats()
                for key in self._cache:
                    self._cache[key] += stats[key]
                self._last_fn = fn
            return value

        return step

    def layer_counts(self) -> dict:
        return _cache_counts(self._cache)

    def layer_state(self) -> dict:
        return {"graph.executor.peak_live_mb": _peak_live_mb(self._last_fn)}


# -- adam_lazy -----------------------------------------------------------------------

def _adam_update(p, g, m, v):
    """One parameter's Adam update: a pure elementwise chain (undecorated)."""
    g = repro.tanh(g * 0.25) * 4.0
    g = g + reference.WEIGHT_DECAY * p
    m_new = m * reference.BETA1 + g * (1.0 - reference.BETA1)
    v_new = v * reference.BETA2 + g * g * (1.0 - reference.BETA2)
    m_hat = m_new * (1.0 / (1.0 - reference.BETA1))
    v_hat = v_new * (1.0 / (1.0 - reference.BETA2))
    update = m_hat * repro.rsqrt(v_hat + reference.EPS)
    return p - reference.LR * update, m_new, v_new


class AdamLazy(Workload):
    name = "adam_lazy"
    items_per_step = ADAM_TENSORS

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        shape = (ADAM_SIZE, ADAM_SIZE)

        def tensors(make):
            return [repro.constant(make().astype(np.float32)) for _ in range(ADAM_TENSORS)]

        self.grads = [
            tensors(lambda: rng.normal(size=shape)) for _ in range(ADAM_GRAD_SETS)
        ]
        self.params = tensors(lambda: rng.normal(size=shape) * 0.1)
        self.moments = tensors(lambda: np.zeros(shape))
        self.velocities = tensors(lambda: np.full(shape, 1e-3))
        self._scope = repro.execution_mode("lazy")
        self._scope.__enter__()
        before = self._state_arrays()
        self.step(0)
        if not self._matches_numpy(0, before):
            raise RuntimeError("adam_lazy: first step disagrees with the NumPy Adam")

    def close(self) -> None:
        self._scope.__exit__(None, None, None)

    def _state_arrays(self):
        return [
            [t.numpy() for t in group]
            for group in (self.params, self.moments, self.velocities)
        ]

    def step(self, i: int):
        grads = self.grads[i % ADAM_GRAD_SETS]
        out = [
            _adam_update(p, g, m, v)
            for p, g, m, v in zip(self.params, grads, self.moments, self.velocities)
        ]
        repro.sync()
        self.params = [o[0] for o in out]
        self.moments = [o[1] for o in out]
        self.velocities = [o[2] for o in out]
        return i

    def _matches_numpy(self, i: int, before) -> bool:
        grads = [g.numpy() for g in self.grads[i % ADAM_GRAD_SETS]]
        after = self._state_arrays()
        for k in range(ADAM_TENSORS):
            expected = reference.adam_update(
                before[0][k], grads[k], before[1][k], before[2][k]
            )
            for group, want in zip(after, expected):
                if not reference.close(group[k], want, rtol=1e-4, atol=1e-6):
                    return False
        return True

    def before_step(self, i: int):
        """State the NumPy reference starts from, on the steps it checks."""
        return self._state_arrays() if i % CHECK_EVERY == 0 else None

    def check(self, i: int, _out, before=None) -> bool:
        return before is None or self._matches_numpy(i, before)

    def layer_counts(self) -> dict:
        stats = lazy.lazy_stats()
        return {
            "runtime.lazy.ops_recorded": stats["recorded_ops"],
            "runtime.lazy.flushes": stats["flushes"],
            "runtime.lazy.cache_hits": stats["cache_hits"],
            "runtime.lazy.cache_misses": stats["cache_misses"],
        }


# -- serve_mlp -----------------------------------------------------------------------

class ServeMLP(Workload):
    """Phase A: fixed-rate open loop (latency).  Phase B: flood (throughput)."""

    name = "serve_mlp"
    closed_loop = False

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.weights = [
            rng.standard_normal((MLP_DIMS[i], MLP_DIMS[i + 1])).astype(np.float32) * 0.1
            for i in range(len(MLP_DIMS) - 1)
        ]
        self.payloads = [
            rng.standard_normal((1, MLP_DIMS[0])).astype(np.float32)
            for _ in range(MLP_PAYLOADS)
        ]
        self.tensors = [repro.constant(p) for p in self.payloads]
        variables = [repro.Variable(w) for w in self.weights]

        @repro.function
        def mlp(x):
            for w in variables:
                x = repro.tanh(repro.matmul(x, w))
            return x

        # The benchmark writes only inside its checkout (the working directory).
        self._dir = tempfile.TemporaryDirectory(prefix=".perf_tmp_", dir=os.getcwd())
        path = repro.saved_function.save(
            mlp,
            os.path.join(self._dir.name, "mlp"),
            TensorSpec([None, MLP_DIMS[0]], repro.float32),
        )
        self.server = ModelServer(timeout_ms=SERVE_TIMEOUT_MS)
        self.model = self.server.load("mlp", path, queue_depth=SERVE_QUEUE_DEPTH)
        first = self.model.predict(self.tensors[0])
        if not self._response_ok(0, first):
            raise RuntimeError("serve_mlp: first response disagrees with the NumPy MLP")

    def close(self) -> None:
        self.server.stop()
        self._dir.cleanup()

    def _submit(self, k: int):
        return self.model.submit(self.tensors[k % MLP_PAYLOADS])

    def _response_ok(self, k: int, value) -> bool:
        expected = reference.mlp_forward(self.weights, self.payloads[k % MLP_PAYLOADS])
        return reference.close(value.numpy(), expected, rtol=1e-4, atol=1e-5)

    def run(self, seconds: float, recorder=None) -> Window:
        on_send = None
        if recorder is not None:

            def on_send(k):  # kernel bytes stay on: the worker runs behind k
                recorder.step = k
                if k == recorder.detail_steps:
                    recorder.detail = False

        a = loadgen.open_loop(
            self._submit,
            SERVE_RATE,
            seconds * SERVE_PHASE_A_SHARE,
            refused=(ResourceExhaustedError,),
            blocks=BLOCKS,
            on_send=on_send,
        )
        b = loadgen.flood(
            self._submit,
            seconds * (1.0 - SERVE_PHASE_A_SHARE),
            (ResourceExhaustedError,),
            slices=BLOCKS,
        )
        wrong = [k for k, value in a.kept + b.kept if not self._response_ok(k, value)]
        errors = [msg for _k, msg in a.errors + b.errors]
        errors += [f"response {k} disagrees with the NumPy MLP" for k in wrong]
        # A refusal (full queue) is back-pressure the generator retries, and
        # it shows in latency; a request fails by raising, by missing its
        # deadline, or by returning the wrong output.
        failed = len(a.errors) + len(b.errors) + len(wrong)
        return Window(
            latencies_ms=[s * 1e3 for s in a.latencies_s],
            rates=b.rates,
            cpu_ms=a.cpu_ms,
            attempted=a.attempted + b.attempted,
            failed=failed,
            errors=errors,
            extra={
                "lags_ms": [s * 1e3 for s in a.lags_s],
                "phase_a": {"sent": a.attempted, "completed": a.completed,
                            "refusals_retried": a.rejected, "failed": len(a.errors)},
                "phase_b": {"sent": b.attempted, "completed": b.completed,
                            "refusals_retried": b.rejected, "failed": len(b.errors)},
                "window_s": a.elapsed_s + b.elapsed_s,
            },
        )

    def layer_counts(self) -> dict:
        stats = self.model.stats()
        return {
            "serving.batches": stats["batches"],
            "serving.completed": stats["completed"] + stats["failed"],
            "serving.rejected": stats["rejected"],
            "serving.deadline_missed": stats["expired"],
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ResNetEager, ResNetStaged, L2HMCStaged, StagingCold, AdamLazy, ServeMLP)
}
TRAINING = tuple(name for name, cls in WORKLOADS.items() if issubclass(cls, Training))
