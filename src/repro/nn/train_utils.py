"""Training utilities: gradient clipping, LR schedules, metrics.

All utilities are compositions of primitive ops over variables, so they
work identically in imperative code and inside a staged training step —
the same single-surface property the rest of the model library has.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.framework.errors import InvalidArgumentError
from repro.core.checkpoint import Trackable
from repro.core.variables import Variable
from repro.ops import array_ops, math_ops

__all__ = [
    "global_norm",
    "clip_by_global_norm",
    "clip_by_norm",
    "ExponentialDecay",
    "CosineDecay",
    "PiecewiseConstant",
    "Mean",
    "Accuracy",
    "ExponentialMovingAverage",
]


# ---------------------------------------------------------------------------
# Gradient clipping
# ---------------------------------------------------------------------------

def global_norm(tensors: Sequence) -> object:
    """sqrt(sum of squared L2 norms) across a list of tensors."""
    parts = [
        math_ops.reduce_sum(math_ops.square(t)) for t in tensors if t is not None
    ]
    if not parts:
        raise InvalidArgumentError("global_norm of an empty list")
    return math_ops.sqrt(math_ops.add_n(parts))


def clip_by_global_norm(tensors: Sequence, clip_norm: float):
    """Scale a gradient list so its global norm is at most ``clip_norm``.

    Returns (clipped list, the pre-clipping global norm), preserving
    None entries — the convention optimizers expect.
    """
    norm = global_norm(tensors)
    scale = clip_norm / math_ops.maximum(norm, clip_norm)
    clipped = [None if t is None else t * scale for t in tensors]
    return clipped, norm


def clip_by_norm(t, clip_norm: float):
    """Scale one tensor so its L2 norm is at most ``clip_norm``."""
    norm = math_ops.sqrt(math_ops.reduce_sum(math_ops.square(t)))
    return t * (clip_norm / math_ops.maximum(norm, clip_norm))


# ---------------------------------------------------------------------------
# Learning-rate schedules (callables over an integer step)
# ---------------------------------------------------------------------------

class ExponentialDecay:
    """lr = initial * decay_rate ** (step / decay_steps)."""

    def __init__(
        self,
        initial_learning_rate: float,
        decay_steps: int,
        decay_rate: float,
        staircase: bool = False,
    ) -> None:
        self.initial_learning_rate = float(initial_learning_rate)
        self.decay_steps = int(decay_steps)
        self.decay_rate = float(decay_rate)
        self.staircase = staircase

    def __call__(self, step) -> float:
        progress = float(step) / self.decay_steps
        if self.staircase:
            progress = np.floor(progress)
        return self.initial_learning_rate * self.decay_rate ** progress


class CosineDecay:
    """Cosine annealing from the initial rate down to ``alpha`` of it."""

    def __init__(
        self, initial_learning_rate: float, decay_steps: int, alpha: float = 0.0
    ) -> None:
        self.initial_learning_rate = float(initial_learning_rate)
        self.decay_steps = int(decay_steps)
        self.alpha = float(alpha)

    def __call__(self, step) -> float:
        progress = min(float(step), self.decay_steps) / self.decay_steps
        cosine = 0.5 * (1.0 + np.cos(np.pi * progress))
        return self.initial_learning_rate * (
            (1.0 - self.alpha) * cosine + self.alpha
        )


class PiecewiseConstant:
    """Step-function schedule: boundaries [b0, b1, ...] and len+1 values."""

    def __init__(self, boundaries: Sequence[int], values: Sequence[float]) -> None:
        if len(values) != len(boundaries) + 1:
            raise InvalidArgumentError(
                "PiecewiseConstant needs len(values) == len(boundaries) + 1"
            )
        self.boundaries = [int(b) for b in boundaries]
        self.values = [float(v) for v in values]

    def __call__(self, step) -> float:
        step = float(step)
        for boundary, value in zip(self.boundaries, self.values):
            if step < boundary:
                return value
        return self.values[-1]


# ---------------------------------------------------------------------------
# Metrics (stateful, checkpointable, staging-safe)
# ---------------------------------------------------------------------------

class Mean(Trackable):
    """Streaming mean of scalar batches."""

    def __init__(self, name: str = "mean") -> None:
        self._name = name
        self.total = Variable(0.0, trainable=False, name=f"{name}/total")
        self.count = Variable(0.0, trainable=False, name=f"{name}/count")

    def update_state(self, value) -> None:
        value = math_ops.reduce_mean(value) if getattr(value, "shape", None) and value.shape.rank else value
        self.total.assign_add(math_ops.cast(value, self.total.dtype))
        self.count.assign_add(1.0)

    def result(self):
        return self.total.read_value() / math_ops.maximum(
            self.count.read_value(), 1.0
        )

    def reset_state(self) -> None:
        self.total.assign(0.0)
        self.count.assign(0.0)


class Accuracy(Trackable):
    """Streaming classification accuracy over (labels, logit) batches."""

    def __init__(self, name: str = "accuracy") -> None:
        self._name = name
        self.correct = Variable(0.0, trainable=False, name=f"{name}/correct")
        self.total = Variable(0.0, trainable=False, name=f"{name}/total")

    def update_state(self, labels, logits) -> None:
        preds = math_ops.argmax(logits, axis=-1)
        labels = math_ops.cast(labels, preds.dtype)
        hits = math_ops.reduce_sum(
            math_ops.cast(math_ops.equal(preds, labels), self.correct.dtype)
        )
        self.correct.assign_add(hits)
        self.total.assign_add(
            math_ops.cast(array_ops.size(labels), self.total.dtype)
        )

    def result(self):
        return self.correct.read_value() / math_ops.maximum(
            self.total.read_value(), 1.0
        )

    def reset_state(self) -> None:
        self.correct.assign(0.0)
        self.total.assign(0.0)


class ExponentialMovingAverage(Trackable):
    """Maintains shadow copies of variables: s <- decay*s + (1-decay)*v."""

    def __init__(self, decay: float = 0.99) -> None:
        self.decay = float(decay)
        from repro.core.checkpoint import _DictWrapper

        self.shadows = _DictWrapper({})
        self._ordinals: dict[int, int] = {}

    def apply(self, variables: Sequence[Variable]) -> None:
        for var in variables:
            ordinal = self._ordinals.get(id(var))
            if ordinal is None:
                ordinal = len(self._ordinals)
                self._ordinals[id(var)] = ordinal
            key = str(ordinal)
            if key not in self.shadows:
                self.shadows[key] = Variable(
                    var.read_value(), trainable=False, name=f"ema/{key}"
                )
            else:
                shadow = self.shadows[key]
                shadow.assign(
                    shadow.read_value() * self.decay
                    + var.read_value() * (1.0 - self.decay)
                )

    def average(self, var: Variable) -> Optional[Variable]:
        ordinal = self._ordinals.get(id(var))
        if ordinal is None:
            return None
        return self.shadows[str(ordinal)]
