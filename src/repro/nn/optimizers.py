"""Optimizers.

Optimizers hold their slot state (momenta, Adam moments) in variables
tracked through the checkpoint object graph, and express updates purely
as variable assignment ops — so a whole training step (forward,
backward, update) stages into one graph function, which is exactly what
the paper's benchmarks decorate (§6: "the forward pass and gradient
application staged with function").
"""

from __future__ import annotations

from typing import Iterable, Sequence


from repro.framework.errors import InvalidArgumentError
from repro.core.checkpoint import Trackable, _DictWrapper
from repro.core.variables import Variable
from repro.ops import array_ops, math_ops

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer(Trackable):
    """Base class managing per-variable slot state."""

    def __init__(self, name: str) -> None:
        self._name = name
        # A tracked dict: slot variables become named checkpoint edges.
        # Keys are first-use ordinals, which are deterministic for a
        # given program (the property graph-based matching needs).
        self.slots = _DictWrapper({})
        self._slot_ordinals: dict[int, int] = {}

    def _get_slot(self, var: Variable, slot_name: str) -> Variable:
        ordinal = self._slot_ordinals.get(id(var))
        if ordinal is None:
            ordinal = len(self._slot_ordinals)
            self._slot_ordinals[id(var)] = ordinal
        key = f"{ordinal}/{slot_name}"
        slots = self.slots
        if key not in slots:
            slot = Variable(
                lambda: array_ops.zeros(var.shape.as_list(), dtype=var.dtype),
                trainable=False,
                name=f"{self._name}/{key}",
            )
            slots[key] = slot
        return slots[key]

    def apply_gradients(self, grads_and_vars: Iterable[tuple]) -> None:
        """Apply one update step given (gradient, variable) pairs."""
        pairs = [(g, v) for g, v in grads_and_vars if g is not None]
        if not pairs:
            raise InvalidArgumentError("No gradients to apply")
        self._prepare()
        for grad, var in pairs:
            self._apply_dense(grad, var)
        self._finish()

    def minimize(self, tape, loss, variables: Sequence[Variable]) -> None:
        """Convenience: compute gradients from ``tape`` and apply them."""
        grads = tape.gradient(loss, list(variables))
        self.apply_gradients(zip(grads, variables))

    # Subclass hooks -----------------------------------------------------------
    def _prepare(self) -> None:
        pass

    def _apply_dense(self, grad, var: Variable) -> None:
        raise NotImplementedError

    def _finish(self) -> None:
        pass


class SGD(Optimizer):
    """Stochastic gradient descent, optionally with (Nesterov) momentum."""

    def __init__(
        self,
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__("SGD")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.nesterov = nesterov

    def _apply_dense(self, grad, var: Variable) -> None:
        lr = self.learning_rate
        if self.momentum:
            mom = self._get_slot(var, "momentum")
            new_mom = mom.read_value() * self.momentum + grad
            mom.assign(new_mom)
            if self.nesterov:
                update = (grad + new_mom * self.momentum) * lr
            else:
                update = new_mom * lr
            var.assign_sub(update)
        else:
            var.assign_sub(grad * lr)


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-7,
    ) -> None:
        super().__init__("Adam")
        self.learning_rate = learning_rate
        self.beta_1 = beta_1
        self.beta_2 = beta_2
        self.epsilon = epsilon
        self.step = Variable(0.0, trainable=False, name="Adam/step")

    def _prepare(self) -> None:
        self.step.assign_add(1.0)

    def _apply_dense(self, grad, var: Variable) -> None:
        m = self._get_slot(var, "m")
        v = self._get_slot(var, "v")
        t = self.step.read_value()
        beta_1 = self.beta_1
        beta_2 = self.beta_2
        new_m = m.read_value() * beta_1 + grad * (1.0 - beta_1)
        new_v = v.read_value() * beta_2 + math_ops.square(grad) * (1.0 - beta_2)
        m.assign(new_m)
        v.assign(new_v)
        correction1 = 1.0 - math_ops.pow(
            array_ops.constant(beta_1, dtype=var.dtype), t
        )
        correction2 = 1.0 - math_ops.pow(
            array_ops.constant(beta_2, dtype=var.dtype), t
        )
        m_hat = new_m / correction1
        v_hat = new_v / correction2
        var.assign_sub(
            m_hat * self.learning_rate / (math_ops.sqrt(v_hat) + self.epsilon)
        )
