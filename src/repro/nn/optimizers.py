"""Optimizers.

Optimizers hold their slot state (momenta, Adam moments) in variables
tracked through the checkpoint object graph, and express updates purely
as variable assignment ops — so a whole training step (forward,
backward, update) stages into one graph function, which is exactly what
the paper's benchmarks decorate (§6: "the forward pass and gradient
application staged with function").

An eager ``apply_gradients`` stages itself (paper §4.1's "profile, find
the hot block, stage it", done for the update).  The first call for a
variable list runs op by op, creating the slots eagerly; the second
call in a row for the same list traces the same update body into the
optimizer's ``repro.function``, whose trace cache keeps one trace per
variable list, and runs it; later calls for any list traced there run
their trace.  Hyperparameters are tensor inputs of the staged body, so
a schedule never retraces; structural flags (Nesterov, zero momentum)
are part of the key.  The update stays eager — counted in
:mod:`repro.runtime.decisions` under site ``"update"`` — inside a
trace, in lazy mode, under an active tape, with a graph-mode
interceptor registered, off the CPU, when the build raised, or for an
optimizer that does not declare its hyperparameters (``_hyper``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.core import pipeline
from repro.core.checkpoint import Trackable, _DictWrapper
from repro.core.variables import Variable
from repro.ops import array_ops, math_ops
from repro.runtime import decisions
from repro.tensor import convert_to_tensor

__all__ = ["Optimizer", "SGD", "Adam"]

_UPDATE_HOOKS = ("_prepare", "_apply_dense", "_finish")


class _UpdateKey:
    """The key of one staged update: a variable list (by identity) and
    the optimizer's structural flags.  A plain argument of the update
    function, so its trace cache keys on it; holding the variables
    keeps their ids from being reused.  ``state`` is ``"built"`` once
    traced and ``"failed"`` if the trace raised."""

    __slots__ = ("variables", "_ids", "_hash", "state")

    def __init__(self, variables: list, structure: tuple) -> None:
        self.variables = variables
        self._ids = (tuple(map(id, variables)), structure)
        self._hash = hash(self._ids)
        self.state: Optional[str] = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return type(other) is _UpdateKey and other._ids == self._ids


class Optimizer(Trackable):
    """Base class managing per-variable slot state."""

    # Set per subclass (see ``_hyper`` under the hooks): whether
    # ``_apply_dense`` takes ``hyper``, and whether the update may be staged.
    _takes_hyper = _stageable = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        owners = {hook: next(k for k in cls.__mro__ if hook in vars(k)) for hook in _UPDATE_HOOKS}
        cls._takes_hyper = "_hyper" in vars(owners["_apply_dense"])
        cls._stageable = all(k is Optimizer or "_hyper" in vars(k) for k in owners.values())

    def __init__(self, name: str) -> None:
        self._name = name
        # A tracked dict: slot variables become named checkpoint edges.
        # Keys are first-use ordinals, which are deterministic for a
        # given program (the property graph-based matching needs).
        self.slots = _DictWrapper({})
        self._slot_ordinals: dict[int, int] = {}
        self._update_key: Optional[_UpdateKey] = None  # the last one seen
        self._update_fn = None  # the staged update, made by the first build

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
        args = self._staged_args(pairs)
        if args is None:
            self._apply(pairs)
        else:
            self._update_fn(*args)

    def minimize(self, tape, loss, variables: Sequence[Variable]) -> None:
        """Convenience: compute gradients from ``tape`` and apply them."""
        grads = tape.gradient(loss, list(variables))
        self.apply_gradients(zip(grads, variables))

    def _apply(self, pairs: list, hyper_by_dtype: Optional[dict] = None) -> None:
        """The update body, eager or traced.  ``hyper_by_dtype`` maps a
        dtype name to the staged hyperparameter tensors of that dtype;
        eagerly (None) the hyperparameters are the Python numbers."""
        self._prepare()
        if not self._takes_hyper:
            for grad, var in pairs:
                self._apply_dense(grad, var)
        else:
            hyper = self._hyper()
            for grad, var in pairs:
                if hyper_by_dtype is not None:
                    hyper = hyper_by_dtype[var.dtype.name]
                self._apply_dense(grad, var, hyper)
        self._finish()

    # Staging -------------------------------------------------------------------
    def _staged_args(self, pairs: list) -> Optional[tuple]:
        """The staged update's arguments for ``pairs``, or None to run
        eagerly; counts why under site ``"update"``."""
        grads = [g for g, _ in pairs]
        variables = [v for _, v in pairs]
        cause = pipeline.eager_cause(grads + variables)
        if cause is None and not self._stageable:
            cause = "custom"  # its hooks may read Python state a trace would freeze
        if cause is not None:
            decisions.count("update", cause)
            return None
        key = _UpdateKey(variables, self._structure())
        if key == self._update_key:
            key = self._update_key
        args = (key, grads, self._hyper_inputs(variables))
        if key is not self._update_key:
            self._update_key = key
            if self._update_fn is None or self._update_fn.lookup_concrete(*args) is None:
                decisions.count("update", "first_sighting")
                return None
            key.state = "built"  # traced while another list was the last seen
        if key.state == "failed":
            decisions.count("update", "build_error")
            return None
        if key.state == "built":
            decisions.count("update", "hit")
            return args
        return self._build(args)

    def _build(self, args: tuple) -> Optional[tuple]:
        """Trace the update for ``args`` (its key's second sighting in a
        row): ``args`` to run it, or None, and the key stays eager, if
        the trace raises."""
        if self._update_fn is None:
            from repro.core.function import function

            def update(key, grads, hyper_by_dtype):
                self._apply(list(zip(grads, key.variables)), hyper_by_dtype)

            self._update_fn = function(update, autograph=False)
        key = args[0]
        try:
            self._update_fn.get_concrete_function(*args)
        except Exception:  # noqa: BLE001 - this key keeps running eagerly
            key.state = "failed"
            decisions.count("update", "build_error")
            return None
        key.state = "built"
        decisions.count("update", "built")
        return args

    def _hyper_inputs(self, variables: list) -> dict:
        """This call's hyperparameters as scalar tensors, per variable
        dtype.  Each Python number converts to the variable's dtype as it
        does eagerly, so both paths compute with the same values."""
        hyper = self._hyper()
        return {
            name: {k: convert_to_tensor(v, dtype=dtypes.as_dtype(name)) for k, v in hyper.items()}
            for name in {v.dtype.name for v in variables}
        }

    # Subclass hooks -----------------------------------------------------------
    # ``_hyper(self) -> dict`` is not defined here: a class declares it
    # to return the hyperparameters its ``_apply_dense`` reads, by name
    # (Python numbers, derived ones computed there in double precision).
    # Declaring it gets ``_apply_dense`` called with them as a third
    # argument ``hyper`` (otherwise as ``_apply_dense(grad, var)``), and
    # opts the update hooks the class defines into staging: they must
    # read hyperparameters only from ``hyper`` and branch only on the
    # flags ``_structure`` returns.  An update whose ``_prepare``,
    # ``_apply_dense`` or ``_finish`` comes from a class that does not
    # declare it runs eagerly.

    def _structure(self) -> tuple:
        """Flags that change the update's ops, not just its values."""
        return ()

    def _prepare(self) -> None:
        pass

    def _apply_dense(self, grad, var: Variable, hyper: Optional[dict] = None) -> None:
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

    def _hyper(self) -> dict:
        return {"learning_rate": self.learning_rate, "momentum": self.momentum}

    def _structure(self) -> tuple:
        return (bool(self.momentum), bool(self.momentum) and self.nesterov)

    def _apply_dense(self, grad, var: Variable, hyper: dict) -> None:
        lr = hyper["learning_rate"]
        if self.momentum:
            momentum = hyper["momentum"]
            mom = self._get_slot(var, "momentum")
            new_mom = mom.read_value() * momentum + grad
            mom.assign(new_mom)
            if self.nesterov:
                update = (grad + new_mom * momentum) * lr
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

    def _hyper(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "beta_1": self.beta_1,
            "beta_2": self.beta_2,
            "one_minus_beta_1": 1.0 - self.beta_1,
            "one_minus_beta_2": 1.0 - self.beta_2,
            "epsilon": self.epsilon,
        }

    def _apply_dense(self, grad, var: Variable, hyper: dict) -> None:
        m = self._get_slot(var, "m")
        v = self._get_slot(var, "v")
        t = self.step.read_value()
        new_m = m.read_value() * hyper["beta_1"] + grad * hyper["one_minus_beta_1"]
        new_v = (
            v.read_value() * hyper["beta_2"]
            + math_ops.square(grad) * hyper["one_minus_beta_2"]
        )
        m.assign(new_m)
        v.assign(new_v)
        correction1 = 1.0 - math_ops.pow(
            array_ops.constant(hyper["beta_1"], dtype=var.dtype), t
        )
        correction2 = 1.0 - math_ops.pow(
            array_ops.constant(hyper["beta_2"], dtype=var.dtype), t
        )
        m_hat = new_m / correction1
        v_hat = new_v / correction2
        var.assign_sub(
            m_hat * hyper["learning_rate"] / (math_ops.sqrt(v_hat) + hyper["epsilon"])
        )
