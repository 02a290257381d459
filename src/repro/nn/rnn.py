"""Recurrent layers: LSTM/GRU cells and a two-mode RNN driver.

Recurrent models are the paper's canonical staging case study: a Python
loop over time steps is *fully unrolled* by the tracer ("potentially
creating large graphs", §4.1), while rewriting the loop with
``repro.while_loop`` keeps the staged graph constant-size at the cost of
refactoring.  :class:`RNN` exposes both as ``unroll=True`` / ``False``
so the trade-off is measurable (see ``tests/nn/test_rnn.py``), and the
``while_loop`` form trains end-to-end thanks to the stack-based While
gradient.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.framework.errors import InvalidArgumentError
from repro.nn import initializers
from repro.nn.layers import Layer, Model
from repro.ops import array_ops, list_ops, math_ops

__all__ = ["LSTMCell", "GRUCell", "RNN", "Embedding", "LayerNormalization"]


class LSTMCell(Layer):
    """A standard LSTM cell (forget-gate bias initialized to 1)."""

    def __init__(self, units: int, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.units = int(units)

    def build(self, input_shape) -> None:
        in_dim = input_shape[-1]
        if in_dim is None:
            raise InvalidArgumentError("LSTMCell needs a static input dimension")
        u = self.units
        self.add_variable("kernel", (in_dim + u, 4 * u), initializers.glorot_uniform)

        def bias_init(shape):
            values = np.zeros(shape, dtype=np.float32)
            values[u : 2 * u] = 1.0  # forget gate
            return array_ops.constant(values)

        self.add_variable("bias", (4 * u,), bias_init)

    def zero_state(self, batch_size: int):
        return (
            array_ops.zeros([batch_size, self.units]),
            array_ops.zeros([batch_size, self.units]),
        )

    def call(self, inputs, training: bool = False):
        x, (h, c) = inputs
        u = self.units
        gates = math_ops.matmul(
            array_ops.concat([x, h], axis=1), self.kernel.read_value()
        ) + self.bias.read_value()
        i = math_ops.sigmoid(gates[:, :u])
        f = math_ops.sigmoid(gates[:, u : 2 * u])
        g = math_ops.tanh(gates[:, 2 * u : 3 * u])
        o = math_ops.sigmoid(gates[:, 3 * u :])
        new_c = f * c + i * g
        new_h = o * math_ops.tanh(new_c)
        return new_h, (new_h, new_c)

    def __call__(self, inputs, training: bool = False):
        if not self._built:
            x, _state = inputs
            self.build(x.shape)
            self._built = True
        return self.call(inputs, training=training)


class GRUCell(Layer):
    """A gated recurrent unit cell (Cho et al. 2014)."""

    def __init__(self, units: int, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.units = int(units)

    def build(self, input_shape) -> None:
        in_dim = input_shape[-1]
        if in_dim is None:
            raise InvalidArgumentError("GRUCell needs a static input dimension")
        u = self.units
        self.add_variable("gate_kernel", (in_dim + u, 2 * u), initializers.glorot_uniform)
        self.add_variable("gate_bias", (2 * u,), initializers.zeros)
        self.add_variable("candidate_kernel", (in_dim + u, u), initializers.glorot_uniform)
        self.add_variable("candidate_bias", (u,), initializers.zeros)

    def zero_state(self, batch_size: int):
        return (array_ops.zeros([batch_size, self.units]),)

    def call(self, inputs, training: bool = False):
        x, (h,) = inputs
        u = self.units
        gates = math_ops.sigmoid(
            math_ops.matmul(
                array_ops.concat([x, h], axis=1), self.gate_kernel.read_value()
            )
            + self.gate_bias.read_value()
        )
        r, z = gates[:, :u], gates[:, u:]
        candidate = math_ops.tanh(
            math_ops.matmul(
                array_ops.concat([x, r * h], axis=1),
                self.candidate_kernel.read_value(),
            )
            + self.candidate_bias.read_value()
        )
        new_h = z * h + (1.0 - z) * candidate
        return new_h, (new_h,)

    def __call__(self, inputs, training: bool = False):
        if not self._built:
            x, _state = inputs
            self.build(x.shape)
            self._built = True
        return self.call(inputs, training=training)


class RNN(Model):
    """Drives a cell over a [batch, time, features] sequence.

    ``unroll=True`` iterates with a Python loop — imperative-friendly,
    and when traced it bakes one copy of the cell per time step into the
    graph (§4.1's unrolling).  ``unroll=False`` uses ``while_loop`` plus
    tensor lists: the staged graph is constant-size regardless of
    sequence length, and gradients flow via the While backward pass.
    """

    def __init__(
        self,
        cell,
        return_sequences: bool = False,
        unroll: bool = True,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.cell = cell
        self.return_sequences = return_sequences
        self.unroll = unroll

    def call(self, x, training: bool = False):
        batch = x.shape[0]
        steps = x.shape[1]
        if batch is None or steps is None:
            raise InvalidArgumentError("RNN requires static batch and time dims")
        state = self.cell.zero_state(batch)
        if self.unroll:
            return self._run_unrolled(x, state, steps, training)
        return self._run_while(x, state, steps, training)

    def _run_unrolled(self, x, state, steps, training):
        outputs = []
        for step in range(steps):
            out, state = self.cell((x[:, step], state), training=training)
            outputs.append(out)
        if self.return_sequences:
            return array_ops.stack(outputs, axis=1)
        return outputs[-1]

    def _run_while(self, x, state, steps, training):
        # Build the cell's variables before tracing the loop body (the
        # state-creation contract applies inside while_loop bodies too).
        if not self.cell.built:
            self.cell((x[:, 0], state), training=training)

        cell = self.cell

        def scan(x, state):
            step = array_ops.constant(0)
            acc = list_ops.empty_tensor_list()
            while step < steps:
                frame = array_ops.gather(x, step, axis=1)
                out, state = cell((frame, tuple(state)), training=training)
                acc = list_ops.tensor_list_push_back(acc, out)
                step = step + 1
            return acc, state

        # When tracing, autograph lowers the tensor-bounded ``while``
        # onto the While op (constant-size graph); imperatively the
        # plain Python loop already does the right thing, so skip the
        # source transform.
        from repro.runtime.context import context

        if context.current_graph() is not None:
            from repro.autograph import convert

            scan = convert(scan)
        acc, final_state = scan(x, tuple(state))
        if self.return_sequences:
            stacked = list_ops.tensor_list_stack(
                acc, x.dtype, element_shape=(x.shape[0], self.cell.units)
            )  # [time, batch, units]
            return array_ops.transpose(stacked, [1, 0, 2])
        return final_state[0]


class Embedding(Layer):
    """A trainable lookup table over integer ids."""

    def __init__(self, vocab_size: int, dim: int, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.vocab_size = int(vocab_size)
        self.dim = int(dim)

    def build(self, input_shape) -> None:
        self.add_variable(
            "table", (self.vocab_size, self.dim), initializers.random_normal(0.05)
        )

    def call(self, ids, training: bool = False):
        return array_ops.gather(self.table.read_value(), ids)


class LayerNormalization(Layer):
    """Normalize over the last axis with learned scale and offset."""

    def __init__(self, epsilon: float = 1e-5, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.epsilon = float(epsilon)

    def build(self, input_shape) -> None:
        dim = input_shape[-1]
        if dim is None:
            raise InvalidArgumentError("LayerNormalization needs a static last axis")
        self.add_variable("gamma", (dim,), initializers.ones)
        self.add_variable("beta", (dim,), initializers.zeros)

    def call(self, x, training: bool = False):
        mean = math_ops.reduce_mean(x, axis=-1, keepdims=True)
        variance = math_ops.reduce_mean(
            math_ops.squared_difference(x, mean), axis=-1, keepdims=True
        )
        inv = math_ops.rsqrt(variance + self.epsilon)
        return (x - mean) * inv * self.gamma.read_value() + self.beta.read_value()
