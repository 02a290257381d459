"""L2HMC: Generalizing Hamiltonian Monte Carlo with neural networks.

The workload of the paper's Figure 4 (Levy, Hoffman & Sohl-Dickstein,
ICLR 2018): an augmented leapfrog integrator whose scale/translation
terms come from small neural networks, trained to maximize expected
squared jumped distance.  The dynamics are built from *many tiny
operations* — a 10-step integrator over 2-D state touches hundreds of
elementwise ops per training step — which is precisely why the paper
uses it to showcase staging ("staging increas[es] examples per second
by at least an order of magnitude", §6).

The sampler here follows the L2HMC structure: alternating binary
masks, exp-scaled momentum/position updates, a running log-Jacobian for
the Metropolis correction, and the ESJD-style training loss.  The
energy gradient inside the integrator uses a nested ``GradientTape``,
exercising gradient-through-gradient in both imperative and staged
modes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.tape import GradientTape
from repro.core.variables import Variable
from repro.framework import dtypes
from repro.nn.layers import Dense, Model
from repro.ops import array_ops, math_ops, random_ops

__all__ = ["gaussian_mixture_energy", "L2HMCNetwork", "L2HMCDynamics", "L2HMCSampler"]


def gaussian_mixture_energy(mus, sigma: float = 0.5):
    """Energy of a 2-D Gaussian mixture: U(x) = -log sum_i N(x; mu_i, sigma)."""
    mus_t = array_ops.constant(np.asarray(mus, dtype=np.float32))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)

    def energy(x):
        # x: [batch, 2]; mus: [k, 2]
        diffs = array_ops.expand_dims(x, 1) - mus_t  # [batch, k, 2]
        sq = math_ops.reduce_sum(math_ops.square(diffs), axis=2)
        return -math_ops.reduce_logsumexp(-sq * inv_two_sigma2, axis=1)

    return energy


class L2HMCNetwork(Model):
    """The (S, Q, T) network: MLP over (x, v, t) -> scale, transform, translate."""

    def __init__(self, dim: int, hidden: int = 10, factor: float = 1.0) -> None:
        super().__init__(name="l2hmc_net")
        self.dim = dim
        self.x_layer = Dense(hidden, use_bias=False)
        self.v_layer = Dense(hidden, use_bias=False)
        self.t_layer = Dense(hidden)
        self.hidden_layer = Dense(hidden, activation=math_ops.tanh)
        self.scale_layer = Dense(dim)
        self.transform_layer = Dense(dim)
        self.translation_layer = Dense(dim)
        self.scale_coeff = Variable(array_ops.zeros((dim,)), name="scale_coeff")
        self.transform_coeff = Variable(array_ops.zeros((dim,)), name="transform_coeff")
        self.factor = factor

    def call(self, inputs, training: bool = False):
        x, v, t = inputs
        h = math_ops.tanh(self.x_layer(x) + self.v_layer(v) + self.t_layer(t))
        h = self.hidden_layer(h)
        scale = math_ops.tanh(self.scale_layer(h)) * math_ops.exp(
            self.scale_coeff.read_value()
        )
        transform = math_ops.tanh(self.transform_layer(h)) * math_ops.exp(
            self.transform_coeff.read_value()
        )
        translation = self.translation_layer(h)
        return scale * self.factor, transform, translation

    def __call__(self, inputs, training: bool = False):
        if not self.built:
            # Build sublayers against the component shapes.
            self._built = True
        return self.call(inputs, training=training)


class L2HMCDynamics(Model):
    """The augmented leapfrog integrator with learned updates."""

    def __init__(
        self,
        dim: int,
        energy_fn: Callable,
        num_steps: int = 10,
        eps: float = 0.1,
        hidden: int = 10,
        seed: int = 0,
    ) -> None:
        super().__init__(name="l2hmc_dynamics")
        self.dim = dim
        self.energy_fn = energy_fn
        self.num_steps = num_steps
        self.eps = eps
        self.v_net = L2HMCNetwork(dim, hidden=hidden)
        self.x_net = L2HMCNetwork(dim, hidden=hidden)
        rng = np.random.default_rng(seed)
        masks = []
        for _ in range(num_steps):
            idx = rng.permutation(dim)[: dim // 2]
            m = np.zeros(dim, dtype=np.float32)
            m[idx] = 1.0
            masks.append(m)
        self._masks = [array_ops.constant(m) for m in masks]

    def _grad_energy(self, x):
        with GradientTape() as tape:
            tape.watch(x)
            energy = math_ops.reduce_sum(self.energy_fn(x))
        return tape.gradient(energy, x)

    def _time_encoding(self, step: int, batch_tensor):
        t = 2.0 * np.pi * step / self.num_steps
        enc = np.array([np.cos(t), np.sin(t)], dtype=np.float32)
        batch = batch_tensor.shape[0]
        if batch is not None:
            return array_ops.broadcast_to(array_ops.constant(enc), [batch, 2])
        return array_ops.broadcast_to(
            array_ops.constant(enc),
            array_ops.stack(
                [array_ops.shape(batch_tensor)[0], array_ops.constant(2, dtype=dtypes.int32)]
            ),
        )

    def _update_v(self, x, v, t_enc, direction: float):
        grad = self._grad_energy(x)
        scale, transform, translation = self.v_net((x, grad, t_enc))
        half_eps = 0.5 * self.eps * direction
        logdet = half_eps * scale
        v_new = v * math_ops.exp(logdet) - half_eps * (
            grad * math_ops.exp(self.eps * transform) + translation
        )
        return v_new, math_ops.reduce_sum(logdet, axis=1)

    def _update_x(self, x, v, t_enc, mask, direction: float):
        scale, transform, translation = self.x_net((v, x * mask, t_enc))
        eps = self.eps * direction
        logdet = eps * scale * (1.0 - mask)
        x_new = x * mask + (1.0 - mask) * (
            x * math_ops.exp(logdet) + eps * (
                v * math_ops.exp(eps * transform) + translation
            )
        )
        return x_new, math_ops.reduce_sum(logdet * (1.0 - mask), axis=1)

    def propose(self, x, v):
        """Run the full forward trajectory; returns (x', v', log|J|)."""
        logdet_total = array_ops.zeros_like(math_ops.reduce_sum(x, axis=1))
        for step in range(self.num_steps):
            t_enc = self._time_encoding(step, x)
            mask = self._masks[step]
            v, ld = self._update_v(x, v, t_enc, 1.0)
            logdet_total = logdet_total + ld
            x, ld = self._update_x(x, v, t_enc, mask, 1.0)
            logdet_total = logdet_total + ld
            v, ld = self._update_v(x, v, t_enc, 1.0)
            logdet_total = logdet_total + ld
        return x, v, logdet_total

    def hamiltonian(self, x, v):
        return self.energy_fn(x) + 0.5 * math_ops.reduce_sum(
            math_ops.square(v), axis=1
        )

    def accept_prob(self, x, v, x_new, v_new, logdet):
        delta = self.hamiltonian(x, v) - self.hamiltonian(x_new, v_new) + logdet
        return math_ops.minimum(math_ops.exp(delta), 1.0)


class L2HMCSampler(Model):
    """Trains the dynamics to maximize expected squared jumped distance."""

    def __init__(self, dynamics: L2HMCDynamics, scale: float = 0.1) -> None:
        super().__init__(name="l2hmc_sampler")
        self.dynamics = dynamics
        self.loss_scale = scale

    def loss_and_samples(self, x):
        """One sampler step: (ESJD-style loss, accepted next positions)."""
        v = random_ops.random_normal(array_ops.shape(x))
        x_new, v_new, logdet = self.dynamics.propose(x, v)
        p_accept = self.dynamics.accept_prob(x, v, x_new, v_new, logdet)
        sq_jump = math_ops.reduce_sum(math_ops.square(x_new - x), axis=1)
        weighted = sq_jump * p_accept + 1e-4
        scale = self.loss_scale
        loss = math_ops.reduce_mean(scale * scale / weighted - weighted / (scale * scale))
        # Metropolis accept/reject.
        u = random_ops.random_uniform(array_ops.shape(p_accept))
        accept = math_ops.cast(math_ops.less(u, p_accept), x.dtype)
        mask = array_ops.expand_dims(accept, 1)
        x_next = x_new * mask + x * (1.0 - mask)
        return loss, x_next

    def call(self, x, training: bool = False):
        return self.loss_and_samples(x)
