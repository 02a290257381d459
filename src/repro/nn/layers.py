"""Layers and models.

A :class:`Layer` owns variables (created lazily on first call — the
idiom the ``function`` state-creation contract of paper §4.6 is
designed around) and composes into :class:`Model` objects.  Layers are
:class:`~repro.core.checkpoint.Trackable`, so model attribute structure
*is* the checkpoint object graph of §4.3 (Listing 3 / Figure 1).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


from repro.framework.errors import InvalidArgumentError
from repro.core.checkpoint import Trackable, graph_version
from repro.core.variables import Variable
from repro.ops import array_ops, math_ops, nn_ops, state_ops
from repro.nn import initializers

__all__ = [
    "Layer",
    "Model",
    "Sequential",
    "Dense",
    "Conv2D",
    "BatchNormalization",
    "MaxPool2D",
    "GlobalAveragePooling2D",
    "Dropout",
    "Flatten",
]


class Layer(Trackable):
    """Base class: deferred variable creation plus variable collection."""

    def __init__(self, name: Optional[str] = None) -> None:
        self._name = name or type(self).__name__
        self._built = False

    @property
    def name(self) -> str:
        return self._name

    @property
    def built(self) -> bool:
        return self._built

    def build(self, input_shape) -> None:
        """Create variables; called once with the first input's shape."""

    def call(self, x, training: bool = False):
        raise NotImplementedError

    def __call__(self, x, training: bool = False):
        if not self._built:
            # Models over structured inputs (trees, tuples) have no single
            # input shape; their sub-layers build themselves on first use.
            self.build(getattr(x, "shape", None))
            self._built = True
        return self.call(x, training=training)

    def add_variable(self, name: str, shape, initializer, trainable: bool = True) -> Variable:
        """Create (and track, via attribute assignment) a variable."""
        var = Variable(
            lambda: initializer(shape),
            trainable=trainable,
            name=f"{self._name}/{name}",
        )
        setattr(self, name, var)
        return var

    # -- variable collection -----------------------------------------------
    def _cached_variables(self) -> tuple[tuple, tuple]:
        """(all, trainable) variables, walked again only after an edge of
        some object graph changed (``checkpoint.graph_version``)."""
        version = graph_version()
        cached = self.__dict__.get("_variables_cache")
        if cached is None or cached[0] != version:
            found = tuple(self._walk_variables())
            cached = (version, found, tuple(v for v in found if v.trainable))
            object.__setattr__(self, "_variables_cache", cached)
        return cached[1], cached[2]

    def _walk_variables(self) -> list[Variable]:
        out: list[Variable] = []
        seen: set[int] = set()
        stack: list = [self]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, Variable):
                out.append(obj)
                continue
            if isinstance(obj, Trackable):
                for _name, child in reversed(obj._checkpoint_dependencies()):
                    stack.append(child)
        return out

    @property
    def variables(self) -> list[Variable]:
        """Every variable reachable through the object graph."""
        return list(self._cached_variables()[0])

    @property
    def trainable_variables(self) -> list[Variable]:
        return list(self._cached_variables()[1])


class Model(Layer):
    """A layer composed of other layers (subclass and define ``call``)."""


class Sequential(Model):
    """A linear stack of layers."""

    def __init__(self, layers: Sequence[Layer], name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.layers = list(layers)

    def call(self, x, training: bool = False):
        for layer in self.layers:
            x = layer(x, training=training)
        return x


class Dense(Layer):
    """Fully-connected layer: ``activation(x @ kernel + bias)``."""

    def __init__(
        self,
        units: int,
        activation: Optional[Callable] = None,
        use_bias: bool = True,
        kernel_initializer=initializers.glorot_uniform,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.units = int(units)
        self.activation = activation
        self.use_bias = use_bias
        self._kernel_initializer = kernel_initializer

    def build(self, input_shape) -> None:
        in_dim = input_shape[-1]
        if in_dim is None:
            raise InvalidArgumentError("Dense requires a static last dimension")
        self.add_variable("kernel", (in_dim, self.units), self._kernel_initializer)
        if self.use_bias:
            self.add_variable("bias", (self.units,), initializers.zeros)

    def call(self, x, training: bool = False):
        y = math_ops.matmul(x, self.kernel.read_value())
        if self.use_bias:
            y = nn_ops.bias_add(y, self.bias.read_value())
        if self.activation is not None:
            y = self.activation(y)
        return y


class Conv2D(Layer):
    """2-D convolution over NHWC inputs."""

    def __init__(
        self,
        filters: int,
        kernel_size,
        strides=1,
        padding: str = "SAME",
        activation: Optional[Callable] = None,
        use_bias: bool = True,
        kernel_initializer=initializers.he_normal,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.filters = int(filters)
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.kernel_size = tuple(int(k) for k in kernel_size)
        self.strides = strides
        self.padding = padding
        self.activation = activation
        self.use_bias = use_bias
        self._kernel_initializer = kernel_initializer

    def build(self, input_shape) -> None:
        cin = input_shape[-1]
        if cin is None:
            raise InvalidArgumentError("Conv2D requires a static channel dimension")
        kh, kw = self.kernel_size
        self.add_variable("kernel", (kh, kw, cin, self.filters), self._kernel_initializer)
        if self.use_bias:
            self.add_variable("bias", (self.filters,), initializers.zeros)

    def call(self, x, training: bool = False):
        y = nn_ops.conv2d(
            x, self.kernel.read_value(), strides=self.strides, padding=self.padding
        )
        if self.use_bias:
            y = nn_ops.bias_add(y, self.bias.read_value())
        if self.activation is not None:
            y = self.activation(y)
        return y


class BatchNormalization(Layer):
    """Batch normalization over the last axis, with moving statistics.

    The moving-average updates are variable assignments — stateful ops
    that survive staging because the traced graph captures the
    variables by reference (paper Listing 7).  Each is one
    ``AssignMovingAverage`` op, which no tape records.
    """

    def __init__(
        self,
        momentum: float = 0.99,
        epsilon: float = 1e-3,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)

    def build(self, input_shape) -> None:
        dim = input_shape[-1]
        if dim is None:
            raise InvalidArgumentError("BatchNormalization needs a static last axis")
        self.add_variable("gamma", (dim,), initializers.ones)
        self.add_variable("beta", (dim,), initializers.zeros)
        self.add_variable("moving_mean", (dim,), initializers.zeros, trainable=False)
        self.add_variable("moving_variance", (dim,), initializers.ones, trainable=False)

    def call(self, x, training: bool = False):
        if training:
            rank = x.shape.rank
            axes = tuple(range(rank - 1))
            mean, variance = nn_ops.moments(x, axes)
            state_ops.assign_moving_average(self.moving_mean, mean, self.momentum)
            state_ops.assign_moving_average(self.moving_variance, variance, self.momentum)
        else:
            mean = self.moving_mean.read_value()
            variance = self.moving_variance.read_value()
        return nn_ops.batch_normalization(
            x,
            mean,
            variance,
            offset=self.beta.read_value(),
            scale=self.gamma.read_value(),
            variance_epsilon=self.epsilon,
        )


class MaxPool2D(Layer):
    """Spatial max pooling."""

    def __init__(self, pool_size=2, strides=None, padding: str = "VALID",
                 name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.pool_size = pool_size
        self.strides = strides
        self.padding = padding

    def call(self, x, training: bool = False):
        return nn_ops.max_pool2d(x, self.pool_size, self.strides, self.padding)


class GlobalAveragePooling2D(Layer):
    """Mean over the spatial dimensions of an NHWC tensor."""

    def call(self, x, training: bool = False):
        return math_ops.reduce_mean(x, axis=(1, 2))


class Dropout(Layer):
    """Dropout, active only when ``training=True``."""

    def __init__(self, rate: float, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.rate = float(rate)

    def call(self, x, training: bool = False):
        if not training or self.rate <= 0.0:
            return x
        return nn_ops.dropout(x, self.rate)


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def call(self, x, training: bool = False):
        dims = x.shape.as_list()
        trailing = 1
        for d in dims[1:]:
            if d is None:
                return array_ops.reshape(
                    x, array_ops.stack([array_ops.shape(x)[0], -1])
                )
            trailing *= d
        return array_ops.reshape(x, [-1, trailing])
