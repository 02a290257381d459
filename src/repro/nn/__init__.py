"""Model-building library (the evaluation's workload layer).

The paper's benchmarks are models — ResNet-50 (He et al. 2016) for
Figure 3 / Table 1 and L2HMC (Levy et al. 2018) for Figure 4 — built on
a Keras-like layer API.  Everything here is expressed in the public
primitive-op API, so every model runs unchanged in imperative mode,
staged under ``repro.function``, or built into a classic v1 graph — the
paper's point that "the code used to generate these benchmarks all rely
on the same Model class; converting the code to use function is simply
a matter of decorating two functions" (§6).
"""

from repro.nn import initializers
from repro.nn.layers import (
    BatchNormalization,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAveragePooling2D,
    Layer,
    MaxPool2D,
    Model,
    Sequential,
)
from repro.nn.losses import (
    mean_squared_error,
    softmax_cross_entropy,
    sparse_softmax_cross_entropy,
)
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.data import Dataset, synthetic_image_classification
from repro.nn.rnn import RNN, Embedding, GRUCell, LSTMCell, LayerNormalization
from repro.nn.train_utils import (
    Accuracy,
    CosineDecay,
    ExponentialDecay,
    ExponentialMovingAverage,
    Mean,
    PiecewiseConstant,
    clip_by_global_norm,
    clip_by_norm,
    global_norm,
)
from repro.nn import resnet
from repro.nn import l2hmc

__all__ = [
    "initializers",
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
    "SGD",
    "Adam",
    "Optimizer",
    "mean_squared_error",
    "softmax_cross_entropy",
    "sparse_softmax_cross_entropy",
    "Dataset",
    "synthetic_image_classification",
    "RNN",
    "LSTMCell",
    "GRUCell",
    "Embedding",
    "LayerNormalization",
    "clip_by_global_norm",
    "clip_by_norm",
    "global_norm",
    "ExponentialDecay",
    "CosineDecay",
    "PiecewiseConstant",
    "Mean",
    "Accuracy",
    "ExponentialMovingAverage",
    "resnet",
    "l2hmc",
]
