"""ResNet (He et al. 2016) — the workload of Figure 3 and Table 1.

``resnet50`` builds the standard [3, 4, 6, 3] bottleneck architecture.
The benchmark harness uses :func:`resnet50_scaled`, which keeps the
exact depth and block structure (and therefore the per-step *operation
count*, the quantity that determines Python dispatch overhead) while
shrinking spatial extent and width so the sweep completes on CPU-only
hardware.  Both execution modes are scaled identically, so the
imperative-vs-staged comparison shape is preserved (see DESIGN.md,
substitutions).

``checkpoint_blocks=True`` wraps every residual block in
:func:`repro.recompute_grad`: under a tape, only the per-block boundary
activations stay live and each block's internals are rematerialized
during the backward pass — the sublinear-memory training configuration
the checkpoint benchmark measures.  Note the recompute caveat: a
checkpointed block runs once forward and once per backward sweep, so
batch-norm moving-statistic updates (``training=True``) apply twice per
step in this configuration.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.nn.layers import (
    BatchNormalization,
    Conv2D,
    Dense,
    GlobalAveragePooling2D,
    MaxPool2D,
    Model,
)
from repro.ops import nn_ops

__all__ = ["Bottleneck", "ResNet", "resnet50", "resnet50_scaled", "resnet_tiny"]


class Bottleneck(Model):
    """1x1 -> 3x3 -> 1x1 bottleneck residual block (expansion 4)."""

    expansion = 4

    def __init__(self, filters: int, stride: int = 1, downsample: bool = False,
                 name: Optional[str] = None) -> None:
        super().__init__(name=name)
        out_filters = filters * self.expansion
        self.conv1 = Conv2D(filters, 1, use_bias=False)
        self.bn1 = BatchNormalization()
        self.conv2 = Conv2D(filters, 3, strides=stride, use_bias=False)
        self.bn2 = BatchNormalization()
        self.conv3 = Conv2D(out_filters, 1, use_bias=False)
        self.bn3 = BatchNormalization()
        if downsample:
            self.shortcut_conv = Conv2D(out_filters, 1, strides=stride, use_bias=False)
            self.shortcut_bn = BatchNormalization()
        else:
            self.shortcut_conv = None
            self.shortcut_bn = None

    def call(self, x, training: bool = False):
        shortcut = x
        y = nn_ops.relu(self.bn1(self.conv1(x, training), training))
        y = nn_ops.relu(self.bn2(self.conv2(y, training), training))
        y = self.bn3(self.conv3(y, training), training)
        if self.shortcut_conv is not None:
            shortcut = self.shortcut_bn(self.shortcut_conv(x, training), training)
        return nn_ops.relu(y + shortcut)


class ResNet(Model):
    """Configurable bottleneck ResNet over NHWC inputs.

    Args:
        checkpoint_blocks: wrap each residual block in
            ``recompute_grad`` so its internal activations are
            rematerialized in the backward pass instead of saved.
    """

    def __init__(
        self,
        block_counts: Sequence[int] = (3, 4, 6, 3),
        base_width: int = 64,
        num_classes: int = 1000,
        stem_kernel: int = 7,
        stem_stride: int = 2,
        stem_pool: bool = True,
        checkpoint_blocks: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name or "resnet")
        self.stem = Conv2D(base_width, stem_kernel, strides=stem_stride, use_bias=False)
        self.stem_bn = BatchNormalization()
        self.stem_pool = MaxPool2D(3, strides=2, padding="SAME") if stem_pool else None
        blocks = []
        filters = base_width
        for stage, count in enumerate(block_counts):
            for i in range(count):
                stride = 2 if (stage > 0 and i == 0) else 1
                downsample = i == 0
                blocks.append(Bottleneck(filters, stride=stride, downsample=downsample))
            filters *= 2
        self.blocks = blocks
        self.checkpoint_blocks = checkpoint_blocks
        if checkpoint_blocks:
            from repro.core.recompute import recompute_grad

            # One wrapper per block, built once (repeated calls reuse the
            # same callable; the REPRO_RECOMPUTE knob is consulted at call
            # time inside the wrapper).  Plain functions, so this extra
            # attribute adds no edges to the checkpoint object graph.
            self._block_calls = [recompute_grad(b) for b in blocks]
        else:
            self._block_calls = None
        self.global_pool = GlobalAveragePooling2D()
        self.classifier = Dense(num_classes)

    def call(self, x, training: bool = False):
        y = nn_ops.relu(self.stem_bn(self.stem(x, training), training))
        if self.stem_pool is not None:
            y = self.stem_pool(y, training)
        for block in self._block_calls if self._block_calls is not None else self.blocks:
            y = block(y, training=training)
        y = self.global_pool(y, training)
        return self.classifier(y, training)


def resnet50(num_classes: int = 1000, checkpoint_blocks: bool = False) -> ResNet:
    """The standard ResNet-50 (paper §6 workload)."""
    return ResNet(
        (3, 4, 6, 3),
        base_width=64,
        num_classes=num_classes,
        checkpoint_blocks=checkpoint_blocks,
    )


def resnet50_scaled(
    num_classes: int = 100, width: int = 8, checkpoint_blocks: bool = False
) -> ResNet:
    """ResNet-50 depth and structure at reduced width for CPU benchmarks.

    Identical operation count per step to ``resnet50`` (same 16
    bottleneck blocks, stem, pooling, classifier), so imperative
    execution pays the same number of Python dispatches; only kernel
    sizes shrink.
    """
    return ResNet(
        (3, 4, 6, 3),
        base_width=width,
        num_classes=num_classes,
        stem_kernel=3,
        stem_stride=1,
        stem_pool=True,
        checkpoint_blocks=checkpoint_blocks,
    )


def resnet_tiny(num_classes: int = 10, checkpoint_blocks: bool = False) -> ResNet:
    """A 2-stage toy ResNet for fast unit/integration tests."""
    return ResNet(
        (1, 1),
        base_width=4,
        num_classes=num_classes,
        stem_kernel=3,
        stem_stride=1,
        stem_pool=False,
        checkpoint_blocks=checkpoint_blocks,
    )
