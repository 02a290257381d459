"""The paper's model (§6): ResNet-50's layout, and the claim that the
scaled-down variant the benchmarks train runs the same operations."""

from __future__ import annotations

import numpy as np

import repro
from repro import nn


def _forward_op_counts(model):
    x = repro.constant(np.zeros((1, 32, 32, 3), np.float32))
    model(x)  # build
    with repro.profiler.Profile() as prof:
        model(x)
    return {name: stats.count for name, stats in prof.ops.items()}


def test_resnet50_layout_and_the_scaled_variants_op_count():
    model = nn.resnet.resnet50()
    # [3, 4, 6, 3] bottleneck blocks; the first of each stage projects
    # its shortcut.
    assert [b.shortcut_conv is not None for b in model.blocks] == [
        i == 0 for count in (3, 4, 6, 3) for i in range(count)
    ]
    counts = _forward_op_counts(model)
    # torchvision's resnet50 has the same number of trainable parameters.
    assert sum(v.numpy().size for v in model.trainable_variables) == 25_557_032
    # resnet50_scaled's docstring: "Identical operation count per step".
    assert counts == _forward_op_counts(nn.resnet.resnet50_scaled())
