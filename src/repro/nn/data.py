"""Input pipelines with checkpointable iterators.

Paper §4.3 lists "an iterator over input data whose position in a
dataset is serialized" among the state matched by the object graph:
:class:`Iterator` keeps its cursor in a (non-trainable) variable, so a
:class:`~repro.core.checkpoint.Checkpoint` that includes the iterator
resumes mid-epoch.

Synthetic workload generators for the benchmarks also live here (the
paper trains on ImageNet; our throughput benchmarks use synthetic
batches with the same shape statistics — see DESIGN.md substitutions).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import OutOfRangeError
from repro.core.checkpoint import Trackable
from repro.core.variables import Variable
from repro.tensor import Tensor, convert_to_tensor

__all__ = ["Dataset", "Iterator", "synthetic_image_classification"]


class Dataset:
    """An in-memory dataset of parallel arrays with batch/shuffle/repeat."""

    def __init__(self, arrays: Sequence[np.ndarray], batch_size: int = 1,
                 shuffle_seed: Optional[int] = None, repeat: bool = False) -> None:
        arrays = [np.asarray(a) for a in arrays]
        n = arrays[0].shape[0]
        for a in arrays:
            if a.shape[0] != n:
                raise ValueError("All dataset components need equal first dims")
        self._arrays = arrays
        self._batch_size = batch_size
        self._shuffle_seed = shuffle_seed
        self._repeat = repeat

    def batch(self, batch_size: int) -> "Dataset":
        return Dataset(self._arrays, batch_size, self._shuffle_seed, self._repeat)

    def shuffle(self, seed: int = 0) -> "Dataset":
        return Dataset(self._arrays, self._batch_size, seed, self._repeat)

    def repeat(self) -> "Dataset":
        return Dataset(self._arrays, self._batch_size, self._shuffle_seed, True)

    @property
    def num_examples(self) -> int:
        return self._arrays[0].shape[0]

    @property
    def num_batches(self) -> int:
        return self.num_examples // self._batch_size

    def make_iterator(self) -> "Iterator":
        return Iterator(self)

    def __iter__(self):
        return iter(self.make_iterator())


class Iterator(Trackable):
    """A dataset cursor whose position is checkpointable state."""

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self.position = Variable(0, trainable=False, dtype=dtypes.int64,
                                 name="iterator_position")
        if dataset._shuffle_seed is not None:
            rng = np.random.default_rng(dataset._shuffle_seed)
            self._order = rng.permutation(dataset.num_examples)
        else:
            self._order = np.arange(dataset.num_examples)

    def get_next(self) -> tuple:
        """The next batch as tensors; raises OutOfRangeError at the end."""
        ds = self._dataset
        pos = int(self.position.numpy())
        if pos + ds._batch_size > ds.num_examples:
            if not ds._repeat:
                raise OutOfRangeError("End of dataset")
            pos = 0
        idx = self._order[pos : pos + ds._batch_size]
        self.position.assign(pos + ds._batch_size)
        return tuple(convert_to_tensor(a[idx]) for a in ds._arrays)

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return self.get_next()
        except OutOfRangeError:
            raise StopIteration from None


def synthetic_image_classification(
    num_examples: int,
    height: int = 32,
    width: int = 32,
    channels: int = 3,
    num_classes: int = 10,
    seed: int = 0,
) -> Dataset:
    """Labeled random images with ImageNet-like per-channel statistics."""
    rng = np.random.default_rng(seed)
    images = rng.normal(0.45, 0.25, size=(num_examples, height, width, channels))
    labels = rng.integers(0, num_classes, size=(num_examples,))
    return Dataset([images.astype(np.float32), labels.astype(np.int64)])
