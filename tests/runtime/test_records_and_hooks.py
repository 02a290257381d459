"""Runtime internals: the recorder stack, suspend/stop semantics."""

import numpy as np
import pytest

import repro
from repro.runtime import records


class _SpyRecorder:
    def __init__(self, interested=True):
        self.seen = []
        self.interested = interested

    def should_record(self, inputs):
        return self.interested

    def record(self, op_name, attrs, inputs, outputs, backward_function=None):
        self.seen.append(op_name)


class TestRecorderStack:
    def test_operations_offered_to_recorders(self):
        spy = _SpyRecorder()
        records.push_recorder(spy)
        try:
            repro.add(repro.constant(1.0), repro.constant(1.0))
        finally:
            records.pop_recorder(spy)
        assert spy.seen == ["Add"]

    def test_uninterested_recorder_skipped(self):
        spy = _SpyRecorder(interested=False)
        records.push_recorder(spy)
        try:
            repro.add(repro.constant(1.0), repro.constant(1.0))
        finally:
            records.pop_recorder(spy)
        assert spy.seen == []

    def test_pop_wrong_recorder_raises(self):
        a, b = _SpyRecorder(), _SpyRecorder()
        records.push_recorder(a)
        records.push_recorder(b)
        try:
            with pytest.raises(RuntimeError):
                records.pop_recorder(a)
        finally:
            records.pop_recorder(b)
            records.pop_recorder(a)

    def test_stop_recording_masks_everything(self):
        spy = _SpyRecorder()
        records.push_recorder(spy)
        try:
            with records.stop_recording():
                repro.add(repro.constant(1.0), repro.constant(1.0))
        finally:
            records.pop_recorder(spy)
        assert spy.seen == []

    def test_suspend_hides_existing_allows_new(self):
        outer = _SpyRecorder()
        records.push_recorder(outer)
        try:
            with records.suspend():
                inner = _SpyRecorder()
                records.push_recorder(inner)
                try:
                    repro.add(repro.constant(1.0), repro.constant(1.0))
                finally:
                    records.pop_recorder(inner)
            repro.multiply(repro.constant(2.0), repro.constant(2.0))
        finally:
            records.pop_recorder(outer)
        assert inner.seen == ["Add"]
        assert outer.seen == ["Mul"]

    def test_suspend_detects_unbalanced_stack(self):
        stray = _SpyRecorder()
        suspender = records.suspend()
        suspender.__enter__()
        records.push_recorder(stray)
        with pytest.raises(RuntimeError):
            suspender.__exit__(None, None, None)
        records.pop_recorder(stray)
        suspender.__exit__(None, None, None)

    def test_could_record_fast_path(self):
        assert not records.could_record([repro.constant(1.0)])
        spy = _SpyRecorder()
        records.push_recorder(spy)
        try:
            assert records.could_record([repro.constant(1.0)])
        finally:
            records.pop_recorder(spy)


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro.framework import errors

        for name in errors.__all__:
            cls = getattr(errors, name)
            if isinstance(cls, type):  # the module also exports attach_op_name
                assert issubclass(cls, errors.ReproError)

    def test_errors_also_subclass_builtins(self):
        from repro.framework import errors

        assert issubclass(errors.InvalidArgumentError, ValueError)
        assert issubclass(errors.NotFoundError, KeyError)
        assert issubclass(errors.OutOfRangeError, IndexError)
        assert issubclass(errors.UnimplementedError, NotImplementedError)

    def test_catching_base_class_works(self):
        with pytest.raises(repro.ReproError):
            repro.constant([1.0]) + repro.constant([1], dtype=repro.int32)


class TestRegistryInvariants:
    def test_every_kernel_has_an_op_def(self):
        from repro.ops import registry

        for op_name, device_type in registry._KERNELS:
            registry.get_op_def(op_name)  # raises if missing

    def test_every_gradient_has_an_op_def(self):
        from repro.ops import registry

        for op_name in registry._GRADIENTS:
            registry.get_op_def(op_name)

    def test_every_op_is_stageable(self):
        """Every registered op has shape inference (staging support)."""
        from repro.ops import registry

        missing = [
            name
            for name in registry.list_ops()
            if registry.get_op_def(name).infer_fn is None
        ]
        assert missing == []

    def test_duplicate_op_rejected(self):
        from repro.framework.errors import AlreadyExistsError
        from repro.ops import registry

        with pytest.raises(AlreadyExistsError):
            registry.register_op("Add")

    def test_differentiable_float_ops_have_gradients(self):
        """Core float ops all carry gradient rules."""
        from repro.ops import registry

        required = [
            "Add", "Sub", "Mul", "RealDiv", "MatMul", "Exp", "Log", "Tanh",
            "Sigmoid", "Relu", "Softmax", "Conv2D", "MaxPool", "Sum", "Mean",
            "Reshape", "Transpose", "Concat", "Gather", "While", "Cond",
        ]
        for name in required:
            assert registry.has_gradient(name), name

    def test_traits_are_declared_with_a_complete_op(self):
        """Every op carrying a trait has inference and a CPU kernel, and
        an unknown trait is rejected at registration."""
        from repro.framework.errors import InvalidArgumentError
        from repro.ops import registry

        for trait in (
            registry.ELEMENTWISE,
            registry.REDUCTION,
            registry.SHAPE_PURE,
            registry.ALIASES_INPUT,
        ):
            for name in registry.ops_with_trait(trait):
                assert registry.get_op_def(name).infer_fn is not None, name
                assert registry.has_kernel(name, "CPU"), name
        with pytest.raises(InvalidArgumentError, match="unknown traits"):
            registry.register_op("TestBadTraitOp", traits=("commutative",))
        assert "TestBadTraitOp" not in registry.list_ops()

    def test_family_tables_keep_their_size(self):
        """The elementwise family (the fusion candidate set) and the
        in-place kernels within it, as declared when they were name
        tables."""
        from repro.ops import registry

        elementwise = registry.ops_with_trait(registry.ELEMENTWISE)
        inplace = [n for n in registry.list_ops() if registry.has_inplace_kernel(n)]
        assert (len(elementwise), len(inplace)) == (48, 22)
        assert set(inplace) <= set(elementwise)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inplace_kernels_match_out_of_place(self, dtype):
        """Writing into a donated input 0 gives the out-of-place bits."""
        from repro.ops import common, registry

        rng = np.random.default_rng(0)
        for name in registry.list_ops():
            inplace = registry.get_inplace_kernel(name)
            if inplace is None:
                continue
            arity = 1 if registry.get_op_def(name).infer_fn is common.unary_infer else 2
            inputs = [(rng.random((3, 4)) + 0.5).astype(dtype) for _ in range(arity)]
            ref = registry.get_kernel(name, "CPU")(inputs, {}, None)
            donated = [a.copy() for a in inputs]
            out = inplace(donated, {}, None, donated[0])
            assert out is donated[0], name
            np.testing.assert_array_equal(out, ref, err_msg=name)
            assert out.dtype == ref.dtype, name
