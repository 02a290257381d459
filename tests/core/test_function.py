"""The polymorphic function decorator (paper §4.6, Listings 6–8)."""

import numpy as np
import pytest

import repro
from repro.framework.errors import (
    FailedPreconditionError,
    InvalidArgumentError,
)
from repro.runtime.context import context


class TestBasicStaging:
    def test_same_result_as_eager(self):
        A = repro.constant([[1.0, 0.0]])

        def select(vector):
            return repro.matmul(A, vector)

        staged = repro.function(select)
        x = repro.constant([[2.0], [-2.0]])
        np.testing.assert_allclose(staged(x).numpy(), select(x).numpy())

    def test_decorator_syntax(self):
        @repro.function
        def double(x):
            return x * 2.0

        assert float(double(repro.constant(4.0))) == 8.0

    def test_decorator_with_arguments(self):
        @repro.function(name="renamed")
        def f(x):
            return x + 1.0

        assert float(f(repro.constant(1.0))) == 2.0

    def test_structured_inputs_outputs(self):
        @repro.function
        def f(pair, scale):
            a, b = pair["a"], pair["b"]
            return {"sum": (a + b) * scale, "both": [a, b]}

        out = f({"a": repro.constant(1.0), "b": repro.constant(2.0)}, repro.constant(10.0))
        assert float(out["sum"]) == 30.0
        assert float(out["both"][1]) == 2.0

    def test_none_output(self):
        @repro.function
        def f(x):
            return None

        assert f(repro.constant(1.0)) is None

    def test_python_number_output_becomes_tensor(self):
        @repro.function
        def f(x):
            return 42

        out = f(repro.constant(0.0))
        assert int(out) == 42

    def test_numpy_accepted_as_argument(self):
        @repro.function
        def f(x):
            return repro.reduce_sum(x)

        assert float(f(np.ones((2, 2), np.float32))) == 4.0


class TestTraceCache:
    def test_single_trace_for_repeated_shapes(self):
        @repro.function
        def f(x):
            return x * 2.0

        f(repro.constant([1.0]))
        f(repro.constant([2.0]))
        f(repro.constant([3.0]))
        assert f.trace_count == 1

    def test_retrace_on_new_shape(self):
        @repro.function
        def f(x):
            return x * 2.0

        f(repro.constant([1.0]))
        f(repro.constant([1.0, 2.0]))
        assert f.trace_count == 2

    def test_retrace_on_new_dtype(self):
        @repro.function
        def f(x):
            return repro.reduce_sum(x)

        f(repro.constant([1.0]))
        f(repro.constant([1], dtype=repro.int32))
        assert f.trace_count == 2

    def test_listing6_bool_specialization(self):
        """Python bools parameterize the trace (paper Listing 6)."""
        traced_with = []

        @repro.function
        def lossy_matmul(w, x, training=True):
            traced_with.append(training)
            outputs = repro.matmul(w, x)
            if training:
                outputs = outputs * 0.5
            return outputs

        w = repro.constant(np.ones((2, 2), np.float32))
        x = repro.constant(np.ones((2, 1), np.float32))
        full = lossy_matmul(w, x, training=False)
        lossy = lossy_matmul(w, x, training=True)
        np.testing.assert_allclose(full.numpy() * 0.5, lossy.numpy())
        assert sorted(traced_with) == [False, True]
        assert lossy_matmul.trace_count == 2

    def test_default_and_explicit_kwarg_share_trace(self):
        @repro.function
        def f(x, flag=True):
            return x * (2.0 if flag else 3.0)

        f(repro.constant(1.0))
        f(repro.constant(1.0), flag=True)
        f(repro.constant(1.0), True)
        assert f.trace_count == 1

    def test_device_is_part_of_the_key(self):
        """Cache keys include 'metadata ... such as the requested device'."""

        @repro.function
        def f(x):
            return x + 1.0

        f(repro.constant(1.0))
        with repro.device("/gpu:0"):
            f(repro.constant(1.0))
        assert f.trace_count == 2

    def test_python_string_specialization(self):
        @repro.function
        def f(x, mode):
            return x * (2.0 if mode == "double" else 1.0)

        a = f(repro.constant(1.0), "double")
        b = f(repro.constant(1.0), "other")
        assert (float(a), float(b)) == (2.0, 1.0)
        assert f.trace_count == 2


class TestInputSignature:
    def test_single_trace_across_batch_sizes(self):
        @repro.function(input_signature=[repro.TensorSpec([None, 2])])
        def f(x):
            return repro.reduce_sum(x, axis=1)

        f(repro.constant(np.ones((3, 2), np.float32)))
        f(repro.constant(np.ones((8, 2), np.float32)))
        assert f.trace_count == 1

    def test_incompatible_shape_rejected(self):
        @repro.function(input_signature=[repro.TensorSpec([None, 2])])
        def f(x):
            return x

        with pytest.raises(InvalidArgumentError):
            f(repro.constant(np.ones((3, 3), np.float32)))

    def test_wrong_arity_rejected(self):
        @repro.function(input_signature=[repro.TensorSpec([2])])
        def f(x):
            return x

        with pytest.raises(InvalidArgumentError):
            f(repro.constant(np.ones(2, np.float32)), repro.constant(1.0))


class TestListing7:
    """Closed-over variables are captured by reference (paper Listing 7)."""

    def test_mutation_interleaves_with_eager(self):
        v = repro.Variable(0.0)

        @repro.function
        def mutate():
            v.assign_add(1.0)
            return v.read_value()

        mutate()
        assert float(v.read_value()) == 1.0
        v.assign_add(1.0)
        assert float(v.read_value()) == 2.0
        mutate()
        assert float(v.read_value()) == 3.0

    def test_closure_over_tensor_baked_as_constant(self):
        c = repro.constant(10.0)

        @repro.function
        def f(x):
            return x + c

        assert float(f(repro.constant(1.0))) == 11.0
        # Immutable tensors are interned as constants; only resource
        # handles (variables) are captured by reference.
        concrete = f.get_concrete_function(repro.constant(1.0))
        assert concrete.captured_externals == []

    def test_closure_over_variable_captured_by_reference(self):
        v = repro.Variable(10.0)

        @repro.function
        def f(x):
            return x + v

        assert float(f(repro.constant(1.0))) == 11.0
        concrete = f.get_concrete_function(repro.constant(1.0))
        assert concrete.captured_externals == [v.handle]


class TestStateCreationContract:
    def test_first_call_creates_then_reuses(self):
        created = []

        class Holder:
            v = None

        @repro.function
        def f(x):
            if Holder.v is None:
                Holder.v = repro.Variable(5.0)
                created.append(True)
            return x * Holder.v

        assert float(f(repro.constant(2.0))) == 10.0
        assert float(f(repro.constant(3.0))) == 15.0
        # Two traces happen on the first call (the two-trace contract).
        assert f.trace_count == 2

    def test_creating_variables_every_call_raises(self):
        @repro.function
        def bad(x):
            v = repro.Variable(1.0)  # new state on every trace
            return x * v

        with pytest.raises(FailedPreconditionError):
            bad(repro.constant(1.0))

    def test_creating_variables_on_later_trace_raises(self):
        state = {}

        @repro.function
        def f(x):
            # Creates a fresh variable per distinct input *shape*.
            key = x.shape.rank
            if key not in state:
                state[key] = repro.Variable(1.0)
            return x * state[key]

        f(repro.constant(1.0))
        with pytest.raises(FailedPreconditionError):
            f(repro.constant([1.0, 2.0]))  # new shape -> new trace -> new var


class TestListing8:
    """Nested graph functions compose via call operations (Listing 8)."""

    def test_composition_matches_paper(self):
        @repro.function
        def inner(a):
            from repro.ops import nn_ops

            return nn_ops.relu(a)

        @repro.function
        def outer(a, b):
            return inner(repro.matmul(a, b))

        out = outer(repro.eye(3), repro.diag(repro.constant([-1.0, 1.0, 2.0])))
        np.testing.assert_allclose(
            out.numpy(), np.diag([0.0, 1.0, 2.0]).astype(np.float32)
        )

    def test_outer_graph_contains_call_op(self):
        @repro.function
        def inner(a):
            return a * 2.0

        @repro.function
        def outer(a):
            return inner(a) + 1.0

        outer(repro.constant(1.0))
        concrete = outer.get_concrete_function(repro.constant(1.0))
        call_nodes = concrete.func_graph.ops_by_type("PartitionedCall")
        assert len(call_nodes) == 1


class TestMethods:
    def test_decorated_method_binds(self):
        class Model:
            def __init__(self):
                self.scale = repro.Variable(3.0)

            @repro.function
            def call(self, x):
                return x * self.scale

        m = Model()
        assert float(m.call(repro.constant(2.0))) == 6.0

    def test_instances_get_separate_traces(self):
        class Model:
            @repro.function
            def call(self, x):
                return x * 1.0

        a, b = Model(), Model()
        a.call(repro.constant(1.0))
        b.call(repro.constant(1.0))
        assert Model.call.trace_count == 2  # keyed by instance identity


class TestTracingSemantics:
    def test_python_side_effects_happen_at_trace_time(self):
        """Paper §4.1: non-TensorFlow code runs only while tracing."""
        calls = []

        @repro.function
        def f(x):
            calls.append(1)
            return x + 1.0

        f(repro.constant(1.0))
        f(repro.constant(2.0))
        f(repro.constant(3.0))
        assert len(calls) == 1

    def test_numpy_randomness_baked_in(self):
        """The add_noise example from §4.1: NumPy values become constants."""

        @repro.function
        def add_noise():
            eye = repro.eye(2)
            randn = np.random.randn(2, 2).astype(np.float32)
            return eye + randn

        first = add_noise().numpy()
        second = add_noise().numpy()
        np.testing.assert_array_equal(first, second)

    def test_library_randomness_stays_random(self):
        """Using primitive random ops preserves semantics under tracing."""

        @repro.function
        def add_noise():
            return repro.eye(2) + repro.random_normal([2, 2])

        first = add_noise().numpy()
        second = add_noise().numpy()
        assert not np.array_equal(first, second)

    def test_python_loop_unrolls(self):
        """Paper §4.1: the tracer fully unrolls Python loops."""

        @repro.function
        def f(x):
            for _ in range(5):
                x = x * 2.0
            return x

        concrete = f.get_concrete_function(repro.constant(1.0))
        if context.graph_fusion:
            # Unrolling still happened — the five Muls now live inside
            # one fused region.
            (fused,) = concrete.func_graph.ops_by_type("FusedElementwise")
            assert fused.attrs["region"].op_names == ("Mul",) * 5
        else:
            assert len(concrete.func_graph.ops_by_type("Mul")) == 5
        assert float(f(repro.constant(1.0))) == 32.0

    def test_symbolic_leak_detected(self):
        leaked = {}

        @repro.function
        def f(x):
            leaked["tensor"] = x * 2.0
            return x

        f(repro.constant(1.0))
        with pytest.raises(FailedPreconditionError):
            leaked["tensor"] + 1.0

    def test_data_dependent_python_branch_lowers_by_default(self):
        # Autograph rewrites the tensor-dependent ``if`` onto ``cond``
        # at trace time: one trace serves both branch outcomes.
        @repro.function
        def f(x):
            if x > 0.0:
                return x
            return -x

        assert float(f(repro.constant(1.0))) == 1.0
        assert float(f(repro.constant(-3.0))) == 3.0
        assert f.trace_count == 1

    def test_data_dependent_python_branch_fails_cleanly_when_opted_out(self):
        @repro.function(autograph=False)
        def f(x):
            if x > 0.0:  # symbolic truth value
                return x
            return -x

        with pytest.raises(FailedPreconditionError, match="repro.cond"):
            f(repro.constant(1.0))
