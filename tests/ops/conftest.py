"""Every eager op run by these tests also checks its shape inference.

Lazy recording types each pending output with ``op_def.infer(inputs,
attrs)`` and only later runs the kernel, so an ``infer`` that disagrees
with its kernel hands lazy code a wrong spec.  The autouse fixture
below checks that contract on every eagerly executed op: the kernel
returns as many outputs as ``infer`` promised, each with the inferred
dtype and a shape that is a subtype of the inferred one.
"""

from __future__ import annotations

import pytest

from repro.ops import registry
from repro.runtime import dispatch


class InferAgreesWithKernel(dispatch.OpInterceptor):
    name = "infer-agrees-with-kernel"
    modes = (dispatch.EAGER,)

    def on_complete(self, op_name, attrs, inputs, outputs, device, token):
        op_def = registry.get_op_def(op_name)
        if op_def.infer_fn is None:
            return
        specs = op_def.infer(inputs, attrs)
        assert len(outputs) == len(specs), (op_name, len(outputs), len(specs))
        for i, (out, spec) in enumerate(zip(outputs, specs)):
            assert out.dtype == spec.dtype, (op_name, i, out.dtype, spec.dtype)
            assert out.shape.is_subtype_of(spec.shape), (op_name, i, out.shape, spec.shape)


@pytest.fixture(autouse=True)
def _infer_agrees_with_kernel():
    interceptor = InferAgreesWithKernel()
    dispatch.core.register_interceptor(interceptor)
    yield
    dispatch.core.unregister_interceptor(interceptor)
