"""Forward-mode automatic differentiation (dual numbers over the tape seam).

Reverse mode records now and differentiates later; forward mode pushes a
*tangent* (directional derivative) through every operation as it runs.
`ForwardAccumulator` is a recorder on the same stack the `GradientTape`
uses, so the two compose freely: running an accumulator *outside* a tape
whose `gradient()` call it can observe yields forward-over-reverse
Hessian-vector products without ever materializing a Jacobian (the
tape-as-delimited-continuation formulation of PAPERS.md: *Demystifying
Differentiable Programming*).

Rather than duplicating a rule table, the Jacobian-vector product of an
op is derived from the existing *reverse* registry: the VJP is linear in
its seed, so differentiating ``<vjp(u), v>`` with respect to ``u`` on an
inner tape recovers ``J v`` exactly (double-backward trick).  Ops with a
custom ``backward_function`` (staged calls, rematerialized segments) go
through the same path, which is what makes ``jvp`` work across the
eager/staged boundary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework import dtypes, nest
from repro.framework.errors import (
    FailedPreconditionError,
    InvalidArgumentError,
    UnimplementedError,
)
from repro.runtime import records
from repro.tensor import TensorBase
from repro.core.tape import OpRecord, _tensor_id

__all__ = ["ForwardAccumulator", "jvp", "hvp", "jacobian"]


def _pack_tangent(tangent, primal):
    """Broadcast a tangent up to the primal's shape when they differ.

    Direct rules can hand back an operand-shaped tangent for a
    broadcasting op; downstream consumers expect output shape.
    """
    from repro.ops import array_ops

    if tangent is None:
        return None
    if tangent.shape == primal.shape:
        return tangent
    return tangent + array_ops.zeros_like(primal)


def _jvp_identity(rec, tangents):
    return [_pack_tangent(tangents[0], rec.outputs[0])]


def _jvp_addn(rec, tangents):
    from repro.ops import math_ops

    live = [t for t in tangents if t is not None]
    if not live:
        return [None]
    out = live[0] if len(live) == 1 else math_ops.add_n(live)
    return [_pack_tangent(out, rec.outputs[0])]


# Direct rules for trivially-linear ops where the double-backward detour
# is pure overhead.  Everything else derives its JVP from the reverse
# registry (see _generic_jvp).
_DIRECT_JVP = {
    "Identity": _jvp_identity,
    "StopGradient": lambda rec, tangents: [None],
    "AddN": _jvp_addn,
}


class ForwardAccumulator:
    """Computes Jacobian-vector products as the forward pass runs.

    Args:
        primals: tensor(s)/variable(s) to differentiate with respect to.
        tangents: matching structure of direction vectors.

    Usage::

        acc = ForwardAccumulator(x, v)
        with acc:
            y = f(x)
        dy = acc.jvp(y)   # = J_f(x) @ v

    Accumulators nest with tapes in either order; ``tape.gradient``
    pauses only the tape, so an *enclosing* accumulator sees the
    backward sweep and ``acc.jvp(grads)`` is a Hessian-vector product.
    """

    def __init__(self, primals=None, tangents=None) -> None:
        self._tangents: dict[int, TensorBase] = {}
        # Keep every tensor whose id() appears as a key alive: a
        # recycled id must never alias a dead tangent.
        self._retained: list = []
        self._paused = 0
        self._recording = False
        if primals is not None or tangents is not None:
            flat_p = nest.flatten(primals)
            flat_t = nest.flatten(tangents)
            if len(flat_p) != len(flat_t):
                raise InvalidArgumentError(
                    "primals and tangents must have matching structures; got "
                    f"{len(flat_p)} primals and {len(flat_t)} tangents"
                )
            for p, t in zip(flat_p, flat_t):
                self.watch(p, t)

    # -- context manager ------------------------------------------------------
    def __enter__(self) -> "ForwardAccumulator":
        if self._recording:
            raise FailedPreconditionError("ForwardAccumulator is already active")
        records.push_recorder(self)
        self._recording = True
        return self

    def __exit__(self, *exc_info) -> None:
        records.pop_recorder(self)
        self._recording = False

    # -- user API -------------------------------------------------------------
    def watch(self, primal, tangent) -> None:
        """Associate ``tangent`` as the directional derivative of ``primal``."""
        from repro.ops import array_ops

        if not isinstance(primal, TensorBase) and not hasattr(primal, "handle"):
            raise InvalidArgumentError(f"Cannot watch non-tensor value {primal!r}")
        if not isinstance(tangent, TensorBase):
            dtype = getattr(primal, "dtype", None)
            if dtype is not None and not dtype.is_differentiable:
                dtype = None  # resource handles etc.: let constant() infer
            tangent = array_ops.constant(tangent, dtype=dtype)
        self._tangents[_tensor_id(primal)] = tangent
        self._retained.append(primal)
        self._retained.append(tangent)

    def jvp(self, value, unconnected_gradients: str = "none"):
        """The accumulated tangent of ``value`` (same nest structure).

        Unconnected values map to ``None``, or to zeros with
        ``unconnected_gradients="zero"``.
        """
        from repro.ops import array_ops

        if unconnected_gradients not in ("none", "zero"):
            raise InvalidArgumentError(
                f"Unknown unconnected_gradients: {unconnected_gradients!r}"
            )

        def lookup(v):
            t = self._tangents.get(_tensor_id(v))
            if t is None and unconnected_gradients == "zero":
                read = v.read_value() if hasattr(v, "read_value") else v
                return array_ops.zeros_like(read)
            return t

        return nest.map_structure(lookup, value)

    # -- recorder protocol (called by the executor) ----------------------------
    def should_record(self, inputs: Sequence) -> bool:
        if self._paused:
            return False
        return any(id(t) in self._tangents for t in inputs)

    def record(
        self,
        op_name: str,
        attrs: dict,
        inputs: Sequence,
        outputs: Sequence,
        backward_function=None,
    ) -> None:
        """Push tangents through the op if any input carries one (the
        interest test and the record are one pass over the inputs)."""
        if self._paused:
            return
        tangents = self._tangents
        in_tangents = []
        carried = False
        for t in inputs:
            tangent = tangents.get(id(t))
            in_tangents.append(tangent)
            if tangent is not None:
                carried = True
        if not carried:
            return
        if op_name == "ReadVariableOp":
            # Tangent of the read value is the tangent watched on the
            # variable's handle; no arithmetic needed.
            if outputs and in_tangents[0] is not None:
                self._set_tangent(outputs[0], in_tangents[0])
            return
        diff_outputs = [
            t
            for t in outputs
            if isinstance(t, TensorBase)
            and (t.dtype.is_differentiable or t.dtype is dtypes.variant)
        ]
        if not diff_outputs:
            return
        rec = OpRecord(op_name, attrs, list(inputs), list(outputs), backward_function)
        self._paused += 1
        try:
            rule = _DIRECT_JVP.get(op_name) if backward_function is None else None
            if rule is not None:
                out_tangents = rule(rec, in_tangents)
            else:
                out_tangents = self._generic_jvp(rec, in_tangents)
        finally:
            self._paused -= 1
        for out, tangent in zip(outputs, out_tangents):
            if tangent is not None:
                self._set_tangent(out, tangent)

    def _set_tangent(self, primal, tangent) -> None:
        self._tangents[id(primal)] = tangent
        self._retained.append(primal)
        self._retained.append(tangent)

    def _generic_jvp(self, rec: OpRecord, in_tangents: list):
        """Derive the JVP from the op's reverse-mode rule.

        The VJP ``u -> backward(u)`` is linear, so with zero seeds ``u``
        watched on an inner tape, ``d/du <backward(u), v> = J v``.  The
        inner tape pauses nothing else: outer tapes and accumulators see
        these ops, which is what makes higher-order mixes work.
        """
        from repro.core.tape import GradientTape
        from repro.ops import array_ops, math_ops, registry

        diff_idx = [
            j
            for j, t in enumerate(rec.outputs)
            if isinstance(t, TensorBase) and t.dtype.is_differentiable
        ]
        if not diff_idx:
            return [None] * len(rec.outputs)
        if rec.backward_function is None and not registry.has_gradient(rec.op_name):
            raise UnimplementedError(
                f"No gradient registered for op {rec.op_name!r}; cannot derive "
                "a forward-mode JVP for it"
            )
        with GradientTape(persistent=False, watch_accessed_variables=False) as tape:
            seeds = [array_ops.zeros_like(rec.outputs[j]) for j in diff_idx]
            for s in seeds:
                tape.watch(s)
            aligned = [None] * len(rec.outputs)
            for j, s in zip(diff_idx, seeds):
                aligned[j] = s
            if rec.backward_function is not None:
                vjps = rec.backward_function(*aligned)
            else:
                vjps = registry.get_gradient_function(rec.op_name)(rec, *aligned)
            terms = []
            for w, v in zip(vjps, in_tangents):
                if w is None or v is None:
                    continue
                if not isinstance(w, TensorBase) or not w.dtype.is_differentiable:
                    continue
                terms.append(math_ops.reduce_sum(w * v))
            if not terms:
                return [None] * len(rec.outputs)
            total = terms[0] if len(terms) == 1 else math_ops.add_n(terms)
        # Not tape.gradient(): that is a sync point, and this sweep runs
        # once per recorded op — it must not flush pending lazy traces.
        from repro.core import backprop

        grads = backprop.imperative_grad(
            tape._records,
            [total],
            seeds,
            [None],
            unconnected_gradients="zero",
            sync=False,
        )
        out = [None] * len(rec.outputs)
        for j, g in zip(diff_idx, grads):
            out[j] = g
        return out


def jvp(f, primals, tangents):
    """Jacobian-vector product of ``f`` at ``primals`` along ``tangents``.

    Returns ``(outputs, output_tangents)`` with matching structures.
    """
    primals = list(primals) if isinstance(primals, (list, tuple)) else [primals]
    tangents = list(tangents) if isinstance(tangents, (list, tuple)) else [tangents]
    acc = ForwardAccumulator(primals, tangents)
    with acc:
        outputs = f(*primals)
    return outputs, acc.jvp(outputs)


def hvp(f, primals, vectors):
    """Hessian-vector product of the scalar objective ``f`` (forward-over-reverse).

    ``f(*primals)`` is reduced to a scalar with ``reduce_sum`` if needed;
    returns the list ``[H @ v for each primal]`` (``None`` where
    unconnected).
    """
    from repro.core.tape import GradientTape
    from repro.ops import math_ops

    primals = list(primals) if isinstance(primals, (list, tuple)) else [primals]
    vectors = list(vectors) if isinstance(vectors, (list, tuple)) else [vectors]
    acc = ForwardAccumulator(primals, vectors)
    with acc:
        with GradientTape(persistent=False, watch_accessed_variables=False) as tape:
            for p in primals:
                tape.watch(p)
            out = f(*primals)
            objective = math_ops.reduce_sum(out)
        # The tape pauses only itself here; the accumulator observes the
        # backward sweep, so the gradients carry tangents = H @ v.
        grads = tape.gradient(objective, primals)
    return [acc.jvp(g) if g is not None else None for g in grads]


def jacobian(f, primal):
    """Dense Jacobian of ``f`` at ``primal``, one forward pass per column.

    Returns a tensor of shape ``[*f(x).shape, *x.shape]``.  The
    reverse-mode counterpart (`GradientTape.jacobian`) runs one backward
    pass per *output* element; this one runs a forward pass per *input*
    element — pick whichever side is smaller.
    """
    from repro.ops import array_ops

    if not isinstance(primal, TensorBase):
        primal = array_ops.constant(primal)
    n = primal.shape.num_elements()
    if n is None:
        raise InvalidArgumentError("jacobian() requires a static input shape")
    cols = []
    out_shape = None
    for i in range(n):
        basis = np.zeros(n, dtype=primal.dtype.as_numpy_dtype)
        basis[i] = 1.0
        tangent = array_ops.constant(basis.reshape(tuple(primal.shape.as_list())))
        acc = ForwardAccumulator([primal], [tangent])
        with acc:
            out = f(primal)
        out_shape = out.shape
        col = acc.jvp(out, unconnected_gradients="zero")
        cols.append(array_ops.reshape(col, [-1]))
    stacked = array_ops.stack(cols, axis=1)  # [out_elems, in_elems]
    return array_ops.reshape(
        stacked, list(out_shape.as_list()) + list(primal.shape.as_list())
    )
