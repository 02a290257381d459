"""Export traced functions for use outside the defining program.

"Staging enables serializing the program for use without a Python
interpreter ... A typical development workflow involves using
graph-based state matching while writing and tweaking a [...] program,
then serializing a trace for use in a production environment" (paper
§4.3).

:func:`save` writes a concrete function's graph (GraphDef JSON) plus a
snapshot of every captured variable into one ``.npz`` artifact;
:func:`load` rebuilds an executable :class:`LoadedFunction` in a fresh
process, with new variable objects bound to the graph's captures.
Graphs containing ``py_func`` are rejected, matching §4.7.
"""

from __future__ import annotations

import json

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.core.function import ConcreteFunction, Function
from repro.core.variables import Variable
from repro.graph.serialization import function_from_def, function_to_def
from repro.tensor import convert_to_tensor

__all__ = ["save", "load", "LoadedFunction"]


def save(fn, path: str, *example_args) -> str:
    """Serialize a traced function (and its variable state) to ``path``.

    Args:
        fn: a :class:`ConcreteFunction`, or a polymorphic ``function``
            (in which case ``example_args`` select/force the trace).
        path: output file; ``.saved.npz`` is appended unless present.
        example_args: inputs used to pick the concrete trace when ``fn``
            is polymorphic.

    Returns:
        The path written.
    """
    if isinstance(fn, Function):
        if not example_args:
            raise InvalidArgumentError(
                "Saving a polymorphic function requires example arguments "
                "to select a concrete trace"
            )
        concrete = fn.get_concrete_function(*example_args)
    elif isinstance(fn, ConcreteFunction):
        concrete = fn
    else:
        raise InvalidArgumentError(
            f"save() takes a repro.function or ConcreteFunction, got {fn!r}"
        )

    capture_meta = []
    arrays: dict[str, np.ndarray] = {}
    for i, external in enumerate(concrete.captured_externals):
        if external.dtype != dtypes.resource:
            raise InvalidArgumentError(
                f"Cannot serialize a function capturing a {external.dtype} "
                "handle"
            )
        variable = external.resource_value()
        capture_meta.append(
            {
                "index": i,
                "dtype": variable.dtype.name,
                "trainable": variable.trainable,
                "name": variable.name,
            }
        )
        arrays[f"capture_{i}"] = np.asarray(variable.numpy())

    payload = {
        "format": "repro.saved_function.v1",
        "function": function_to_def(concrete.graph_function),
        "num_explicit_inputs": concrete.num_explicit_inputs,
        "output_structure": _encode_structure(concrete.output_structure),
        "captures": capture_meta,
    }
    if not path.endswith(".npz"):
        path = path + ".saved.npz"
    blob = json.dumps(payload).encode()
    np.savez(path, __saved_function__=np.frombuffer(blob, dtype=np.uint8), **arrays)
    return path


def _encode_structure(structure):
    """Output structures are ints/None in (possibly nested) containers —
    JSON-representable except for tuples, which we tag."""
    if isinstance(structure, tuple):
        return {"__tuple__": [_encode_structure(v) for v in structure]}
    if isinstance(structure, list):
        return [_encode_structure(v) for v in structure]
    if isinstance(structure, dict):
        return {k: _encode_structure(v) for k, v in structure.items()}
    return structure


def _decode_structure(structure):
    if isinstance(structure, dict):
        if "__tuple__" in structure and len(structure) == 1:
            return tuple(_decode_structure(v) for v in structure["__tuple__"])
        return {k: _decode_structure(v) for k, v in structure.items()}
    if isinstance(structure, list):
        return [_decode_structure(v) for v in structure]
    return structure


class LoadedFunction:
    """An executable function restored from a saved artifact.

    Holds its own :class:`Variable` objects (snapshotted at save time)
    bound to the graph's captures; mutations made by the graph (e.g. a
    saved training step) persist across calls, exactly as in the
    original program.
    """

    def __init__(self, graph_function, num_explicit_inputs, output_structure,
                 variables: list[Variable]) -> None:
        self.graph_function = graph_function
        self.num_explicit_inputs = num_explicit_inputs
        self.output_structure = output_structure
        self.variables = variables

    @property
    def input_specs(self):
        return self.graph_function.input_specs[: self.num_explicit_inputs]

    def __call__(self, *args):
        if len(args) != self.num_explicit_inputs:
            raise InvalidArgumentError(
                f"Loaded function takes {self.num_explicit_inputs} inputs, "
                f"got {len(args)}"
            )
        tensors = [convert_to_tensor(a) for a in args]
        full = tensors + [v.handle for v in self.variables]
        results = self.graph_function.run(full)
        return self._pack(results)

    def _pack(self, flat_results):
        structure = self.output_structure
        if structure is None:
            return None
        from repro.framework import nest

        def restore(leaf):
            return None if leaf is None else flat_results[leaf]

        if not nest.is_nested(structure):
            return restore(structure)
        return nest.map_structure(restore, structure)

    def __repr__(self) -> str:
        return (
            f"<LoadedFunction {self.graph_function.name!r}: "
            f"{self.num_explicit_inputs} inputs, "
            f"{len(self.variables)} variables>"
        )


def load(path: str) -> LoadedFunction:
    """Restore a function saved with :func:`save`."""
    with np.load(path, allow_pickle=False) as archive:
        payload = json.loads(bytes(archive["__saved_function__"].tobytes()).decode())
        if payload.get("format") != "repro.saved_function.v1":
            raise InvalidArgumentError(f"{path!r} is not a saved function")
        capture_values = {
            meta["index"]: archive[f"capture_{meta['index']}"]
            for meta in payload["captures"]
        }
    graph_function = function_from_def(payload["function"])
    variables = []
    for meta in payload["captures"]:
        variables.append(
            Variable(
                capture_values[meta["index"]],
                trainable=meta["trainable"],
                name=meta["name"],
                dtype=dtypes.as_dtype(meta["dtype"]),
            )
        )
    return LoadedFunction(
        graph_function=graph_function,
        num_explicit_inputs=payload["num_explicit_inputs"],
        output_structure=_decode_structure(payload["output_structure"]),
        variables=variables,
    )
