"""Checkpointing via graph-based state matching (paper §4.3).

"TensorFlow Eager uses a graph-based matching system, where a directed
graph with named edges between objects is serialized along with the
program state.  On restore, a greedy matching determines a
correspondence between serialized Python state and the objects being
restored.  This matching is local in that it depends only on the
objects being saved and restored, not on other parts of the program."

* :class:`Trackable` — base class whose attribute assignments build the
  named-edge object graph automatically (lists and dicts of trackables
  are wrapped so their elements get numbered/named edges, as in the
  paper's Figure 1).
* :class:`Checkpoint` — saves the reachable object graph (topology as
  JSON, variable values as arrays) into a single ``.npz`` file, and
  restores by breadth-first greedy matching.  Restoration is
  **deferred-safe**: values for objects that do not exist yet (layers
  that create variables on first call) are held and applied the moment
  the matching attribute is attached — the workflow Listing 3 relies
  on.
* :class:`NumpyState` — miscellaneous Python state (NumPy arrays)
  participating in the same matching ("outside of traced code even
  miscellaneous Python state such as NumPy arrays can use graph-based
  state matching").
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from repro.framework.errors import FailedPreconditionError, InvalidArgumentError
from repro.core.variables import Variable

__all__ = ["Trackable", "Checkpoint", "NumpyState", "CheckpointStatus"]


def _is_trackable_value(value) -> bool:
    return isinstance(value, (Trackable, Variable))


def _maybe_wrap(value):
    """Wrap containers of trackables so their elements become edges."""
    if isinstance(value, _ListWrapper) or isinstance(value, _DictWrapper):
        return value
    if isinstance(value, (list, tuple)) and any(_is_trackable_value(v) for v in value):
        return _ListWrapper(value)
    if isinstance(value, dict) and any(_is_trackable_value(v) for v in value.values()):
        return _DictWrapper(value)
    return value


class Trackable:
    """An object participating in the named-edge dependency graph.

    Assigning a trackable value to an attribute creates an edge named
    after the attribute (paper Figure 1: ``self.v = tf.Variable(1.)``
    creates the edge ``v``).
    """

    def __setattr__(self, name: str, value) -> None:
        value = _maybe_wrap(value)
        object.__setattr__(self, name, value)
        if _is_trackable_value(value) and not name.startswith("__"):
            deferred = self.__dict__.get("_deferred_dependencies")
            if deferred and name in deferred:
                _restore_subtree(value, *deferred.pop(name))

    def _checkpoint_dependencies(self) -> list[tuple[str, object]]:
        """(edge name, child) pairs, sorted by name for determinism."""
        deps = []
        for name in sorted(self.__dict__):
            if name.startswith("_deferred"):
                continue
            value = self.__dict__[name]
            if _is_trackable_value(value):
                deps.append((name, value))
        return deps

    # Leaf-state hooks (overridden by value-bearing trackables).
    def _serialize_to_checkpoint(self) -> Optional[dict[str, np.ndarray]]:
        return None

    def _restore_from_checkpoint(self, values: dict[str, np.ndarray]) -> None:
        raise NotImplementedError


class _ListWrapper(Trackable):
    """A list whose elements are edges named by their index."""

    def __init__(self, values) -> None:
        object.__setattr__(self, "_values", list(values))

    def __getitem__(self, index):
        return self._values[index]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def append(self, value) -> None:
        self._values.append(_maybe_wrap(value))

    def _checkpoint_dependencies(self):
        return [
            (str(i), v) for i, v in enumerate(self._values) if _is_trackable_value(v)
        ]


class _DictWrapper(Trackable):
    """A dict whose trackable values are edges named by their keys."""

    def __init__(self, values: dict) -> None:
        object.__setattr__(self, "_values", dict(values))

    def __getitem__(self, key):
        return self._values[key]

    def __setitem__(self, key, value) -> None:
        self._values[key] = _maybe_wrap(value)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def items(self):
        return self._values.items()

    def _checkpoint_dependencies(self):
        return [
            (str(k), v)
            for k, v in sorted(self._values.items(), key=lambda kv: str(kv[0]))
            if _is_trackable_value(v)
        ]


class NumpyState(Trackable):
    """Miscellaneous NumPy state matched like any other object (§4.3)."""

    def _checkpoint_dependencies(self):
        return []

    def _serialize_to_checkpoint(self):
        out = {}
        for name in sorted(self.__dict__):
            value = self.__dict__[name]
            if isinstance(value, np.ndarray) and not name.startswith("_"):
                out[name] = value
        return out or None

    def _restore_from_checkpoint(self, values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)


def _dependencies_of(obj) -> list[tuple[str, object]]:
    if isinstance(obj, Variable):
        return []
    return obj._checkpoint_dependencies()


def _serialize_leaf(obj) -> Optional[dict[str, np.ndarray]]:
    if isinstance(obj, Variable):
        return {"VALUE": np.asarray(obj.numpy())}
    return obj._serialize_to_checkpoint()


def _restore_leaf(obj, values: dict[str, np.ndarray]) -> None:
    if isinstance(obj, Variable):
        obj.assign(values["VALUE"])
    else:
        obj._restore_from_checkpoint(values)


class CheckpointStatus:
    """Tracks which saved state has been applied (supports deferral)."""

    def __init__(self) -> None:
        self._pending: set[int] = set()
        self._restored: set[int] = set()

    def _mark_pending(self, node_id: int) -> None:
        self._pending.add(node_id)

    def _mark_restored(self, node_id: int) -> None:
        self._pending.discard(node_id)
        self._restored.add(node_id)

    def assert_consumed(self) -> "CheckpointStatus":
        """Raise unless every value in the checkpoint has been applied."""
        if self._pending:
            raise FailedPreconditionError(
                f"{len(self._pending)} checkpointed values were never matched "
                "to Python objects (were all layers/variables re-created?)"
            )
        return self


def _restore_subtree(obj, node_id: int, data: dict, status: CheckpointStatus) -> None:
    """Greedy local matching from (obj, saved node) downward."""
    queue = [(obj, node_id)]
    while queue:
        current, nid = queue.pop()
        node = data["nodes"][nid]
        values = {
            key[len(f"node{nid}/") :]: data["arrays"][key]
            for key in node["value_keys"]
        }
        if values:
            _restore_leaf(current, values)
            status._mark_restored(nid)
        deps = dict(_dependencies_of(current))
        for name, child_id in node["children"].items():
            child = deps.get(name)
            if child is None:
                # Defer: apply when the attribute appears (Listing 3
                # models create variables on first call).
                if isinstance(current, (Trackable,)):
                    deferred = current.__dict__.setdefault(
                        "_deferred_dependencies", {}
                    )
                    deferred[name] = (child_id, data, status)
                continue
            queue.append((child, child_id))


class Checkpoint(Trackable):
    """Saves and restores an object graph of trackable state.

    Usage::

        ckpt = Checkpoint(model=model, optimizer=opt)
        path = ckpt.save("/tmp/model")
        ...
        status = Checkpoint(model=new_model, optimizer=new_opt).restore(path)
        status.assert_consumed()
    """

    def __init__(self, **kwargs) -> None:
        for name, value in kwargs.items():
            if not _is_trackable_value(value) and not isinstance(
                _maybe_wrap(value), (Trackable,)
            ):
                raise InvalidArgumentError(
                    f"Checkpoint arguments must be trackable; {name!r} is "
                    f"{type(value).__name__}"
                )
            setattr(self, name, value)

    # -- save -----------------------------------------------------------------
    def save(self, file_prefix: str) -> str:
        """Serialize the reachable object graph; returns the saved path."""
        nodes: list[dict] = []
        ids: dict[int, int] = {}
        arrays: dict[str, np.ndarray] = {}

        def visit(obj) -> int:
            if id(obj) in ids:
                return ids[id(obj)]
            nid = len(nodes)
            ids[id(obj)] = nid
            node = {"children": {}, "value_keys": []}
            nodes.append(node)
            values = _serialize_leaf(obj)
            if values:
                for key, arr in values.items():
                    full = f"node{nid}/{key}"
                    node["value_keys"].append(full)
                    arrays[full] = np.asarray(arr)
            for name, child in _dependencies_of(obj):
                node["children"][name] = visit(child)
            return nid

        visit(self)
        path = file_prefix if file_prefix.endswith(".npz") else file_prefix + ".ckpt.npz"
        graph_json = json.dumps({"nodes": nodes})
        np.savez(path, __object_graph__=np.frombuffer(graph_json.encode(), dtype=np.uint8), **arrays)
        return path

    # -- restore ----------------------------------------------------------------
    def restore(self, path: str) -> CheckpointStatus:
        """Greedy, local, deferred-capable restoration from a saved file."""
        with np.load(path, allow_pickle=False) as archive:
            graph_json = bytes(archive["__object_graph__"].tobytes()).decode()
            arrays = {k: archive[k] for k in archive.files if k != "__object_graph__"}
        nodes = json.loads(graph_json)["nodes"]
        status = CheckpointStatus()
        for nid, node in enumerate(nodes):
            if node["value_keys"]:
                status._mark_pending(nid)
        data = {"nodes": nodes, "arrays": arrays}
        _restore_subtree(self, 0, data, status)
        return status
