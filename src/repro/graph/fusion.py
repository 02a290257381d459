"""Graph-native elementwise fusion.

The ``fuse`` pass collapses maximal DAG-shaped regions of elementwise
operations into single ``FusedElementwise`` nodes, so an elementwise-heavy
program (activation chains, optimizer updates, most of a backward pass)
pays one plan step per region instead of one per op and materializes no
buried intermediate.  Each fused node carries a :class:`FusionRegion`:
the member kernels printed back-to-back over locals
(:mod:`repro.graph.printer`), dropping dead intermediates and writing
into dying buffers in place (the registry's in-place kernel variants)
when shapes are static.  The graph executor runs a region as one step,
and XLA-sim lowers it to one ``Fusion`` instruction
(:func:`repro.xla.hlo.lower`) — this pass is the only fusion clusterer.

Fusion is a *pure scheduling* rewrite: the region replays back into its
member primitives for anything that needs per-op structure —
differentiation, per-shape specialization, serialization
(:func:`defuse_function`).  Forward and backward graph functions each
run their own optimization pipeline, so both re-fuse independently.

Clustering is greedy over the topologically-ordered node list.  A node
joins the cluster of the first eligible input producer, subject to an
exact cycle check: every input produced *outside* the cluster must have
no ancestor *inside* it (ancestor sets are bitmasks over node
positions).  Because clusters only grow downward from a seed along real
edges and the node list is topological, this local check is sufficient
to keep the contracted graph acyclic; a final Kahn sweep verifies that
invariant and abandons fusion entirely if it ever fails.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.framework import dtypes
from repro.ops import registry
from repro.tensor import TensorSpec
from repro.graph.graph import Graph, Node, SymbolicTensor
from repro.graph.printer import _code_for, bind, print_region, raise_labelled

__all__ = [
    "FUSED_OP",
    "FusionRegion",
    "fuse_function",
    "defuse_function",
    "has_fused_nodes",
]

FUSED_OP = "FusedElementwise"

#: Don't emit a fused node for fewer than this many members (a region
#: of one is just an op with extra indirection).
MIN_REGION_SIZE = 2


class _SpecView:
    """Minimal symbolic-input stand-in for re-running shape inference."""

    __slots__ = ("shape", "dtype", "constant_value")

    def __init__(self, shape, dtype) -> None:
        self.shape = shape
        self.dtype = dtype
        self.constant_value = None


def _spec_bytes(spec: TensorSpec) -> tuple[int, bool]:
    """(byte estimate, is_lower_bound) for one tensor spec.

    Unknown dimensions count as 1, making the estimate a lower bound.
    """
    dims = spec.shape.dims
    if dims is None:
        return spec.dtype.size, True
    n = 1
    lower = False
    for d in dims:
        if d is None:
            lower = True
        else:
            n *= d
    return max(n, 1) * spec.dtype.size, lower


class FusionRegion:
    """A precompiled cluster of elementwise operations.

    Values live on a flat slot list: slots ``0..num_inputs-1`` are the
    region's external inputs, slot ``num_inputs + k`` is the output of
    step ``k``.  Each step is a tuple

        ``(op_name, kernel, inplace_kernel, attrs, in_refs, donate, dies)``

    where ``donate`` is the slot whose (dying, fresh, exclusively-owned)
    buffer the step overwrites via its in-place kernel, or -1, and
    ``dies`` lists internal slots whose last use is this step.
    """

    __slots__ = (
        "steps",
        "out_refs",
        "num_inputs",
        "op_names",
        "fresh_outputs",
        "internal_peak_bytes",
        "peak_is_lower_bound",
        "donated_steps",
        "code_cache_hit",
        "_compiled",
    )

    def __init__(
        self,
        steps: Sequence[tuple],
        out_refs: Sequence[int],
        num_inputs: int,
        op_names: Sequence[str],
        fresh_outputs: Sequence[bool],
        internal_peak_bytes: int,
        peak_is_lower_bound: bool,
        donated_steps: int,
    ) -> None:
        self.steps = tuple(steps)
        self.out_refs = tuple(out_refs)
        self.num_inputs = num_inputs
        self.op_names = tuple(op_names)
        self.fresh_outputs = tuple(fresh_outputs)
        self.internal_peak_bytes = internal_peak_bytes
        self.peak_is_lower_bound = peak_is_lower_bound
        self.donated_steps = donated_steps
        # Generated code is the only executor a region has, so a codegen
        # failure propagates out of ``fuse_function``.
        # The code depends on the wiring alone; this region's kernels and
        # attrs are bound as the globals of its own function.
        source, at, env = print_region(num_inputs, self.steps, self.out_refs)
        hits = _code_for.cache_info().hits
        code = _code_for(source)
        # Observability only: exact unless another thread is fusing too.
        self.code_cache_hit = _code_for.cache_info().hits > hits
        self._compiled = bind(code, env, self.op_names, at)

    @property
    def size(self) -> int:
        """Number of primitive operations the region covers."""
        return len(self.steps)

    def __call__(self, inputs, device):
        """Run the region's kernels over concrete arrays."""
        try:
            return self._compiled(inputs, device)
        except BaseException as exc:
            # Deferred-error contract: the error names the member op (the
            # traceback line's step), not the region it fused into.
            raise_labelled(exc, (self._compiled.__globals__,))

    def slot_specs(self, inputs) -> list:
        """Member shape inference over ``inputs``: one shape/dtype view
        per slot (external inputs, then one per step)."""
        specs = [_SpecView(t.shape, t.dtype) for t in inputs]
        for op_name, _k, _ik, step_attrs, in_refs, _d, _dies in self.steps:
            op_def = registry.get_op_def(op_name)
            out = op_def.infer([specs[r] for r in in_refs], step_attrs)
            specs.append(_SpecView(out[0].shape, out[0].dtype))
        return specs

    def infer(self, inputs, attrs=None):
        """Re-run member shape inference; one spec per region output."""
        specs = self.slot_specs(inputs)
        return [TensorSpec(specs[r].shape, specs[r].dtype) for r in self.out_refs]

    def replay(self, inputs):
        """Re-stage the member primitives (symbolic expansion).

        Used wherever per-op structure matters again: differentiation,
        specialization, serialization.  Must run inside a
        graph-building context; returns one symbolic tensor per region
        output.
        """
        from repro.runtime.executor import execute

        vals = list(inputs)
        for op_name, _k, _ik, step_attrs, in_refs, _d, _dies in self.steps:
            vals.append(execute(op_name, [vals[r] for r in in_refs], step_attrs))
        return tuple(vals[r] for r in self.out_refs)

    def __repr__(self) -> str:
        return (
            f"<FusionRegion {'+'.join(self.op_names)}: {self.num_inputs} inputs "
            f"-> {len(self.out_refs)} outputs, {self.donated_steps} in-place>"
        )


# ---------------------------------------------------------------------------
# The FusedElementwise operation
# ---------------------------------------------------------------------------

def _fused_infer(inputs, attrs):
    return attrs["region"].infer(inputs)


registry.register_op(FUSED_OP, infer_fn=_fused_infer)


@registry.register_kernel(FUSED_OP, ("CPU", "GPU"))
def _fused_kernel(inputs, attrs, device):
    return attrs["region"](inputs, device)


# No gradient is registered for FusedElementwise on purpose: gradient
# construction replays the region into primitives first (see
# ``repro.core.tracing.replay_into``), so the tape only ever sees ops
# with real gradient rules.


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def _fusable(node: Node) -> bool:
    op_def = node.op_def
    if registry.ELEMENTWISE not in op_def.traits:
        return False
    if node.device is not None or node.control_inputs:
        return False
    if len(node.outputs) != 1:
        return False
    if node.outputs[0].dtype in (dtypes.resource, dtypes.variant):
        return False
    if op_def.is_stateful or op_def.has_side_effects:
        return False
    return registry.has_kernel(node.op_name, "CPU")


def _producer_positions(
    nodes: list[Node], pos_of: dict[int, int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Per node: list positions of its data-input and control-input producers.

    Data producers keep input order (and duplicates); producers outside
    the node list are dropped.  Every later stage of the pass walks
    these instead of re-resolving ``id(t.node)`` per edge.
    """
    get = pos_of.get
    data: list[list[int]] = []
    control: list[list[int]] = []
    for node in nodes:
        row = [get(id(t.node)) for t in node.inputs]
        if None in row:
            row = [p for p in row if p is not None]
        data.append(row)
        crow = [get(id(c)) for c in node.control_inputs]
        if None in crow:
            crow = [p for p in crow if p is not None]
        control.append(crow)
    return data, control


def _ancestor_masks(producers: list[list[int]], control: list[list[int]]) -> list[int]:
    """Per-node ancestor sets as bitmasks over node-list positions."""
    masks = [0] * len(producers)
    for i, row in enumerate(producers):
        a = 0
        for p in row:
            a |= masks[p] | (1 << p)
        for p in control[i]:
            a |= masks[p] | (1 << p)
        masks[i] = a
    return masks


def _cluster(
    nodes: list[Node], producers: list[list[int]], control: list[list[int]]
) -> tuple[dict, list]:
    """Greedy downward clustering with the exact acyclicity check.

    Returns ``(cluster_of, members)``: position -> cluster id, and the
    member-position lists (ascending, i.e. topological).
    """
    ancestors = _ancestor_masks(producers, control)
    cluster_of: dict[int, int] = {}
    members: list[list[int]] = []
    masks: list[int] = []
    # Per cluster: every producer position that ever fed a member from
    # outside (entries absorbed by a later union are skipped on read),
    # and the lowest member position.
    feeders: list[set[int]] = []
    lowest: list[int] = []

    def can_union(src: int, dst: int) -> bool:
        """Is contracting clusters ``src`` + ``dst`` still acyclic?

        Exact condition: no external input producer of the combined set
        may have an ancestor inside it (such a producer would sit on a
        path that leaves the set and comes back).  A producer listed
        before the set's lowest member has no ancestor in it, so only
        the few feeders past that point pay for a mask test.
        """
        combined = masks[src] | masks[dst]
        floor = min(lowest[src], lowest[dst])
        for group in (feeders[src], feeders[dst]):
            for w in group:
                if w <= floor:
                    continue
                c = cluster_of.get(w, -1)
                if c == src or c == dst:
                    continue
                if ancestors[w] & combined:
                    return False
        return True

    def union(src: int, dst: int) -> None:
        for m in members[src]:
            cluster_of[m] = dst
        merged = sorted(members[dst] + members[src])
        members[dst] = merged
        masks[dst] |= masks[src]
        feeders[dst] |= feeders[src]
        lowest[dst] = min(lowest[dst], lowest[src])
        members[src] = []
        masks[src] = 0
        feeders[src] = set()

    for i, node in enumerate(nodes):
        if not _fusable(node):
            continue
        row = producers[i]
        joined = -1
        for p in row:
            cid = cluster_of.get(p, -1)
            if cid < 0:
                continue
            cmask = masks[cid]
            ok = True
            for q in row:
                if cluster_of.get(q, -1) == cid:
                    continue
                if ancestors[q] & cmask:
                    # Joining would route a path out of the cluster and
                    # back in — a cycle once contracted.
                    ok = False
                    break
            if ok:
                joined = cid
                break
        if joined >= 0:
            cluster_of[i] = joined
            members[joined].append(i)
            masks[joined] |= 1 << i
            feeders[joined].update(row)
            # A join point may connect further clusters (the other
            # operands of a DAG merge node): union them in when the
            # contracted result stays acyclic.
            for q in row:
                other = cluster_of.get(q, -1)
                if other < 0 or other == joined:
                    continue
                if can_union(other, joined):
                    union(other, joined)
        else:
            cluster_of[i] = len(members)
            members.append([i])
            masks.append(1 << i)
            feeders.append(set(row))
            lowest.append(i)
    return cluster_of, members


def _contracted_is_acyclic(
    producers: list[list[int]],
    control: list[list[int]],
    kept_cluster_of: dict[int, int],
) -> bool:
    """Kahn sweep over the cluster-contracted graph (safety net).

    Vertex ``n + cid`` stands for kept cluster ``cid``, vertex ``p`` for
    an unclustered node.  Parallel edges are kept and counted once per
    occurrence on both sides, which Kahn's algorithm tolerates.
    """
    n = len(producers)
    vertex = [
        p if (c := kept_cluster_of.get(p)) is None else n + c for p in range(n)
    ]
    succs: dict[int, list[int]] = {v: [] for v in vertex}
    indeg = dict.fromkeys(succs, 0)
    for i, kv in enumerate(vertex):
        for row in (producers[i], control[i]):
            for p in row:
                ku = vertex[p]
                if ku != kv:
                    succs[ku].append(kv)
                    indeg[kv] += 1
    queue = deque(v for v, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in succs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == len(succs)


# ---------------------------------------------------------------------------
# Region construction
# ---------------------------------------------------------------------------

def _build_region(
    member_nodes: list[Node], escaping: set[int]
) -> tuple[FusionRegion, list[SymbolicTensor], list[SymbolicTensor]]:
    """Compile one cluster; returns (region, ext inputs, escaping outs)."""
    member_ids = {id(n) for n in member_nodes}

    ext_tensors: list[SymbolicTensor] = []
    ext_index: dict[int, int] = {}
    for node in member_nodes:
        for t in node.inputs:
            if id(t.node) in member_ids or id(t) in ext_index:
                continue
            ext_index[id(t)] = len(ext_tensors)
            ext_tensors.append(t)
    num_ext = len(ext_tensors)

    slot_of: dict[int, int] = {
        id(node.outputs[0]): num_ext + k for k, node in enumerate(member_nodes)
    }
    step_in_refs = [
        tuple(
            slot_of[id(t)] if id(t.node) in member_ids else ext_index[id(t)]
            for t in node.inputs
        )
        for node in member_nodes
    ]

    out_members = [
        k for k, node in enumerate(member_nodes) if id(node.outputs[0]) in escaping
    ]
    out_refs = [num_ext + k for k in out_members]
    out_ref_set = set(out_refs)

    # Last internal use per slot (a slot in out_refs never dies).
    last_use: dict[int, int] = {}
    for k, refs in enumerate(step_in_refs):
        for r in refs:
            if r >= num_ext:
                last_use[r] = k

    # Buffer aliasing: an ALIASES_INPUT member's output shares its
    # input's buffer, so it can never donate it, and what it aliases is
    # pinned.
    root = list(range(num_ext))
    for k, node in enumerate(member_nodes):
        if registry.ALIASES_INPUT in node.op_def.traits:
            root.append(root[step_in_refs[k][0]])
        else:
            root.append(num_ext + k)
    owner_count: dict[int, int] = {}
    for r in root:
        owner_count[r] = owner_count.get(r, 0) + 1
    shared_roots = {r for r, c in owner_count.items() if c > 1}

    # Assemble steps + static transient-memory accounting.
    steps = []
    slot_bytes: dict[int, int] = {}
    live = peak = donated = 0
    lower_bound = False
    for k, node in enumerate(member_nodes):
        s = num_ext + k
        # At most one in-place donation per step: a dying, fresh,
        # exclusively-owned internal input with matching static shape/dtype.
        inplace = registry.get_inplace_kernel(node.op_name)
        out_spec = node.outputs[0].spec
        donate = -1
        if inplace is not None and out_spec.shape.is_fully_defined:
            for r in step_in_refs[k]:
                src = member_nodes[r - num_ext].outputs[0] if r >= num_ext else None
                if (
                    src is not None
                    and r not in out_ref_set
                    and last_use.get(r) == k
                    and root[r] == r
                    and r not in shared_roots
                    and src.dtype == out_spec.dtype
                    and src.shape.is_fully_defined
                    and src.shape == out_spec.shape
                ):
                    donate = r
                    donated += 1
                    break
        dies = tuple(
            r
            for r in set(step_in_refs[k])
            if r >= num_ext and last_use.get(r) == k and r not in out_ref_set
        )
        nbytes, lb = _spec_bytes(out_spec)
        lower_bound |= lb
        if donate >= 0:
            slot_bytes[s] = slot_bytes.get(donate, nbytes)
            slot_bytes[donate] = 0
        elif registry.ALIASES_INPUT in node.op_def.traits:
            slot_bytes[s] = 0  # a view; the root slot owns the bytes
        else:
            slot_bytes[s] = nbytes
            live += nbytes
            peak = max(peak, live)
        for d in dies:
            live -= slot_bytes.get(d, 0)
            slot_bytes[d] = 0
        kernel = registry.resolve_kernel(node.op_name, "CPU", allow_soft_placement=False)
        inplace = inplace if donate >= 0 else None
        in_refs = step_in_refs[k]
        steps.append((node.op_name, kernel, inplace, node.attrs, in_refs, donate, dies))

    fresh_outputs = [root[r] == r and r not in shared_roots for r in out_refs]
    region = FusionRegion(
        steps=steps,
        out_refs=out_refs,
        num_inputs=num_ext,
        op_names=[n.op_name for n in member_nodes],
        fresh_outputs=fresh_outputs,
        internal_peak_bytes=peak,
        peak_is_lower_bound=lower_bound,
        donated_steps=donated,
    )
    escaping_outs = [member_nodes[k].outputs[0] for k in out_members]
    return region, ext_tensors, escaping_outs


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

def fuse_function(fn) -> int:
    """Fuse elementwise regions of ``fn``'s graph in place.

    Returns the number of fused nodes created, and records
    ``fn._fusion_stats``: node counts before/after, region sizes, and
    how many regions reused a cached code object.  Code generation for
    a region is part of building it, so a codegen error raises here.
    """
    graph: Graph = fn.graph
    nodes = graph.nodes
    before = len(nodes)
    if before < MIN_REGION_SIZE:
        return 0
    pos_of = {id(node): i for i, node in enumerate(nodes)}
    producers, control = _producer_positions(nodes, pos_of)

    cluster_of, members = _cluster(nodes, producers, control)
    kept = [cid for cid, ms in enumerate(members) if len(ms) >= MIN_REGION_SIZE]
    if not kept:
        fn._fusion_stats = _fusion_stats(before, before, [])
        return 0
    kept_set = set(kept)
    kept_cluster_of = {p: cid for p, cid in cluster_of.items() if cid in kept_set}
    if not _contracted_is_acyclic(producers, control, kept_cluster_of):
        # Should be unreachable given the merge-time check; abandon
        # fusion for this graph rather than risk an unschedulable plan.
        return 0

    # Which member outputs escape their cluster (or are fetched)?  A
    # fused node will sit where its last member sat; a consumer that
    # ends up before that position leaves the list out of order.
    escaping = {id(t) for t in fn.outputs}
    last_of = {cid: members[cid][-1] for cid in kept}
    out_of_order = False
    for i, node in enumerate(nodes):
        ci = kept_cluster_of.get(i)
        at = i if ci is None else last_of[ci]
        for t in node.inputs:
            p = pos_of.get(id(t.node))
            if p is None:
                continue
            cp = kept_cluster_of.get(p)
            if cp is not None and cp != ci:
                escaping.add(id(t))
                if last_of[cp] > at:
                    out_of_order = True

    replacements: dict[int, SymbolicTensor] = {}
    removed: set[int] = set()
    fused_at: dict[int, Node] = {}
    regions: list[FusionRegion] = []
    for cid in kept:
        positions = members[cid]
        member_nodes = [nodes[p] for p in positions]
        region, ext_tensors, escaping_outs = _build_region(member_nodes, escaping)
        fused = Node(
            graph=graph,
            name=graph.unique_name("fused"),
            op_name=FUSED_OP,
            inputs=ext_tensors,
            attrs={"region": region},
            device=None,
            output_specs=[t.spec for t in escaping_outs],
        )
        for old, new in zip(escaping_outs, fused.outputs):
            new._constant_value = old._constant_value
            replacements[id(old)] = new
        # The fused node takes the last member's list position; the
        # closing topological sort repairs any consumer that now
        # precedes it (safe — the merge check ruled out cycles).
        fused_at[positions[-1]] = fused
        removed.update(positions[:-1])
        regions.append(region)

    graph.nodes = [fused_at.get(i, n) for i, n in enumerate(nodes) if i not in removed]
    graph.apply_replacements(replacements)
    fn.outputs = [replacements.get(id(t), t) for t in fn.outputs]
    fn._runner = None

    if out_of_order:
        from repro.graph.optimize import _topological_sort

        _topological_sort(fn)
    fn._fusion_stats = _fusion_stats(before, len(graph.nodes), regions)
    return len(regions)


def _fusion_stats(before: int, after: int, regions: list) -> dict:
    sizes = [r.size for r in regions]
    hits = sum(1 for r in regions if r.code_cache_hit)
    return {
        "nodes_before": before,
        "nodes_after": after,
        "regions": sorted(sizes, reverse=True),
        "fused_ops": sum(sizes),
        "code_cache": {"hits": hits, "misses": len(regions) - hits},
    }


def has_fused_nodes(fn) -> bool:
    return any(n.op_name == FUSED_OP for n in fn.graph.nodes)


def defuse_function(fn):
    """A clone of ``fn`` with fused nodes expanded back to primitives.

    Symbolic replay (:func:`repro.core.tracing.replay_into`) expands
    ``FusedElementwise`` nodes as it goes; no optimization passes run on
    the clone, so the result is plain primitives — what serialization
    and cross-process transport need.
    """
    from repro.core.tracing import ReplayGraph, replay_into
    from repro.graph.function import GraphFunction

    graph = ReplayGraph(name=f"{fn.name}_defused")
    new_inputs, _, new_outputs = replay_into(fn, graph)
    return GraphFunction(
        name=fn.name, graph=graph, inputs=new_inputs, outputs=new_outputs
    )
