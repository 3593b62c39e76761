"""Graph optimization passes applied before execution on compiled targets.

The tensor-level analogue of the rule-based IR optimizer TQP applies on
relational plans, in the order ``optimize`` runs them: peephole (no-op casts,
cast chains whose inner cast loses nothing), common subexpression elimination,
folding of shape-only ops no bind parameter reaches, constant folding,
dead-code elimination, late materialization (filters as selection vectors,
composed through joins; row-wise work moved below the gather) and elementwise
fusion.  ``benchmarks/bench_ablation_passes.py`` measures their effect.
"""

from __future__ import annotations

import collections
import json

import numpy as np

from repro.tensor import ops
from repro.tensor.graph import Graph, Node
from repro.tensor.profiler import Stamp
from repro.tensor.tensor import Tensor

# Where a node ran is the stamp in its attrs (``repro.tensor.profiler.Stamp``).
# The shard is *structural*: identical nodes on different shards never merge,
# a fused kernel never spans two, a gather composes only with one on the same
# shard.  The operator scope is *descriptive*, it decides nothing: identical
# nodes traced under different operators still CSE-merge (the survivor keeps
# the first stamp), a fused kernel takes the stamp of the step producing its
# first output (its steps carry none of their own), a node
# ``late_materialization`` creates inherits the stamp of the node it was
# derived from, and a node traced outside any operator carries no scope and
# takes the replaying thread's.  A lanes width is not in the program at all.


def _placement(node: Node) -> "int | None":
    """The structural part of a node's stamp: its shard."""
    return Stamp.of(node.attrs).shard


def _stamp_of(node: Node) -> dict:
    """The whole stamp, as attrs: what a node derived from ``node`` inherits."""
    return Stamp.of(node.attrs).as_attrs()


# Creation ops that only depend on attributes and therefore fold to constants.
_CREATION_OPS = {"zeros", "full", "arange"}

# Ops that must never be folded/merged because their semantics depend on the
# execution environment rather than only on input values.  The shard-exchange
# identities are here so constant folding/CSE/fusion cannot collapse the
# interconnect-transfer accounting distributed cost models charge per event.
_IMPURE_OPS = {"to_device", "shard_exchange", "shard_broadcast", "shard_gather"}

# Never fuse these: impure ops, and already-fused kernels (fusion is one-shot;
# nesting fused programs would complicate the local SSA numbering for no win).
_FUSION_BLOCKLIST = _IMPURE_OPS | {"fused_kernel"}


def dead_code_elimination(graph: Graph) -> Graph:
    """Drop nodes whose outputs do not (transitively) reach a graph output."""
    live: set[int] = set(graph.outputs)
    kept_reversed: list[Node] = []
    for node in reversed(graph.nodes):
        if not live.isdisjoint(node.outputs):
            kept_reversed.append(node)
            live.update(node.inputs)
    graph.nodes = list(reversed(kept_reversed))
    used = set(graph.outputs)
    for node in graph.nodes:
        used.update(node.inputs)
    graph.initializers = {vid: arr for vid, arr in graph.initializers.items()
                          if vid in used}
    return graph


# Ops whose result depends only on the *shape* of their input (plus attrs).
# See fold_param_free_shapes below.
_SHAPE_ONLY_OPS = {"row_count", "full_like_rows", "arange_like"}


def _param_inputs(graph: Graph) -> set[int]:
    """The graph inputs bound per execution (``param:<name>``)."""
    return {vid for vid in graph.inputs if graph.values[vid].name.startswith("param:")}


def fold_param_free_shapes(graph: Graph) -> Graph:
    """Fold shape-only ops that cannot be affected by a bind parameter.

    The shape-polymorphic creation ops (``row_count`` / ``full_like_rows`` /
    ``arange_like``) exist so traced programs replay correctly when a rebound
    parameter changes an intermediate size.  For a compiled program, the table
    inputs are fixed (the session's schema fingerprint revalidates them), so
    the only values that vary across executions are the ``param:<name>``
    inputs and everything downstream of them.  A shape-only op whose input is
    *not* tainted by a parameter therefore always sees the same shape — the
    one recorded at trace time — and folds to a constant, restoring the
    kernel-launch counts (and fusion opportunities) of non-parameterized
    plans.
    """
    from repro.tensor import dtype as dtypes

    tainted = _param_inputs(graph)
    new_nodes: list[Node] = []
    for node in graph.nodes:
        if tainted and not tainted.isdisjoint(node.inputs):
            tainted.update(node.outputs)
            new_nodes.append(node)
            continue
        if node.op in _SHAPE_ONLY_OPS and node.inputs:
            value = graph.values.get(node.inputs[0])
            shape = value.shape if value is not None else None
            if shape:
                attrs = node.attrs
                if node.op == "row_count":
                    folded = np.asarray(shape[0], dtype=np.int64)
                elif node.op == "arange_like":
                    axis = attrs.get("axis", 0)
                    if axis >= len(shape):
                        new_nodes.append(node)
                        continue
                    folded = np.arange(shape[axis], dtype=np.int64)
                else:  # full_like_rows
                    dt = dtypes.by_name(attrs.get("dtype", "float64"))
                    width = attrs.get("width")
                    out_shape = ((shape[0],) if width is None
                                 else (shape[0], int(width)))
                    folded = np.full(out_shape, attrs["value"], dtype=dt.np_dtype)
                graph.initializers[node.outputs[0]] = folded
                continue
        new_nodes.append(node)
    graph.nodes = new_nodes
    return graph


def _all_true_partner(graph: Graph, node: Node, constant_ids: set
                      ) -> "int | None":
    """The other operand of a ``logical_and`` / ``logical_or`` one operand of
    which is an all-true constant, when it is a bool value of the output's
    shape; ``None`` otherwise."""
    if node.op not in ("logical_and", "logical_or") or len(node.inputs) != 2:
        return None
    out = graph.values.get(node.outputs[0])
    for const, other in (node.inputs, node.inputs[::-1]):
        value = graph.values.get(other)
        if (const in constant_ids and value is not None and out is not None
                and out.shape is not None and value.dtype == "bool"
                and value.shape == out.shape
                and np.all(graph.initializers[const])):
            return other
    return None


def constant_folding(graph: Graph) -> Graph:
    """Evaluate nodes whose inputs are all constants and inline the results.

    An all-true constant operand drops out of a ``logical_and`` (its output
    is the other operand) and decides a ``logical_or`` (its output is an
    all-true constant) — what a trace-time-constant validity mask, such as an
    uncorrelated scalar subquery's, leaves in a filter.  The ``logical_or``
    fold bakes the traced shape into the program, so, as in
    ``fold_param_free_shapes``, it applies only where no bind parameter
    reaches the node.
    """
    constant_ids = set(graph.initializers)
    tainted = _param_inputs(graph)
    replacements: dict[int, int] = {}
    new_nodes: list[Node] = []
    for node in graph.nodes:
        node.inputs = [replacements.get(vid, vid) for vid in node.inputs]
        if not tainted.isdisjoint(node.inputs):
            tainted.update(node.outputs)
        foldable = (
            node.op not in _IMPURE_OPS
            and (node.op in _CREATION_OPS or node.inputs)
            and constant_ids.issuperset(node.inputs)
        )
        if not foldable:
            partner = _all_true_partner(graph, node, constant_ids)
            out = node.outputs[0]
            if partner is None or (node.op == "logical_or"
                                   and out in tainted):
                new_nodes.append(node)
            elif node.op == "logical_and":
                replacements[out] = partner
            else:
                graph.initializers[out] = np.ones(graph.values[out].shape,
                                                  bool)
                constant_ids.add(out)
            continue
        inputs = [Tensor(graph.initializers[vid]) for vid in node.inputs]
        outputs = ops.execute_op(node.op, inputs, node.attrs)
        for value_id, tensor in zip(node.outputs, outputs):
            graph.initializers[value_id] = tensor.data
            constant_ids.add(value_id)
    graph.nodes = new_nodes
    graph.outputs = [replacements.get(vid, vid) for vid in graph.outputs]
    return graph


# CSE's node key; ``json.dumps`` with options builds a fresh encoder per call.
_node_key = json.JSONEncoder(sort_keys=True, default=str).encode


def merge_duplicate_initializers(graph: Graph) -> Graph:
    """Collapse constant initializers with identical contents into one value."""
    seen: dict[tuple, int] = {}
    replacements: dict[int, int] = {}
    for value_id, array in list(graph.initializers.items()):
        key = (str(array.dtype), array.shape, array.tobytes())
        if key in seen:
            replacements[value_id] = seen[key]
            del graph.initializers[value_id]
        else:
            seen[key] = value_id
    if replacements:
        for node in graph.nodes:
            node.inputs = [replacements.get(vid, vid) for vid in node.inputs]
        graph.outputs = [replacements.get(vid, vid) for vid in graph.outputs]
    return graph


def common_subexpression_elimination(graph: Graph) -> Graph:
    """Merge structurally identical nodes (same op, inputs, and attributes).

    Duplicate constants are merged first so that e.g. two ``mul(x, 2.0)`` nodes
    tracing two separate ``2.0`` literals are still recognized as identical.
    """
    merge_duplicate_initializers(graph)
    seen: dict[str, Node] = {}
    replacements: dict[int, int] = {}
    new_nodes: list[Node] = []
    for node in graph.nodes:
        node.inputs = [replacements.get(vid, vid) for vid in node.inputs]
        if node.op in _IMPURE_OPS:
            new_nodes.append(node)
            continue
        key = _node_key([node.op, node.inputs,  # the descriptive scope aside
                         {k: v for k, v in node.attrs.items()
                          if k != "scope"}])
        if key in seen:
            original = seen[key]
            for old, new in zip(node.outputs, original.outputs):
                replacements[old] = new
        else:
            seen[key] = node
            new_nodes.append(node)
    graph.nodes = new_nodes
    graph.outputs = [replacements.get(vid, vid) for vid in graph.outputs]
    return graph


def _cast_is_lossless(src: "str | None", mid: str) -> bool:
    """Whether a cast from ``src`` to ``mid`` keeps every value (numpy calls
    int64 -> float64 safe; 53 bits of mantissa say otherwise)."""
    if src is None:
        return False
    a, b = np.dtype(src), np.dtype(mid)
    return np.can_cast(a, b, "safe") and (
        a.kind not in "iu" or b.kind != "f" or a.itemsize < b.itemsize)


def peephole(graph: Graph) -> Graph:
    """Small local rewrites: collapse cast→cast chains whose inner cast loses
    nothing, and drop no-op casts."""

    def dtype_of(vid: int) -> "str | None":
        value = graph.values.get(vid)
        return value.dtype if value is not None else None

    producers: dict[int, Node] = {}
    replacements: dict[int, int] = {}
    new_nodes: list[Node] = []
    for node in graph.nodes:
        node.inputs = [replacements.get(vid, vid) for vid in node.inputs]
        if node.op == "cast" and node.inputs:
            src = node.inputs[0]
            src_node = producers.get(src)
            # cast(cast(x, a), b) -> cast(x, b) when x -> a keeps every value
            if src_node is not None and src_node.op == "cast" and _cast_is_lossless(
                    dtype_of(src_node.inputs[0]), src_node.attrs["dtype"]):
                node.inputs[0] = src_node.inputs[0]
            # cast(x, dtype_of_x) -> x  (only known when the value metadata is present)
            if dtype_of(node.inputs[0]) == node.attrs.get("dtype"):
                replacements[node.outputs[0]] = node.inputs[0]
                continue
        for out in node.outputs:
            producers[out] = node
        new_nodes.append(node)
    graph.nodes = new_nodes
    graph.outputs = [replacements.get(vid, vid) for vid in graph.outputs]
    return graph


def _is_fusible(node: Node) -> bool:
    if node.op in _FUSION_BLOCKLIST or len(node.outputs) != 1:
        return False
    opdef = ops.OP_REGISTRY.get(node.op)
    return opdef is not None and opdef.elementwise


def _row_wise(node: Node) -> bool:
    """Whether output row *r* of ``node`` reads row *r* of its operands only."""
    if node.op == "slice":  # a key that keeps axis 0 whole
        key = node.attrs["key"].get("tuple")
        return bool(key) and key[0] == {"slice": [None, None, None]}
    if node.op in ("all", "any"):  # reduced over an inner axis
        return (node.attrs.get("axis") or 0) > 0
    return node.op == "find" or _is_fusible(node)


def late_materialization(graph: Graph) -> Graph:
    """Gather a column once, through composed row ids, when a non-gather reads it.

    A *row gather* is ``take(x, i, axis=0)`` with a rank-1 ``i``.  A use-list
    walk counts, per row gather, the readers that need it whole (``forcing``:
    all but row gathers on the same shard reading it as data); a forward
    walk rewrites, holding each row gather back until an emitted node reads it:

    * **R1** ``boolean_mask(x, m)``, ``m`` rank-1, is ``take(x, nonzero(m))``:
      one ``nonzero`` per mask and stamp, however many columns it selects.
    * **R2** ``take(take(x, i), j)`` is ``take(x, take(i, j))`` when nothing
      needs the inner gather whole; the ids are composed once per ``(i, j)``.
    * **R3** ``f(take(x, i), ...)`` is ``take(f(x, ...), i)`` for a row-wise
      ``f`` when every operand that reaches the output's axis 0 is gathered
      through ``i`` from as many rows, and ``x`` was traced with no more rows
      than ``i`` (a ``slice``, free where it is, only follows its readers).

    Each is exact at any size: traced shapes decide profitability, and the
    equal row counts of two sources only where no parameter reaches them.
    """
    values = graph.values

    def shape_of(vid: int) -> "tuple | None":
        value = values.get(vid)
        return None if value is None else value.shape

    def rank(vid: int) -> "int | None":
        shape = shape_of(vid)
        return None if shape is None else len(shape)

    def rows(vid: int) -> "int | None":
        return (shape_of(vid) or (None,))[0]

    gathers: dict[int, Node] = {}  # value -> the row gather that defines it
    gathered = gathers.keys()
    views: set[int] = set()  # slice outputs
    forcing = collections.Counter(graph.outputs)
    for node in graph.nodes:
        gather = (node.op == "boolean_mask" or node.op == "take"
                  and node.attrs.get("axis", 0) == 0) and rank(node.inputs[1]) == 1
        if not gathered.isdisjoint(node.inputs):
            forcing.update(
                vid for slot, vid in enumerate(node.inputs)
                if vid in gathers and not (
                    gather and slot == 0
                    and _placement(gathers[vid]) == _placement(node)))
        if not views.isdisjoint(node.inputs) and not _row_wise(node):
            forcing.update(views.intersection(node.inputs))
        if gather:
            gathers[node.outputs[0]] = node
        elif node.op == "slice":
            views.add(node.outputs[0])

    tainted = _param_inputs(graph)
    pending: dict[int, Node] = {}  # row gathers no emitted node reads yet
    memo: dict[tuple, int] = {}
    nodes: list[Node] = []

    def emit(node: Node) -> None:
        for vid in node.inputs:
            if vid in pending:
                emit(pending.pop(vid))
        nodes.append(node)

    def shared(op: str, inputs: list[int], like: Node, shape, dtype, **attrs) -> int:
        """``op(*inputs)`` under ``like``'s stamp: one node per distinct key."""
        key = (op, *inputs, _placement(like))
        if key not in memo:
            memo[key] = graph.new_value(f"{op}_out0", shape, dtype).id
            if not tainted.isdisjoint(inputs):
                tainted.add(memo[key])
            emit(Node(op, inputs, [memo[key]], {**_stamp_of(like), **attrs}))
        return memo[key]

    def sinkable(node: Node) -> dict[int, Node]:
        """R3: the gathers, by operand slot, that ``node`` can run below."""
        held = {slot: gathers[vid] for slot, vid in enumerate(node.inputs)
                if vid in gathers and _placement(gathers[vid]) == _placement(node)}
        out = node.outputs[0]
        if not held or len(node.outputs) > 1 or not _row_wise(node) \
                or node.op == "slice" and forcing[out]:
            return {}
        src, idx = next(iter(held.values())).inputs
        sources = {gather.inputs[0] for gather in held.values()}
        if not rank(out) or None in (rows(src), rows(idx)) or rows(src) > rows(idx) \
                or len(sources) > 1 and tainted & sources:
            return {}
        for slot, vid in enumerate(node.inputs):
            # An operand reaches axis 0 unless it has fewer axes than the output.
            if rank(vid) is None or (slot in held) == (rank(vid) < rank(out)) \
                    or slot in held and (held[slot].inputs[1] != idx
                                         or rows(held[slot].inputs[0]) != rows(src)):
                return {}
        return held

    def visit(node: Node) -> None:
        if tainted and not tainted.isdisjoint(node.inputs):
            tainted.update(node.outputs)
        out = node.outputs[0]
        if out not in gathers and gathered.isdisjoint(node.inputs):
            nodes.append(node)  # most nodes: no gather in sight, nothing pending
        elif gathers.get(out) is node:
            if node.op == "boolean_mask":  # R1
                node.op, node.attrs = "take", {**node.attrs, "axis": 0}
                node.inputs[1] = shared("nonzero", node.inputs[1:], node,
                                        (rows(out),), "int64")
            inner = gathers.get(node.inputs[0])
            if inner and not forcing[inner.outputs[0]] \
                    and _placement(inner) == _placement(node):
                (src, i), j = inner.inputs, node.inputs[1]  # R2
                node.inputs = [src, shared("take", [i, j], node, shape_of(j),
                                           values[i].dtype, axis=0)]
            pending[out] = node
        elif held := sinkable(node):
            src, idx = next(iter(held.values())).inputs
            below = graph.new_value(values[out].name, (rows(src),) + shape_of(out)[1:],
                                    values[out].dtype).id
            forcing.subtract(gather.outputs[0] for gather in held.values())
            visit(Node(node.op, [held[slot].inputs[0] if slot in held else vid
                                 for slot, vid in enumerate(node.inputs)],
                       [below], node.attrs))
            gathers[out] = Node("take", [below, idx], [out],
                                {**_stamp_of(node), "axis": 0})
            visit(gathers[out])
        else:
            emit(node)

    for node in graph.nodes:
        visit(node)
    for vid in graph.outputs:
        if vid in pending:
            emit(pending.pop(vid))
    graph.nodes = nodes
    return graph


def _build_fused_node(group: list[Node], external_used: set[int]) -> Node:
    """Collapse ``group`` (in execution order) into one ``fused_kernel`` node.

    The fused sub-program uses local SSA numbering: the node's external inputs
    occupy slots ``0..k-1`` (in order of first use) and step *j* produces slot
    ``k+j``.  Only values consumed outside the group become node outputs; the
    rest live and die inside the kernel.
    """
    produced = {node.outputs[0] for node in group}
    ext_inputs: list[int] = []
    local: dict[int, int] = {}
    for node in group:
        for vid in node.inputs:
            if vid not in produced and vid not in local:
                local[vid] = len(ext_inputs)
                ext_inputs.append(vid)
    base = len(ext_inputs)
    for j, node in enumerate(group):
        local[node.outputs[0]] = base + j
    steps = [
        {"op": node.op, "inputs": [local[vid] for vid in node.inputs],
         "attrs": {k: v for k, v in node.attrs.items() if k not in Stamp._fields}}
        for node in group
    ]
    exposed = [node.outputs[0] for node in group if node.outputs[0] in external_used]
    if not exposed:  # fully dead group (DCE not run): keep the last value alive
        exposed = [group[-1].outputs[0]]
    # One launch runs in one place: the group shares a shard (the grouping
    # never crosses one), so the stamp of the step producing the first output
    # is the kernel's.
    first = next(node for node in group if node.outputs[0] == exposed[0])
    attrs = {
        "steps": steps,
        "outputs": [local[vid] for vid in exposed],
        "label": "+".join(node.op for node in group),
        **_stamp_of(first),
    }
    return Node("fused_kernel", ext_inputs, exposed, attrs)


def _schedule_for_fusion(graph: Graph) -> None:
    """Topologically reorder ``graph.nodes`` to maximize elementwise runs.

    List scheduling over the dependency DAG with two ready queues: drain
    non-fusible nodes first (stable by original position), and when none are
    ready emit every ready fusible node as one burst — fusible nodes unlocked
    mid-burst join it.  Nodes are pure dataflow, so any topological order
    computes identical results; this one clusters elementwise ops that were
    interleaved with other work (e.g. the arithmetic of two independent join
    pipelines) into contiguous runs the fusion grouping below can merge.
    """
    import heapq

    nodes = graph.nodes
    producer: dict[int, int] = {}
    for i, node in enumerate(nodes):
        for vid in node.outputs:
            producer[vid] = i
    indegree = [0] * len(nodes)
    dependents: list[list[int]] = [[] for _ in nodes]
    for i, node in enumerate(nodes):
        for j in {producer[vid] for vid in node.inputs if vid in producer}:
            indegree[i] += 1
            dependents[j].append(i)
    ready_fusible: list[int] = []
    ready_other: list[int] = []
    for i, node in enumerate(nodes):
        if indegree[i] == 0:
            heapq.heappush(ready_fusible if _is_fusible(node) else ready_other, i)
    order: list[int] = []
    in_burst = False
    while ready_fusible or ready_other:
        if (in_burst and ready_fusible) or not ready_other:
            i = heapq.heappop(ready_fusible)
            in_burst = True
        else:
            i = heapq.heappop(ready_other)
            in_burst = False
        order.append(i)
        for j in dependents[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(
                    ready_fusible if _is_fusible(nodes[j]) else ready_other, j)
    graph.nodes = [nodes[i] for i in order]


def fuse_elementwise(graph: Graph, min_group_size: int = 2) -> Graph:
    """Greedily merge runs of pure elementwise ops into ``fused_kernel`` nodes.

    Nodes are first rescheduled (topologically) to cluster elementwise ops,
    then consecutive nodes whose ops carry the ``elementwise`` registry hint
    are grouped and replaced by a single ``fused_kernel`` node executing the
    same steps in the same order, so results are bit-identical.  The payoff is
    dispatch-count physics: the profiler records one event per fused kernel,
    which makes the simulated GPU's per-launch overhead and the WASM per-op
    dispatch charge scale with *kernels launched* rather than with the length
    of scalar expression chains — exactly what kernel fusion buys on real
    tensor runtimes.
    """
    _schedule_for_fusion(graph)
    runs: list[object] = []
    current: list[Node] = []
    for node in graph.nodes:
        if _is_fusible(node):
            # Never fuse across device shards: a fused kernel is one launch,
            # and one launch cannot run on two simulated devices at once.
            if current and _placement(current[-1]) != _placement(node):
                runs.append(current)
                current = []
            current.append(node)
        else:
            if current:
                runs.append(current)
                current = []
            runs.append(node)
    if current:
        runs.append(current)

    # A group-produced value must surface as a fused-node output when any node
    # of a different group (or the graph output list) consumes it.
    fused_groups = [run for run in runs if isinstance(run, list)
                    and len(run) >= min_group_size]
    member_of: dict[int, int] = {}
    producer_group: dict[int, int] = {}
    for gi, group in enumerate(fused_groups):
        for node in group:
            member_of[id(node)] = gi
            producer_group[node.outputs[0]] = gi
    external_used: dict[int, set[int]] = {gi: set() for gi in range(len(fused_groups))}
    for node in graph.nodes:
        consumer_group = member_of.get(id(node))
        for vid in node.inputs:
            pg = producer_group.get(vid)
            if pg is not None and pg != consumer_group:
                external_used[pg].add(vid)
    for vid in graph.outputs:
        pg = producer_group.get(vid)
        if pg is not None:
            external_used[pg].add(vid)

    new_nodes: list[Node] = []
    gi = 0
    for run in runs:
        if not isinstance(run, list):
            new_nodes.append(run)
        elif len(run) < min_group_size:
            new_nodes.extend(run)
        else:
            new_nodes.append(_build_fused_node(run, external_used[gi]))
            gi += 1
    graph.nodes = new_nodes
    graph.prune_values()
    return graph


DEFAULT_PASSES = (peephole, common_subexpression_elimination,
                  fold_param_free_shapes, constant_folding,
                  dead_code_elimination, late_materialization, fuse_elementwise)


def optimize(graph: Graph, passes=DEFAULT_PASSES, validate: bool = True) -> Graph:
    """Apply ``passes`` in order (on the graph in place) and return it."""
    for pass_fn in passes:
        graph = pass_fn(graph)
    if validate:
        graph.validate()
    return graph
