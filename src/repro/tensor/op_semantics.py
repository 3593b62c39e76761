"""Shared op-node semantics: one implementation per op, two executors.

Traced graphs are executed by two backends — the node-by-node
:class:`~repro.tensor.interpreter.GraphInterpreter` and the codegen executor
(:mod:`repro.tensor.codegen`), which lowers a whole graph into one generated
Python function.  Both MUST agree exactly on what each node does: the kernel
that runs, how many outputs it produces, and the special-case rules
(``to_device`` forwarding, fused-step unrolling, profile-event content) that
the simulated device cost models depend on.  Where a node ran is not one of
them: it is the :class:`~repro.tensor.profiler.Stamp` in the node's attrs,
which the interpreter re-enters and the emitter writes out as literals.

This module is the single place those semantics live.  The executors consume
it; neither implements an op of its own — ``tools/lint_op_registry.py``
enforces that invariant in CI.  The kernels themselves are registered once in
:data:`repro.tensor.ops.OP_REGISTRY` (including the shape-polymorphic ops used
by prepared-statement replay and the multi-part encoded-input layout, which
need no special handling here: their size polymorphism lives inside the
kernels).
"""

from __future__ import annotations

from repro.errors import TensorRuntimeError
from repro.tensor import ops
from repro.tensor.device import Device, parse_device

#: The one op whose node execution is not a plain kernel call: a traced
#: transfer whose input already lives on the target device is forwarded
#: without dispatching (and without a profile event), so cost models never
#: charge the same PCIe move twice.
TRANSFER_OP = "to_device"


def is_registered(op: str) -> bool:
    """Whether ``op`` has a kernel in the shared registry."""
    return ops.op_exists(op)


def resolve(op: str) -> ops.OpDef:
    """The registry entry for ``op`` (kernel, output count, elementwise hint).

    Raises :class:`~repro.errors.TensorRuntimeError` for unknown ops — the
    same error either executor would surface at dispatch time.
    """
    opdef = ops.OP_REGISTRY.get(op)
    if opdef is None:
        raise TensorRuntimeError(f"unknown op: {op!r}")
    return opdef


def kernel(op: str):
    """The raw array kernel ``(arrays, attrs) -> list[np.ndarray]`` for ``op``."""
    return resolve(op).kernel


def inline_np_fn(op: str):
    """The raw numpy callable behind ``op``, or ``None``.

    Only set (in the registry, at registration time) for ops whose kernel is
    exactly ``[np_fn(*arrays)]`` with attrs ignored — for those the emitter
    may call the numpy function directly instead of the kernel wrapper, which
    is observationally identical and skips a tuple/list/index per node.
    """
    return resolve(op).np_fn


def specialized_fn(op: str, attrs: dict):
    """``fn(*arrays) -> np.ndarray`` with ``attrs`` bound, or ``None``.

    Registry ops may provide a ``specialize`` factory (see
    :class:`~repro.tensor.ops.OpDef`) that hoists per-call attr handling —
    decoding a slice key, reading an axis — to compile time.  Only the
    codegen executor can use it (node attrs are static there); the
    interpreter keeps dispatching the reference kernel.
    """
    factory = resolve(op).specialize
    return None if factory is None else factory(attrs)


def transfer_target(attrs: dict) -> Device:
    """The destination device of a traced ``to_device`` node."""
    return parse_device(attrs.get("device"))


def transfer_is_noop(source: Device, target: Device) -> bool:
    """Whether a traced transfer from ``source`` to ``target`` is forwarded.

    Shared by both executors so the profile-event streams (and therefore the
    simulated transfer accounting) stay identical between interpreted replay
    and compiled execution.
    """
    return source == target


#: Ops that move data between simulated devices: none, since a device count
#: is a price over the serial program.  Kept empty for the performance
#: ledger, which still counts events of these ops.
EXCHANGE_OPS: frozenset = frozenset()


#: The fused-elementwise op: its attrs carry a local-SSA sub-program (see
#: ``passes.fuse_elementwise``).  The interpreter dispatches it as one kernel
#: that loops the steps; the codegen executor unrolls the same steps into
#: straight-line calls of the same registry kernels.  Either way it costs one
#: profile event / one simulated launch.
FUSED_OP = "fused_kernel"


def fused_steps(attrs: dict) -> tuple[list[dict], list[int]]:
    """The ``(steps, output slots)`` of a fused node's local-SSA program.

    Slot numbering matches the fused kernel: slots ``0..n_inputs-1`` are the
    node's inputs, step *j* defines slot ``n_inputs + j``.
    """
    return list(attrs["steps"]), list(attrs["outputs"])


def op_unsupported_reason(op: str) -> "str | None":
    """Why a node op cannot be executed, or ``None`` when it can.

    Registry membership is the only per-op requirement either executor has:
    the interpreter dispatches by name, the emitter closes over the same
    kernel.  Anything in the registry is executable by both — the property
    the CI lint asserts.
    """
    if not is_registered(op):
        return f"op {op!r} is not in the op registry"
    return None
