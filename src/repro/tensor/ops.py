"""Functional tensor operations (the kernel vocabulary of the runtime).

Every relational operator TQP generates is ultimately a composition of the ops
defined here — the same situation as the paper, where relational operators are
expressed with PyTorch ops.  Each op:

* executes eagerly with a numpy kernel,
* reports an event to the active profiler (operator name, bytes moved, wall
  time) — this powers the Figure-2 runtime breakdown and the simulated-device
  cost models, and
* records a node into the active trace, if any — this powers the
  TorchScript-like and ONNX-like compilation targets.

Ops are registered in :data:`OP_REGISTRY` so the graph interpreter can replay
traced programs by name.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import TensorRuntimeError
from repro.tensor import dtype as dtypes
from repro.tensor.device import CPU, Device, parse_device
from repro.tensor.profiler import current_profiler, leading_rows
from repro.tensor.tensor import Tensor, same_device
from repro.tensor.tracing import current_trace


class OpDef:
    """Definition of a primitive operation.

    Attributes:
        name: unique op name used in traces and serialized graphs.
        kernel: function ``(arrays, attrs) -> list[np.ndarray]``.
        n_outputs: number of output tensors the kernel produces.
        elementwise: hint used by graph passes (fusion/CSE) and cost models.
        np_fn: for ops whose kernel is exactly ``[np_fn(*arrays)]`` and
            ignores attrs, the raw numpy callable; the codegen emitter calls
            it directly instead of going through the kernel wrapper.  ``None``
            for every other op.
        specialize: optional ``(attrs) -> fn(*arrays) -> np.ndarray`` factory
            for single-output ops whose kernel does per-call work on ``attrs``
            (decoding a slice key, reading an axis).  A compiled graph knows
            each node's attrs statically, so the emitter binds them once at
            compile time; the kernel stays the dynamic-dispatch reference.
    """

    __slots__ = ("name", "kernel", "n_outputs", "elementwise", "np_fn",
                 "specialize")

    def __init__(
        self,
        name: str,
        kernel: Callable[[list[np.ndarray], dict], list[np.ndarray]],
        n_outputs: int = 1,
        elementwise: bool = False,
        np_fn: "Callable | None" = None,
        specialize: "Callable | None" = None,
    ):
        self.name = name
        self.kernel = kernel
        self.n_outputs = n_outputs
        self.elementwise = elementwise
        self.np_fn = np_fn
        self.specialize = specialize


OP_REGISTRY: dict[str, OpDef] = {}


def register_op(
    name: str, n_outputs: int = 1, elementwise: bool = False,
    np_fn: "Callable | None" = None, specialize: "Callable | None" = None,
) -> Callable[[Callable], Callable]:
    """Register ``kernel`` under ``name`` in the global op registry."""

    def decorator(kernel: Callable) -> Callable:
        if name in OP_REGISTRY:
            raise TensorRuntimeError(f"op {name!r} registered twice")
        OP_REGISTRY[name] = OpDef(name, kernel, n_outputs, elementwise,
                                  np_fn, specialize)
        return kernel

    return decorator


def op_exists(name: str) -> bool:
    return name in OP_REGISTRY


def _record_profile(name: str, inputs: Sequence[Tensor], outputs: Sequence[Tensor],
                    elapsed_s: float, device: Device) -> None:
    prof = current_profiler()
    if prof is None:
        return
    in_bytes = sum(t.nbytes for t in inputs)
    out_bytes = sum(t.nbytes for t in outputs)
    prof.record(name, elapsed_s, in_bytes, out_bytes, device,
                leading_rows(name, inputs, outputs))


def _record_trace(name: str, inputs: Sequence[Tensor], outputs: Sequence[Tensor],
                  attrs: dict) -> None:
    ctx = current_trace()
    if ctx is not None:
        ctx.record(name, inputs, outputs, attrs)


def execute_op(name: str, inputs: Sequence[Tensor], attrs: dict | None = None,
               device: Device | None = None) -> list[Tensor]:
    """Execute a registered op eagerly (profiled, but *not* traced).

    This is the entry point used by the graph interpreter; the public
    functional wrappers below add trace recording on top.
    """
    attrs = attrs or {}
    opdef = OP_REGISTRY.get(name)
    if opdef is None:
        raise TensorRuntimeError(f"unknown op: {name!r}")
    if device is None:
        device = same_device(inputs) if inputs else CPU
    arrays = [t.data for t in inputs]
    start = time.perf_counter()
    results = opdef.kernel(arrays, attrs)
    elapsed = time.perf_counter() - start
    outputs = [Tensor(np.asarray(r), device) for r in results]
    _record_profile(name, inputs, outputs, elapsed, device)
    return outputs


def _apply(name: str, inputs: Sequence[Tensor], attrs: dict | None = None,
           device: Device | None = None) -> Tensor:
    attrs = attrs or {}
    outputs = execute_op(name, inputs, attrs, device)
    _record_trace(name, inputs, outputs, attrs)
    return outputs[0]


def _apply_multi(name: str, inputs: Sequence[Tensor], attrs: dict | None = None,
                 device: Device | None = None) -> list[Tensor]:
    attrs = attrs or {}
    outputs = execute_op(name, inputs, attrs, device)
    _record_trace(name, inputs, outputs, attrs)
    return outputs


def _coerce(value: Any, device: Device | None = None, like: Tensor | None = None) -> Tensor:
    """Turn scalars / arrays into tensors, leaving tensors untouched."""
    if isinstance(value, Tensor):
        return value
    if like is not None and device is None:
        device = like.device
    return tensor(value, device=device)


def _pair(a: Any, b: Any) -> tuple[Tensor, Tensor, Device]:
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        b = _coerce(b, like=a)
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        a = _coerce(a, like=b)
    else:
        a = _coerce(a)
        b = _coerce(b)
    device = same_device([a, b])
    return a, b, device


# ---------------------------------------------------------------------------
# creation / movement / casting
# ---------------------------------------------------------------------------


def tensor(data: Any, dtype: dtypes.DType | str | None = None,
           device: Device | str | None = None) -> Tensor:
    """Create a tensor from a scalar, sequence, or numpy array."""
    dev = parse_device(device)
    if isinstance(data, Tensor):
        arr = data.data
    else:
        arr = np.asarray(data)
    if dtype is not None:
        dt = dtypes.by_name(dtype) if isinstance(dtype, str) else dtype
        arr = arr.astype(dt.np_dtype, copy=False)
    else:
        # Normalize python ints/floats/bools and unsupported widths.
        dtypes.from_numpy(arr.dtype)  # raises for truly unsupported kinds
        arr = arr.astype(dtypes.from_numpy(arr.dtype).np_dtype, copy=False)
    return Tensor(arr, dev)


@register_op("zeros")
def _zeros_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    dt = dtypes.by_name(attrs.get("dtype", "float64"))
    return [np.zeros(tuple(attrs["shape"]), dtype=dt.np_dtype)]


def zeros(shape: Sequence[int] | int, dtype: dtypes.DType | str = "float64",
          device: Device | str | None = None) -> Tensor:
    if isinstance(shape, int):
        shape = (shape,)
    name = dtype if isinstance(dtype, str) else dtype.name
    return _apply("zeros", [], {"shape": list(shape), "dtype": name},
                  device=parse_device(device))


@register_op("full")
def _full_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    dt = dtypes.by_name(attrs.get("dtype", "float64"))
    return [np.full(tuple(attrs["shape"]), attrs["value"], dtype=dt.np_dtype)]


def full(shape: Sequence[int] | int, value: Any, dtype: dtypes.DType | str = "float64",
         device: Device | str | None = None) -> Tensor:
    if isinstance(shape, int):
        shape = (shape,)
    name = dtype if isinstance(dtype, str) else dtype.name
    return _apply("full", [], {"shape": list(shape), "value": value, "dtype": name},
                  device=parse_device(device))


def ones(shape: Sequence[int] | int, dtype: dtypes.DType | str = "float64",
         device: Device | str | None = None) -> Tensor:
    return full(shape, 1, dtype=dtype, device=device)


@register_op("arange")
def _arange_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    dt = dtypes.by_name(attrs.get("dtype", "int64"))
    return [np.arange(attrs["start"], attrs["stop"], attrs["step"], dtype=dt.np_dtype)]


def arange(start: int, stop: int | None = None, step: int = 1,
           dtype: dtypes.DType | str = "int64",
           device: Device | str | None = None) -> Tensor:
    if stop is None:
        start, stop = 0, start
    name = dtype if isinstance(dtype, str) else dtype.name
    return _apply("arange", [],
                  {"start": start, "stop": stop, "step": step, "dtype": name},
                  device=parse_device(device))


# -- shape-polymorphic creation ops -----------------------------------------
#
# ``zeros`` / ``full`` / ``arange`` bake their shape into the traced graph as
# an attribute, which is fine for sizes fixed at compile time but wrong for
# sizes that depend on a *parameter binding* (a prepared query re-executed
# with a new value changes how many rows survive each filter).  The variants
# below take a reference tensor input instead and derive the size from it at
# run time, so traced programs replay correctly under new bindings.


@register_op("row_count")
def _row_count_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.asarray(arrays[0].shape[0], dtype=np.int64)]


def row_count(a: Tensor) -> Tensor:
    """Number of rows of ``a`` as a 0-d int64 tensor (shape read at run time)."""
    return _apply("row_count", [_coerce(a)])


@register_op("full_like_rows")
def _full_like_rows_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    dt = dtypes.by_name(attrs.get("dtype", "float64"))
    width = attrs.get("width")
    n = arrays[0].shape[0]
    shape = (n,) if width is None else (n, int(width))
    return [np.full(shape, attrs["value"], dtype=dt.np_dtype)]


def full_like_rows(ref: Tensor, value: Any, dtype: dtypes.DType | str = "float64",
                   width: int | None = None) -> Tensor:
    """A constant tensor with one row per row of ``ref`` (optionally 2-d)."""
    name = dtype if isinstance(dtype, str) else dtype.name
    attrs: dict = {"value": value, "dtype": name}
    if width is not None:
        attrs["width"] = int(width)
    return _apply("full_like_rows", [_coerce(ref)], attrs)


@register_op("arange_like")
def _arange_like_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.arange(arrays[0].shape[attrs.get("axis", 0)], dtype=np.int64)]


def arange_like(ref: Tensor, axis: int = 0) -> Tensor:
    """``arange(ref.shape[axis])`` with the extent read at run time."""
    return _apply("arange_like", [_coerce(ref)], {"axis": axis})


@register_op("arange_until")
def _arange_until_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.arange(max(0, int(arrays[0])), dtype=np.int64)]


def arange_until(stop: Tensor) -> Tensor:
    """``arange(stop)`` where ``stop`` is the value of a 0-d tensor."""
    return _apply("arange_until", [_coerce(stop)])


@register_op("split_rows", n_outputs=2)
def _split_rows_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    n = arrays[1].shape[0]
    return [arrays[0][:n], arrays[0][n:]]


def split_rows(a: Tensor, head_ref: Tensor) -> tuple[Tensor, Tensor]:
    """Split ``a`` after ``head_ref.shape[0]`` rows (extent read at run time)."""
    ta, tr, device = _pair(a, head_ref)
    head, tail = _apply_multi("split_rows", [ta, tr], device=device)
    return head, tail


@register_op("cast", elementwise=True)
def _cast_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    dt = dtypes.by_name(attrs["dtype"])
    return [arrays[0].astype(dt.np_dtype)]


def cast(a: Tensor, dtype: dtypes.DType | str) -> Tensor:
    name = dtype if isinstance(dtype, str) else dtype.name
    dtypes.by_name(name)  # validate
    return _apply("cast", [a], {"dtype": name})


@register_op("to_device")
def _to_device_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    # Data never actually moves (all kernels are numpy); the event matters for
    # the cost models, which charge PCIe-style transfer time for it.
    return [arrays[0]]


def to_device(a: Tensor, device: Device | str) -> Tensor:
    dev = parse_device(device)
    if dev == a.device:
        return a
    return _apply("to_device", [a], {"device": str(dev)}, device=dev)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _binary_op(name: str, np_fn: Callable) -> Callable[[Any, Any], Tensor]:
    @register_op(name, elementwise=True, np_fn=np_fn)
    def _kernel(arrays: list[np.ndarray], attrs: dict, _fn=np_fn) -> list[np.ndarray]:
        return [_fn(arrays[0], arrays[1])]

    def api(a: Any, b: Any) -> Tensor:
        ta, tb, device = _pair(a, b)
        return _apply(name, [ta, tb], device=device)

    api.__name__ = name
    api.__doc__ = f"Elementwise ``{name}`` with numpy broadcasting."
    return api


add = _binary_op("add", np.add)
sub = _binary_op("sub", np.subtract)
mul = _binary_op("mul", np.multiply)
div = _binary_op("div", np.true_divide)
floordiv = _binary_op("floordiv", np.floor_divide)


def _mod_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.mod``; a signed integer modulo a positive power-of-two scalar is a
    bit mask (identical under floor semantics, negatives included).  Hash
    partitioning by 2/4/8 devices or workers is this case: 187k int64 rows
    take 0.10 ms masked vs 1.0-1.7 ms divided."""
    if getattr(b, "ndim", None) == 0 and b.dtype.kind == "i" and b > 0 \
            and not b & (b - 1) and np.asarray(a).dtype.kind == "i":
        return np.bitwise_and(a, b - 1)
    return np.mod(a, b)


mod = _binary_op("mod", _mod_np)
#: Truncating remainder (C's and SQL's ``%``: the sign of the dividend), where
#: ``mod`` floors (the sign of the divisor, as hashing needs).
fmod = _binary_op("fmod", np.fmod)
pow = _binary_op("pow", np.power)  # noqa: A001 - mirrors torch.pow
minimum = _binary_op("minimum", np.minimum)
maximum = _binary_op("maximum", np.maximum)

eq = _binary_op("eq", np.equal)
ne = _binary_op("ne", np.not_equal)
lt = _binary_op("lt", np.less)
le = _binary_op("le", np.less_equal)
gt = _binary_op("gt", np.greater)
ge = _binary_op("ge", np.greater_equal)

logical_and = _binary_op("logical_and", np.logical_and)
logical_or = _binary_op("logical_or", np.logical_or)


def _unary_op(name: str, np_fn: Callable) -> Callable[[Any], Tensor]:
    @register_op(name, elementwise=True, np_fn=np_fn)
    def _kernel(arrays: list[np.ndarray], attrs: dict, _fn=np_fn) -> list[np.ndarray]:
        return [_fn(arrays[0])]

    def api(a: Any) -> Tensor:
        return _apply(name, [_coerce(a)])

    api.__name__ = name
    api.__doc__ = f"Elementwise ``{name}``."
    return api


neg = _unary_op("neg", np.negative)
abs_ = _unary_op("abs", np.abs)
sqrt = _unary_op("sqrt", np.sqrt)


def _round_np(x: np.ndarray) -> np.ndarray:
    """SQL's ``round`` as sqlite computes it: half away from zero
    (``round(-2.5)`` is -3, where numpy rounds half to even); integers are
    returned as they are."""
    if x.dtype.kind != "f":
        return x
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


round_ = _unary_op("round", _round_np)
logical_not = _unary_op("logical_not", np.logical_not)
relu = _unary_op("relu", lambda x: np.maximum(x, 0))


@register_op("clip", elementwise=True)
def _clip_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.clip(arrays[0], attrs.get("min"), attrs.get("max"))]


def clip(a: Tensor, min_value: float | None = None, max_value: float | None = None) -> Tensor:
    return _apply("clip", [_coerce(a)], {"min": min_value, "max": max_value})


@register_op("where", elementwise=True, np_fn=np.where)
def _where_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.where(arrays[0], arrays[1], arrays[2])]


def where(cond: Tensor, a: Any, b: Any) -> Tensor:
    cond = _coerce(cond)
    a = _coerce(a, like=cond)
    b = _coerce(b, like=cond)
    device = same_device([cond, a, b])
    return _apply("where", [cond, a, b], device=device)


@register_op("isin", np_fn=np.isin)
def _isin_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.isin(arrays[0], arrays[1])]


def isin(a: Tensor, values: Tensor) -> Tensor:
    """Elementwise membership test of ``a`` against the 1-d tensor ``values``."""
    ta, tv, device = _pair(a, values)
    return _apply("isin", [ta, tv], device=device)


# ---------------------------------------------------------------------------
# fused elementwise kernels (produced by passes.fuse_elementwise)
# ---------------------------------------------------------------------------


@register_op("fused_kernel", elementwise=True)
def _fused_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    """Execute a fused chain of elementwise ops as one kernel.

    ``attrs`` holds the fused sub-program in local SSA form: values
    ``0..len(arrays)-1`` are the kernel's inputs, step *j* appends value
    ``len(arrays)+j``, and ``attrs["outputs"]`` lists the local values the
    kernel returns.  Inner kernels are invoked directly on numpy arrays, so a
    fused chain costs one dispatch / one profiler event / one simulated
    kernel launch regardless of its length.
    """
    env: list[np.ndarray] = list(arrays)
    for step in attrs["steps"]:
        opdef = OP_REGISTRY.get(step["op"])
        if opdef is None:
            raise TensorRuntimeError(
                f"fused_kernel references unknown op {step['op']!r}"
            )
        step_inputs = [env[i] for i in step["inputs"]]
        env.extend(opdef.kernel(step_inputs, step.get("attrs") or {}))
    return [env[i] for i in attrs["outputs"]]


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _reduction_op(name: str, np_fn: Callable) -> Callable:
    @register_op(name)
    def _kernel(arrays: list[np.ndarray], attrs: dict, _fn=np_fn) -> list[np.ndarray]:
        axis = attrs.get("axis")
        keepdims = attrs.get("keepdims", False)
        if axis is not None:
            axis = int(axis)
        return [np.asarray(_fn(arrays[0], axis=axis, keepdims=keepdims))]

    def api(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
        return _apply(name, [_coerce(a)], {"axis": axis, "keepdims": keepdims})

    api.__name__ = name
    api.__doc__ = f"Reduction ``{name}`` over ``axis`` (None = all elements)."
    return api


sum_ = _reduction_op("sum", np.sum)
min_ = _reduction_op("min", np.min)
max_ = _reduction_op("max", np.max)
mean = _reduction_op("mean", np.mean)
any_ = _reduction_op("any", np.any)
all_ = _reduction_op("all", np.all)


@register_op("count_nonzero")
def _count_nonzero_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    axis = attrs.get("axis")
    return [np.asarray(np.count_nonzero(arrays[0], axis=axis))]


def count_nonzero(a: Tensor, axis: int | None = None) -> Tensor:
    return _apply("count_nonzero", [_coerce(a)], {"axis": axis})


@register_op("cumsum")
def _cumsum_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.cumsum(arrays[0], axis=attrs.get("axis"))]


def cumsum(a: Tensor, axis: int | None = None) -> Tensor:
    return _apply("cumsum", [_coerce(a)], {"axis": axis})


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


@register_op("reshape")
def _reshape_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [arrays[0].reshape(tuple(attrs["shape"]))]


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return _apply("reshape", [_coerce(a)], {"shape": list(shape)})


@register_op("concat")
def _concat_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.concatenate(arrays, axis=attrs.get("axis", 0))]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    if not ts:
        raise TensorRuntimeError("concat() needs at least one tensor")
    return _apply("concat", ts, {"axis": axis}, device=same_device(ts))


@register_op("stack")
def _stack_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.stack(arrays, axis=attrs.get("axis", 0))]


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    if not ts:
        raise TensorRuntimeError("stack() needs at least one tensor")
    return _apply("stack", ts, {"axis": axis}, device=same_device(ts))


def _slice_specialize(attrs: dict) -> Callable:
    key = _decode_slice_key(attrs["key"])
    return lambda a: a[key]


@register_op("slice", specialize=_slice_specialize)
def _slice_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    key = _decode_slice_key(attrs["key"])
    return [np.asarray(arrays[0][key])]


def _encode_slice_key(key: Any) -> Any:
    """Encode a (possibly nested) slice key into JSON-friendly structures."""
    if isinstance(key, tuple):
        return {"tuple": [_encode_slice_key(k) for k in key]}
    if isinstance(key, slice):
        return {"slice": [key.start, key.stop, key.step]}
    if isinstance(key, (int, np.integer)):
        return {"int": int(key)}
    if key is None:
        return {"none": True}
    if key is Ellipsis:
        return {"ellipsis": True}
    raise TensorRuntimeError(f"unsupported slice key component: {key!r}")


def _decode_slice_key(encoded: Any) -> Any:
    if "tuple" in encoded:
        return tuple(_decode_slice_key(k) for k in encoded["tuple"])
    if "slice" in encoded:
        start, stop, step = encoded["slice"]
        return slice(start, stop, step)
    if "int" in encoded:
        return encoded["int"]
    if "none" in encoded:
        return None
    if "ellipsis" in encoded:
        return Ellipsis
    raise TensorRuntimeError(f"cannot decode slice key: {encoded!r}")


def slice_(a: Tensor, key: Any) -> Tensor:
    """Basic (non-tensor) indexing: ints, slices, tuples thereof."""
    return _apply("slice", [_coerce(a)], {"key": _encode_slice_key(key)})


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Return a contiguous slice of ``length`` elements along ``axis``."""
    key: list[Any] = [slice(None)] * a.ndim
    key[axis] = slice(start, start + length)
    return slice_(a, tuple(key))


@register_op("pad2d")
def _pad2d_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    width = int(attrs["width"])
    value = attrs.get("value", 0)
    a = arrays[0]
    if a.ndim != 2:
        raise TensorRuntimeError("pad2d expects a 2-d tensor")
    if a.shape[1] >= width:
        return [a[:, :width]]
    out = np.full((a.shape[0], width), value, dtype=a.dtype)
    out[:, : a.shape[1]] = a
    return [out]


def pad2d(a: Tensor, width: int, value: Any = 0) -> Tensor:
    """Pad (or truncate) the second dimension of a 2-d tensor to ``width``.

    Used to align string tensors of different maximum lengths before
    comparisons, as required by the paper's padded string representation.
    """
    return _apply("pad2d", [_coerce(a)], {"width": width, "value": value})


@register_op("find")
def _find_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    """Candidate refinement over the flat code buffer: dense ``==`` passes mark
    the cells where the needle's first two code points begin, then each further
    needle position keeps the candidates whose ``j``-th successor matches —
    ``n * m`` work plus a shrinking list, no ``(n, m - k + 1, k)`` window
    tensor.  The seed is a pair because ``flatnonzero`` pays per hit: of 30k x
    59 TPC-H comment cells, 121k hold ``'s'`` (2.8 ms to list), 4k hold
    ``'sp'`` (0.4 ms, plus 0.5 ms for the second pass).
    """
    codes, start = arrays
    needle = attrs["needle"]
    if codes.ndim != 2:
        raise TensorRuntimeError("find expects a 2-d tensor")
    n, m = codes.shape
    k = len(needle)
    out = np.full(n, -1, dtype=np.int64)
    if k > m or n == 0:
        return [out]
    flat = np.ascontiguousarray(codes).reshape(-1)
    last = flat.size - k + 1
    seed = flat[:last] == needle[0]
    if k > 1:
        seed &= flat[1:last + 1] == needle[1]
    hits = np.flatnonzero(seed)
    for j in range(2, k):
        hits = hits[flat[hits + j] == needle[j]]
    # Hits are flat offsets: one whose column is past ``m - k`` ran into the
    # next row.  Dropped here, where few are left to divide.
    row, col = np.divmod(hits, m)
    keep = (col <= m - k) & (col >= np.broadcast_to(start, (n,))[row])
    row, col = row[keep], col[keep]
    # Hits ascend, so a row's earliest match is the first of its run.
    first = np.ones(row.size, dtype=bool)
    first[1:] = row[1:] != row[:-1]
    out[row[first]] = col[first]
    return [out]


def find(codes: Tensor, start: Any, needle: Sequence[int]) -> Tensor:
    """Per row of a 2-d code tensor, the column where ``needle`` (non-empty
    code points) first occurs at or after ``start`` (per row or scalar; negative
    means 0), ``-1`` when nowhere: ``str.find``.  Under ``LIKE`` and ``contains``.
    """
    needle = [int(code) for code in needle]
    if not needle:
        raise TensorRuntimeError("find() needs a non-empty needle")
    tc, ts, device = _pair(codes, start)
    return _apply("find", [tc, ts], {"needle": needle}, device=device)


# ---------------------------------------------------------------------------
# gather / scatter / selection
# ---------------------------------------------------------------------------


def _take_specialize(attrs: dict) -> Callable:
    axis = attrs.get("axis", 0)
    return lambda a, idx: np.take(a, idx, axis=axis)


@register_op("take", specialize=_take_specialize)
def _take_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.take(arrays[0], arrays[1], axis=attrs.get("axis", 0))]


def take(a: Tensor, indices: Tensor, axis: int = 0) -> Tensor:
    """Gather rows (or elements along ``axis``) of ``a`` at ``indices``."""
    ta, ti, device = _pair(a, indices)
    return _apply("take", [ta, ti], {"axis": axis}, device=device)


def _boolean_mask_np(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    if mask.dtype != np.bool_:
        mask = mask.astype(bool)
    return a[mask]


@register_op("boolean_mask", np_fn=_boolean_mask_np)
def _boolean_mask_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [_boolean_mask_np(arrays[0], arrays[1])]


def boolean_mask(a: Tensor, mask: Tensor) -> Tensor:
    """Compact the rows of ``a`` selected by boolean ``mask``."""
    ta, tm, device = _pair(a, mask)
    return _apply("boolean_mask", [ta, tm], device=device)


def _nonzero_np(a: np.ndarray) -> np.ndarray:
    return np.nonzero(a)[0].astype(np.int64, copy=False)


@register_op("nonzero", np_fn=_nonzero_np)
def _nonzero_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [_nonzero_np(arrays[0])]


def nonzero(mask: Tensor) -> Tensor:
    """Indices of True entries of a 1-d boolean tensor."""
    return _apply("nonzero", [_coerce(mask)])


# Scatter/segment reductions accept their output size either as a baked int
# attribute or — for prepared-statement replay, where a rebound parameter can
# change how many rows/groups survive a filter — as a trailing 0-d int tensor
# input whose *value* is read at run time (attrs["size"] == "input").


def _scatter_size(arrays: list[np.ndarray], attrs: dict,
                  key: str = "size") -> tuple[list[np.ndarray], int]:
    if attrs.get(key) == "input":
        return arrays[:-1], int(arrays[-1])
    return arrays, int(attrs.get(key, 0))


def _scatter_inputs(inputs: list[Tensor], size: "int | Tensor",
                    attrs: dict, key: str = "size") -> list[Tensor]:
    if isinstance(size, Tensor):
        attrs[key] = "input"
        return inputs + [size]
    attrs[key] = int(size)
    return inputs


@register_op("scatter_add")
def _scatter_add_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    arrays, size = _scatter_size(arrays, attrs)
    index, values = arrays
    if values.dtype.kind == "f" and index.ndim == 1 and values.ndim == 1:
        # bincount accumulates out[index[i]] += values[i] in the same pass
        # order as np.add.at, already in float64, and is much faster.  On an
        # empty index numpy returns int64, so the cast keeps the dtype.
        return [np.bincount(index, weights=values, minlength=size)
                .astype(np.float64, copy=False)]
    out = np.zeros(size, dtype=np.result_type(values.dtype, np.float64)
                   if values.dtype.kind == "f" else values.dtype)
    np.add.at(out, index, values)
    return [out]


def scatter_add(index: Tensor, values: Tensor, size: "int | Tensor") -> Tensor:
    """``out[index[i]] += values[i]`` over a fresh zero tensor of ``size``."""
    ti, tv, device = _pair(index, values)
    attrs: dict = {}
    inputs = _scatter_inputs([ti, tv], size, attrs)
    return _apply("scatter_add", inputs, attrs, device=device)


@register_op("scatter_min")
def _scatter_min_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    arrays, size = _scatter_size(arrays, attrs)
    index, values = arrays
    if values.dtype.kind == "f":
        fill = np.inf
    elif values.dtype.kind == "b":
        fill = True
    else:
        fill = np.iinfo(values.dtype).max
    out = np.full(size, fill, dtype=values.dtype)
    np.minimum.at(out, index, values)
    return [out]


def scatter_min(index: Tensor, values: Tensor, size: "int | Tensor") -> Tensor:
    ti, tv, device = _pair(index, values)
    attrs: dict = {}
    inputs = _scatter_inputs([ti, tv], size, attrs)
    return _apply("scatter_min", inputs, attrs, device=device)


@register_op("scatter_max")
def _scatter_max_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    arrays, size = _scatter_size(arrays, attrs)
    index, values = arrays
    if values.dtype.kind == "f":
        fill = -np.inf
    elif values.dtype.kind == "b":
        fill = False
    else:
        fill = np.iinfo(values.dtype).min
    out = np.full(size, fill, dtype=values.dtype)
    np.maximum.at(out, index, values)
    return [out]


def scatter_max(index: Tensor, values: Tensor, size: "int | Tensor") -> Tensor:
    ti, tv, device = _pair(index, values)
    attrs: dict = {}
    inputs = _scatter_inputs([ti, tv], size, attrs)
    return _apply("scatter_max", inputs, attrs, device=device)


@register_op("bincount")
def _bincount_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    arrays, minlength = _scatter_size(arrays, attrs, key="minlength")
    if len(arrays) > 1:
        return [np.bincount(arrays[0], weights=arrays[1], minlength=minlength)]
    return [np.bincount(arrays[0], minlength=minlength).astype(np.int64)]


def bincount(index: Tensor, weights: Tensor | None = None,
             minlength: "int | Tensor" = 0) -> Tensor:
    inputs = [_coerce(index)]
    if weights is not None:
        inputs.append(_coerce(weights, like=inputs[0]))
    attrs: dict = {}
    inputs = _scatter_inputs(inputs, minlength, attrs, key="minlength")
    return _apply("bincount", inputs, attrs, device=same_device(inputs[:1]))


# ---------------------------------------------------------------------------
# sorting / searching / grouping
# ---------------------------------------------------------------------------


# Key densification picks its algorithm per call, inside the kernel, from the
# keys it is handed: bounded integer keys (TPC-H keys, dictionary codes, ids
# that are already dense) are addressed directly in O(n + range); everything
# else (floats, epoch-ns dates, sparse domains) keeps the comparison sort.
# Nothing is baked into a traced program, so one compiled plan may take
# either path on different bindings, and both paths return identical arrays
# (``join_ids``' paths number keys differently; equal keys always share an id).

#: The direct-address limit of ``unique`` (a presence table, ``max - min``)
#: and ``join_ids`` (keys as ids, ``max``), see :func:`_direct_limit`: under
#: ``DIRECT_ADDRESS_SLACK * n``, or under ``DIRECT_ADDRESS_MIN_SPAN`` for a
#: handful of rows.  Measured for ``unique`` on int64 keys, direct vs sorted,
#: in ms: n=120k: span 4k 0.25 vs 3.6, span 4n 2.1 vs 3.9, span 8n 4.2 vs 3.8
#: (the crossover); n=1M: 4n 37 vs 53, 8n 67 vs 50; n=10: span 4k 0.010 vs
#: 0.013, span 16k 0.017 vs 0.013.  The tables are three arrays of ``span + 1``.
DIRECT_ADDRESS_SLACK = 4
DIRECT_ADDRESS_MIN_SPAN = 4096

#: Stable ``argsort`` runs an LSD radix sort over 16-bit digits from this many
#: rows up.  Measured against numpy's timsort on random int64 keys, in ms:
#: n=120k: 0.9 (1 digit) to 4.5 (4 digits) vs 10.8; n=10k: 0.06 to 0.29 vs
#: 0.63; n=1k: 0.009 to 0.036 vs 0.018 (the crossover); n=100: 0.005 to 0.016
#: vs 0.002.
RADIX_ARGSORT_MIN_ROWS = 2048
_RADIX_DIGIT_BITS = 16


def _direct_limit(n: int) -> int:
    """``n`` keys are addressed directly while their span (``unique``) or
    largest key (``join_ids``) stays below this."""
    return max(DIRECT_ADDRESS_MIN_SPAN, DIRECT_ADDRESS_SLACK * n)


def _integer_span(a: np.ndarray) -> "tuple[int, int] | None":
    """``(min, max - min)`` of a non-empty 1-d integer array, else ``None``.

    Python ints, so the span of keys near ±2**63 never wraps.
    """
    if a.ndim != 1 or a.dtype.kind not in "iu" or a.size == 0:
        return None
    low = int(a.min())
    return low, int(a.max()) - low


def _offset_keys(a: np.ndarray, low: int) -> np.ndarray:
    """``a - low`` as int64; exact whenever the span fits 63 bits."""
    if a.dtype == np.uint64:
        return (a - np.uint64(low)).astype(np.int64)
    return a.astype(np.int64, copy=False) - low


def _radix_argsort(a: np.ndarray, low: int, span: int) -> np.ndarray:
    """Stable argsort by least-significant-digit radix passes.

    numpy's stable sort of 16-bit integers is itself a radix (counting) sort,
    so each pass is O(n); a key spanning ``b`` bits takes ``ceil(b / 16)``.
    """
    keys = _offset_keys(a, low)
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = _RADIX_DIGIT_BITS
    while span >> shift:
        digit = (keys >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += _RADIX_DIGIT_BITS
    return order


@register_op("argsort")
def _argsort_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    a = arrays[0]
    kind = attrs.get("kind", "stable")
    if kind == "stable" and a.size >= RADIX_ARGSORT_MIN_ROWS \
            and a.dtype.itemsize * 8 > _RADIX_DIGIT_BITS:
        bounds = _integer_span(a)
        # Keys already in order stay with timsort, which is O(n) on them: the
        # clustered build side of an N:M join (key builds no longer sort, so 2
        # of the 13 calls of this size in a 22-query TPC-H sweep, SF 0.02:
        # Q21's lineitem self-joins; it was 17 of 26).  Sorted, 2 digits: 75k
        # rows 0.06 vs 2.3 ms radix, 300k 0.30 vs 9.7 ms; 1 digit, 120k: 0.10
        # vs 0.21 ms.  The scan costs 0.04 ms per 120k rows.
        if bounds is not None and not bounds[1] >> 63 \
                and (a[1:] < a[:-1]).any():
            return [_radix_argsort(a, *bounds).astype(np.int64, copy=False)]
    return [np.argsort(a, kind=kind, axis=attrs.get("axis", -1)).astype(np.int64)]


def argsort(a: Tensor, axis: int = -1, stable: bool = True) -> Tensor:
    return _apply("argsort", [_coerce(a)],
                  {"axis": axis, "kind": "stable" if stable else "quicksort"})


@register_op("sort")
def _sort_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.sort(arrays[0], kind="stable", axis=attrs.get("axis", -1))]


def sort(a: Tensor, axis: int = -1) -> Tensor:
    return _apply("sort", [_coerce(a)], {"axis": axis})


@register_op("lexsort")
def _lexsort_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    # numpy lexsort: the *last* key is the primary key.
    return [np.lexsort(tuple(arrays)).astype(np.int64)]


def lexsort(keys: Sequence[Tensor]) -> Tensor:
    """Indirect sort over multiple keys; the last key is the primary key."""
    ts = [_coerce(k) for k in keys]
    if not ts:
        raise TensorRuntimeError("lexsort() needs at least one key")
    return _apply("lexsort", ts, device=same_device(ts))


def _direct_unique(a: np.ndarray, low: int, span: int) -> list[np.ndarray]:
    """``unique`` over a presence table: ``bincount`` the offset keys, then
    number the occupied slots in order and read each key's number back."""
    keys = _offset_keys(a, low)
    table = np.bincount(keys, minlength=span + 1)
    present = np.flatnonzero(table > 0)
    # Wrapping arithmetic in the key dtype lands back on the exact key.
    values = present.astype(a.dtype) + a.dtype.type(low)
    if present.size == table.size:  # already dense: the offset key is the id
        return [values, keys, table]
    rank = np.empty(table.size, dtype=np.int64)
    rank[present] = np.arange(present.size)
    return [values, rank[keys], table[present]]


@register_op("unique", n_outputs=3)
def _unique_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    a = arrays[0]
    bounds = _integer_span(a)
    if bounds is not None and bounds[1] < _direct_limit(a.size):
        return _direct_unique(a, *bounds)
    values, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return [values, inverse.astype(np.int64), counts.astype(np.int64)]


def unique(a: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Sorted unique values, inverse indices, and counts of a 1-d tensor."""
    out = _apply_multi("unique", [_coerce(a)])
    return out[0], out[1], out[2]


@register_op("join_ids", n_outputs=3)
def _join_ids_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    left, right = arrays
    if left.dtype == right.dtype == np.int64:
        low = min((int(a.min()) for a in arrays if a.size), default=0)
        high = max((int(a.max()) for a in arrays if a.size), default=-1)
        if low >= 0 and high < _direct_limit(left.size + right.size):
            return [left, right, np.asarray(high + 1, dtype=np.int64)]
    values, ids, _ = _unique_kernel([np.concatenate([left, right])], {})
    return [ids[:left.size], ids[left.size:],
            np.asarray(values.size, dtype=np.int64)]


def join_ids(left: Tensor, right: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """``(left ids, right ids, id count)`` of two 1-d key columns of one dtype:
    equal keys get equal int64 ids in ``0..count-1``, bounded but not dense.

    Per call: non-negative int64 keys under the direct-address limit are their
    own ids (the inputs come back as outputs, which is safe because no kernel
    writes into an input); anything else is densified by one joint ``unique``
    into ids in key order.
    """
    tl, tr, device = _pair(left, right)
    out = _apply_multi("join_ids", [tl, tr], device=device)
    return out[0], out[1], out[2]


@register_op("repeat")
def _repeat_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.repeat(arrays[0], arrays[1], axis=attrs.get("axis"))]


def repeat(a: Tensor, repeats: Tensor, axis: int | None = None) -> Tensor:
    """Repeat each element of ``a`` by the matching count in ``repeats``.

    The building block for materializing ragged join matches as flat index
    vectors (left row *i* appears ``repeats[i]`` times).
    """
    ta, tr, device = _pair(a, repeats)
    return _apply("repeat", [ta, tr], {"axis": axis}, device=device)


@register_op("matmul")
def _matmul_kernel(arrays: list[np.ndarray], attrs: dict) -> list[np.ndarray]:
    return [np.matmul(arrays[0], arrays[1])]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ta, tb, device = _pair(a, b)
    return _apply("matmul", [ta, tb], device=device)


# Convenient python-keyword-free aliases (mirroring torch naming).
absolute = abs_
reduce_sum = sum_
reduce_min = min_
reduce_max = max_
reduce_mean = mean
reduce_any = any_
reduce_all = all_
