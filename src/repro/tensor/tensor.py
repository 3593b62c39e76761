"""The :class:`Tensor` type of the mini Tensor Computation Runtime (TCR).

A ``Tensor`` is a thin, immutable-by-convention wrapper around a numpy array
plus a :class:`~repro.tensor.device.Device`.  All arithmetic goes through the
functional op layer (``repro.tensor.ops``) so that every operation is visible
to the tracer and the profiler — this is what allows TQP to capture whole
queries as tensor programs, exactly as the paper does with PyTorch.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.errors import DeviceError, TensorRuntimeError
from repro.tensor import dtype as dtypes
from repro.tensor.device import CPU, Device


class Tensor:
    """A dense n-dimensional array on a device.

    Construct tensors with :func:`repro.tensor.ops.tensor` (or the module-level
    re-export ``repro.tensor.tensor``) rather than calling this class directly.
    """

    __slots__ = ("_data", "_device", "trace_value")

    def __init__(self, data: np.ndarray, device: Device = CPU):
        if not isinstance(data, np.ndarray):
            raise TensorRuntimeError("Tensor expects a numpy array; use ops.tensor()")
        self._data = data
        self._device = device
        # Symbolic value assigned by the tracer while a trace is being recorded.
        self.trace_value = None

    # -- basic properties -------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying numpy array (do not mutate)."""
        return self._data

    @property
    def device(self) -> Device:
        return self._device

    @property
    def dtype(self) -> dtypes.DType:
        return dtypes.from_numpy(self._data.dtype)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return int(self._data.size)

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TensorRuntimeError("len() of a 0-d tensor")
        return self.shape[0]

    # -- conversion --------------------------------------------------------

    def numpy(self) -> np.ndarray:
        """Return the tensor contents as a numpy array (always allowed).

        For simulated devices this is the real data the kernels produced; only
        execution *time* is simulated, never values.
        """
        return self._data

    def item(self) -> Any:
        """Return the value of a single-element tensor as a Python scalar."""
        if self.size != 1:
            raise TensorRuntimeError(f"item() requires a single element, got shape {self.shape}")
        return self._data.reshape(()).item()

    def tolist(self) -> list:
        return self._data.tolist()

    def to(self, device: Device | str) -> "Tensor":
        """Move the tensor to another device (recorded as a transfer)."""
        from repro.tensor import ops as _ops

        return _ops.to_device(self, device)

    def astype(self, dt: dtypes.DType | str) -> "Tensor":
        from repro.tensor import ops as _ops

        return _ops.cast(self, dt)

    # -- operator overloads (all dispatch through ops) ---------------------

    def _binary(self, name: str, other: Any, reflected: bool = False) -> "Tensor":
        from repro.tensor import ops as _ops

        fn = getattr(_ops, name)
        if reflected:
            return fn(other, self)
        return fn(self, other)

    def __add__(self, other):
        return self._binary("add", other)

    def __radd__(self, other):
        return self._binary("add", other, reflected=True)

    def __sub__(self, other):
        return self._binary("sub", other)

    def __rsub__(self, other):
        return self._binary("sub", other, reflected=True)

    def __mul__(self, other):
        return self._binary("mul", other)

    def __rmul__(self, other):
        return self._binary("mul", other, reflected=True)

    def __truediv__(self, other):
        return self._binary("div", other)

    def __rtruediv__(self, other):
        return self._binary("div", other, reflected=True)

    def __floordiv__(self, other):
        return self._binary("floordiv", other)

    def __mod__(self, other):
        return self._binary("mod", other)

    def __pow__(self, other):
        return self._binary("pow", other)

    def __neg__(self):
        from repro.tensor import ops as _ops

        return _ops.neg(self)

    def __invert__(self):
        from repro.tensor import ops as _ops

        return _ops.logical_not(self)

    def __and__(self, other):
        return self._binary("logical_and", other)

    def __or__(self, other):
        return self._binary("logical_or", other)

    def __eq__(self, other):  # type: ignore[override]
        return self._binary("eq", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._binary("ne", other)

    def __lt__(self, other):
        return self._binary("lt", other)

    def __le__(self, other):
        return self._binary("le", other)

    def __gt__(self, other):
        return self._binary("gt", other)

    def __ge__(self, other):
        return self._binary("ge", other)

    def __matmul__(self, other):
        return self._binary("matmul", other)

    def __hash__(self) -> int:
        # Identity hashing: __eq__ is elementwise, so tensors are hashable only
        # by identity (mirrors PyTorch semantics).
        return id(self)

    def __getitem__(self, key):
        from repro.tensor import ops as _ops

        if isinstance(key, Tensor):
            if key.dtype is dtypes.bool_:
                return _ops.boolean_mask(self, key)
            return _ops.take(self, key)
        return _ops.slice_(self, key)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.shape}, dtype={self.dtype.name}, "
            f"device={self._device}, data={np.array2string(self._data, threshold=8)})"
        )


def same_device(tensors: Iterable[Tensor]) -> Device:
    """Return the common device of ``tensors``, raising on a mismatch."""
    device: Device | None = None
    for t in tensors:
        if device is None:
            device = t.device
        elif t.device != device:
            raise DeviceError(
                f"tensors are on different devices: {device} vs {t.device}"
            )
    return device if device is not None else CPU
