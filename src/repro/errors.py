"""Exception hierarchy for the TQP reproduction.

Every layer of the stack raises a subclass of :class:`TQPError`, so callers can
catch one exception type at the public-API boundary while tests can assert on
the specific failure mode.
"""

from __future__ import annotations


class TQPError(Exception):
    """Base class for all errors raised by this library."""


class TensorRuntimeError(TQPError):
    """Raised by the tensor runtime substrate (``repro.tensor``)."""


class DeviceError(TensorRuntimeError):
    """Raised for unknown devices or illegal cross-device operations."""


class DTypeError(TensorRuntimeError):
    """Raised for unsupported or mismatched tensor dtypes."""


class GraphError(TensorRuntimeError):
    """Raised for malformed tensor graphs (missing inputs, cycles, ...)."""


class CodegenError(GraphError):
    """Raised when a graph cannot be lowered to generated code.

    The message states the unsupported construct.  Nothing catches it: the
    default ``compiled`` executor surfaces it at first execution instead of
    changing path.
    """


class SQLError(TQPError):
    """Base class for SQL frontend errors."""


class SQLSyntaxError(SQLError):
    """Raised when the SQL text cannot be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}, column {column})"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class AnalysisError(SQLError):
    """Raised when a parsed query fails semantic analysis (unknown column, ...)."""


class CatalogError(SQLError):
    """Raised for unknown tables or conflicting registrations."""


class PlanningError(TQPError):
    """Raised when a plan cannot be lowered to the next layer."""


class UnsupportedOperationError(PlanningError):
    """Raised when a query uses a feature the compiler does not support."""


class ExecutionError(TQPError):
    """Raised when an executor fails at runtime."""


class BindingError(ExecutionError):
    """Raised when prepared-statement parameter bindings are invalid.

    Covers missing values, unknown parameter names, and ill-typed values; the
    message always names the offending parameter(s).
    """


class BatchBindingError(BindingError):
    """Raised when one binding inside an ``execute_many`` batch is invalid.

    Carries the 0-based :attr:`index` of the offending request, so a serving
    layer can fail exactly that request; the executor's cached program,
    converters and the other bindings of the batch stay usable.
    """

    def __init__(self, index: int, cause: BindingError):
        super().__init__(f"batch request {index}: {cause}")
        #: 0-based position of the bad binding in the submitted batch.
        self.index = index
        #: The underlying :class:`BindingError`.
        self.cause = cause


class ServingError(ExecutionError):
    """Base class for errors raised by the concurrent serving runtime."""


class AdmissionError(ServingError):
    """Raised when the serving runtime rejects a request at admission.

    The runtime bounds its pending queue; once the bound is reached new
    submissions fail fast with this error instead of queueing unboundedly.
    """

    def __init__(self, message: str, queue_depth: int | None = None):
        super().__init__(message)
        #: Pending-queue depth observed at rejection time.
        self.queue_depth = queue_depth


class RequestTimeoutError(ServingError):
    """Raised when a serving request exceeded its timeout before completing.

    A request that times out while still queued is never executed; one that
    already started executing runs to completion, but waiting on its ticket
    past the deadline raises this error.
    """


class ModelError(TQPError):
    """Raised by the ML model layer (unknown model, bad shapes, not fitted)."""
