"""TQP core: the compilation stack from frontend plans to tensor programs."""

from repro.core.columnar import LogicalType, TensorColumn, TensorTable
from repro.core.executor import ExecutionResult, Executor
from repro.core.session import CompiledQuery, TQPSession

__all__ = [
    "CompiledQuery",
    "ExecutionResult",
    "Executor",
    "LogicalType",
    "TQPSession",
    "TensorColumn",
    "TensorTable",
]
