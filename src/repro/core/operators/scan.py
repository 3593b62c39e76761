"""Table scan: bind a registered tensor table (already converted) to the plan.

Scans are also where **zone-map pruning** happens: the planner attaches the
prunable conjuncts of a filter sitting directly on the scan (see
:mod:`repro.storage.pruning`), and the scan drops every morsel-aligned block
the zone maps rule out *before any kernel touches the block's data*.

Three pruning regimes keep this sound under every backend:

* literal conjuncts always resolve — surviving block ranges are selected with
  ``narrow`` + one ``concat`` per column (and a traced program bakes exactly
  those ranges in, which is correct because the inputs a trace is tied to are
  fixed until the table version changes);
* parameterized conjuncts resolve at **bind time** on the eager backend: every
  execution folds the bound python values into the block check, so rebinding
  re-decides which blocks to skip;
* while a trace is being recorded, parameter values must not influence python
  control flow, so parameterized conjuncts instead lower to tensor ops over
  the zone-map tensors (:func:`repro.storage.pruning.block_mask_tensor`) and a
  per-row gather — the traced program then re-evaluates block survival from
  the runtime parameter inputs on every binding.
"""

from __future__ import annotations

import numpy as np

from repro.core.columnar import TensorTable, morsel_bounds
from repro.core.operators.base import ExecutionContext, TensorOperator
from repro.core.operators.partition import (
    NONE,
    Partitioning,
    concat_rows,
    partition_label,
)
from repro.errors import ExecutionError
from repro.frontend.logical import Field
from repro.tensor import ops
from repro.tensor.tracing import current_trace


def _param_python_values(ctx: ExecutionContext) -> dict:
    """Bound parameter values as python scalars (eager path only)."""
    from repro.core.columnar import LogicalType, decode_strings

    values = {}
    for name, value in ctx.eval_ctx.params.items():
        tensor = value.tensor
        if value.ltype == LogicalType.STRING:
            width = tensor.shape[-1] if tensor.ndim else 1
            decoded = decode_strings(tensor.numpy().reshape(1, width))
            values[name] = str(decoded[0])
        else:
            values[name] = tensor.item()
    return values


class ScanOperator(TensorOperator):
    """Leaf operator: fetch the input tensor table bound to this scan's alias.

    Data conversion (DataFrame → tensor columns) happens in the Executor's
    preparation step, outside the measured query execution, exactly like the
    paper separates data transformation from query execution.
    """

    labels = ("TableScan", "MorselScan")

    def __init__(self, table: str, alias: str, fields: list[Field]):
        super().__init__([])
        self.table = table
        self.alias = alias
        self.fields = fields
        #: Prunable conjuncts attached by the planner (empty = no pruning).
        self.pruning = []

    def _select_fields(self, table) -> TensorTable:
        missing = [f.name for f in self.fields if f.name not in table]
        if missing:
            raise ExecutionError(
                f"input table for {self.alias!r} is missing columns {missing}"
            )
        return table.select([f.name for f in self.fields])

    # -- zone-map pruning ----------------------------------------------------

    def _block_survival(self, ctx: ExecutionContext, stats
                        ) -> tuple[np.ndarray, list]:
        """(surviving-block mask, conjuncts left for the tensor path).

        Literal conjuncts always fold in python.  Parameterized conjuncts fold
        in python only when no trace is recording (their bound values may then
        steer control flow); under a trace they are returned for tensor-level
        handling.
        """
        from repro.storage.pruning import surviving_blocks

        tracing = current_trace() is not None
        static = [c for c in self.pruning if not c.has_params]
        dynamic = [c for c in self.pruning if c.has_params]
        params = None
        if dynamic and not tracing:
            params = _param_python_values(ctx)
        mask = surviving_blocks(static if tracing else static + dynamic,
                                stats, params)
        # Only zone maps that can actually discriminate blocks are worth
        # compiling into the trace; the rest would re-run on every binding
        # without ever skipping anything.
        traced_dynamic = ([c for c in dynamic if c.discriminative]
                          if tracing else [])
        return mask, traced_dynamic

    def _apply_pruning(self, table: TensorTable, ctx: ExecutionContext
                       ) -> TensorTable:
        # The zone maps ride on the input they were converted beside; a
        # row-count mismatch would mean they describe other data (a fault,
        # answered by not pruning).
        stats = table.statistics
        if (not self.pruning or stats is None
                or table.num_rows != stats.row_count):
            return table
        mask, traced_dynamic = self._block_survival(ctx, stats)
        total = len(mask)
        skipped = int(total - mask.sum())
        outcome = ctx.pruning[self.alias] = {
            "blocks_total": total,
            "blocks_skipped": skipped,
            "rows_total": stats.row_count,
            "dynamic": bool(traced_dynamic),
            "conjuncts": [c.describe() for c in self.pruning],
        }
        if skipped:
            table = self._select_blocks(table, mask, stats.block_rows)
        if traced_dynamic:
            table = self._mask_blocks_traced(table, mask, traced_dynamic,
                                             stats, ctx)
        outcome["rows_scanned"] = table.num_rows
        return table

    def _select_blocks(self, table: TensorTable, mask: np.ndarray,
                       block_rows: int) -> TensorTable:
        """Keep only surviving blocks: one ``narrow`` per contiguous run of
        survivors, one ``concat`` per column."""
        bounds = morsel_bounds(table.num_rows, block_rows)
        ranges: list[tuple[int, int]] = []
        for block, (start, length) in enumerate(bounds):
            if not mask[block]:
                continue
            if ranges and ranges[-1][0] + ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], ranges[-1][1] + length)
            else:
                ranges.append((start, length))
        if not ranges:
            return table.slice(0, 0)
        pieces = [table.slice(start, length) for start, length in ranges]
        return concat_rows(pieces)

    def _mask_blocks_traced(self, table: TensorTable, static_mask: np.ndarray,
                            conjuncts: list, stats, ctx: ExecutionContext
                            ) -> TensorTable:
        """Parameterized pruning inside a trace: per-block survival becomes a
        tensor computed from the zone maps and the runtime parameter inputs,
        gathered per row."""
        from repro.storage.pruning import block_mask_tensor

        param_tensors = {name: value.tensor
                         for name, value in ctx.eval_ctx.params.items()}
        block_mask = block_mask_tensor(conjuncts, stats, param_tensors,
                                       device=ctx.device)
        if block_mask is None:
            return table
        # Rows carry the id of the block they came from; after static
        # selection only surviving blocks remain, so ids are compacted.
        surviving = np.flatnonzero(static_mask)
        row_blocks = np.repeat(
            np.arange(len(surviving), dtype=np.int64),
            [min(stats.block_rows,
                 stats.row_count - int(b) * stats.block_rows)
             for b in surviving])
        keep_by_block = ops.take(block_mask,
                                 ops.tensor(surviving, device=ctx.device))
        row_ids = ops.tensor(row_blocks, device=ctx.device)
        return table.mask(ops.take(keep_by_block, row_ids))

    # -- execution -----------------------------------------------------------

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        return self._apply_pruning(
            self._select_fields(ctx.input_table(self.alias)), ctx)

    def describe(self, scheme: Partitioning = NONE) -> str:
        pruned = (f"pruned={len(self.pruning)} conjuncts"
                  if self.pruning and scheme.kind == "none" else "")
        return partition_label(self.labels, scheme, self.table, pruned)
