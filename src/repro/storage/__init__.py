"""Compressed columnar storage: encodings, statistics, and scan pruning.

This package is the storage layer underneath the paper's columnar tensor
representation (``repro.core.columnar``).  It owns three concerns:

* :mod:`repro.storage.encodings` — the compressed column encoding.  String
  columns can be **dictionary-encoded** (``(n,)`` int32 code tensors plus a
  sorted ``(k × m)`` dictionary tensor, replacing the raw ``(n × m)``
  code-point matrix on the hot path).  Decoding is itself a tensor op
  (``take``), so it lazily composes with tracing, devices and the simulated
  cost models, and any operator that cannot work on the codes transparently
  falls back to the decoded form.

* :mod:`repro.storage.statistics` — per-table statistics collected when a
  table is registered: row counts, per-column NDV estimates and null counts,
  and **zone maps** (min / max / non-null count per fixed-size block of rows,
  with blocks aligned to the morsel grid of the parallel operators).

* :mod:`repro.storage.pruning` — compiling conjunctive range / equality / IN
  predicates (including parameterized ones, resolved at bind time) into
  zone-map checks that let scans drop whole blocks before any kernel runs,
  plus the selectivity estimates the planner feeds into its
  parallelism-threshold decisions.
"""

from repro.storage.encodings import (
    DictionaryEncoding,
    dictionary_encode,
    encode_column,
    encode_table,
)
from repro.storage.pruning import (
    PruningConjunct,
    block_mask_tensor,
    estimate_selectivity,
    extract_pruning_conjuncts,
    surviving_blocks,
)
from repro.storage.statistics import (
    BLOCK_ROWS,
    ColumnStatistics,
    TableStatistics,
    compute_table_statistics,
)

__all__ = [
    "BLOCK_ROWS",
    "ColumnStatistics",
    "DictionaryEncoding",
    "PruningConjunct",
    "TableStatistics",
    "block_mask_tensor",
    "compute_table_statistics",
    "dictionary_encode",
    "encode_column",
    "encode_table",
    "estimate_selectivity",
    "extract_pruning_conjuncts",
    "surviving_blocks",
]
