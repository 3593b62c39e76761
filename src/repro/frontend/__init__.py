"""Spark-like SQL frontend: parser, analyzer and optimizer.

The frontend plays the role Apache Spark plays for TQP in the paper: it turns
SQL text into the optimized plan that TQP's parsing layer reads into its IR
(and the row-engine baseline executes).  A join in that plan carries its
algorithm: with extracted keys it is a hash join, without them a nested-loop
join (:attr:`repro.frontend.logical.LogicalJoin.predicate`).
"""

from repro.frontend.analyzer import Analyzer
from repro.frontend.catalog import Catalog, TableSchema
from repro.frontend.logical import LogicalNode
from repro.frontend.optimizer import optimize
from repro.frontend.parser import parse

__all__ = [
    "Analyzer",
    "Catalog",
    "LogicalNode",
    "TableSchema",
    "optimize",
    "parse",
    "sql_to_physical",
]


def sql_to_physical(sql: str, catalog: Catalog, optimized: bool = True,
                    param_types: dict | None = None) -> LogicalNode:
    """Full frontend pipeline: parse, analyze and (unless ``optimized`` is
    false) optimize ``sql`` into the plan handed to TQP.

    ``param_types`` optionally hints the logical type of bind parameters by
    name (see :class:`repro.frontend.analyzer.Analyzer`).
    """
    plan = Analyzer(catalog, param_types=param_types).analyze(parse(sql))
    return optimize(plan) if optimized else plan
