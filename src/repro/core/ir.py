"""TQP's internal Intermediate Representation (IR).

The parsing layer converts the frontend's optimized plan into this IR (paper
§2.2), choosing each join's algorithm on the way.  Keeping the IR independent
from the frontend's plan classes is what lets TQP plug different frontend
database systems: anything that can be expressed as these IR operators can be
compiled to tensor programs.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.frontend.logical import Field

#: IR operator vocabulary.
SCAN = "scan"
FILTER = "filter"
PROJECT = "project"
HASH_JOIN = "hash_join"
NESTED_LOOP_JOIN = "nested_loop_join"
HASH_AGGREGATE = "hash_aggregate"
SORT = "sort"
LIMIT = "limit"
DISTINCT = "distinct"
RENAME = "rename"

ALL_OPS = (SCAN, FILTER, PROJECT, HASH_JOIN, NESTED_LOOP_JOIN, HASH_AGGREGATE,
           SORT, LIMIT, DISTINCT, RENAME)


@dataclasses.dataclass(eq=False)
class IRNode:
    """One IR operator: an op name, children, attributes, and output fields."""

    op: str
    children: list["IRNode"]
    attrs: dict[str, Any]
    fields: list[Field]

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def op_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.walk():
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def pretty(self, indent: int = 0) -> str:
        label = self.op
        if self.op == SCAN:
            label += f"({self.attrs['table']})"
        if self.op == PROJECT:
            label += f"({', '.join(self.attrs['names'])})"
        if self.op in (HASH_JOIN, NESTED_LOOP_JOIN):
            label += f"[{self.attrs['kind']}]"
        lines = ["  " * indent + label]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)
