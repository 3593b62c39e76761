#!/usr/bin/env python
"""CI lint: both graph executors consume the one shared op registry.

The interpreter (:mod:`repro.tensor.interpreter`) and the codegen executor
(:mod:`repro.tensor.codegen`) must agree exactly on every op, which they do
by construction *only* as long as neither implements or special-cases an op
privately — all per-op knowledge has to live in
:mod:`repro.tensor.op_semantics` / :data:`repro.tensor.ops.OP_REGISTRY`.
This script asserts that invariant statically and fails the build when it
rots:

1. every registered op is reported executable for *both* executors by the
   shared ``op_semantics.op_unsupported_reason`` predicate;
2. neither executor module registers ops of its own (no ``register_op``);
3. neither executor module hard-codes a registry op name as a string
   constant — dispatch must stay name-generic.  The two shared sentinels
   (``to_device`` transfers, ``fused_kernel``) are exempt because their
   special-case rules are themselves defined in ``op_semantics``;
4. both executor modules import ``op_semantics``;
5. the planner, the join / grouping operators and the partition module
   gate on :mod:`repro.core.tuning` constants, never on hard-coded threshold
   literals (which the adaptive runtime could not override);
6. the cost models read the lanes structure of a profile from the one
   ``backends.base.split_partitions`` — no model splits events on its own;
7. operators and expressions never read a tensor on the host (``.numpy()`` /
   ``.item()``) outside :data:`HOST_READ_ALLOWED`: a traced program must not
   depend on the values its trace saw;
8. nothing under ``src/repro/tensor/`` reads or writes a lanes stamp (a
   ``lanes=`` argument, a ``.lanes`` attribute or a ``"lanes"`` key): a lanes
   width lives on the plan (``OperatorPlan.lanes``), never in the program.

Run from the repository root: ``python tools/lint_op_registry.py``
(``PYTHONPATH=src``, as in CI).
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.tensor import op_semantics, ops  # noqa: E402

EXECUTOR_MODULES = (
    REPO_ROOT / "src" / "repro" / "tensor" / "interpreter.py",
    REPO_ROOT / "src" / "repro" / "tensor" / "codegen.py",
)

#: The module whose ``split_partitions`` is the only code allowed to look an
#: event's scope up in the plan's lanes.
COST_MODEL_BASE = REPO_ROOT / "src" / "repro" / "backends" / "base.py"

#: Cost-model modules: they must take the lanes structure from
#: ``split_partitions``, so the three models cannot drift apart in what they
#: call concurrent.
COST_MODEL_MODULES = (
    REPO_ROOT / "src" / "repro" / "backends" / "cpu.py",
    REPO_ROOT / "src" / "repro" / "backends" / "gpu_sim.py",
    REPO_ROOT / "src" / "repro" / "backends" / "wasm_sim.py",
)

#: The tensor layer: traced programs, their passes, executors and profiler.
TENSOR_PACKAGE = REPO_ROOT / "src" / "repro" / "tensor"

#: Op names whose special-case handling is allowed to appear by name in the
#: executors: their rules (transfer forwarding, fused-step unrolling) are
#: defined once in op_semantics and the executors merely reference them.
SHARED_SENTINELS = {op_semantics.TRANSFER_OP, op_semantics.FUSED_OP}

#: The planner module: every magic performance threshold it gates on must
#: come from :mod:`repro.core.tuning`, never a literal, so the adaptive
#: runtime (and tests) can override them per strategy.
PLANNER_MODULE = REPO_ROOT / "src" / "repro" / "core" / "planner.py"

#: Operator modules held to the same no-literal-threshold rule: how keys are
#: densified is the kernels' per-call choice, so nothing in here may gate on
#: a size of its own.
TUNED_OPERATOR_MODULES = (
    REPO_ROOT / "src" / "repro" / "core" / "operators" / "grouping.py",
    REPO_ROOT / "src" / "repro" / "core" / "operators" / "join.py",
    REPO_ROOT / "src" / "repro" / "core" / "operators" / "partition.py",
)

#: Where a host read (``.numpy()`` / ``.item()``) would tie a traced program
#: to the values its trace saw: every operator module and the expression
#: compiler.
HOST_READ_MODULES = (
    *sorted((REPO_ROOT / "src" / "repro" / "core" / "operators").glob("*.py")),
    REPO_ROOT / "src" / "repro" / "core" / "expressions.py",
)
HOST_READS = {"numpy", "item"}

#: ``(module stem, function)`` allowed a host read.  The scan folds bound
#: parameter values into its zone-map check on the eager path only; a trace
#: lowers the same conjuncts to tensor ops.
HOST_READ_ALLOWED = {("scan", "_param_python_values")}


def check_registry_coverage(problems: list[str]) -> None:
    for op in sorted(ops.OP_REGISTRY):
        reason = op_semantics.op_unsupported_reason(op)
        if reason is not None:
            problems.append(
                f"op {op!r} is registered but not executable by both "
                f"executors: {reason}")


def check_cost_model(path: pathlib.Path, problems: list[str]) -> None:
    """A cost model (or their shared base) splits events one way only: the
    base defines exactly one ``split_*`` function, ``split_partitions``, and
    every model imports it."""
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))
    if path == COST_MODEL_BASE:
        splitters = sorted(
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("split_"))
        if splitters != ["split_partitions"]:
            problems.append(
                f"{rel}: expected the one event-split function "
                f"'split_partitions', found {splitters}")
        return
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    if "split_partitions" not in imported:
        problems.append(f"{rel}: does not import split_partitions — the "
                        f"lanes structure must come from the shared split")


def check_no_lanes_stamp(problems: list[str]) -> None:
    """No module of the tensor layer passes ``lanes=``, reads ``.lanes`` or
    spells a ``"lanes"`` key: the program never carries a lanes width."""
    for path in sorted(TENSOR_PACKAGE.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))
        for node in ast.walk(tree):
            if (isinstance(node, ast.keyword) and node.arg == "lanes"
                    or isinstance(node, ast.Attribute) and node.attr == "lanes"
                    or isinstance(node, ast.Constant)
                    and node.value == "lanes"):
                problems.append(
                    f"{rel}:{node.lineno}: a lanes stamp — the width lives "
                    f"on the plan, not in the program")


def check_module(path: pathlib.Path, problems: list[str]) -> None:
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))

    imports = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    if "op_semantics" not in imports:
        problems.append(f"{rel}: does not import op_semantics — per-op "
                        f"semantics must come from the shared module")

    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    if "register_op" in names:
        problems.append(f"{rel}: references register_op — executors must "
                        f"not define ops of their own")

    registry_names = set(ops.OP_REGISTRY) - SHARED_SENTINELS
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in registry_names):
            problems.append(
                f"{rel}:{node.lineno}: hard-coded op name {node.value!r} — "
                f"per-op special cases belong in op_semantics / the registry")


def check_host_reads(path: pathlib.Path, problems: list[str]) -> None:
    """No ``.numpy()`` / ``.item()`` call in ``path`` outside the functions
    :data:`HOST_READ_ALLOWED` names."""
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in HOST_READS
                and (path.stem, function) not in HOST_READ_ALLOWED):
            problems.append(
                f"{rel}:{node.lineno}: host read .{node.func.attr}() in "
                f"{function or '<module>'} — a traced program must not depend "
                f"on the values its trace saw")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")


def check_threshold_literals(path: pathlib.Path, problems: list[str]) -> None:
    """No integer literal ≥ 2 as a comparison bound in ``path``.

    Such a literal is a tuning constant in disguise — it silently forks the
    threshold set the adaptive runtime overrides per strategy.  (0/1 compare
    against "none/one lane|device", which is structure, not tuning.)
    """
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for comp in node.comparators:
            if (isinstance(comp, ast.Constant)
                    and isinstance(comp.value, int)
                    and not isinstance(comp.value, bool)
                    and comp.value >= 2):
                problems.append(
                    f"{rel}:{node.lineno}: hard-coded threshold literal "
                    f"{comp.value} in {ast.unparse(node)!r} — gate on a "
                    f"repro.core.tuning constant instead")


def check_planner_tuning(path: pathlib.Path, problems: list[str]) -> None:
    """The planner's thresholds live in ``repro.core.tuning``, not inline."""
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))
    imports = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    if "repro.core.tuning" not in imports:
        problems.append(f"{rel}: does not import repro.core.tuning — planner "
                        f"thresholds must come from the tuning module")
    check_threshold_literals(path, problems)


def main() -> int:
    problems: list[str] = []
    check_registry_coverage(problems)
    for path in EXECUTOR_MODULES:
        check_module(path, problems)
    for path in (COST_MODEL_BASE, *COST_MODEL_MODULES):
        check_cost_model(path, problems)
    check_planner_tuning(PLANNER_MODULE, problems)
    for path in TUNED_OPERATOR_MODULES:
        check_threshold_literals(path, problems)
    for path in HOST_READ_MODULES:
        check_host_reads(path, problems)
    check_no_lanes_stamp(problems)
    if problems:
        print("op-registry lint FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"op-registry lint OK: {len(ops.OP_REGISTRY)} ops shared by "
          f"{len(EXECUTOR_MODULES)} executors, none implemented privately")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
