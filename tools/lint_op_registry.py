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
   (whose runtime small-input fallback sends a lanes operator down its serial
   body) gate on :mod:`repro.core.tuning` constants, never on hard-coded
   threshold literals (which the adaptive runtime could not override);
6. the cost models read the partitioned structure of a profile from the one
   ``backends.base.split_partitions`` and classify exchanges by
   ``op_semantics.EXCHANGE_OPS`` / ``GATHER_OP`` — no model looks at an
   event's lane or shard, or names a dispatch/exchange op, on its own.

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

#: The module whose ``split_partitions`` is the only code allowed to read an
#: event's lane / shard annotation or to tell dispatch ops from kernels.
COST_MODEL_BASE = REPO_ROOT / "src" / "repro" / "backends" / "base.py"

#: Cost-model modules that classify exchange ops for interconnect charging.
#: They must consume ``op_semantics.EXCHANGE_OPS`` / ``GATHER_OP`` rather
#: than spell shard-op names, so adding an exchange variant cannot silently
#: leave a backend charging it as a kernel — and they must take the lane /
#: shard structure from ``split_partitions``, so the three models cannot
#: drift apart in what they call concurrent.
COST_MODEL_MODULES = (
    REPO_ROOT / "src" / "repro" / "backends" / "cpu.py",
    REPO_ROOT / "src" / "repro" / "backends" / "gpu_sim.py",
    REPO_ROOT / "src" / "repro" / "backends" / "wasm_sim.py",
)

#: What only ``split_partitions`` may touch.
PARTITION_ATTRIBUTES = {"lane", "shard"}
PARTITION_NAMES = {"DISPATCH_OPS"}

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


def check_registry_coverage(problems: list[str]) -> None:
    for op in sorted(ops.OP_REGISTRY):
        reason = op_semantics.op_unsupported_reason(op)
        if reason is not None:
            problems.append(
                f"op {op!r} is registered but not executable by both "
                f"executors: {reason}")


def check_exchange_ops(problems: list[str]) -> None:
    """The distributed exchange ops are ordinary registry ops.

    Both executors must be able to run them (a distributed trace replays on
    the interpreter *and* the codegen executor — codegen has no special case
    to fall back on, so registry membership is the whole portability story),
    and the profiler's event record must carry the shard attribution the
    cost models split timelines by.
    """
    for op in sorted(op_semantics.EXCHANGE_OPS):
        if op not in ops.OP_REGISTRY:
            problems.append(f"exchange op {op!r} is missing from OP_REGISTRY")
            continue
        reason = op_semantics.op_unsupported_reason(op)
        if reason is not None:
            problems.append(f"exchange op {op!r} is not executable by both "
                            f"executors: {reason}")
    if op_semantics.GATHER_OP not in op_semantics.EXCHANGE_OPS:
        problems.append("GATHER_OP must be one of EXCHANGE_OPS")
    from repro.tensor.profiler import OpEvent
    import dataclasses as _dc

    fields = {field.name for field in _dc.fields(OpEvent)}
    if "shard" not in fields or "lane" not in fields:
        problems.append("OpEvent must carry lane and shard attribution for "
                        "the cost models' timeline splits")


def check_cost_model(path: pathlib.Path, problems: list[str]) -> None:
    """A cost model (or their shared base) classifies events one way only.

    Nowhere: a hard-coded exchange op name.  In the base: exactly one
    ``split_*`` function, ``split_partitions``.  In a model: it is imported,
    and nothing else reads ``event.lane`` / ``event.shard`` or the dispatch
    op set.
    """
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in op_semantics.EXCHANGE_OPS):
            problems.append(
                f"{rel}:{node.lineno}: hard-coded exchange op name "
                f"{node.value!r} — classify via op_semantics.EXCHANGE_OPS / "
                f"GATHER_OP")
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
                        f"lane/shard structure must come from the shared split")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in PARTITION_ATTRIBUTES):
            problems.append(
                f"{rel}:{node.lineno}: reads '.{node.attr}' of an event — "
                f"classify events through split_partitions only")
        if isinstance(node, ast.Name) and node.id in PARTITION_NAMES:
            problems.append(
                f"{rel}:{node.lineno}: references {node.id} — dispatch ops "
                f"are split out by split_partitions only")


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
    check_exchange_ops(problems)
    for path in EXECUTOR_MODULES:
        check_module(path, problems)
    for path in (COST_MODEL_BASE, *COST_MODEL_MODULES):
        check_cost_model(path, problems)
    check_planner_tuning(PLANNER_MODULE, problems)
    for path in TUNED_OPERATOR_MODULES:
        check_threshold_literals(path, problems)
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
