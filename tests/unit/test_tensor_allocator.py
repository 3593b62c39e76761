"""The tensor runtime's buffer-retention policy (``repro.tensor.allocator``)."""

import resource

import numpy as np
import pytest

from repro.tensor import allocator, ops

PAGE_BYTES = resource.getpagesize()
LIVE_AT_ONCE = 8


def _fewest_faults(action, repeats: int = 5) -> int:
    """Minor page faults of ``action`` once the process has run it before."""
    action()
    counts = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        action()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(counts)


def _requires_policy():
    # Importing the runtime applied it; nothing here applies it again.
    if not allocator.ACTIVE:
        pytest.skip("the C library has no mallopt")


def test_policy_is_applied_on_import_and_idempotent():
    assert isinstance(allocator.ACTIVE, bool)
    assert allocator.retain_freed_buffers() == allocator.ACTIVE


def test_thresholds_are_ones_glibc_accepts():
    # glibc rejects an M_MMAP_THRESHOLD above 32 MiB; the policy would then
    # silently not apply.
    assert allocator.MMAP_THRESHOLD_BYTES <= 32 << 20
    assert allocator.TRIM_THRESHOLD_BYTES >= allocator.MMAP_THRESHOLD_BYTES


def test_buffers_freed_together_are_not_faulted_in_again():
    """Several kernel-sized buffers live at once, then all freed: with glibc's
    own thresholds the heap top they leave is trimmed back to the OS and the
    next statement pays one fault per page for the same memory."""
    _requires_policy()
    nbytes = 2 << 20

    def statement():
        return [np.ones(nbytes, dtype=np.uint8) for _ in range(LIVE_AT_ONCE)]

    paged_in_anew = LIVE_AT_ONCE * nbytes // PAGE_BYTES
    assert _fewest_faults(statement) < paged_in_anew // 8


def test_op_outputs_are_served_from_retained_memory():
    _requires_policy()
    column = ops.tensor(np.arange(1 << 18, dtype=np.int64))

    def statement():
        return [ops.add(column, i) for i in range(LIVE_AT_ONCE)]

    paged_in_anew = LIVE_AT_ONCE * column.numpy().nbytes // PAGE_BYTES
    assert _fewest_faults(statement) < paged_in_anew // 8
