"""Kernel output buffers are recycled, not returned to the OS after every op.

Every kernel returns freshly allocated arrays — hundreds of KB to tens of MB —
that are freed one or two ops later.  glibc maps anything from 128 KiB up
separately and unmaps it on free, until a freed mapping raises its *dynamic*
mmap threshold to that size (ceiling 32 MiB) and its trim threshold to twice
it.  Whether an output is mapped afresh or carved from the heap, and whether
the heap top a statement frees is handed back and faulted in again by the next
one, therefore depends on the largest buffer freed so far: on which statements
ran before.  Measured on the TPC-H replay sweep: 17% of the wall clock in the
kernel's fault handler (1% with the policy below), the same statement 6 ms or
10 ms by the order of the sweep, and ten processes' sweep totals ranging over
17% where they range over 5% with it.

The policy is the state glibc's own ratchet ends in, fixed from the start: up
to 32 MiB comes from the heap, and the heap's free top is given back only past
64 MiB.  Anything larger is still mapped and unmapped per use.
"""

from __future__ import annotations

import ctypes

# <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


def retain_freed_buffers() -> bool:
    """Fix the C allocator's thresholds; ``False`` where it has no ``mallopt``
    (musl, macOS, Windows) and allocation stays as the platform has it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))


#: Whether the policy is in force.  Process-wide, applied once: when the runtime
#: is imported, before any kernel allocates.
ACTIVE = retain_freed_buffers()
