"""Shared pieces of the performance ledger: configuration, statistics,
result signatures, and the environment stamp.

Everything here is plain Python over the program's *public* API; the ledger
never edits or hooks ``src/``.  All clocks are ``time.perf_counter``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Iterable, Optional, Sequence

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
EXPECTED_DIR = LEDGER_DIR / "expected"


def import_program() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (the program under test).

    Exits non-zero when the program is absent: the ledger measures this
    repository's engine and has nothing to say without it.
    """
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


#: TPC-H data seed: the data never depends on ``--seed`` (which only drives
#: what the benchmark itself generates: statement order and request streams).
TPCH_SEED = 19920101

WORKLOADS = ("tpch_warm", "tpch_cold", "tpch_strategies", "serve_zipf")

#: TPC-H queries of ``tpch_strategies`` (scan-heavy, join-heavy, a subquery).
STRATEGY_QUERIES = (1, 3, 5, 6, 9, 12, 14, 18)

#: The Figure-4 PREDICT statement (as in ``bench_figure4_prediction_query``).
FIGURE4_SQL = """
select brand,
       sum(case when rating >= 3 then 1 else 0 end) as actual_positive,
       sum(predict('sentiment_classifier', text)) as predicted_positive
from amazon_reviews
group by brand
order by brand
"""


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much one run measures.  Two instances exist: full and smoke."""

    scale_factor: dict
    #: Discarded sweeps before the timed ones.
    warmup: int
    #: Timed sweeps: at least ``min_sweeps``, then more while the ``--seconds``
    #: budget lasts, never more than ``max_sweeps``.
    min_sweeps: int
    max_sweeps: int
    #: Interleaved untraced/traced sweep pairs of a ``--trace 1`` run.
    min_traced: int
    max_traced: int
    #: Complete set-ups per run; ``setup_s`` is their median.
    setup_reps: int
    #: Requests per saturation burst; timed bursts: at least ``min_bursts``,
    #: more while a third of the budget lasts, never more than ``max_bursts``.
    burst_requests: int
    #: Discarded bursts: the first three of a runtime are reliably ~35%
    #: slower than the ones after them.
    warmup_bursts: int
    min_bursts: int
    max_bursts: int
    #: Requests of the paced phases; ``None`` derives them from ``--seconds``.
    paced_requests: Optional[int]


FULL = Sizes(
    scale_factor={"tpch_warm": 0.02, "tpch_cold": 0.01,
                  "tpch_strategies": 0.02, "serve_zipf": 0.01},
    warmup=2, min_sweeps=11, max_sweeps=60, min_traced=3, max_traced=5,
    setup_reps=3, burst_requests=1000, warmup_bursts=3, min_bursts=7,
    max_bursts=40, paced_requests=None)

SMOKE = Sizes(
    scale_factor={name: 0.002 for name in WORKLOADS},
    warmup=1, min_sweeps=3, max_sweeps=3, min_traced=1, max_traced=1,
    setup_reps=1, burst_requests=200, warmup_bursts=1, min_bursts=3,
    max_bursts=3, paced_requests=200)

#: Executions before an adaptive statement is read (explore, then settle).
ADAPTIVE_SETTLE = 12

#: Paced (open-loop) request rates, requests/s.  The first is the end-to-end
#: one; the other two are per-layer only (they sit at and above capacity).
PACED_RATES = (100, 200, 400)

#: ``serve.max_rate_ok``: a rate is sustained when p95 stays under this.
PACED_P95_LIMIT_MS = 50.0

ZIPF_S = 1.4
TAIL_QUERIES = 6
SERVE_WORKERS = 2
BATCH_WINDOW = 64


def budget_allows(done: int, minimum: int, maximum: int, deadline: float,
                  last: float) -> bool:
    """Whether to run one more sweep, burst or pair: always up to
    ``minimum``, then while another one of the last one's length still fits
    before ``deadline``, never beyond ``maximum``."""
    if done < minimum:
        return True
    return done < maximum and time.perf_counter() + last <= deadline


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (no interpolation: a value that was seen)."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(len(ordered) * share))])


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median of ``values``: the spread the driver computes
    between runs, here between one run's own samples."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0


def chunked(values: Sequence[float], parts: int) -> list[Sequence[float]]:
    """``values`` cut into ``parts`` contiguous runs (for a percentile's
    within-run spread)."""
    size = max(1, len(values) // parts)
    return [values[i:i + size] for i in range(0, size * parts, size)
            if values[i:i + size]]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- result signatures and the reference comparison ---------------------------


def frame_signature(frame) -> str:
    """Digest of a result DataFrame's exact bytes.

    Identical signatures mean bit-identical results, so each distinct
    signature is compared against the reference once, however many
    operations produced it.
    """
    digest = hashlib.sha1()
    for name in frame.columns:
        column = frame[name]
        digest.update(name.encode())
        digest.update(str(column.dtype).encode())
        if column.dtype.kind == "O":
            digest.update("\x1f".join(map(str, column)).encode())
        else:
            digest.update(column.tobytes())
    return digest.hexdigest()


def normalize_cell(value):
    """Canonical Python value of one cell (NaN, NaT and None all mean NULL);
    the rule of ``tests/conftest.py``, kept here because the ledger may not
    reach outside its own directory."""
    import numpy as np

    if value is None:
        return None
    if isinstance(value, np.datetime64):
        return None if np.isnat(value) else str(value.astype("datetime64[D]"))
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return None if math.isnan(value) else float(value)
    if isinstance(value, (int, np.integer)):
        return float(value)
    return str(value)


def _sort_key(row) -> tuple:
    return tuple("~none" if cell is None
                 else (f"{cell:+.4f}" if isinstance(cell, float) else str(cell))
                 for cell in row)


def normalized_rows(frame) -> list[list]:
    """Sorted, cell-normalised rows of a DataFrame (the expected-file form)."""
    columns = [frame[name] for name in frame.columns]
    rows = [[normalize_cell(column[i]) for column in columns]
            for i in range(frame.num_rows)]
    rows.sort(key=_sort_key)
    return rows


def rows_mismatch(actual: list[list], expected: list[list],
                  tolerance: float = 1e-6) -> Optional[str]:
    """``None`` when the sorted row lists agree within ``tolerance``
    (relative and absolute, as the differential suites use); otherwise a
    one-line description of the first difference."""
    if len(actual) != len(expected):
        return f"{len(actual)} rows, expected {len(expected)}"
    for index, (left, right) in enumerate(zip(actual, expected)):
        if len(left) != len(right):
            return f"row {index}: {len(left)} cells, expected {len(right)}"
        for position, (a, b) in enumerate(zip(left, right)):
            if a is None or b is None:
                same = a is None and b is None
            elif isinstance(a, float) and isinstance(b, float):
                same = math.isclose(a, b, rel_tol=tolerance, abs_tol=tolerance)
            else:
                same = a == b
            if not same:
                return f"row {index}, cell {position}: {a!r} != {b!r}"
    return None


def expected_path(scale_factor: float) -> pathlib.Path:
    return EXPECTED_DIR / f"tpch_sf{scale_factor:g}.json"


def load_expected(scale_factor: float) -> dict:
    """Row-engine reference rows per TPC-H statement at ``scale_factor``."""
    path = expected_path(scale_factor)
    if not path.is_file():
        sys.exit(f"ledger: no reference results at {path}; run "
                 f"run.py --regen-expected --scale-factor {scale_factor:g}")
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)["statements"]


# -- environment stamp ---------------------------------------------------------


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_average() -> list[float]:
    try:
        return [round(value, 2) for value in os.getloadavg()]
    except OSError:
        return []


def environment_stamp(load_at_start: list[float]) -> dict:
    """Where and on what the numbers were taken (written with ``--out``)."""
    import numpy

    cores = os.cpu_count() or 1
    load_at_end = load_average()
    busiest = max(load_at_start[:1] + load_at_end[:1], default=0.0)
    if busiest > cores:
        print(f"ledger: warning: load average {busiest} exceeds nproc {cores};"
              f" timings are contended", file=sys.stderr)
    return {
        "git_sha": _git_sha(),
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load_average_start": load_at_start,
        "load_average_end": load_at_end,
    }
