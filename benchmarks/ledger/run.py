"""The performance ledger: one command per workload.

    python benchmarks/ledger/run.py --workload <name> --seed <int>
        [--seconds S] [--trace 0|1 | --traced] [--out FILE]
        [--trace-out FILE] [--smoke]
    python benchmarks/ledger/run.py --regen-expected  --scale-factor SF
    python benchmarks/ledger/run.py --verify-expected --scale-factor SF

Each invocation is a fresh interpreter running one workload.  It prints
every metric by name with its unit, checks every result against a reference
that does not come from the engine under test, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` (tracing and profiling off), the per-layer metrics with
``--trace 1``.  The exit code is non-zero on a wrong answer.

``--seed`` drives only what the benchmark generates (statement order inside
a sweep, the request stream and its bindings); the data never depends on it.
See README.md for the workloads, the metrics and which layer moves which.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from common import (
    FULL,
    REPO_ROOT,
    SMOKE,
    WORKLOADS,
    environment_stamp,
    import_program,
    load_average,
)


def load_contract() -> dict:
    with (REPO_ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def parse_arguments(contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", help="append this run's summary to FILE")
    parser.add_argument("--trace-out",
                        help="write the spans of a traced run as Chrome trace")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness, not the engine")
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--verify-expected", action="store_true")
    parser.add_argument("--scale-factor", type=float, action="append",
                        help="scale factor(s) for --regen/--verify-expected")
    arguments = parser.parse_args()
    arguments.traced = arguments.traced or arguments.trace == 1
    return arguments


def run_workload(arguments: argparse.Namespace):
    sizes = SMOKE if arguments.smoke else FULL
    if arguments.workload == "serve_zipf":
        import serve_workload

        run = (serve_workload.run_traced if arguments.traced
               else serve_workload.run_untraced)
        return run(sizes, arguments.seed, arguments.seconds)
    import tpch_workloads

    run = (tpch_workloads.run_traced if arguments.traced
           else tpch_workloads.run_untraced)
    return run(arguments.workload, sizes, arguments.seed, arguments.seconds)


def reported_metrics(contract: dict, traced: bool, measured: dict) -> dict:
    """The contract's metrics for this kind of run, each with its unit.

    A traced run reports every per-layer metric; a layer the workload does
    not run reports 0 (no work done there).  A name outside the contract is
    a bug in the benchmark, not a new metric.
    """
    listed = contract["per_layer" if traced else "end_to_end"]
    known = {metric["name"] for metric in listed}
    unknown = sorted(set(measured) - known)
    if unknown:
        raise SystemExit(f"ledger: metrics missing from BENCHMARK.json: "
                         f"{unknown}")
    if not traced:
        absent = sorted(known - set(measured))
        if absent:
            raise SystemExit(f"ledger: end-to-end metrics not measured: "
                             f"{absent}")
    return {metric["name"]: {"value": measured.get(metric["name"], 0),
                             "unit": metric["unit"]}
            for metric in listed}


def merge_summary(path: str, key: str, summary: dict) -> None:
    """Append this run to the result set at ``path`` (created when absent).
    Repeating a workload adds a run; compare.py takes medians over them."""
    target = pathlib.Path(path)
    results = {"schema": "tqp-ledger/v1", "runs": {}}
    if target.is_file():
        with target.open(encoding="utf-8") as handle:
            results = json.load(handle)
    results.pop("claim", None)
    results["runs"].setdefault(key, []).append(summary)
    # No performance claim is made by a result set; a claim is a diff of two
    # (see compare.py).  Kept last so the summary ends with it.
    results["claim"] = None
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")


def main() -> int:
    contract = load_contract()
    arguments = parse_arguments(contract)
    import_program()

    if arguments.regen_expected or arguments.verify_expected:
        import reference

        factors = arguments.scale_factor or sorted(
            set(FULL.scale_factor.values()) | set(SMOKE.scale_factor.values()))
        good = True
        for factor in factors:
            if arguments.regen_expected:
                reference.regen_expected(factor)
            else:
                good = reference.verify_expected(factor) and good
        return 0 if good else 1

    if arguments.workload is None:
        raise SystemExit("ledger: --workload is required")
    load_at_start = load_average()
    outcome = run_workload(arguments)
    metrics = reported_metrics(contract, arguments.traced, outcome.metrics)
    correct = outcome.failed == 0

    mode = "traced" if arguments.traced else "untraced"
    print(f"# {arguments.workload} ({mode}{', smoke' if arguments.smoke else ''})"
          f" seed {arguments.seed} stream {outcome.stream_hash}")
    for name, metric in metrics.items():
        if name in outcome.metrics:
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not arguments.traced:
        # Not end-to-end metrics (one is a harness cost, the other is 0 on
        # a healthy run and carried by ``failed``/``attempted`` below), but
        # every run states them.
        print(f"bench.oracle_s {outcome.oracle_s:.6g} s")
        print(f"failed_share {outcome.failed / max(1, outcome.attempted):.6g}"
              f" ratio")
    print(f"# {outcome.failed} of {outcome.attempted} operations failed")
    for problem in outcome.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)

    if arguments.trace_out and outcome.tracer is not None:
        outcome.tracer.write_chrome_trace(arguments.trace_out)
    if arguments.out:
        merge_summary(arguments.out, f"{arguments.workload}/{mode}", {
            "workload": arguments.workload, "traced": arguments.traced,
            "smoke": arguments.smoke, "seed": arguments.seed,
            "seconds": arguments.seconds, "stream_hash": outcome.stream_hash,
            "environment": environment_stamp(load_at_start),
            "correct": correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "problems": outcome.problems[:20],
            "metrics": {name: metric for name, metric in metrics.items()
                        if name in outcome.metrics},
            "spread": outcome.spread,
        })

    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
