"""Compare two ledger result sets: ``python compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change; both are files
written by ``run.py --out``, each holding one or more runs per workload.
One row per (workload, end-to-end metric): both medians over the runs, the
ratio B/A with its base, the bound fixed in ``BENCHMARK.json``, and a verdict:

* ``worse``      B is worse than A by more than the bound;
* ``better``     B is better than A by more than the bound;
* ``within``     neither;
* ``unresolved`` a side's own spread is wider than the bound (and the two
  sides' runs overlap), so these runs cannot tell.

A side's spread is the distance between the quartiles of its runs as a share
of their median (what the driver computes) when it has at least four runs,
and otherwise the spread between one run's own sweeps, which misses the
run-to-run part: compare single runs only to look, never to decide.

The table is markdown, for pasting into a PR description.  ``--layers`` adds
the per-layer metrics of the traced runs (ratios only: they have no bound).
The exit code is non-zero when any row is ``worse``.  A comparison states
what was measured; it makes no claim by itself.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import REPO_ROOT, iqr_share, median


def load_runs(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def side(runs: list[dict], name: str) -> tuple[list[float], float]:
    """``(values, spread)`` of one metric over one side's runs."""
    values = [run["metrics"][name]["value"] for run in runs]
    if len(values) >= 4:
        return values, iqr_share(values)
    return values, max(run["spread"].get(name, 0.0) for run in runs)


def verdict(base: list[float], change: list[float], spread: float,
            metric: dict) -> str:
    lower = metric["better"] == "lower"
    base_mid, change_mid = median(base), median(change)
    worse_by = ((change_mid - base_mid) if lower
                else (base_mid - change_mid)) / base_mid
    if spread > metric["bound"]:
        # Too noisy for the bound, unless the sides do not even overlap.
        if lower and max(change) < min(base) or \
                not lower and min(change) > max(base):
            return "better"
        return "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    if worse_by < -metric["bound"]:
        return "better"
    return "within"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--layers", action="store_true")
    arguments = parser.parse_args()
    with (REPO_ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        contract = json.load(handle)
    base_runs = load_runs(arguments.base)
    change_runs = load_runs(arguments.change)
    workloads = [workload["name"] for workload in contract["workloads"]]

    any_worse = False
    print("| workload | metric | A (base) | B | B/A | runs | spread A / B "
          "| bound | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        key = f"{workload}/untraced"
        if key not in base_runs or key not in change_runs:
            continue
        count = f"{len(base_runs[key])} / {len(change_runs[key])}"
        for metric in contract["end_to_end"]:
            base, base_spread = side(base_runs[key], metric["name"])
            change, change_spread = side(change_runs[key], metric["name"])
            word = verdict(base, change, max(base_spread, change_spread),
                           metric)
            any_worse = any_worse or word == "worse"
            print(f"| {workload} | {metric['name']} | {median(base):.4g} "
                  f"{metric['unit']} | {median(change):.4g} "
                  f"| {median(change) / median(base):.3f} | {count} "
                  f"| {base_spread:.1%} / {change_spread:.1%} "
                  f"| {metric['bound']:.0%} | {word} |")
        failed = [sum(run["failed"] for run in runs[key])
                  for runs in (base_runs, change_runs)]
        attempted = [sum(run["attempted"] for run in runs[key])
                     for runs in (base_runs, change_runs)]
        word = ("worse" if failed[1] * attempted[0] > failed[0] * attempted[1]
                else "within")
        any_worse = any_worse or word == "worse"
        print(f"| {workload} | failed operations | {failed[0]} of "
              f"{attempted[0]} | {failed[1]} of {attempted[1]} | | {count} "
              f"| | any increase | {word} |")

    if arguments.layers:
        print("\n| workload | layer metric | A (base) | B | B/A |")
        print("| --- | --- | --- | --- | --- |")
        for workload in workloads:
            key = f"{workload}/traced"
            if key not in base_runs or key not in change_runs:
                continue
            for name, entry in base_runs[key][0]["metrics"].items():
                if name not in change_runs[key][0]["metrics"]:
                    continue
                base = median([run["metrics"][name]["value"]
                               for run in base_runs[key]])
                change = median([run["metrics"][name]["value"]
                                 for run in change_runs[key]])
                ratio = f"{change / base:.3f}" if base else "-"
                print(f"| {workload} | {name} | {base:.4g} {entry['unit']} "
                      f"| {change:.4g} | {ratio} |")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
