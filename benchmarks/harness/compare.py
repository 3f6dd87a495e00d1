#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

Usage::

    python3 benchmarks/harness/compare.py --parent DIR --change DIR

Each directory holds the result files ``run.py --out DIR`` writes, one
per run (ten per side and workload is the intended minimum).  Runs are
grouped by workload and paired in seed order.  For every workload and
metric present on both sides the verdict is:

``gain``
    the change is better in at least 9 of 10 pairs (ties count for
    neither side) and the medians differ by more than the parent's
    interquartile range;
``regression``
    an end-to-end metric whose change median is worse than the parent's
    by more than the metric's bound in ``BENCHMARK.json``, measured with
    a spread (IQR over median, either side) within that bound;
``worse``
    the mirror image of a gain: the change loses at least 9 of 10 pairs
    and the medians differ by more than the parent's interquartile
    range.  This catches a real slowdown smaller than the bound, and is
    the only slowdown verdict per-layer metrics (which have no bound)
    can get;
``unresolved``
    an end-to-end metric whose spread is wider than its bound and that
    is neither a gain nor worse, unless every change run beats every
    parent run;
``no-worse`` / ``same``
    otherwise (end-to-end / per-layer).

A change whose runs fail more operations than the parent's is flagged
as well.  The exit status is 1 when anything is flagged (``regression``,
``worse``, more failures), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FLAGGED = ("regression", "worse", "more-failures")


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    parent: list[float]
    change: list[float]
    wins: int
    verdict: str

    def describe(self) -> str:
        def stats(values: list[float]) -> str:
            q1, q3 = quartiles(values)
            return f"{statistics.median(values):.6g} [{q1:.4g}, {q3:.4g}]"

        p_med = statistics.median(self.parent)
        delta = (statistics.median(self.change) - p_med) / abs(p_med) if p_med else 0.0
        return (
            f"{self.workload:18s} {self.metric:36s} parent {stats(self.parent):32s} "
            f"change {stats(self.change):32s} {delta:+7.1%} "
            f"wins {self.wins}/{len(self.parent)}  {self.verdict}"
        )


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metric_specs(benchmark: dict) -> dict[str, tuple[str, float | None]]:
    """``name -> (better, bound)``; per-layer metrics have no bound."""
    specs = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    specs.update({m["name"]: (m["better"], None) for m in benchmark["per_layer"]})
    return specs


def spread(values: list[float]) -> float:
    """Interquartile range over the median."""
    lo, hi = quartiles(values)
    median = statistics.median(values)
    return (hi - lo) / abs(median) if median else 0.0


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, int]:
    """``(verdict, wins)`` for one metric; runs paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (c_med - p_med)  # > 0 means the change is better
    noisy = bound is not None and max(spread(parent), spread(change)) > bound
    if wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "gain", wins
    if bound is not None and not noisy and p_med and -gain / abs(p_med) > bound:
        return "regression", wins
    if losses >= 0.9 * len(pairs) and -gain > q3 - q1:
        return "worse", wins
    if bound is None:
        return "same", wins
    if noisy and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", wins
    return "no-worse", wins


def compare(parent: list[dict], change: list[dict], benchmark: dict) -> list[Row]:
    """Verdict rows for every workload and metric both sides measured."""
    specs = metric_specs(benchmark)

    def by_workload(records: list[dict]) -> dict[str, list[dict]]:
        groups: dict[str, list[dict]] = {}
        for record in sorted(records, key=lambda r: (r["workload"], r["seed"])):
            groups.setdefault(record["workload"], []).append(record)
        return groups

    def values(record: dict) -> dict[str, float]:
        return {**record.get("metrics", {}), **record.get("layers", {})}

    rows = []
    p_groups, c_groups = by_workload(parent), by_workload(change)
    for workload in sorted(set(p_groups) & set(c_groups)):
        p_runs, c_runs = p_groups[workload], c_groups[workload]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        shared = set.intersection(*(set(values(r)) for r in p_runs + c_runs))
        for metric in [m for m in specs if m in shared]:
            better, bound = specs[metric]
            p_vals = [values(r)[metric] for r in p_runs]
            c_vals = [values(r)[metric] for r in c_runs]
            name, wins = verdict(p_vals, c_vals, better, bound)
            rows.append(Row(workload, metric, p_vals, c_vals, wins, name))
        p_failed = [float(sum(r["failed"] for r in p_runs))]
        c_failed = [float(sum(r["failed"] for r in c_runs))]
        if c_failed[0] > p_failed[0]:
            rows.append(Row(workload, "failed", p_failed, c_failed, 0, "more-failures"))
    return rows


def load_dir(directory: Path) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    rows = compare(load_dir(args.parent), load_dir(args.change), benchmark)
    if not rows:
        print("no workload was measured on both sides", file=sys.stderr)
        return 2
    for row in rows:
        print(row.describe())
    flagged = [row for row in rows if row.verdict in FLAGGED]
    print(f"{len(rows)} comparisons, {len(flagged)} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
