#!/usr/bin/env python3
"""Collect the results files that run.py wrote under mvbench/out into one summary.

    python3 mvbench/summarize.py > mvbench/BENCH_baseline.json

For each workload: every untraced run's end-to-end metrics with the
median, quartiles and spread (interquartile distance over median) across
runs, the same for the unscaled wall times, and every traced run's
per-layer metrics and work counters.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    out = {"median": median, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median)
    return out


def main() -> int:
    entries = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(OUT_DIR.glob("*-trace[01].json"))]
    entries = [e for e in entries if not e["smoke"]]
    if not entries:
        print(f"error: no results under {OUT_DIR}", file=sys.stderr)
        return 1
    summary: dict = {"note": entries[0]["note"], "python": entries[0]["python"], "nproc": entries[0]["nproc"],
                     "workloads": {}}
    for name in sorted({e["workload"] for e in entries}):
        untraced = sorted((e for e in entries if e["workload"] == name and not e["trace"]), key=lambda e: e["seed"])
        traced = sorted((e for e in entries if e["workload"] == name and e["trace"]), key=lambda e: e["seed"])
        row: dict = {"shape": (untraced or traced)[0]["shape"]}
        if untraced:
            row["runs"] = [
                {"seed": e["seed"], "correct": e["correct"], "attempted": e["attempted"], "failed": e["failed"],
                 "samples": e["samples"], **e["metrics"], "eval_wall_s": e["eval_wall_s"],
                 "setup_wall_s": e["setup_wall_s"]}
                for e in untraced
            ]
            row["end_to_end"] = {m: spread([e["metrics"][m] for e in untraced]) for m in untraced[0]["metrics"]}
            row["unscaled"] = {m: spread([e[m] for e in untraced]) for m in ("eval_wall_s", "setup_wall_s")}
        if traced:
            row["traced"] = [
                {"seed": e["seed"], "correct": e["correct"], "counters_repeat": e["counters_repeat"],
                 "samples": e["samples"], "absent": e["absent"], "metrics": e["metrics"]}
                for e in traced
            ]
        summary["workloads"][name] = row
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
