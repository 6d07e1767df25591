#!/usr/bin/env python3
"""Benchmark of mvteval's evaluate path.

    python3 mvbench/run.py --workload dense_ids --seed 1 --seconds 36 --trace 0
    python3 mvbench/run.py --workload all

One process, one evaluation at a time (a closed loop with one client).
A run sets the scenes up several times and reports the median set-up
time, then evaluates every scene of the suite, pass after pass, while
another pass fits in ``--seconds``. ``eval_s`` is the time of one
evaluation of the whole suite: each scene's median over the passes,
summed. Every timed call is bracketed by a fixed calibration loop and
scaled to a reference host speed (see ``hostspeed.py``); the wall times
are recorded beside the scaled ones. Every evaluation is checked:
against stored reference scores at the default seed, and against
invariants that need no reference at any seed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends the
first half of the run untraced and the second half with the tracer
installed, and reports per-layer metrics; the difference between the two
halves is the tracing overhead. ``--workload all`` runs every workload in
its own process, so that each peak RSS belongs to one workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The fail rate
(failed over attempted evaluations) is printed above it; it is not one
of the metrics because it reads 0 whenever the program is right. Each run also
writes its results, and for a traced run its spans, under ``mvbench/out/``.
Timings are process-local (``time.perf_counter`` and ``getrusage``); no
whole-machine tracing is used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
NOTE = (
    "timings are process-local (perf_counter, getrusage); no whole-machine tracing; "
    "eval_s and setup_s are scaled by a calibration loop run beside each timed call"
)

sys.path.insert(0, str(BENCH_DIR))

from hostspeed import REFERENCE_S, Bracketed, loop_seconds  # noqa: E402
from tracer import Tracer, children_of, summarize  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Scenes,
    Shape,
    Workload,
    canonical,
    evaluate_scene,
    invariant_problems,
    make_scenes,
    reference_problems,
    summary,
)

END_TO_END = {"eval_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# name: (unit, span names it needs)
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "matching.hungarian.calls": ("count", ("matching.hungarian",)),
    "matching.hungarian.cells": ("count", ("matching.hungarian",)),
    "matching.hungarian.s": ("s", ("matching.hungarian",)),
    "matching.minimize_cost.calls": ("count", ("matching.minimize_cost",)),
    "matching.minimize_cost.cells": ("count", ("matching.minimize_cost",)),
    "matching.minimize_cost.max_cells": ("count", ("matching.minimize_cost",)),
    "matching.minimize_cost.s": ("s", ("matching.minimize_cost",)),
    "matching.useful_solve_ratio": (
        "ratio",
        ("matching.hungarian", "matching.minimize_cost", "metrics.idf1.minimize_cost"),
    ),
    "matching.match_frame.calls": ("count", ("matching.match_frame",)),
    "matching.match_frame.s": ("s", ("matching.match_frame",)),
    "matching.assign_temporal_ids.s": ("s", ("matching.assign_temporal_ids",)),
    "matching.link.nameless_points": ("count", ("matching.assign_temporal_ids",)),
    "matching.link.ids_minted": ("count", ("matching.assign_temporal_ids",)),
    "matching.link.minted_ratio": ("ratio", ("matching.assign_temporal_ids",)),
    "metrics.idf1.calls": ("count", ("metrics.idf1",)),
    "metrics.idf1.s": ("s", ("metrics.idf1",)),
    "metrics.idf1.solves": ("count", ("metrics.idf1.minimize_cost",)),
    "metrics.idf1.cells": ("count", ("metrics.idf1.minimize_cost",)),
    "core.remap_gt_ids.s": ("s", ("core.remap_gt_ids",)),
    "metrics.evaluate_detailed.s": ("s", ("metrics.evaluate_detailed",)),
    "metrics.evaluate_detailed.self_s": ("s", ("metrics.evaluate_detailed",)),
    "metrics.classify_correspondence.s": ("s", ("metrics.classify_correspondence",)),
    "metrics.build_association_tally.s": ("s", ("metrics.build_association_tally",)),
    "metrics.occlusion_index.s": ("s", ("metrics.occlusion_index",)),
    "metrics.count_id_switches.s": ("s", ("metrics.count_id_switches",)),
    "core.parse_dataset.calls": ("count", ("core.parse_dataset",)),
    "core.parse_dataset.s": ("s", ("core.parse_dataset",)),
    "core.validate_pair.s": ("s", ("core.validate_pair",)),
    "cli.main.s": ("s", ("cli.main",)),
    "cli.main.self_s": ("s", ("cli.main",)),
    "cli.evaluate_calls": ("count", ("cli.main", "metrics.evaluate_detailed")),
    "cli.sweep_s": ("s", ("cli.main", "metrics.evaluate_detailed")),
    "synth.generate.s": ("s", ("synth.generate",)),
    "host.loop_s": ("s", ()),
    "host.wall_eval_s": ("s", ()),
    "trace.eval_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.spans": ("count", ()),
}
# Per-layer metrics that must read the same on every pass and every run.
COUNTERS = tuple(
    name for name, (unit, _) in PER_LAYER.items() if unit == "count" or name.endswith("_ratio")
)


# ---------------------------------------------------------------------------
# counting hooks: (counts, call arguments, result)


def _count_hungarian(counts: Counter, args: tuple, result: Any) -> None:
    counts["hungarian.calls"] += 1
    counts["hungarian.cells"] += len(args[1]) * len(args[2])


def _solve_counter(prefix: str):
    def count(counts: Counter, args: tuple, result: Any) -> None:
        entries = args[0]
        cells = len(entries) * (len(entries[0]) if len(entries) else 0)
        counts[f"{prefix}.calls"] += 1
        counts[f"{prefix}.cells"] += cells
        counts[f"{prefix}.max_cells"] = max(counts[f"{prefix}.max_cells"], cells)

    return count


def _count_link(counts: Counter, args: tuple, result: Any) -> None:
    nameless = [i for i, p in enumerate(args[0].points) if p.id is None]
    counts["link.nameless_points"] += len(nameless)
    counts["link.ids_minted"] += len({(result.points[i].view, result.points[i].id) for i in nameless})


def install_tracer(tracer: Tracer, mvteval: Any) -> None:
    """Wrap each layer's public functions at the name their callers use."""
    matching, metrics, cli = mvteval.matching, mvteval.metrics, mvteval.cli
    # the assignment solver, reached by match_frame and the linker through
    # matching.minimize_cost, and by idf1 through metrics.minimize_cost
    tracer.wrap(matching, "_hungarian", "matching.hungarian", _count_hungarian)
    tracer.wrap(matching, "minimize_cost", "matching.minimize_cost", _solve_counter("minimize_cost"))
    tracer.wrap(metrics, "minimize_cost", "metrics.idf1.minimize_cost", _solve_counter("idf1"))
    # the stages evaluate_detailed calls through the metrics module
    tracer.wrap(metrics, "match_frame", "matching.match_frame")
    tracer.wrap(metrics, "assign_temporal_ids", "matching.assign_temporal_ids", _count_link)
    tracer.wrap(metrics, "remap_gt_ids", "core.remap_gt_ids")
    for name in (
        "idf1",
        "classify_correspondence",
        "build_association_tally",
        "occlusion_index",
        "count_id_switches",
        "evaluate_detailed",
    ):
        tracer.wrap(metrics, name, f"metrics.{name}")
    # the CLI's own lookups
    tracer.wrap(cli, "parse_dataset", "core.parse_dataset")
    tracer.wrap(cli, "validate_pair", "core.validate_pair")
    tracer.wrap(cli, "evaluate_detailed", "metrics.evaluate_detailed")
    tracer.wrap(cli, "main", "cli.main")


def layer_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one pass, from its spans and counts."""
    by_name = summarize(spans)

    def total(name: str, key: str = "s") -> float:
        return by_name.get(name, {}).get(key, 0)

    sweeps = children_of(spans, "cli.main", "metrics.evaluate_detailed")
    solves = counts["minimize_cost.calls"] + counts["idf1.calls"]
    return {
        "matching.hungarian.calls": counts["hungarian.calls"],
        "matching.hungarian.cells": counts["hungarian.cells"],
        "matching.hungarian.s": total("matching.hungarian"),
        "matching.minimize_cost.calls": counts["minimize_cost.calls"],
        "matching.minimize_cost.cells": counts["minimize_cost.cells"],
        "matching.minimize_cost.max_cells": counts["minimize_cost.max_cells"],
        "matching.minimize_cost.s": total("matching.minimize_cost"),
        "matching.useful_solve_ratio": solves / counts["hungarian.calls"] if counts["hungarian.calls"] else 0.0,
        "matching.match_frame.calls": total("matching.match_frame", "calls"),
        "matching.match_frame.s": total("matching.match_frame"),
        "matching.assign_temporal_ids.s": total("matching.assign_temporal_ids"),
        "matching.link.nameless_points": counts["link.nameless_points"],
        "matching.link.ids_minted": counts["link.ids_minted"],
        "matching.link.minted_ratio": (
            counts["link.ids_minted"] / counts["link.nameless_points"] if counts["link.nameless_points"] else 0.0
        ),
        "metrics.idf1.calls": total("metrics.idf1", "calls"),
        "metrics.idf1.s": total("metrics.idf1"),
        "metrics.idf1.solves": counts["idf1.calls"],
        "metrics.idf1.cells": counts["idf1.cells"],
        "core.remap_gt_ids.s": total("core.remap_gt_ids"),
        "metrics.evaluate_detailed.s": total("metrics.evaluate_detailed"),
        "metrics.evaluate_detailed.self_s": total("metrics.evaluate_detailed", "self_s"),
        "metrics.classify_correspondence.s": total("metrics.classify_correspondence"),
        "metrics.build_association_tally.s": total("metrics.build_association_tally"),
        "metrics.occlusion_index.s": total("metrics.occlusion_index"),
        "metrics.count_id_switches.s": total("metrics.count_id_switches"),
        "core.parse_dataset.calls": total("core.parse_dataset", "calls"),
        "core.parse_dataset.s": total("core.parse_dataset"),
        "core.validate_pair.s": total("core.validate_pair"),
        "cli.main.s": total("cli.main"),
        "cli.main.self_s": total("cli.main", "self_s"),
        "cli.evaluate_calls": sum(len(group) for group in sweeps),
        "cli.sweep_s": sum(end - start for group in sweeps for _, start, end, _ in group[1:]),
        "trace.spans": len(spans),
    }


# ---------------------------------------------------------------------------
# set-up, passes and the check


def import_mvteval() -> Any:
    """Import mvteval afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "mvteval" or n.startswith("mvteval.")]:
        del sys.modules[name]
    mvteval = importlib.import_module("mvteval")
    importlib.import_module("mvteval.cli")
    if Path(mvteval.__file__).resolve().parent != SRC / "mvteval":
        raise SystemExit(f"error: imported mvteval from {mvteval.__file__}, not from {SRC}")
    return mvteval


def set_up(workload: Workload, shape: Shape, seed: int, workdir: Path) -> tuple[Scenes, Bracketed, list[float]]:
    """Import and generate SETUP_REPEATS times; return the last scenes and each time.

    Generation is also timed on its own, through a tracer that is removed
    before evaluation starts.
    """
    times = Bracketed(wall=[], loops=[loop_seconds()])
    generate_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mvteval = import_mvteval()
        tracer = Tracer()
        tracer.wrap(mvteval.synth, "generate", "synth.generate")
        scenes = make_scenes(mvteval, workload, shape, seed, workdir)
        times.wall.append(time.perf_counter() - start)
        times.loops.append(loop_seconds())
        tracer.remove()
        if tracer.present("synth.generate"):
            generate_s.append(summarize(tracer.take()[0])["synth.generate"]["s"])
    return scenes, times, generate_s


class Checker:
    """Checks every evaluation; counts what was attempted and what failed."""

    def __init__(self, reference: list[dict] | None):
        self.reference = reference
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, index: int, raw: Any, label: str) -> None:
        self.attempted += 1
        problems = self._problems(index, raw)
        if problems:
            self.failed += 1
            self.problems += [f"{label}, scene {index}: {p}" for p in problems[:5]]

    def _problems(self, index: int, raw: Any) -> list[str]:
        if isinstance(raw, Exception):
            return [f"raised {type(raw).__name__}: {raw}"]
        report = canonical(raw)
        s = summary(report)
        problems = invariant_problems(s)
        if self.reference is not None:
            problems += reference_problems(s, self.reference[index], "reference")
        if index not in self.first:
            self.first[index] = report
        elif report != self.first[index]:
            problems.append("report differs from the run's first evaluation of this scene")
        return problems


def run_passes(
    scenes: Scenes, workload: Workload, seconds: float, checker: Checker, label: str,
    tracer: Tracer | None = None,
) -> tuple[list[Bracketed], list[tuple[list, Counter]]]:
    """Evaluate every scene, pass after pass, while another pass fits in ``seconds``.

    Returns each pass's wall time of each scene with the calibration loops
    around them and, when traced, each pass's spans and counts.
    """
    passes: list[Bracketed] = []
    traces: list[tuple[list, Counter]] = []
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        outputs: list[Any] = []
        started = clock()
        times = Bracketed(wall=[], loops=[loop_seconds()])
        for index in range(len(scenes.pairs)):
            start = clock()
            try:
                outputs.append(evaluate_scene(scenes, workload, index))
            except Exception as exc:  # a failed evaluation is counted, not fatal
                outputs.append(exc)
            times.wall.append(clock() - start)
            times.loops.append(loop_seconds())
        passes.append(times)
        if tracer is not None:
            traces.append(tracer.take())
        for index, raw in enumerate(outputs):
            checker.check(index, raw, f"{label} pass {len(passes)}")
        if 2 * clock() - started > deadline:  # the next pass would overrun
            return passes, traces


def suite_seconds(passes: list[Bracketed], scaled: bool = True) -> float:
    """Seconds for one evaluation of the whole suite: each scene's median over the passes, summed.

    Scaled to the reference host speed unless ``scaled`` is false. The
    passes interleave the scenes, so each scene is sampled across the run.
    """
    per_pass = [p.scaled() if scaled else p.wall for p in passes]
    return sum(statistics.median(times) for times in zip(*per_pass))


def load_reference(workload: Workload, seed: int, smoke: bool) -> list[dict] | None:
    if smoke or seed != DEFAULT_SEED:
        return None
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error: no reference for {workload.name} in {REFERENCE}: {exc!r}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict[str, Any]:
    """One run of one workload; returns the results entry."""
    shape = workload.smoke if smoke else workload.shape
    reference = load_reference(workload, seed, smoke)
    checker = Checker(reference)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    traced_s: list[Bracketed] = []
    traces: list[tuple[list, Counter]] = []
    tracer = None
    try:
        scenes, setup_s, generate_s = set_up(workload, shape, seed, workdir)
        eval_s, _ = run_passes(scenes, workload, seconds / 2 if trace else seconds, checker, "untraced")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer = Tracer()
            install_tracer(tracer, scenes.mvteval)
            try:
                traced_s, traces = run_passes(scenes, workload, seconds / 2, checker, "traced", tracer)
            finally:
                tracer.remove()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    entry: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "shape": vars(shape),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "note": NOTE,
        "samples": {"setup": len(setup_s.wall), "untraced_passes": len(eval_s), "traced_passes": len(traced_s)},
        "reference_loop_s": REFERENCE_S,
        "eval_wall_s": suite_seconds(eval_s, scaled=False),
        "setup_wall_s": statistics.median(setup_s.wall),
        "eval_s_samples": [vars(p) for p in eval_s],
        "setup_s_samples": vars(setup_s),
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "fail_rate": checker.failed / checker.attempted,
        "problems": checker.problems[:50],
    }
    if not trace:
        entry["metrics"] = {
            "eval_s": suite_seconds(eval_s),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s.scaled()),
        }
        return entry

    per_pass = [layer_metrics(spans, counts) for spans, counts in traces]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    if generate_s:
        metrics["synth.generate.s"] = statistics.median(generate_s)
    metrics["host.loop_s"] = statistics.median(t for p in eval_s + traced_s for t in p.loops)
    metrics["host.wall_eval_s"] = entry["eval_wall_s"]
    metrics["trace.eval_s"] = suite_seconds(traced_s)
    entry["traced_eval_s_samples"] = [vars(p) for p in traced_s]
    metrics["trace.overhead_s"] = metrics["trace.eval_s"] - suite_seconds(eval_s)
    for name in COUNTERS:
        metrics[name] = per_pass[0][name]
    present = {name for name in tracer.installed if tracer.present(name)}
    if generate_s:
        present.add("synth.generate")
    absent = [name for name, (_, needs) in PER_LAYER.items() if not present.issuperset(needs)]
    entry["metrics"] = {name: metrics[name] for name in PER_LAYER if name not in absent}
    entry["absent"] = {"missing": tracer.missing, "broken": sorted(tracer.broken), "metrics": absent}
    entry["counters"] = {name: entry["metrics"][name] for name in COUNTERS if name in entry["metrics"]}
    entry["counters_repeat"] = all(p[name] == per_pass[0][name] for p in per_pass for name in COUNTERS)
    write_spans(OUT_DIR / f"{workload.name}-seed{seed}{'-smoke' if smoke else ''}.spans.tsv", traces)
    return entry


def write_spans(path: Path, traces: list[tuple[list, Counter]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tspan\tname\tstart\tend\tparent\n")
        for number, (spans, _) in enumerate(traces, 1):
            for index, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{number}\t{index}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


# ---------------------------------------------------------------------------
# command line


def _units(entry: dict[str, Any]) -> dict[str, str]:
    return {n: u for n, (u, _) in PER_LAYER.items()} if entry["trace"] else END_TO_END


def result_line(entry: dict[str, Any]) -> str:
    units = _units(entry)
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in entry["metrics"].items()},
        }
    )


def print_entry(entry: dict[str, Any]) -> None:
    units = _units(entry)
    name = entry["workload"]
    for metric, value in entry["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {units[metric]}")
    print(f"{name} samples: {entry['samples']}")
    print(f"{name} fail_rate = {entry['fail_rate']:.6g} ({entry['failed']} of {entry['attempted']} evaluations)")
    for problem in entry["problems"]:
        print(f"{name} check failed: {problem}")
    if entry["trace"] and not entry["counters_repeat"]:
        print(f"{name} warning: work counters differ between passes")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark mvteval's evaluate path.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 1:
        parser.error("--seed must be at least 1")
    if not (SRC / "mvteval" / "__init__.py").is_file():
        print(f"error: no mvteval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    entry = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    print_entry(entry)
    print(result_line(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
