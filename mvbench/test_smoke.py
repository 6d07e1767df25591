"""Fast smoke test of the benchmark itself, at a 2 x 6 x 4 scene shape.

    python3 -m pytest mvbench/test_smoke.py -q

Exercises the untraced run, the traced run and the output check of every
workload in a few seconds; the full-size runs go through run.py.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from hostspeed import REFERENCE_S, Bracketed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, canonical, evaluate_scene, invariant_problems, make_scenes, summary  # noqa: E402

SEED = 2
SECONDS = 0.05


@pytest.fixture(autouse=True)
def mvteval_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(name):
    entry = run.run_workload(WORKLOADS[name], SEED, SECONDS, trace=False, smoke=True)
    assert entry["correct"], entry["problems"]
    assert entry["attempted"] >= 1 and entry["failed"] == 0
    assert set(entry["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in entry["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_with_repeatable_counts(name):
    first = run.run_workload(WORKLOADS[name], SEED, SECONDS, trace=True, smoke=True)
    second = run.run_workload(WORKLOADS[name], SEED, SECONDS, trace=True, smoke=True)
    assert first["correct"], first["problems"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    assert first["absent"]["metrics"] == []
    assert first["counters_repeat"]
    assert {c: first["metrics"][c] for c in run.COUNTERS} == {c: second["metrics"][c] for c in run.COUNTERS}
    assert first["metrics"]["matching.hungarian.calls"] > 0


def test_cli_workload_counts_the_sweep():
    entry = run.run_workload(WORKLOADS["wide_cli_sweep"], SEED, SECONDS, trace=True, smoke=True)
    assert entry["metrics"]["cli.evaluate_calls"] == 7  # 1 + the 6 radii of 2:12:2
    assert entry["metrics"]["core.parse_dataset.calls"] == 2


def test_missing_name_drops_only_its_metrics(monkeypatch):
    wrap = Tracer.wrap

    def wrap_with_solver_gone(self, module, attr, name, count=None):
        return wrap(self, module, "_gone" if attr == "_hungarian" else attr, name, count)

    monkeypatch.setattr(Tracer, "wrap", wrap_with_solver_gone)
    entry = run.run_workload(WORKLOADS["dense_ids"], SEED, SECONDS, trace=True, smoke=True)
    assert entry["correct"], entry["problems"]
    assert entry["absent"]["missing"] == ["mvteval.matching._gone"]
    dropped = {"matching.hungarian.calls", "matching.hungarian.cells", "matching.hungarian.s",
               "matching.useful_solve_ratio"}
    assert set(entry["absent"]["metrics"]) == dropped
    assert set(entry["metrics"]) == set(run.PER_LAYER) - dropped


def test_count_hook_that_no_longer_fits_is_dropped_not_fatal():
    tracer = Tracer()
    module = types.SimpleNamespace(__name__="m", solve=lambda: 3)
    tracer.wrap(module, "solve", "m.solve", lambda counts, args, result: args[0])
    assert module.solve() == 3
    assert not tracer.present("m.solve")
    tracer.remove()


def test_check_rejects_a_wrong_score_and_a_broken_tally(tmp_path):
    workload = WORKLOADS["dense_ids"]
    scenes = make_scenes(run.import_mvteval(), workload, workload.smoke, SEED, tmp_path)
    good = summary(canonical(evaluate_scene(scenes, workload, 0)))
    assert invariant_problems(good) == []

    wrong = summary(canonical(evaluate_scene(scenes, workload, 0)))
    wrong["scores"]["mv_hota"] += 1e-6
    checker = run.Checker(reference=[wrong])
    checker.check(0, evaluate_scene(scenes, workload, 0), "test")
    assert checker.failed == 1

    broken = summary(canonical(evaluate_scene(scenes, workload, 0)))
    broken["tallies"]["fn"] += 1
    assert any("gt_observations" in p for p in invariant_problems(broken))


def test_reference_matches_at_the_default_seed_for_the_cheapest_workload():
    entry = run.run_workload(WORKLOADS["wide_cli_sweep"], run.DEFAULT_SEED, SECONDS, trace=False)
    assert entry["correct"], entry["problems"]


def test_scaled_time_divides_by_the_mean_of_the_loops_around_each_call():
    times = Bracketed(wall=[1.0, 3.0], loops=[REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S])
    assert times.scaled() == pytest.approx([0.5, 1.5])
    assert run.suite_seconds([times]) == pytest.approx(2.0)
    assert run.suite_seconds([times], scaled=False) == pytest.approx(4.0)
