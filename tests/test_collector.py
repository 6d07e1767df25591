"""Reading and scoring run with the cyclic garbage collector paused.

The pause is sound only while reading and scoring make no reference
cycles: a cycle made during a paused call lives until the call returns.
These tests pin that fact, and that every entry point leaves the
collector as it found it, on return and on error.
"""

from __future__ import annotations

import gc
import io
from dataclasses import replace

import pytest

from mvteval import cli
from mvteval.core import EvalConfig, Role, parse_dataset, serialize_dataset
from mvteval.metrics import EvaluationError, Scene, evaluate_detailed
from mvteval.synth import SynthConfig, generate

NOISY = dict(
    pred_noise_sigma=1.5,
    pred_miss_rate=0.1,
    pred_fp_rate=0.5,
    view_drop_prob=0.15,
    id_switch_prob=0.02,
)


def _pair(seed: int = 3):
    return generate(SynthConfig(n_views=3, n_frames=40, n_points=6, seed=seed, **NOISY))


def _stripped():
    gt, pred = _pair()
    return gt, pred.with_points(replace(p, id=None) for p in pred.points)


def _labelled():
    gt, pred = _pair()

    def label(dataset):
        return dataset.with_points(
            replace(p, class_label="ab"[i % 2]) for i, p in enumerate(dataset.points)
        )

    return label(gt), label(pred)


def _score(gt, pred, config):
    evaluate_detailed(gt, pred, config)


def _score_radii(gt, pred, config):
    scene = Scene(gt, pred, 12.0)
    for alpha in (6.0, 12.0, 2.0, 8.0, 4.0, 6.0):
        evaluate_detailed(gt, pred, replace(config, alpha=alpha), scene=scene)


CASES = {
    "ids kept": (_pair, _score, EvalConfig()),
    "ids stripped": (_stripped, _score, EvalConfig()),
    "per class": (_labelled, _score, EvalConfig(per_class=True)),
    "one scene, radii out of order": (_stripped, _score_radii, EvalConfig()),
}


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Start with the collector on or off, and put back the state it had."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if enabled else gc.disable)()


# off, so that no cycle is reclaimed before it is counted
@pytest.mark.parametrize("collector", [False], ids=["off"], indirect=True)
@pytest.mark.parametrize("case", CASES)
def test_reading_and_scoring_make_no_reference_cycles(case, collector):
    make, run, config = CASES[case]
    gt, pred = make()
    texts = [serialize_dataset(gt), serialize_dataset(pred)]
    gc.collect()

    for text, role in zip(texts, (Role.GROUND_TRUTH, Role.PREDICTION)):
        parse_dataset(io.StringIO(text), role)
    assert gc.collect() == 0

    run(gt, pred, config)
    assert gc.collect() == 0


@pytest.fixture
def files(tmp_path):
    gt, pred = generate(SynthConfig(n_views=2, n_frames=6, n_points=4, seed=5, **NOISY))
    serialize_dataset(gt, tmp_path / "gt.json")
    serialize_dataset(pred, tmp_path / "pred.json")
    (tmp_path / "bad.json").write_text("{", encoding="utf-8")
    return tmp_path


def test_evaluate_detailed_restores_the_collector(collector):
    gt, pred = _pair()
    evaluate_detailed(gt, pred)
    assert gc.isenabled() is collector

    wider = replace(pred, image_width=gt.image_width + 1)
    with pytest.raises(EvaluationError, match="image dimensions differ"):
        evaluate_detailed(gt, wider)
    assert gc.isenabled() is collector


@pytest.mark.parametrize(
    "command, pred, code",
    [
        ("evaluate --format json --alpha-sweep 2:12:2", "pred.json", 0),
        ("evaluate --meta --format csv", "pred.json", 1),
        ("evaluate", "bad.json", 2),
        ("validate", "pred.json", 0),
    ],
    ids=["scored", "refused flags", "malformed file", "validate"],
)
def test_main_restores_the_collector(collector, files, capsys, command, pred, code):
    argv = [*command.split(), "--gt", str(files / "gt.json"), "--pred", str(files / pred)]
    assert cli.main(argv) == code
    assert gc.isenabled() is collector


def test_main_restores_the_collector_when_argparse_exits(collector, capsys):
    with pytest.raises(SystemExit):
        cli.main(["evaluate", "--no-such-flag"])
    assert gc.isenabled() is collector


@pytest.mark.parametrize("collector", [True], ids=["on"], indirect=True)
def test_no_collection_starts_while_scoring(collector):
    gt, pred = _pair()
    generations: list[int] = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        evaluate_detailed(gt, pred)
        # a count, not a copy: a new list would start the collection the call deferred
        during = len(generations)
    finally:
        gc.callbacks.remove(record)
    assert during == 0
