"""One scene shared by every radius of a sweep scores each radius as a fresh evaluation would.

A scene links id-less predictions once, at its alpha, so each radius is
compared with a fresh evaluation of those linked predictions; per class,
each class with one of its own linked predictions.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvteval import cli, matching, metrics
from mvteval.core import (
    Dataset, EvalConfig, Point, Role, dataset_from_dict, parse_dataset, serialize_dataset,
)
from mvteval.metrics import MetricReport, Scene, evaluate, evaluate_detailed
from mvteval.synth import SynthConfig, generate

# a 64 x 48 image: its diagonal, 80 px, lies inside the sweeps below
SYNTH = SynthConfig(
    n_views=3,
    n_frames=8,
    n_points=6,
    image_width=64,
    image_height=48,
    motion_amplitude=8.0,
    disparity=4.0,
    pred_noise_sigma=1.5,
    pred_miss_rate=0.1,
    pred_fp_rate=0.5,
    view_drop_prob=0.15,
    id_switch_prob=0.05,
    seed=5,
)
LABELS = ("a", "b", None)


def labelled(dataset, offset):
    """The dataset with class labels spread over its points."""
    return dataset.with_points(
        Point(
            view=p.view, frame=p.frame, x=p.x, y=p.y, id=p.id,
            class_label=LABELS[(i + offset) % len(LABELS)],
        )
        for i, p in enumerate(dataset.points)
    )


def scene_pair(per_class=False, strip_ids=False):
    gt, pred = generate(SYNTH)
    if per_class:
        gt, pred = labelled(gt, 0), labelled(pred, 1)
    if strip_ids:
        pred = pred.with_points(
            Point(view=p.view, frame=p.frame, x=p.x, y=p.y, class_label=p.class_label)
            for p in pred.points
        )
    return gt, pred


def run_sweep(tmp_path, gt, pred, *flags):
    gt_path, pred_path, out = tmp_path / "gt.json", tmp_path / "pred.json", tmp_path / "out.json"
    serialize_dataset(gt, gt_path)
    serialize_dataset(pred, pred_path)
    code = cli.main(
        ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "json",
         "--output", str(out), *flags]
    )
    assert code == 0
    return (
        parse_dataset(gt_path, Role.GROUND_TRUTH),
        parse_dataset(pred_path, Role.PREDICTION),
        json.loads(out.read_text(encoding="utf-8")),
    )


def assert_scores_the_linked_predictions(shared, gt, pred, link_alpha, config):
    """``shared`` equals a fresh evaluation under ``config`` of the predictions
    linked at ``link_alpha``; per class, each class's result equals one of its
    own linked predictions."""
    scene = Scene(gt, pred, link_alpha)
    if not config.per_class:
        assert shared == evaluate_detailed(gt, scene.pred_with_ids, config)
        return
    matches = []
    for key, sub in scene.classes:
        fresh = evaluate_detailed(sub.gt, sub.pred_with_ids, replace(config, per_class=False))
        assert shared.report.per_class[key] == fresh.report
        matches.extend(fresh.matches)
    assert shared.matches == tuple(matches)


@pytest.mark.parametrize("per_class", [False, True])
@pytest.mark.parametrize("assign_ids", [False, True])
def test_every_sweep_row_equals_a_fresh_evaluation(tmp_path, per_class, assign_ids):
    gt, pred = scene_pair(per_class)
    flags = ["--alpha", "6", "--alpha-sweep", "2:122:4"]
    flags += ["--per-class"] * per_class + ["--assign-ids"] * assign_ids
    gt, pred, payload = run_sweep(tmp_path, gt, pred, *flags)
    if assign_ids:
        pred = pred.with_points(
            Point(view=p.view, frame=p.frame, x=p.x, y=p.y, class_label=p.class_label)
            for p in pred.points
        )

    radii = [row["alpha"] for row in payload["alpha_sweep"]]
    assert 6.0 in radii and radii[-1] > math.hypot(gt.image_width, gt.image_height)
    # every row scores the predictions linked at the headline's radius
    scene = Scene(gt, pred, 6.0, radii)
    for row in payload["alpha_sweep"]:
        config = EvalConfig(alpha=row["alpha"], per_class=per_class)
        shared = evaluate_detailed(gt, pred, config, scene=scene)
        assert row == {k: getattr(shared.report, k) for k in MetricReport._SWEEP_KEYS}
        assert_scores_the_linked_predictions(shared, gt, pred, 6.0, config)

    # the headline is the report of its own radius, sweep or no sweep
    headline = {k: v for k, v in payload.items() if k not in ("validation", "alpha_sweep")}
    report = evaluate(gt, pred, EvalConfig(alpha=6.0, per_class=per_class))
    assert headline == json.loads(json.dumps(report.to_dict()))


@pytest.mark.parametrize("per_class", [False, True])
@pytest.mark.parametrize("strip_ids", [False, True])
def test_shared_scene_gives_the_same_result(per_class, strip_ids):
    gt, pred = scene_pair(per_class, strip_ids)
    scene = Scene(gt, pred, 6.0, (100.0,))
    # repeated and out-of-order radii, so later calls reuse earlier matches
    for alpha in (12.0, 2.0, 6.0, 6.0, 100.0, 3.5, 12.0):
        config = EvalConfig(alpha=alpha, per_class=per_class)
        shared = evaluate_detailed(gt, pred, config, scene=scene)
        assert_scores_the_linked_predictions(shared, gt, pred, 6.0, config)
        if alpha == 6.0 or not strip_ids:
            assert shared == evaluate_detailed(gt, pred, config)


ID_MODES = ("kept", "half stripped", "all stripped")


@given(
    seed=st.integers(0, 10_000),
    n_views=st.integers(1, 4),
    ids=st.sampled_from(ID_MODES),
    per_class=st.booleans(),
    radii=st.lists(st.sampled_from([0.5, 2.0, 3.5, 6.0, 12.0, 100.0]), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_a_shared_scene_scores_every_radius_as_a_fresh_evaluation(
    seed, n_views, ids, per_class, radii
):
    gt, pred = generate(replace(SYNTH, n_views=n_views, seed=seed))
    if per_class:
        gt, pred = labelled(gt, 0), labelled(pred, 1)
    if ids != "kept":
        pred = pred.with_points(
            replace(p, id=None) if ids == "all stripped" or i % 2 else p
            for i, p in enumerate(pred.points)
        )
    # linked at the first radius drawn
    scene = Scene(gt, pred, radii[0], radii)
    # the drawn order, then largest first, so radii repeat and come out of order
    for alpha in radii + sorted(radii, reverse=True):
        config = EvalConfig(alpha=alpha, per_class=per_class)
        shared = evaluate_detailed(gt, pred, config, scene=scene)
        assert_scores_the_linked_predictions(shared, gt, pred, radii[0], config)
        if alpha == radii[0] or ids == "kept":
            assert shared == evaluate_detailed(gt, pred, config)


def count_calls(monkeypatch, module, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("assign_ids", [False, True])
def test_a_sweep_relabels_and_measures_occlusion_once(tmp_path, monkeypatch, assign_ids):
    calls = count_calls(monkeypatch, metrics, "remap_gt_ids", "occlusion_index")
    evaluations = count_calls(monkeypatch, cli, "evaluate_detailed")
    gt, pred = scene_pair()
    flags = ["--alpha-sweep", "2:12:2", "--dump-matches", str(tmp_path / "matches.json")]
    flags += ["--assign-ids"] * assign_ids
    run_sweep(tmp_path, gt, pred, *flags)
    # matching runs on the ground truth's own ids, so nothing is relabelled
    assert calls == {"remap_gt_ids": 0, "occlusion_index": 1}
    assert evaluations == {"evaluate_detailed": 7}  # the headline and six radii


def count_builds(monkeypatch, *names):
    """Replace each named ``Dataset`` index with one that records the datasets it is built for."""
    builds = {name: [] for name in names}
    for name in names:
        original = getattr(Dataset, name).func

        def counted(dataset, _name=name, _original=original):
            builds[_name].append(dataset)
            return _original(dataset)

        index = cached_property(counted)
        index.__set_name__(Dataset, name)
        monkeypatch.setattr(Dataset, name, index)
    return builds


@pytest.mark.parametrize("strip_ids", [False, True])
def test_a_fresh_evaluation_builds_the_ground_truths_view_masks_once(monkeypatch, strip_ids):
    builds = count_builds(monkeypatch, "view_masks", "frame_counts")
    calls = count_calls(monkeypatch, metrics, "occlusion_index")
    gt, pred = scene_pair(strip_ids=strip_ids)
    first = evaluate_detailed(gt, pred)
    # the occlusion report and correspondence read one build of the ground
    # truth's masks; the predictions, linked or as given, are built once too
    scored = sorted(map(id, (gt, first.pred_with_ids)))
    assert {name: sorted(map(id, built)) for name, built in builds.items()} == {
        "view_masks": scored, "frame_counts": scored
    }
    assert calls == {"occlusion_index": 1}
    # the same objects again build nothing; only predictions linked afresh do
    again = evaluate_detailed(gt, pred)
    fresh = [id(again.pred_with_ids)] if strip_ids else []
    assert {name: [id(d) for d in built[2:]] for name, built in builds.items()} == {
        "view_masks": fresh, "frame_counts": fresh
    }
    assert again == first


@pytest.mark.parametrize("strip_ids", [False, True])
def test_a_dataset_builds_its_per_frame_index_once_on_first_read(monkeypatch, strip_ids):
    builds = count_builds(monkeypatch, "_by_frame")["_by_frame"]
    gt, pred = scene_pair(strip_ids=strip_ids)
    parsed = dataset_from_dict(gt.to_dict(), Role.GROUND_TRUTH)
    derived = parsed._with_valid_points(parsed.points)
    assert builds == []
    # the first read builds it, and later reads keep it
    assert derived.at(0, 0) == parsed.at(0, 0) != ()
    assert parsed.at(1, 2) == derived.at(1, 2) and derived.at(2, 7) == parsed.at(2, 7)
    assert [id(d) for d in builds] == [id(derived), id(parsed)]
    # scoring builds the predictions' index and, when linked, the linked ones'
    first = evaluate_detailed(parsed, pred)
    scored = {id(pred), id(first.pred_with_ids)}
    assert sorted(id(d) for d in builds[2:]) == sorted(scored)
    # the same objects again build nothing; only predictions linked afresh do
    again = evaluate_detailed(parsed, pred)
    fresh = [id(again.pred_with_ids)] if strip_ids else []
    assert [id(d) for d in builds[2 + len(scored):]] == fresh
    assert again == first


@pytest.mark.parametrize("per_class", [False, True])
def test_an_id_less_sweep_links_once_per_scene(tmp_path, monkeypatch, per_class):
    calls = count_calls(monkeypatch, metrics, "assign_temporal_ids")
    # a class per view, so that every class has points on both sides
    gt, pred = (
        dataset.with_points(replace(p, class_label=LABELS[p.view]) for p in dataset.points)
        for dataset in scene_pair()
    )
    flags = ["--assign-ids", "--alpha-sweep", "2:12:2"] + ["--per-class"] * per_class
    run_sweep(tmp_path, gt, pred, *flags)
    # once for all six radii; each class links on its own, and the scene
    # that holds the classes scores none of its predictions
    assert calls == {"assign_temporal_ids": len(LABELS) if per_class else 1}


def test_a_shared_scene_links_once_at_its_alpha(monkeypatch):
    gt, pred = scene_pair(strip_ids=True)
    scene = Scene(gt, pred, 6.0, (12.0,))
    calls = count_calls(monkeypatch, metrics, "assign_temporal_ids")
    results = [
        evaluate_detailed(gt, pred, EvalConfig(alpha), scene=scene) for alpha in (2.0, 12.0, 6.0)
    ]
    assert calls == {"assign_temporal_ids": 1}
    linked = matching.assign_temporal_ids(pred, EvalConfig(6.0))
    assert [result.pred_with_ids for result in results] == [linked] * 3


def test_an_id_less_sweep_matches_no_more_frames_than_one_with_ids(tmp_path, monkeypatch):
    gt, pred = scene_pair(strip_ids=True)
    # the predictions that the sweep's scene links, at the headline's radius
    linked = evaluate_detailed(gt, pred, EvalConfig(6.0)).pred_with_ids
    calls = count_calls(monkeypatch, metrics, "match_frame")
    run_sweep(tmp_path, gt, pred, "--alpha-sweep", "2:12:2")
    nameless = calls["match_frame"]
    run_sweep(tmp_path, gt, linked, "--alpha-sweep", "2:12:2")
    # every radius reads one set of memos, so a frame whose pair count two
    # radii share is matched once
    assert calls["match_frame"] - nameless == nameless


def assert_a_repeated_radius_makes_no_new_match(monkeypatch, gt, pred):
    scene = Scene(gt, pred, 12.0)
    calls = count_calls(monkeypatch, metrics, "match_frame")
    first = evaluate_detailed(gt, pred, EvalConfig(alpha=6.0), scene=scene)
    assert calls["match_frame"] == SYNTH.n_views * SYNTH.n_frames
    again = evaluate_detailed(gt, pred, EvalConfig(alpha=6.0), scene=scene)
    assert calls["match_frame"] == SYNTH.n_views * SYNTH.n_frames
    assert again == first


def test_a_repeated_radius_makes_no_new_match(monkeypatch):
    assert_a_repeated_radius_makes_no_new_match(monkeypatch, *scene_pair())


def test_a_repeated_radius_makes_no_new_match_for_linked_predictions(monkeypatch):
    assert_a_repeated_radius_makes_no_new_match(monkeypatch, *scene_pair(strip_ids=True))


def test_scene_must_belong_to_the_pair_and_cover_the_radius():
    gt, pred = scene_pair()
    scene = Scene(gt, pred, 6.0)
    with pytest.raises(ValueError, match="radius"):
        evaluate_detailed(gt, pred, EvalConfig(alpha=8.0), scene=scene)
    other_gt, _ = generate(SynthConfig(n_views=3, n_frames=8, n_points=6, seed=6))
    with pytest.raises(ValueError, match="different"):
        evaluate_detailed(other_gt, pred, EvalConfig(alpha=6.0), scene=scene)
    with pytest.raises(ValueError, match="order"):
        Scene(pred, gt, 6.0)


@pytest.mark.parametrize("per_class", [False, True])
@pytest.mark.parametrize("strip_ids", [False, True])
def test_a_repeated_radius_scores_no_view_again(monkeypatch, per_class, strip_ids):
    gt, pred = scene_pair(per_class, strip_ids)
    radii = (6.0, 2.0, 6.0, 12.0, 2.0)
    scene = Scene(gt, pred, radii[0], radii)
    calls = count_calls(monkeypatch, metrics, "idf1", "build_association_tally")
    shared, counts = [], []
    for alpha in radii:
        shared.append(evaluate_detailed(gt, pred, EvalConfig(alpha, per_class), scene=scene))
        counts.append(dict(calls))
    assert counts[0]["idf1"] > 0 and counts[0]["build_association_tally"] > 0
    # the second visits of 6 and 2 find every view already scored
    assert counts[2] == counts[1] and counts[4] == counts[3]
    for alpha, result in zip(radii, shared):
        config = EvalConfig(alpha, per_class)
        assert_scores_the_linked_predictions(result, gt, pred, radii[0], config)


@pytest.mark.parametrize("per_class", [False, True])
@pytest.mark.parametrize("strip_ids", [False, True])
def test_a_repeated_radius_classifies_no_frame_column_again(monkeypatch, per_class, strip_ids):
    gt, pred = scene_pair(per_class, strip_ids)
    radii = (6.0, 2.0, 6.0, 12.0, 2.0, 12.0)
    scene = Scene(gt, pred, radii[0], radii)
    calls = count_calls(monkeypatch, metrics, "classify_correspondence")
    shared, counts = [], []
    for alpha in radii:
        shared.append(evaluate_detailed(gt, pred, EvalConfig(alpha, per_class), scene=scene))
        counts.append(calls["classify_correspondence"])
    # one call per frame column, in each class's scene
    n_scenes = len(scene.classes) if per_class else 1
    assert counts[0] == n_scenes * SYNTH.n_frames
    # the second visits of 6, 2 and 12 find every column already classified
    assert counts[2] == counts[1] and counts[4] == counts[3] and counts[5] == counts[4]
    for alpha, result in zip(radii, shared):
        config = EvalConfig(alpha, per_class)
        assert_scores_the_linked_predictions(result, gt, pred, radii[0], config)
