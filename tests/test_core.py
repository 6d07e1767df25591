"""Dataset parsing, serialization, id remapping and pair validation."""

from __future__ import annotations

import io
import json
import math

import pytest

from mvteval.core import (
    Dataset,
    DatasetError,
    Point,
    Role,
    dataset_from_dict,
    parse_dataset,
    remap_gt_ids,
    serialize_dataset,
    validate_pair,
)
from mvteval.synth import SynthConfig, generate

MINIMAL = {
    "n_views": 1,
    "n_frames": 1,
    "image_width": 100,
    "image_height": 100,
    "points": [{"view": 0, "frame": 0, "x": 10, "y": 10, "id": "a", "class": None}],
}


def make_dataset(points, n_views=2, n_frames=4, role=Role.GROUND_TRUTH, size=100):
    return Dataset(
        n_views=n_views,
        n_frames=n_frames,
        image_width=size,
        image_height=size,
        points=tuple(points),
        role=role,
    )


def test_parse_minimal_file():
    ds = parse_dataset(io.StringIO(json.dumps(MINIMAL)), Role.GROUND_TRUTH)
    assert len(ds.points) == 1
    assert ds.points[0] == Point(view=0, frame=0, x=10.0, y=10.0, id="a")


def test_parse_duplicate_gt_id_same_view_frame_rejected():
    doc = dict(MINIMAL)
    doc["points"] = [
        {"view": 0, "frame": 0, "x": 10, "y": 10, "id": "a"},
        {"view": 0, "frame": 0, "x": 20, "y": 20, "id": "a"},
    ]
    with pytest.raises(DatasetError, match="duplicate"):
        dataset_from_dict(doc, Role.GROUND_TRUTH)


def test_same_id_in_other_view_or_frame_is_fine():
    doc = {
        "n_views": 2,
        "n_frames": 2,
        "image_width": 100,
        "image_height": 100,
        "points": [
            {"view": 0, "frame": 0, "x": 10, "y": 10, "id": "a"},
            {"view": 1, "frame": 0, "x": 15, "y": 10, "id": "a"},
            {"view": 0, "frame": 1, "x": 11, "y": 10, "id": "a"},
        ],
    }
    ds = dataset_from_dict(doc, Role.GROUND_TRUTH)
    assert len(ds.points) == 3


@pytest.mark.parametrize(
    "mutate, position_part",
    [
        (lambda d: d.pop("n_views"), "$"),
        (lambda d: d["points"][0].pop("x"), "points[0]"),
        (lambda d: d["points"][0].update(x=101), "points[0].x"),
        (lambda d: d["points"][0].update(y=-1), "points[0].y"),
        (lambda d: d["points"][0].update(view=1), "points[0].view"),
        (lambda d: d["points"][0].update(frame=3), "points[0].frame"),
        (lambda d: d.update(n_views=0), "n_views"),
        (lambda d: d["points"][0].update(id=None), "points[0].id"),
        (lambda d: d["points"][0].update(x="wat"), "points[0].x"),
    ],
)
def test_schema_violations_carry_positions(mutate, position_part):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(DatasetError) as err:
        dataset_from_dict(doc, Role.GROUND_TRUTH)
    assert position_part in str(err.value)


def test_malformed_json_reports_location():
    with pytest.raises(DatasetError, match="malformed JSON"):
        parse_dataset(io.StringIO("{not json"), Role.GROUND_TRUTH)


def test_prediction_ids_may_be_absent():
    doc = dict(MINIMAL)
    doc["points"] = [{"view": 0, "frame": 0, "x": 10, "y": 10, "id": None}]
    ds = dataset_from_dict(doc, Role.PREDICTION)
    assert ds.points[0].id is None
    with pytest.raises(DatasetError):
        dataset_from_dict(doc, Role.GROUND_TRUTH)


@pytest.mark.parametrize("seed", range(8))
def test_serialize_parse_round_trip(seed, tmp_path):
    gt, pred = generate(
        SynthConfig(
            n_views=3,
            n_frames=6,
            n_points=5,
            view_drop_prob=0.2,
            temporal_drop_prob=0.1,
            pred_noise_sigma=1.5,
            pred_fp_rate=0.5,
            pred_miss_rate=0.2,
            seed=seed,
        )
    )
    for ds, role in ((gt, Role.GROUND_TRUTH), (pred, Role.PREDICTION)):
        path = tmp_path / f"{role.value}_{seed}.json"
        serialize_dataset(ds, path)
        again = parse_dataset(path, role)
        assert again == ds


def test_remap_two_ids_single_view():
    ds = make_dataset(
        [
            Point(view=0, frame=0, x=1, y=1, id="s7"),
            Point(view=0, frame=0, x=2, y=2, id="s9"),
        ],
        n_views=1,
        n_frames=1,
    )
    remapped, id_map = remap_gt_ids(ds)
    assert id_map.to_local[0] == {"s7": 0, "s9": 1}
    assert [p.id for p in remapped.points] == ["0", "1"]


def test_remap_is_scoped_per_view():
    ds = make_dataset(
        [
            Point(view=0, frame=0, x=1, y=1, id="a"),
            Point(view=1, frame=0, x=1, y=1, id="b"),
        ]
    )
    _, id_map = remap_gt_ids(ds)
    assert id_map.to_local[0] == {"a": 0}
    assert id_map.to_local[1] == {"b": 0}
    assert "b" not in id_map.to_local[0]


@pytest.mark.parametrize("seed", range(6))
def test_remap_inverse_restores_ids_exactly(seed):
    gt, _ = generate(
        SynthConfig(n_views=3, n_frames=5, n_points=6, view_drop_prob=0.3, seed=seed)
    )
    remapped, id_map = remap_gt_ids(gt)
    assert len(remapped.points) == len(gt.points)
    for original, local in zip(gt.points, remapped.points):
        assert (original.x, original.y) == (local.x, local.y)
        assert id_map.to_global[local.view][int(local.id)] == original.id
    # contiguity: local indices per view are exactly 0..k-1
    for view, mapping in id_map.to_local.items():
        assert sorted(mapping.values()) == list(range(len(mapping)))


def test_eval_config_rejects_non_positive_alpha():
    from mvteval.core import EvalConfig

    with pytest.raises(ValueError):
        EvalConfig(alpha=0.0)
    with pytest.raises(ValueError):
        EvalConfig(alpha=-3.0)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_eval_config_rejects_a_non_finite_alpha(alpha):
    from mvteval.core import EvalConfig

    with pytest.raises(ValueError, match="finite"):
        EvalConfig(alpha=alpha)
    assert EvalConfig(alpha=1e9).alpha == 1e9


@pytest.mark.parametrize("policy", [-0.1, 1.5, math.nan, math.inf])
def test_eval_config_rejects_a_zero_tp_policy_outside_the_unit_interval(policy):
    from mvteval.core import EvalConfig

    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        EvalConfig(zero_tp_policy=policy)
    assert EvalConfig(zero_tp_policy=0.0).zero_tp_policy == 0.0
    assert EvalConfig(zero_tp_policy=1.0).zero_tp_policy == 1.0


def test_validate_identical_pair_is_clean():
    gt, pred = generate(SynthConfig(n_views=2, n_frames=4, n_points=3, seed=1))
    report = validate_pair(gt, pred)
    assert not report.has_geometry_mismatch
    assert report.issues == ()


def test_validate_flags_view_count_mismatch():
    gt = make_dataset([Point(view=0, frame=0, x=1, y=1, id="a")], n_views=2)
    pred = make_dataset([], n_views=1, role=Role.PREDICTION)
    report = validate_pair(gt, pred)
    assert report.has_geometry_mismatch
    assert any("n_views" in issue.detail for issue in report.geometry)


def test_validate_reports_each_missing_frame():
    gt = make_dataset(
        [Point(view=0, frame=f, x=1, y=1, id="a") for f in range(10)], n_frames=10
    )
    pred = make_dataset(
        [Point(view=0, frame=f, x=1, y=1, id="p") for f in range(5)],
        n_frames=10,
        role=Role.PREDICTION,
    )
    report = validate_pair(gt, pred)
    assert not report.has_geometry_mismatch
    missing = [i for i in report.coverage if i.kind == "missing-frame"]
    assert len(missing) == 5


def test_validate_does_not_mutate_inputs():
    gt = make_dataset([Point(view=0, frame=0, x=1, y=1, id="a")])
    pred = make_dataset([], role=Role.PREDICTION)
    before = (gt.points, pred.points)
    validate_pair(gt, pred)
    assert (gt.points, pred.points) == before
