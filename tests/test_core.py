"""Dataset parsing, serialization, id remapping and pair validation."""

from __future__ import annotations

import copy
import io
import json
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from mvteval import cli
from mvteval.core import (
    Dataset,
    DatasetError,
    EvalConfig,
    Point,
    Role,
    dataset_from_dict,
    parse_dataset,
    remap_gt_ids,
    serialize_dataset,
    validate_pair,
)
from mvteval.matching import assign_temporal_ids
from mvteval.metrics import Scene, evaluate_detailed
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


def document(*points, **header):
    """A one-view, two-frame 100 x 100 document with the given points and header overrides."""
    doc = {"n_views": 1, "n_frames": 2, "image_width": 100, "image_height": 100}
    doc.update(header)
    doc["points"] = [
        {"view": 0, "frame": 0, "x": 10, "y": 10, "id": "a", **point} for point in points
    ]
    return doc


def without(key, **point):
    """One point's fields with ``key`` left out."""
    fields = {"view": 0, "frame": 0, "x": 10, "y": 10, "id": "a", **point}
    del fields[key]
    return fields


# (document, role, the full message), one check per row and then documents
# that fail more than one check, whose first error is the one reported
GT, PRED = Role.GROUND_TRUTH, Role.PREDICTION
PARSE_ERRORS = [
    ([], GT, "$: top-level value must be an object"),
    ({"n_views": 1}, GT, "$: missing required field 'points'"),
    ({"points": {}}, GT, "points: points must be an array"),
    (document(), GT, None),
    ({**document(), "points": [3]}, GT, "points[0]: point must be an object"),
    ({**document(), "points": [without("view")]}, GT, "points[0]: missing required field 'view'"),
    (document({"view": True}), GT, "points[0].view: expected integer, got True"),
    ({**document(), "points": [without("frame")]}, GT, "points[0]: missing required field 'frame'"),
    (document({"frame": 1.0}), GT, "points[0].frame: expected integer, got 1.0"),
    ({**document(), "points": [without("x")]}, GT, "points[0]: missing required field 'x'"),
    (document({"x": "wat"}), GT, "points[0].x: expected number, got 'wat'"),
    (document({"x": False}), GT, "points[0].x: expected number, got False"),
    ({**document(), "points": [without("y")]}, GT, "points[0]: missing required field 'y'"),
    (document({"y": None}), GT, "points[0].y: expected number, got None"),
    (document({"id": 3}), GT, "points[0].id: expected string or null, got 3"),
    (document({"class": ["a"]}), GT, "points[0].class: expected string or null, got ['a']"),
    ({k: v for k, v in document().items() if k != "n_views"}, GT,
     "$: missing required field 'n_views'"),
    (document(n_frames="2"), GT, "n_frames: expected integer, got '2'"),
    (document(image_width=100.0), GT, "image_width: expected integer, got 100.0"),
    (document(image_height=True), GT, "image_height: expected integer, got True"),
    (document(n_views=0), GT, "n_views: n_views must be >= 1"),
    (document(n_frames=-1), GT, "n_frames: n_frames must be >= 1"),
    (document(image_width=0), GT, "image_width: image dimensions must be positive"),
    (document(image_height=-5), GT, "image_width: image dimensions must be positive"),
    (document({"view": 1}), GT, "points[0].view: view 1 out of range"),
    (document({"view": -1}), GT, "points[0].view: view -1 out of range"),
    (document({"frame": 2}), GT, "points[0].frame: frame 2 out of range"),
    (document({"x": 100.5}), GT, "points[0].x: x=100.5 outside image"),
    (document({"x": -1}), GT, "points[0].x: x=-1.0 outside image"),
    (document({"x": math.nan}), GT, "points[0].x: x=nan outside image"),
    (document({"y": math.inf}), GT, "points[0].y: y=inf outside image"),
    (document({"id": None}), GT, "points[0].id: ground-truth point without id"),
    ({**document(), "points": [without("id")]}, GT, "points[0].id: ground-truth point without id"),
    (document({"id": None}, {"id": None}), PRED, None),
    (document({}, {"x": 20}), GT, "points[1].id: duplicate id 'a' in view 0, frame 0"),
    (document({}, {"x": 20}), PRED, "points[1].id: duplicate id 'a' in view 0, frame 0"),
    (document({}, {"frame": 1}, {"id": "b"}), GT, None),
    # a type error comes before every other error, even of an earlier point
    (document({"x": 500}, {"view": "0"}), GT, "points[1].view: expected integer, got '0'"),
    (document({"id": None}, {"y": "1"}, n_views="1"), GT, "points[1].y: expected number, got '1'"),
    (document({}, {"x": 20}, {"class": 1}), GT, "points[2].class: expected string or null, got 1"),
    # then the header, in field order, even where a point is out of range
    (document({"view": 7}, n_views="2"), GT, "n_views: expected integer, got '2'"),
    (document({"view": 7}, n_frames=None, image_width="w"), GT,
     "n_frames: expected integer, got None"),
    (document(n_views=0, image_height="h"), GT, "image_height: expected integer, got 'h'"),
    # then the geometry, in field order, even where a point is out of range
    (document({"view": 3}, n_views=0), GT, "n_views: n_views must be >= 1"),
    (document({"x": 500}, n_frames=0, image_width=0), GT, "n_frames: n_frames must be >= 1"),
    (document({"id": None}, image_width=0), GT, "image_width: image dimensions must be positive"),
    # then the first point out of range, without an id or with a repeated id
    (document({"x": 500, "view": 2}), GT, "points[0].view: view 2 out of range"),
    (document({"x": 500, "frame": 5}), GT, "points[0].frame: frame 5 out of range"),
    (document({"x": 500, "y": 500, "id": None}), GT, "points[0].x: x=500.0 outside image"),
    (document({"y": 500, "id": None}), GT, "points[0].y: y=500.0 outside image"),
    (document({"x": 500}, {"view": 9}), GT, "points[0].x: x=500.0 outside image"),
    (document({"id": None}, {"x": 500}), GT, "points[0].id: ground-truth point without id"),
    (document({}, {}, {"x": 500}), GT, "points[1].id: duplicate id 'a' in view 0, frame 0"),
    (document({}, {"x": 500}, {}), GT, "points[1].x: x=500.0 outside image"),
    # an image size or diagonal beyond float range, checked last of the
    # geometry and still before any point's range
    (document(image_width=10**400), GT, "image_width: number does not fit a float"),
    (document(image_height=10**400), GT, "image_height: number does not fit a float"),
    (document(image_width=10**400, image_height=10**400), GT,
     "image_width: number does not fit a float"),
    (document(image_width=int(1.7e308), image_height=int(1.7e308)), GT,
     "image_width: image diagonal does not fit a float"),
    (document(image_width=int(1.7e308), image_height=1), GT, None),
    (document({"view": 3}, image_height=10**400), GT, "image_height: number does not fit a float"),
    (document({"x": "a"}, image_width=10**400), GT, "points[0].x: expected number, got 'a'"),
    (document(n_frames=0, image_width=10**400), GT, "n_frames: n_frames must be >= 1"),
    (document(image_width=-1, image_height=10**400), GT,
     "image_width: image dimensions must be positive"),
]


@pytest.mark.parametrize("doc, role, message", PARSE_ERRORS)
def test_each_parse_error_is_reported_in_full_and_in_order(doc, role, message):
    """The library and the JSON reader report the same first error, word for word."""
    text = json.dumps(doc)
    if message is None:
        assert dataset_from_dict(doc, role) == parse_dataset(io.StringIO(text), role)
        return
    for parse in (lambda: dataset_from_dict(doc, role), lambda: parse_dataset(io.StringIO(text), role)):
        with pytest.raises(DatasetError) as err:
            parse()
        assert str(err.value) == message


def test_malformed_json_is_reported_with_its_line_and_column():
    with pytest.raises(DatasetError) as err:
        parse_dataset(io.StringIO('{\n  "n_views": 1,,\n}'), Role.GROUND_TRUTH)
    assert str(err.value) == "line 2, column 16: malformed JSON: Expecting property name enclosed in double quotes"


def test_an_integer_beyond_float_range_is_a_parse_error():
    doc = document({"y": 10**400})
    with pytest.raises(DatasetError) as err:
        dataset_from_dict(doc, Role.GROUND_TRUTH)
    assert str(err.value) == "points[0].y: number does not fit a float"
    with pytest.raises(DatasetError) as err:
        parse_dataset(io.StringIO(json.dumps(doc)), Role.GROUND_TRUTH)
    assert str(err.value) == "points[0].y: number does not fit a float"
    # a type error of an earlier field of the same point still comes first
    with pytest.raises(DatasetError, match=r"^points\[0\]\.frame: expected integer"):
        dataset_from_dict(document({"frame": "0", "x": 10**400}), Role.GROUND_TRUTH)


@pytest.mark.parametrize(
    "width, height, message",
    [
        (10**400, 10, "image_width: number does not fit a float"),
        (10, 10**400, "image_height: number does not fit a float"),
        (int(1.7e308), int(1.7e308), "image_width: image diagonal does not fit a float"),
    ],
)
def test_a_dataset_rejects_an_image_beyond_float_range(width, height, message):
    with pytest.raises(DatasetError) as err:
        Dataset(
            n_views=1, n_frames=1, image_width=width, image_height=height, points=(),
            role=Role.GROUND_TRUTH,
        )
    assert str(err.value) == message


def test_an_integer_literal_too_long_to_convert_is_a_parse_error():
    text = json.dumps(document({})).replace('"x": 10', '"x": 1' + "0" * 5000)
    with pytest.raises(DatasetError) as err:
        parse_dataset(io.StringIO(text), Role.GROUND_TRUTH)
    # the literal either exceeds the interpreter's digit limit or, without
    # one, parses into an integer beyond float range
    assert str(err.value).startswith(("malformed JSON: ", "points[0].x: "))


# ---------------------------------------------------------------------------
# the slotted point and the datasets built without re-running the checks


def test_a_point_is_slotted_frozen_and_round_trips():
    p = Point(view=1, frame=2, x=3.5, y=4.0, id="a", class_label="c")
    assert not hasattr(p, "__dict__")
    with pytest.raises(FrozenInstanceError):
        p.x = 0.0
    with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
        p.extra = 1
    moved = replace(p, x=5.0)
    assert moved == Point(1, 2, 5.0, 4.0, "a", "c") and p.x == 3.5
    assert hash(replace(moved, x=3.5)) == hash(p) and replace(moved, x=3.5) == p
    assert len({p, replace(p), moved}) == 2
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(p, protocol)) == p
    assert copy.copy(p) == p and copy.deepcopy(p) == p
    assert copy.deepcopy(Point(0, 0, 1.0, 1.0)) == Point(0, 0, 1.0, 1.0)


def assert_same_as_validated(dataset):
    """``dataset`` equals a ``Dataset`` validated from the same points, index and all."""
    fresh = Dataset(
        n_views=dataset.n_views,
        n_frames=dataset.n_frames,
        image_width=dataset.image_width,
        image_height=dataset.image_height,
        points=dataset.points,
        role=dataset.role,
    )
    assert dataset == fresh
    assert dataset._by_frame == fresh._by_frame
    for view in range(dataset.n_views):
        for frame in range(dataset.n_frames):
            assert dataset.at(view, frame) == fresh.at(view, frame)


def labelled_pair(seed):
    gt, pred = generate(
        SynthConfig(
            n_views=3, n_frames=6, n_points=5, view_drop_prob=0.2, pred_noise_sigma=1.5,
            pred_fp_rate=0.5, pred_miss_rate=0.2, id_switch_prob=0.1, seed=seed,
        )
    )
    labels = ("a", "b", None)
    return tuple(
        ds.with_points(replace(p, class_label=labels[i % 3]) for i, p in enumerate(ds.points))
        for ds in (gt, pred)
    )


@pytest.mark.parametrize("seed", range(4))
def test_parsed_and_relabelled_datasets_equal_validated_ones(seed):
    gt, pred = labelled_pair(seed)
    for ds, role in ((gt, Role.GROUND_TRUTH), (pred, Role.PREDICTION)):
        assert_same_as_validated(dataset_from_dict(ds.to_dict(), role))
    assert_same_as_validated(remap_gt_ids(gt)[0])


@pytest.mark.parametrize("seed", range(4))
def test_linked_and_per_class_datasets_equal_validated_ones(seed):
    gt, pred = labelled_pair(seed)
    # every id dropped, and every other one, so minted ids meet kept ones
    for stripped in (
        pred.with_points(replace(p, id=None) for p in pred.points),
        pred.with_points(replace(p, id=None) if i % 2 else p for i, p in enumerate(pred.points)),
    ):
        for alpha in (2.0, 6.0, 40.0):
            assert_same_as_validated(assign_temporal_ids(stripped, EvalConfig(alpha=alpha)))
    for key, sub in Scene(gt, pred, 6.0).classes:
        assert_same_as_validated(sub.gt)
        assert_same_as_validated(sub.pred)
        assert {p.class_label for p in sub.gt.points + sub.pred.points} <= {key, None}


def test_assign_ids_strips_every_id_into_a_valid_dataset(tmp_path, monkeypatch):
    gt, pred = labelled_pair(1)
    serialize_dataset(gt, tmp_path / "gt.json")
    serialize_dataset(pred, tmp_path / "pred.json")
    seen = []

    def capture(gt, pred, config, scene):
        seen.append(pred)
        return evaluate_detailed(gt, pred, config, scene=scene)

    monkeypatch.setattr(cli, "evaluate_detailed", capture)
    args = ["evaluate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")]
    assert cli.main([*args, "--assign-ids", "--output", str(tmp_path / "out.txt")]) == 0
    (stripped,) = seen
    assert [p.id for p in stripped.points] == [None] * len(pred.points)
    assert [replace(p, id=q.id) for p, q in zip(stripped.points, pred.points)] == list(pred.points)
    assert_same_as_validated(stripped)
