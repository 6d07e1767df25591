"""Generator determinism, statistical sanity and the built-in fixtures."""

from __future__ import annotations

import math

import pytest

from mvteval.core import Dataset, EvalConfig, Role, serialize_dataset
from mvteval.metrics import evaluate, occlusion_index
from mvteval.synth import SynthConfig, correspondence_contrast_fixture, generate, three_view_fixture
from oracles import oracle_occlusion_simple

CONFIG = EvalConfig(alpha=6.0)


def test_generation_is_deterministic():
    cfg = SynthConfig(
        n_views=3,
        n_frames=10,
        n_points=6,
        view_drop_prob=0.2,
        temporal_drop_prob=0.1,
        pred_noise_sigma=2.0,
        pred_fp_rate=0.7,
        pred_miss_rate=0.2,
        id_switch_prob=0.1,
        ghost_rate=0.1,
        seed=1234,
    )
    first = generate(cfg)
    second = generate(cfg)
    assert serialize_dataset(first[0]) == serialize_dataset(second[0])
    assert serialize_dataset(first[1]) == serialize_dataset(second[1])


def test_different_seeds_differ():
    a, _ = generate(SynthConfig(seed=1))
    b, _ = generate(SynthConfig(seed=2))
    assert a != b


@pytest.mark.parametrize("seed", range(5))
def test_ghost_rate_needs_view_drops(seed):
    # a ghost fills a view that dropped a point another view shows, so with
    # temporal drops alone there is nowhere to put one
    def pair(ghost_rate, view_drop_prob):
        return generate(
            SynthConfig(
                n_views=3,
                n_frames=10,
                n_points=6,
                temporal_drop_prob=0.3,
                view_drop_prob=view_drop_prob,
                ghost_rate=ghost_rate,
                seed=seed,
            )
        )

    assert pair(1.0, 0.0) == pair(0.0, 0.0)
    assert pair(1.0, 0.3) != pair(0.0, 0.3)


def test_no_drops_means_no_occlusion():
    gt, _ = generate(SynthConfig(n_views=2, n_frames=8, n_points=5, seed=7))
    assert occlusion_index(gt).simple == 0.0


def test_identity_prediction_scores_perfectly():
    cfg = SynthConfig(
        n_views=2,
        n_frames=8,
        n_points=5,
        view_drop_prob=0.2,
        temporal_drop_prob=0.1,
        pred_noise_sigma=0.0,
        seed=42,
    )
    gt, pred = generate(cfg)
    report = evaluate(gt, pred, CONFIG)
    for key in ("det_acc", "ass_acc", "corres_acc", "mv_hota", "f1", "mota", "idf1"):
        assert getattr(report, key) == 1.0, key


def test_occlusion_matches_visibility_recount():
    gt, _ = generate(
        SynthConfig(n_views=2, n_frames=10, n_points=6, view_drop_prob=0.2, seed=42)
    )
    assert occlusion_index(gt).simple == pytest.approx(
        oracle_occlusion_simple(gt), abs=1e-12
    )


def test_points_stay_inside_the_image():
    gt, pred = generate(
        SynthConfig(
            n_views=3,
            n_frames=12,
            n_points=8,
            motion_amplitude=60.0,
            pred_noise_sigma=5.0,
            pred_fp_rate=1.0,
            seed=5,
        )
    )
    for ds in (gt, pred):
        for p in ds.points:
            assert 0 <= p.x <= ds.image_width
            assert 0 <= p.y <= ds.image_height


def test_gt_ids_are_shared_across_views():
    gt, _ = generate(SynthConfig(n_views=3, n_frames=4, n_points=3, seed=6))
    by_id: dict[str, set[int]] = {}
    for p in gt.points:
        by_id.setdefault(p.id, set()).add(p.view)
    assert any(len(views) == 3 for views in by_id.values())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_points": 0},
        {"n_frames": 0},
        {"view_drop_prob": 1.5},
        {"pred_miss_rate": -0.1},
        {"pred_noise_sigma": -1.0},
        {"pred_fp_rate": -2.0},
        *(
            {name: value}
            for name in ("pred_fp_rate", "pred_noise_sigma", "motion_amplitude", "disparity")
            for value in (math.nan, math.inf, 10**400)
        ),
        {"image_width": 10**400},
        {"image_height": 10**400},
    ],
)
def test_invalid_configs_rejected(kwargs):
    # the message names the field
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SynthConfig(**kwargs)


def test_image_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        generate(SynthConfig(image_width=40, image_height=40, motion_amplitude=30.0))


def test_drop_frequencies_within_binomial_bounds():
    # temporal drops, isolated: n_points * n_frames trials
    cfg = SynthConfig(
        n_views=2, n_frames=200, n_points=60, temporal_drop_prob=0.2, seed=77
    )
    gt, _ = generate(cfg)
    present = {(p.id, p.frame) for p in gt.points}
    trials = cfg.n_points * cfg.n_frames
    dropped = trials - len(present)
    sigma = math.sqrt(trials * 0.2 * 0.8)
    assert abs(dropped - trials * 0.2) <= 3 * sigma

    # view drops, isolated: one trial per (point, frame, view)
    cfg = SynthConfig(n_views=2, n_frames=200, n_points=60, view_drop_prob=0.3, seed=78)
    gt, _ = generate(cfg)
    trials = cfg.n_points * cfg.n_frames * cfg.n_views
    dropped = trials - len(gt.points)
    sigma = math.sqrt(trials * 0.3 * 0.7)
    assert abs(dropped - trials * 0.3) <= 3 * sigma


def test_miss_rate_within_binomial_bounds():
    cfg = SynthConfig(n_views=2, n_frames=150, n_points=40, pred_miss_rate=0.25, seed=79)
    gt, pred = generate(cfg)
    trials = len(gt.points)
    missed = trials - len(pred.points)
    sigma = math.sqrt(trials * 0.25 * 0.75)
    assert abs(missed - trials * 0.25) <= 3 * sigma


# ---------------------------------------------------------------------------
# fixtures


def test_contrast_fixture_shape():
    gt_a, pred_a = correspondence_contrast_fixture("A")
    gt_b, pred_b = correspondence_contrast_fixture("B")
    assert gt_a.role is Role.GROUND_TRUTH and pred_a.role is Role.PREDICTION
    assert {p.id for p in gt_a.points} - {p.id for p in gt_b.points} == {"c"}
    assert len(pred_a.points) == len(pred_b.points) + gt_a.n_frames
    with pytest.raises(ValueError):
        correspondence_contrast_fixture("C")


def test_contrast_detection_and_association_identical():
    reports = {v: evaluate(*correspondence_contrast_fixture(v), CONFIG) for v in "AB"}
    assert reports["A"].det_acc == reports["B"].det_acc
    assert reports["A"].ass_acc == reports["B"].ass_acc
    assert reports["A"].tallies["tp"] != reports["B"].tallies["tp"]


def test_contrast_only_mv_hota_moves():
    a = evaluate(*correspondence_contrast_fixture("A"), CONFIG)
    b = evaluate(*correspondence_contrast_fixture("B"), CONFIG)
    for key in ("mota", "idf1", "f1", "hota"):
        assert getattr(a, key) == pytest.approx(getattr(b, key), abs=1e-12), key
    assert abs(a.mv_hota - b.mv_hota) > 0.01
    assert a.corres_acc == pytest.approx(2 / 3)
    assert b.corres_acc == 1.0


def test_three_view_fixture_is_well_formed():
    gt, pred = three_view_fixture()
    assert gt.n_views == 3
    report = evaluate(gt, pred, CONFIG)
    assert report.tallies["fpc"] == 2
    assert report.tallies["fnc"] == 2


def test_fixture_datasets_validate():
    for variant in "AB":
        gt, pred = correspondence_contrast_fixture(variant)
        assert isinstance(gt, Dataset) and isinstance(pred, Dataset)
        # parse round trip via the schema
        from mvteval.core import dataset_from_dict

        assert dataset_from_dict(gt.to_dict(), Role.GROUND_TRUTH) == gt
        assert dataset_from_dict(pred.to_dict(), Role.PREDICTION) == pred
