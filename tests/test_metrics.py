"""Score computations: unit examples, hand-derived values, oracle checks."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvteval import metrics
from mvteval.core import Dataset, EvalConfig, Point, Role, remap_gt_ids
from mvteval.matching import FrameMatch, match_frame
from mvteval.metrics import (
    EvaluationError,
    build_association_tally,
    classify_correspondence,
    count_id_switches,
    detection_scores,
    evaluate,
    evaluate_detailed,
    hota,
    mota,
    mv_hota,
    occlusion_index,
)
from mvteval.synth import SynthConfig, generate, three_view_fixture
from oracles import (
    corres_terms,
    oracle_evaluate,
    oracle_match_frame,
    oracle_occlusion_simple,
    oracle_occlusion_weighted,
)

CONFIG = EvalConfig(alpha=6.0)

SCORE_KEYS = (
    "det_acc",
    "precision",
    "recall",
    "loc_acc",
    "ass_acc",
    "corres_acc",
    "mv_hota",
    "f1",
    "mota",
    "idf1",
    "hota",
)


def dataset(points, n_views=2, n_frames=5, role=Role.GROUND_TRUTH, size=200):
    return Dataset(
        n_views=n_views,
        n_frames=n_frames,
        image_width=size,
        image_height=size,
        points=tuple(points),
        role=role,
    )


def gt_point(x, y, id, view=0, frame=0):
    return Point(view=view, frame=frame, x=x, y=y, id=id)


# ---------------------------------------------------------------------------
# detection


def test_tally_perfect_predictions():
    gt = [gt_point(10 * i, 10, f"g{i}") for i in range(10)]
    pred = [gt_point(10 * i, 10, f"p{i}") for i in range(10)]
    m = match_frame(gt, pred, CONFIG, (200, 200))
    assert (m.tp, len(m.fp_ids), len(m.fn_ids)) == (10, 0, 0)


def test_tally_empty_predictions():
    gt = [gt_point(20 * i, 10, f"g{i}") for i in range(4)]
    m = match_frame(gt, [], CONFIG, (200, 200))
    assert (m.tp, len(m.fp_ids), len(m.fn_ids)) == (0, 0, 4)


@pytest.mark.parametrize("seed", range(10))
def test_tally_matches_solver_free_recount(seed):
    rng = random.Random(seed)
    gt = [gt_point(rng.uniform(0, 80), rng.uniform(0, 80), f"g{i}") for i in range(rng.randint(0, 6))]
    pred = [gt_point(rng.uniform(0, 80), rng.uniform(0, 80), f"p{i}") for i in range(rng.randint(0, 6))]
    m = match_frame(gt, pred, CONFIG, (200, 200))
    tp, fp, fn = oracle_match_frame(gt, pred, CONFIG.alpha, math.hypot(200, 200))
    assert (m.tp, len(m.fp_ids), len(m.fn_ids)) == (len(tp), len(fp), len(fn))


def test_detection_scores_basic():
    det_acc, _, _, f1 = detection_scores(1, 0, 1)
    assert det_acc == 0.5
    assert f1 == pytest.approx(2 / 3)


def test_detection_scores_perfect():
    assert detection_scores(7, 0, 0) == (1.0, 1.0, 1.0, 1.0)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_detection_scores_match_formulas(tp, fp, fn):
    det_acc, precision, recall, f1 = detection_scores(tp, fp, fn)
    total = tp + fp + fn
    assert det_acc == (tp / total if total else 0.0)
    assert f1 == (2 * tp / (2 * tp + fp + fn) if total else 0.0)
    assert precision == (tp / (tp + fp) if tp + fp else 0.0)
    assert recall == (tp / (tp + fn) if tp + fn else 0.0)


# ---------------------------------------------------------------------------
# temporal association


def _single_track_scene(pred_ids):
    """One ground-truth id tracked over len(pred_ids) frames."""
    frames = len(pred_ids)
    gt = dataset(
        [gt_point(50, 50, "g", frame=f) for f in range(frames)],
        n_views=1,
        n_frames=frames,
    )
    pred = dataset(
        [gt_point(50, 50, pid, frame=f) for f, pid in enumerate(pred_ids)],
        n_views=1,
        n_frames=frames,
        role=Role.PREDICTION,
    )
    return gt, pred


SPLIT_TRACK = ["p1", "p1", "p2", "p2", "p2"]
# (TPA, FNA, FPA) of each true positive of the split track, in frame order
SPLIT_TRACK_TERMS = [(2, 3, 0)] * 2 + [(3, 2, 0)] * 3


def test_association_perfect_track():
    gt, pred = _single_track_scene(["p"] * 5)
    assert evaluate(gt, pred, CONFIG).ass_acc == 1.0


def test_association_split_track_hand_value():
    # two frames on one id, three on another: (2*(2/5) + 3*(3/5)) / 5
    gt, pred = _single_track_scene(SPLIT_TRACK)
    assert evaluate(gt, pred, CONFIG).ass_acc == pytest.approx(0.52)


def test_association_zero_tp_policy():
    gt = dataset([gt_point(10, 10, "g")], n_views=1, n_frames=1)
    pred = dataset([], n_views=1, n_frames=1, role=Role.PREDICTION)
    report = evaluate(gt, pred, CONFIG)
    assert report.ass_acc == 0.0
    custom = evaluate(gt, pred, EvalConfig(alpha=6.0, zero_tp_policy=1.0))
    assert custom.ass_acc == 1.0


def test_ass_tally_counts():
    gt, pred = _single_track_scene(SPLIT_TRACK)
    matches = [FrameMatch(0, f, (("g", p, 0.0),), (), ()) for f, p in enumerate(SPLIT_TRACK)]
    terms = build_association_tally(gt.frame_counts, pred.frame_counts, matches)
    assert terms == SPLIT_TRACK_TERMS
    tpa, fna, fpa = terms[-1]
    assert tpa / (tpa + fna + fpa) == pytest.approx(3 / 5)


def test_ass_tally_built_from_pipeline():
    gt, pred = _single_track_scene(SPLIT_TRACK)
    result = evaluate_detailed(gt, pred, CONFIG)
    # the matches carry the ground truth's own ids
    assert {g for m in result.matches for g, _, _ in m.tp_pairs} == {"g"}
    terms = build_association_tally(
        gt.frame_counts, result.pred_with_ids.frame_counts, result.matches
    )
    assert terms == SPLIT_TRACK_TERMS
    tallies = result.report.tallies
    assert (tallies["tpa"], tallies["fna"], tallies["fpa"]) == (13, 12, 0)


def test_fpa_counts_spurious_frames_of_same_pred_id():
    # pred id also appears as a false positive in a later frame
    gt = dataset([gt_point(50, 50, "g", frame=0)], n_views=1, n_frames=2)
    pred = dataset(
        [
            gt_point(50, 50, "p", frame=0),
            gt_point(150, 150, "p", frame=1),
        ],
        n_views=1,
        n_frames=2,
        role=Role.PREDICTION,
    )
    report = evaluate(gt, pred, CONFIG)
    # single TP: TPA=1, FNA=0, FPA=1
    assert report.ass_acc == pytest.approx(0.5)
    assert report.tallies["fpa"] == 1


# ---------------------------------------------------------------------------
# cross-view correspondence


def _stereo(gt_points, pred_points, n_frames=1):
    gt = dataset(gt_points, n_views=2, n_frames=n_frames)
    pred = dataset(pred_points, n_views=2, n_frames=n_frames, role=Role.PREDICTION)
    return gt, pred


def _classify(gt, pred):
    matches = [
        match_frame(gt.at(v, f), pred.at(v, f), CONFIG, (200, 200), v, f)
        for v in range(2)
        for f in range(gt.n_frames)
    ]
    return classify_correspondence(matches, gt.view_masks, pred.view_masks, 2)


def test_correspondence_tp_in_both_views_is_tpc():
    gt, pred = _stereo(
        [gt_point(10, 10, "g", view=0), gt_point(15, 10, "g", view=1)],
        [gt_point(10, 10, "q", view=0), gt_point(15, 10, "q", view=1)],
    )
    assert _classify(gt, pred) == [(1, 0, 0), (1, 0, 0)]


def test_correspondence_pred_in_both_views_without_gt_is_fpc():
    gt, pred = _stereo(
        [gt_point(10, 10, "g", view=0)],
        [gt_point(10, 10, "q", view=0), gt_point(15, 10, "q", view=1)],
    )
    assert _classify(gt, pred) == [(0, 1, 0)]


def test_correspondence_missing_detection_is_fnc():
    gt, pred = _stereo(
        [gt_point(10, 10, "g", view=0), gt_point(15, 10, "g", view=1)],
        [gt_point(10, 10, "q", view=0)],
    )
    assert _classify(gt, pred) == [(0, 0, 1)]


def test_correspondence_absent_everywhere_is_vacuously_correct():
    gt, pred = _stereo(
        [gt_point(10, 10, "g", view=0)],
        [gt_point(10, 10, "q", view=0)],
    )
    assert _classify(gt, pred) == [(1, 0, 0)]


def test_correspondence_accuracy_half():
    # two true positives: one vacuously corresponded, one with a missing
    # cross-view detection -> (1 + 0) / 2
    gt, pred = _stereo(
        [
            gt_point(10, 10, "a", view=0),
            gt_point(60, 60, "b", view=0),
            gt_point(63, 60, "b", view=1),
        ],
        [
            gt_point(10, 10, "qa", view=0),
            gt_point(60, 60, "qb", view=0),
        ],
    )
    assert _classify(gt, pred) == [(1, 0, 0), (0, 0, 1)]
    assert evaluate(gt, pred, CONFIG).corres_acc == pytest.approx(0.5)


def test_correspondence_accuracy_hand_values():
    gt, pred = _stereo(
        [
            gt_point(10, 10, "a", view=0),
            gt_point(15, 10, "a", view=1),
            gt_point(60, 60, "b", view=0),
            gt_point(63, 60, "b", view=1),
        ],
        [
            gt_point(10, 10, "qa", view=0),
            gt_point(15, 10, "qa", view=1),
            gt_point(60, 60, "qb", view=0),
        ],
    )
    # a: TPC in both views; b: TP only on the left, so one FNC
    assert evaluate(gt, pred, CONFIG).corres_acc == pytest.approx((1 + 1 + 0) / 3)


def test_single_view_correspondence_is_one():
    gt = dataset([gt_point(10, 10, "g")], n_views=1, n_frames=1)
    pred = dataset(
        [gt_point(10, 10, "p")], n_views=1, n_frames=1, role=Role.PREDICTION
    )
    report = evaluate(gt, pred, CONFIG)
    assert report.corres_acc == 1.0
    assert report.mv_hota == pytest.approx((report.det_acc * report.ass_acc) ** (1 / 3))
    assert report.hota == pytest.approx(math.sqrt(report.det_acc * report.ass_acc))


@st.composite
def correspondence_scenes(draw):
    """GT and predictions on 1-9 views with sparse GT presence.

    Prediction ids come from a small pool, so one id repeats across views,
    also where the GT point it sits on is not annotated. A prediction lies
    next to one of four GT slots or far from all of them.
    """
    n_views, n_frames = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    gt_points, pred_points = [], []
    for v in range(n_views):
        for f in range(n_frames):
            for k in sorted(draw(st.sets(st.integers(0, 3)))):
                gt_points.append(Point(view=v, frame=f, x=10 + 30 * k, y=10, id=f"g{k}"))
            for k in sorted(draw(st.sets(st.integers(0, 3)))):
                slot = draw(st.integers(0, 4))
                pred_points.append(Point(view=v, frame=f, x=12 + 30 * slot, y=10, id=f"p{k}"))
    gt = dataset(gt_points, n_views=n_views, n_frames=n_frames)
    pred = dataset(pred_points, n_views=n_views, n_frames=n_frames, role=Role.PREDICTION)
    return gt, pred


@given(correspondence_scenes())
@settings(max_examples=300, deadline=None)
def test_classify_correspondence_equals_the_per_view_rule(scene):
    gt, pred = scene
    matches = [
        match_frame(gt.at(v, f), pred.at(v, f), CONFIG, (200, 200), v, f)
        for v in range(gt.n_views)
        for f in range(gt.n_frames)
    ]
    terms = classify_correspondence(matches, gt.view_masks, pred.view_masks, gt.n_views)

    gt_present = {(p.view, p.frame, p.id) for p in gt.points}
    pred_present = {(p.view, p.frame, p.id) for p in pred.points}
    tps = [(m.view, m.frame, g, p) for m in matches for g, p, _ in m.tp_pairs]
    tp_gt = {(v, f, g) for v, f, g, _ in tps}
    assert terms == [
        corres_terms(gt.n_views, gt_present, pred_present, tp_gt, v, f, g, p)
        for v, f, g, p in tps
    ]


def test_three_view_fixture_covers_all_cases():
    gt, pred = three_view_fixture()
    result = evaluate_detailed(gt, pred, CONFIG)
    report = result.report
    # per frame: g1 thrice (2,0,0), g2 once (1,1,0), g3 once (1,0,1)
    assert report.tallies["tpc"] == 2 * (3 * 2 + 1 + 1)
    assert report.tallies["fpc"] == 2
    assert report.tallies["fnc"] == 2
    assert report.corres_acc == pytest.approx((3 * 1.0 + 0.5 + 0.5) / 5)
    assert report.tallies["fp"] == 2  # the ghost prediction of g2 in view 1
    assert report.tallies["fn"] == 2  # g3 unmatched in view 1


# ---------------------------------------------------------------------------
# combined scores


def test_mv_hota_formula_points():
    assert mv_hota(1.0, 1.0, 1.0) == 1.0
    assert mv_hota(0.5, 0.5, 0.5) == pytest.approx(0.5)
    assert 0.204 <= mv_hota(0.219, 0.202, 0.206) <= 0.212


def test_mv_hota_symmetry():
    values = (0.3, 0.6, 0.9)
    reference = mv_hota(*values)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert mv_hota(*(values[i] for i in perm)) == pytest.approx(reference)
    assert mv_hota(0.4, 0.4, 0.4) == pytest.approx(0.4)


def test_hota_formula_points():
    assert hota(1.0, 1.0) == 1.0
    assert hota(0.25, 1.0) == 0.5
    assert 0.202 <= hota(0.219, 0.202) <= 0.213


def test_mota_formula_points():
    assert mota(10, 0, 0, 0) == 1.0
    assert mota(10, 3, 4, 5) == pytest.approx(-0.2)
    assert mota(4, 1, 1, 0) == 0.5
    assert mota(0, 0, 3, 0) is None


def test_id_switch_counting():
    gt, pred = _single_track_scene(["p1", "p1", "p2", "p1", "p1"])
    result = evaluate_detailed(gt, pred, CONFIG)
    assert count_id_switches(result.matches) == 2
    assert result.report.tallies["idsw"] == 2
    assert result.report.mota == pytest.approx(1 - 2 / 5)


def test_idf1_perfect_and_empty():
    gt, pred = _single_track_scene(["p"] * 4)
    assert evaluate(gt, pred, CONFIG).idf1 == 1.0
    gt2 = dataset([gt_point(10, 10, "g")], n_views=1, n_frames=1)
    pred2 = dataset([], n_views=1, n_frames=1, role=Role.PREDICTION)
    assert evaluate(gt2, pred2, CONFIG).idf1 == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_idf1_equals_bijection_brute_force(seed):
    rng = random.Random(seed)
    frames = 6
    gt_pts, pred_pts = [], []
    for f in range(frames):
        for i in range(3):
            if rng.random() < 0.8:
                gt_pts.append(gt_point(40 * i + rng.uniform(0, 10), 50, f"g{i}", frame=f))
            if rng.random() < 0.8:
                pred_pts.append(
                    gt_point(40 * i + rng.uniform(0, 10), 50, f"p{rng.randint(0, 2)}", frame=f)
                )
    seen = set()
    pred_unique = []
    for p in pred_pts:
        if (p.id, p.frame) not in seen:
            seen.add((p.id, p.frame))
            pred_unique.append(p)
    gt = dataset(gt_pts, n_views=1, n_frames=frames)
    pred = dataset(pred_unique, n_views=1, n_frames=frames, role=Role.PREDICTION)

    got = evaluate(gt, pred, CONFIG).idf1

    # exhaustive search over id bijections
    gt_ids = sorted({p.id for p in gt_pts})
    pred_ids = sorted({p.id for p in pred_unique})
    pos_gt = {(p.id, p.frame): (p.x, p.y) for p in gt_pts}
    pos_pred = {(p.id, p.frame): (p.x, p.y) for p in pred_unique}

    def overlap(g, q):
        return sum(
            1
            for f in range(frames)
            if (g, f) in pos_gt
            and (q, f) in pos_pred
            and math.dist(pos_gt[(g, f)], pos_pred[(q, f)]) < CONFIG.alpha
        )

    best = 0
    k = min(len(gt_ids), len(pred_ids))
    for size in range(k + 1):
        for gs in itertools.combinations(gt_ids, size):
            for qs in itertools.permutations(pred_ids, size):
                best = max(best, sum(overlap(g, q) for g, q in zip(gs, qs)))
    want = 2 * best / (len(gt_pts) + len(pred_unique)) if gt_pts or pred_unique else None
    assert got == pytest.approx(want)


@st.composite
def hit_tables(draw):
    """(n_gt, n_pred, hits): a hit graph of several components, some of them
    stars around one ground-truth or one prediction id, with counts drawn
    from few values so that overlaps tie. At most 6 ids a side."""
    hits: Counter[tuple[str, str]] = Counter()
    n_rows = n_cols = 0
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["gt_star", "pred_star", "any"]))
        rows = 1 if shape == "gt_star" else draw(st.integers(1, 3))
        cols = 1 if shape == "pred_star" else draw(st.integers(1, 3))
        if n_rows + rows > 6 or n_cols + cols > 6:
            break
        cells = [(f"g{n_rows + i}", f"p{n_cols + j}") for i in range(rows) for j in range(cols)]
        for cell in draw(st.lists(st.sampled_from(cells), min_size=1, unique=True)):
            hits[cell] = draw(st.integers(1, 3))
        n_rows, n_cols = n_rows + rows, n_cols + cols
    total = sum(hits.values())
    return total + draw(st.integers(0, 3)), total + draw(st.integers(0, 3)), hits


@given(hit_tables())
@settings(max_examples=300, deadline=None)
def test_idf1_takes_the_largest_overlap_of_any_injection(case):
    # IDTP is the same for every optimum, so IDF1 needs no tie-break
    n_gt, n_pred, hits = case
    gt_ids = sorted({g for g, _ in hits})
    pred_ids = sorted({p for _, p in hits})
    best = max(
        sum(hits[g, p] for g, p in zip(gs, ps))
        for size in range(min(len(gt_ids), len(pred_ids)) + 1)
        for gs in itertools.combinations(gt_ids, size)
        for ps in itertools.permutations(pred_ids, size)
    )
    assert metrics.idf1(n_gt, n_pred, hits) == 2 * best / (n_gt + n_pred)


# ---------------------------------------------------------------------------
# occlusion index


def test_occlusion_zero_when_fully_visible():
    gt = dataset(
        [
            gt_point(10, 10, "a", view=v, frame=f)
            for v in range(2)
            for f in range(3)
        ],
        n_frames=3,
    )
    occ = occlusion_index(gt)
    assert occ.simple == 0.0
    assert occ.weighted_mean == 0.0
    assert occ.temporal_mean == 0.0
    assert occ.multiview == 0.0


def test_occlusion_quarter_fixture():
    # four ids per frame, exactly three visible in both views
    points = []
    for f in range(3):
        for i in range(3):
            for v in range(2):
                points.append(gt_point(20 * i + 10, 20, f"full{i}", view=v, frame=f))
        points.append(gt_point(90, 20, "partial", view=0, frame=f))
    gt = dataset(points, n_frames=3)
    assert occlusion_index(gt).simple == pytest.approx(0.25, abs=1e-12)


def test_occlusion_weighted_hand_computation():
    # point A in both views both frames; point B in view 0, frame 0 only
    points = [
        gt_point(10, 10, "A", view=v, frame=f) for v in range(2) for f in range(2)
    ]
    points.append(gt_point(50, 50, "B", view=0, frame=0))
    gt = dataset(points, n_views=2, n_frames=2)
    occ = occlusion_index(gt)
    # A: presence fraction 1 in every frame -> OI 0 in both views.
    # B: c_0 = 1/2, c_1 = 0; view 0: 1 - (1/2)(1/2) = 0.75; view 1: 1.0
    assert occ.weighted_per_view == pytest.approx((0.375, 0.5))
    assert occ.weighted_mean == pytest.approx(0.4375)
    assert occ.simple == pytest.approx(1 / 3)
    # temporal variant: B present 1 of 2 frames in view 0, 0 of 2 in view 1
    assert occ.temporal_per_view == pytest.approx((0.25, 0.5))
    # view variant: A always full presence; B: (1/2 + 0)/2 -> 0.75
    assert occ.multiview == pytest.approx(0.375)


def test_occlusion_empty_gt_not_applicable():
    gt = dataset([], n_views=2, n_frames=2)
    occ = occlusion_index(gt)
    assert occ.simple is None and occ.weighted_mean is None


@pytest.mark.parametrize("seed", range(6))
def test_occlusion_equals_oracle_recount(seed):
    gt, _ = generate(
        SynthConfig(
            n_views=3,
            n_frames=7,
            n_points=5,
            view_drop_prob=0.25,
            temporal_drop_prob=0.15,
            seed=seed,
        )
    )
    occ = occlusion_index(gt)
    assert occ.simple == pytest.approx(oracle_occlusion_simple(gt), abs=1e-12)
    assert list(occ.weighted_per_view) == pytest.approx(
        oracle_occlusion_weighted(gt), abs=1e-12
    )


# ---------------------------------------------------------------------------
# evaluate pipeline


def test_identity_prediction_scores_one():
    gt, _ = generate(
        SynthConfig(n_views=2, n_frames=6, n_points=4, view_drop_prob=0.2, seed=3)
    )
    pred = Dataset(
        n_views=gt.n_views,
        n_frames=gt.n_frames,
        image_width=gt.image_width,
        image_height=gt.image_height,
        points=gt.points,
        role=Role.PREDICTION,
    )
    report = evaluate(gt, pred, CONFIG)
    for key in ("det_acc", "ass_acc", "corres_acc", "mv_hota", "hota", "mota", "idf1", "f1"):
        assert getattr(report, key) == 1.0, key
    assert report.loc_acc == 0.0


def test_empty_prediction_scores_zero():
    gt, _ = generate(SynthConfig(n_views=2, n_frames=4, n_points=3, seed=9))
    pred = Dataset(
        n_views=2,
        n_frames=4,
        image_width=gt.image_width,
        image_height=gt.image_height,
        points=(),
        role=Role.PREDICTION,
    )
    report = evaluate(gt, pred, CONFIG)
    assert report.det_acc == 0.0
    assert report.f1 == 0.0
    assert report.mv_hota == 0.0


@pytest.mark.parametrize("seed", range(25))
def test_evaluate_equals_definition_oracle(seed):
    rng = random.Random(seed * 31 + 1)
    cfg = SynthConfig(
        n_views=rng.randint(1, 3),
        n_frames=rng.randint(1, 8),
        n_points=rng.randint(1, 6),
        image_width=320,
        image_height=240,
        motion_amplitude=rng.uniform(0, 30),
        view_drop_prob=rng.choice([0.0, 0.2]),
        temporal_drop_prob=rng.choice([0.0, 0.15]),
        pred_noise_sigma=rng.choice([0.3, 2.0, 7.0]),
        pred_fp_rate=rng.choice([0.0, 0.5]),
        pred_miss_rate=rng.choice([0.0, 0.25]),
        id_switch_prob=rng.choice([0.0, 0.1]),
        ghost_rate=rng.choice([0.0, 0.2]),
        seed=seed,
    )
    gt, pred = generate(cfg)
    report = evaluate(gt, pred, CONFIG)
    want = oracle_evaluate(gt, pred, CONFIG)
    for key in SCORE_KEYS:
        got = getattr(report, key)
        if want[key] is None:
            assert got is None, key
        else:
            assert got == pytest.approx(want[key], abs=1e-12), key


@pytest.mark.parametrize("seed", range(10))
def test_linked_predictions_score_as_the_oracle_on_their_linked_ids(seed):
    gt, pred = generate(
        SynthConfig(
            n_views=3,
            n_frames=8,
            n_points=5,
            motion_amplitude=8.0,
            view_drop_prob=0.2,
            temporal_drop_prob=0.15,
            pred_noise_sigma=2.0,
            pred_fp_rate=0.5,
            pred_miss_rate=0.2,
            id_switch_prob=0.1,
            seed=seed,
        )
    )
    stripped = pred.with_points(replace(p, id=None) for p in pred.points)
    result = evaluate_detailed(gt, stripped, CONFIG)
    want = oracle_evaluate(gt, result.pred_with_ids, CONFIG)
    for key in SCORE_KEYS:
        got = getattr(result.report, key)
        if want[key] is None:
            assert got is None, key
        else:
            assert got == pytest.approx(want[key], abs=1e-12), key


def test_translation_invariance_of_scores():
    gt, pred = generate(
        SynthConfig(
            n_views=2,
            n_frames=5,
            n_points=4,
            pred_noise_sigma=2.0,
            pred_miss_rate=0.2,
            view_drop_prob=0.2,
            seed=11,
            image_width=300,
            image_height=300,
        )
    )
    # integer-snap the scene so translation is float-exact
    snap = lambda p, dx=0.0, dy=0.0: Point(
        view=p.view, frame=p.frame, x=round(p.x) + dx, y=round(p.y) + dy, id=p.id
    )
    grow = lambda ds, dx, dy, size: Dataset(
        n_views=ds.n_views,
        n_frames=ds.n_frames,
        image_width=size,
        image_height=size,
        points=tuple(snap(p, dx, dy) for p in ds.points),
        role=ds.role,
    )
    base_r = evaluate(grow(gt, 0, 0, 400), grow(pred, 0, 0, 400), CONFIG)
    moved_r = evaluate(grow(gt, 60, 40, 400), grow(pred, 60, 40, 400), CONFIG)
    for key in SCORE_KEYS:
        assert getattr(base_r, key) == getattr(moved_r, key), key


LABELS = ("a", "b", None)


@st.composite
def crowded_scenes(draw, n_views=st.integers(1, 3)):
    """A small, crowded synth scene with class labels spread over its points."""
    gt, pred = generate(
        SynthConfig(
            n_views=draw(n_views),
            n_frames=draw(st.integers(1, 5)),
            n_points=draw(st.integers(1, 6)),
            image_width=64,
            image_height=48,
            motion_amplitude=8.0,
            disparity=4.0,
            pred_noise_sigma=1.5,
            pred_miss_rate=0.1,
            pred_fp_rate=0.5,
            view_drop_prob=0.2,
            id_switch_prob=0.1,
            seed=draw(st.integers(0, 2**16)),
        )
    )
    step = draw(st.integers(1, 2))
    gt, pred = (
        ds.with_points(
            replace(p, class_label=LABELS[(step * i) % len(LABELS)])
            for i, p in enumerate(ds.points)
        )
        for ds in (gt, pred)
    )
    return gt, pred


@st.composite
def renamings(draw, ids):
    """An injective renaming of ``ids``: names that reverse the ids' sort order,
    names of the linker's ``v{view}t{n}`` form, or arbitrary short names."""
    ids = sorted(ids)
    kind = draw(st.sampled_from(["reversed", "minted", "text"]))
    if kind == "reversed":
        names = [f"r{len(ids) - i:04d}" for i in range(len(ids))]
    elif kind == "minted":
        pool = [f"v{k}t{n}" for k in range(3) for n in range(len(ids))]
        names = draw(st.permutations(pool))[: len(ids)]
    else:
        names = draw(
            st.lists(
                st.text("a0Z9_", min_size=1, max_size=4),
                min_size=len(ids),
                max_size=len(ids),
                unique=True,
            )
        )
    return dict(zip(ids, names))


@given(crowded_scenes(), st.data(), st.booleans(), st.sampled_from(["none", "half", "all"]))
@settings(max_examples=150, deadline=None)
def test_renaming_ids_leaves_the_report_unchanged(scene, data, per_class, strip_ids):
    gt, pred = scene
    # with half the ids stripped, kept ids can take the names the linker mints
    if strip_ids != "none":
        pred = pred.with_points(
            replace(p, id=None) if strip_ids == "all" or i % 2 else p
            for i, p in enumerate(pred.points)
        )
    gt_names = data.draw(renamings({p.id for p in gt.points}))
    pred_names = data.draw(renamings({p.id for p in pred.points} - {None}))
    renamed_gt = gt.with_points(replace(p, id=gt_names[p.id]) for p in gt.points)
    renamed_pred = pred.with_points(replace(p, id=pred_names.get(p.id)) for p in pred.points)
    config = EvalConfig(alpha=6.0, per_class=per_class)
    assert evaluate(renamed_gt, renamed_pred, config).to_dict() == evaluate(
        gt, pred, config
    ).to_dict()


def _pooled(report):
    """Every pooled score, tally and occlusion index of a report, with the
    per-view ones keyed by view."""
    occlusion = report.occlusion
    return (
        {name: getattr(report, name) for name in SCORE_KEYS},
        report.tallies,
        (occlusion.simple, occlusion.weighted_mean, occlusion.temporal_mean, occlusion.multiview),
        {v.view: v for v in report.per_view},
    )


@given(crowded_scenes(), st.data(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_permuting_the_views_leaves_the_report_unchanged(scene, data, strip_ids):
    gt, pred = scene
    if strip_ids:
        pred = pred.with_points(replace(p, id=None) for p in pred.points)
    order = data.draw(st.permutations(range(gt.n_views)))
    moved_gt, moved_pred = (
        ds.with_points(replace(p, view=order[p.view]) for p in ds.points) for ds in (gt, pred)
    )
    scores, tallies, occlusion, per_view = _pooled(evaluate(gt, pred, CONFIG))
    moved = _pooled(evaluate(moved_gt, moved_pred, CONFIG))
    assert moved[:3] == (scores, tallies, occlusion)
    assert moved[3] == {order[v]: replace(s, view=order[v]) for v, s in per_view.items()}


@given(crowded_scenes(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_doubling_the_scale_doubles_only_the_localisation_error(scene, strip_ids):
    # doubling is exact in binary floating point: every distance, bound and
    # tolerance doubles, and every comparison between them comes out the same
    gt, pred = scene
    if strip_ids:
        pred = pred.with_points(replace(p, id=None) for p in pred.points)
    big_gt, big_pred = (
        Dataset(
            ds.n_views, ds.n_frames, 2 * ds.image_width, 2 * ds.image_height,
            tuple(replace(p, x=2 * p.x, y=2 * p.y) for p in ds.points), ds.role,
        )
        for ds in (gt, pred)
    )
    report = evaluate(gt, pred, CONFIG)
    big = evaluate(big_gt, big_pred, replace(CONFIG, alpha=2 * CONFIG.alpha))
    assert big.loc_acc == 2 * report.loc_acc
    assert _pooled(big) == _pooled(replace(report, loc_acc=big.loc_acc))


def tie_prone(scene, strip_ids, snap, width=None):
    """A crowded scene, its prediction ids stripped or kept, its coordinates
    snapped to multiples of ``snap`` pixels (or left as they are when it is
    0) and its image widened to ``width``. Snapped points often tie for a
    partner and sometimes coincide."""
    gt, pred = scene
    return tuple(
        Dataset(
            ds.n_views,
            ds.n_frames,
            width or ds.image_width,
            ds.image_height,
            tuple(
                replace(
                    p,
                    x=snap * round(p.x / snap) if snap else p.x,
                    y=snap * round(p.y / snap) if snap else p.y,
                    id=None if strip_ids and ds.role is Role.PREDICTION else p.id,
                )
                for p in ds.points
            ),
            ds.role,
        )
        for ds in (gt, pred)
    )


SNAPS = st.sampled_from([0, 2, 4])


@given(crowded_scenes(), st.booleans(), SNAPS, st.booleans(), st.randoms())
@settings(max_examples=150, deadline=None)
def test_permuting_the_points_of_each_frame_leaves_the_report_unchanged(
    scene, strip_ids, snap, per_class, rng
):
    gt, pred = tie_prone(scene, strip_ids, snap)
    shuffled = []
    for ds in (gt, pred):
        points = list(ds.points)
        rng.shuffle(points)
        shuffled.append(ds.with_points(points))
    config = EvalConfig(alpha=6.0, per_class=per_class)
    assert evaluate(*shuffled, config).to_dict() == evaluate(gt, pred, config).to_dict()


def reversed_frames(ds):
    """``ds`` with its frames in reverse order."""
    last = ds.n_frames - 1
    return ds.with_points(replace(p, frame=last - p.frame) for p in ds.points)


@given(crowded_scenes(), SNAPS, st.booleans())
@settings(max_examples=150, deadline=None)
def test_reversing_the_frames_leaves_the_report_unchanged(scene, snap, per_class):
    # with prediction ids supplied no linker runs, and no score depends on
    # the direction of time; id-less input is the documented exception
    # (ROADMAP item 17)
    gt, pred = tie_prone(scene, False, snap)
    config = EvalConfig(alpha=6.0, per_class=per_class)
    assert evaluate(reversed_frames(gt), reversed_frames(pred), config).to_dict() == evaluate(
        gt, pred, config
    ).to_dict()


def joined(first, second):
    """``first`` followed in time by ``second``, each one's ids prefixed by
    its part's name, so no id is shared between the parts."""
    return Dataset(
        first.n_views,
        first.n_frames + second.n_frames,
        first.image_width,
        first.image_height,
        tuple(
            replace(p, frame=p.frame + shift, id=f"{part}{p.id}")
            for part, shift, ds in (("a", 0, first), ("b", first.n_frames, second))
            for p in ds.points
        ),
        first.role,
    )


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(crowded_scenes(st.just(n)), crowded_scenes(st.just(n)))
    )
)
@settings(max_examples=100, deadline=None)
def test_joining_two_scenes_adds_their_tallies_and_weights_their_accuracies(scenes):
    (gt_a, pred_a), (gt_b, pred_b) = scenes
    parts = [evaluate(gt_a, pred_a, CONFIG), evaluate(gt_b, pred_b, CONFIG)]
    whole = evaluate(joined(gt_a, gt_b), joined(pred_a, pred_b), CONFIG)
    for key, value in whole.tallies.items():
        assert value == sum(part.tallies[key] for part in parts), key
    if whole.tallies["tp"]:
        for name in ("ass_acc", "corres_acc"):
            weighted = math.fsum(p.tallies["tp"] * getattr(p, name) for p in parts)
            assert getattr(whole, name) == pytest.approx(
                weighted / whole.tallies["tp"], abs=1e-12
            ), name


def matches_by_position(result, named):
    """Each frame's true positives as (gt id, pred id, pred x, pred y, distance).

    Without ``named`` the pred id is left out: an added point takes an id
    the linker would have given a later point, so linked ids shift, and the
    position names the prediction instead.
    """
    where = {
        (p.view, p.frame, p.id): (p.id if named else None, p.x, p.y)
        for p in result.pred_with_ids.points
    }
    return [
        [(g, *where[m.view, m.frame, p], d) for g, p, d in m.tp_pairs] for m in result.matches
    ]


@given(
    crowded_scenes(),
    st.booleans(),
    SNAPS,
    st.sampled_from([Role.GROUND_TRUTH, Role.PREDICTION]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_a_far_point_leaves_every_other_match_unchanged(scene, strip_ids, snap, role, data):
    # the image is widened to three times its width, and the added point,
    # listed first, sits past every other point by more than the radius
    gt, pred = tie_prone(scene, strip_ids, snap, width=3 * scene[0].image_width)
    view = data.draw(st.integers(0, gt.n_views - 1))
    frame = data.draw(st.integers(0, gt.n_frames - 1))
    far = Point(
        view=view,
        frame=frame,
        x=gt.image_width,
        y=0.0,
        id=None if strip_ids and role is Role.PREDICTION else "far",
    )
    grown_gt, grown_pred = (
        ds.with_points([far, *ds.points]) if ds.role is role else ds for ds in (gt, pred)
    )
    before = evaluate_detailed(gt, pred, CONFIG)
    after = evaluate_detailed(grown_gt, grown_pred, CONFIG)
    assert matches_by_position(after, not strip_ids) == matches_by_position(before, not strip_ids)


def without_coincident_points(ds):
    """``ds`` keeping, of the points at one place in one frame, the first."""
    seen = set()
    kept = []
    for p in ds.points:
        if (p.view, p.frame, p.x, p.y) not in seen:
            seen.add((p.view, p.frame, p.x, p.y))
            kept.append(p)
    return ds.with_points(kept)


@given(crowded_scenes(), st.booleans(), st.sampled_from([2, 4]), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_renaming_ids_moves_no_tie(scene, strip_ids, snap, per_class, data):
    # ties go by position, and an id decides one only between points at one
    # place; with every prediction named, or none, the linker meets no id
    # that the renaming changes
    gt, pred = (without_coincident_points(ds) for ds in tie_prone(scene, strip_ids, snap))
    gt_names = data.draw(renamings({p.id for p in gt.points}))
    pred_names = data.draw(renamings({p.id for p in pred.points} - {None}))
    renamed_gt = gt.with_points(replace(p, id=gt_names[p.id]) for p in gt.points)
    renamed_pred = pred.with_points(replace(p, id=pred_names.get(p.id)) for p in pred.points)
    config = EvalConfig(alpha=6.0, per_class=per_class)
    assert evaluate(renamed_gt, renamed_pred, config).to_dict() == evaluate(
        gt, pred, config
    ).to_dict()


@given(crowded_scenes(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_pooled_scores_agree_with_the_per_view_and_per_tp_ones(scene, per_class, strip_ids):
    gt, pred = scene
    if strip_ids:
        pred = pred.with_points(replace(p, id=None) for p in pred.points)
    report = evaluate(gt, pred, EvalConfig(alpha=6.0, per_class=per_class))
    per_view_reports = list(report.per_class.values()) if per_class else [report]
    for r in [report, *per_view_reports]:
        t = r.tallies
        assert t["tpc"] + t["fpc"] + t["fnc"] == t["tp"] * (r.n_views - 1)
    for r in per_view_reports:
        t = r.tallies
        for key in ("tp", "fp", "fn"):
            assert t[key] == sum(getattr(v, key) for v in r.per_view), key
        if t["tp"]:
            weighted = math.fsum(v.tp * v.ass_acc for v in r.per_view) / t["tp"]
            assert weighted == pytest.approx(r.ass_acc, abs=1e-12)


@given(crowded_scenes(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_the_report_applies_the_term_functions_to_its_matches(scene, strip_ids):
    gt, pred = scene
    if strip_ids:
        pred = pred.with_points(replace(p, id=None) for p in pred.points)
    result = evaluate_detailed(gt, pred, CONFIG)
    report, linked = result.report, result.pred_with_ids
    ass_terms = build_association_tally(gt.frame_counts, linked.frame_counts, result.matches)
    corres = classify_correspondence(
        result.matches, gt.view_masks, linked.view_masks, report.n_views
    )
    assert len(ass_terms) == len(corres) == report.tallies["tp"]
    for terms, keys, acc in (
        (ass_terms, ("tpa", "fna", "fpa"), report.ass_acc),
        (corres, ("tpc", "fpc", "fnc"), report.corres_acc),
    ):
        sums = tuple(sum(column) for column in zip(*terms)) if terms else (0, 0, 0)
        assert sums == tuple(report.tallies[k] for k in keys)
        values = [h / (h + a + b) if h + a + b else 1.0 for h, a, b in terms]
        assert acc == (math.fsum(values) / len(values) if values else CONFIG.zero_tp_policy)


@pytest.mark.parametrize("strip_ids", [False, True])
def test_a_view_without_points_is_skipped_and_one_without_ground_truth_is_scored(strip_ids):
    # view 0: two tracks with a swap, a miss and a far false positive;
    # view 1: no point at all; view 2: predictions only
    gt = dataset(
        [gt_point(20 + 2 * f, 20, "g1", frame=f) for f in range(4)]
        + [gt_point(60, 40 + 2 * f, "g2", frame=f) for f in range(4)],
        n_views=3,
        n_frames=4,
    )
    near_g1 = ["a", "a", "b", "a"]
    near_g2 = ["b", "b", "a", None]
    pred = dataset(
        [gt_point(21 + 2 * f, 21, near_g1[f], frame=f) for f in range(4)]
        + [gt_point(61, 41 + 2 * f, near_g2[f], frame=f) for f in range(3)]
        + [gt_point(150, 150, "c", frame=3)]
        + [gt_point(100, 100, "a", view=2, frame=f) for f in (1, 2)]
        + [gt_point(30, 160, "d", view=2, frame=3)],
        n_views=3,
        n_frames=4,
        role=Role.PREDICTION,
    )
    if strip_ids:
        pred = pred.with_points(replace(p, id=None) for p in pred.points)
    result = evaluate_detailed(gt, pred, CONFIG)
    report = result.report
    assert [v.view for v in report.per_view] == [0, 2]
    assert [(v.tp, v.fp, v.fn) for v in report.per_view] == [(7, 1, 1), (0, 3, 0)]
    want = oracle_evaluate(gt, result.pred_with_ids, CONFIG)
    for key in SCORE_KEYS:
        got = getattr(report, key)
        assert got == pytest.approx(want[key], abs=1e-12), key
    for key in ("tp", "fp", "fn", "idsw"):
        assert report.tallies[key] == sum(getattr(v, key) for v in report.per_view), key
    if not strip_ids:
        assert report.tallies["idsw"] == 3


@pytest.mark.parametrize("per_class", [False, True])
def test_matches_carry_the_ground_truths_own_ids(monkeypatch, per_class):
    gt, pred = generate(
        SynthConfig(
            n_views=3,
            n_frames=6,
            n_points=5,
            pred_noise_sigma=1.5,
            pred_miss_rate=0.2,
            view_drop_prob=0.2,
            seed=3,
        )
    )
    if per_class:
        gt = gt.with_points(
            replace(p, class_label=LABELS[i % len(LABELS)]) for i, p in enumerate(gt.points)
        )
    calls = []

    def counted(ds):
        calls.append(ds)
        return remap_gt_ids(ds)

    monkeypatch.setattr(metrics, "remap_gt_ids", counted)
    result = evaluate_detailed(gt, pred, EvalConfig(alpha=6.0, per_class=per_class))
    own = {p.id for p in gt.points}
    tp_ids = {g for m in result.matches for g, _, _ in m.tp_pairs}
    fn_ids = {g for m in result.matches for g in m.fn_ids}
    assert tp_ids and fn_ids and tp_ids | fn_ids <= own
    # the relabelling is the whole ground truth's, built once on first read
    assert not calls
    assert result.id_map == result.id_map == remap_gt_ids(gt)[1]
    assert calls == [gt]


def test_score_ranges_on_noisy_scene():
    gt, pred = generate(
        SynthConfig(
            n_views=3,
            n_frames=8,
            n_points=6,
            pred_noise_sigma=4.0,
            pred_fp_rate=1.0,
            pred_miss_rate=0.3,
            id_switch_prob=0.2,
            view_drop_prob=0.2,
            seed=21,
        )
    )
    r = evaluate(gt, pred, CONFIG)
    for key in ("det_acc", "ass_acc", "corres_acc", "mv_hota", "hota", "f1", "idf1", "precision", "recall"):
        value = getattr(r, key)
        assert 0.0 <= value <= 1.0, key
    assert r.mota <= 1.0
    assert 0.0 <= r.loc_acc < CONFIG.alpha


def test_evaluate_rejects_swapped_roles():
    gt, pred = generate(SynthConfig(seed=0))
    with pytest.raises(ValueError):
        evaluate(pred, gt, CONFIG)


def test_evaluate_rejects_different_image_sizes():
    gt, pred = generate(SynthConfig(seed=0))
    shrunk = Dataset(
        n_views=pred.n_views,
        n_frames=pred.n_frames,
        image_width=pred.image_width * 2,
        image_height=pred.image_height,
        points=pred.points,
        role=Role.PREDICTION,
    )
    with pytest.raises(ValueError):
        evaluate(gt, shrunk, CONFIG)


# ---------------------------------------------------------------------------
# monotonicity


def test_extra_false_positive_never_helps():
    gt, pred = generate(
        SynthConfig(
            n_views=2, n_frames=5, n_points=4, pred_noise_sigma=2.0, seed=5,
            image_width=300, image_height=240,
        )
    )
    # re-home the scene on a taller image with a clear strip for the spike
    tall_gt = Dataset(
        n_views=gt.n_views, n_frames=gt.n_frames, image_width=300, image_height=360,
        points=gt.points, role=Role.GROUND_TRUTH,
    )
    tall_pred = Dataset(
        n_views=pred.n_views, n_frames=pred.n_frames, image_width=300, image_height=360,
        points=pred.points, role=Role.PREDICTION,
    )
    spiked = Dataset(
        n_views=pred.n_views, n_frames=pred.n_frames, image_width=300, image_height=360,
        points=pred.points + (Point(view=0, frame=0, x=150, y=350, id="extra"),),
        role=Role.PREDICTION,
    )
    base = evaluate(tall_gt, tall_pred, CONFIG)
    worse = evaluate(tall_gt, spiked, CONFIG)
    assert worse.det_acc < base.det_acc
    assert worse.mv_hota <= base.mv_hota


def test_upgrading_fn_to_full_tp_never_hurts():
    gt, pred = generate(
        SynthConfig(
            n_views=2, n_frames=4, n_points=3, pred_noise_sigma=1.0,
            pred_miss_rate=0.2, seed=8, image_width=300, image_height=240,
        )
    )
    probe_gt = [
        Point(view=v, frame=f, x=40.0 + 10 * f, y=330.0, id="probe")
        for v in range(2)
        for f in range(4)
    ]
    probe_pred = [
        Point(view=v, frame=f, x=40.0 + 10 * f, y=330.0, id="probe_p")
        for v in range(2)
        for f in range(4)
    ]
    missing = probe_pred.pop(2)

    def grow(ds, extra, role):
        return Dataset(
            n_views=2, n_frames=4, image_width=300, image_height=360,
            points=ds.points + tuple(extra), role=role,
        )

    gt2 = grow(gt, probe_gt, Role.GROUND_TRUTH)
    before = evaluate(gt2, grow(pred, probe_pred, Role.PREDICTION), CONFIG)
    after = evaluate(gt2, grow(pred, probe_pred + [missing], Role.PREDICTION), CONFIG)
    assert after.mv_hota >= before.mv_hota
    assert after.det_acc > before.det_acc


# ---------------------------------------------------------------------------
# per-class evaluation


def test_per_class_macro_average():
    points_gt = [
        Point(view=0, frame=f, x=20, y=20, id="a", class_label="entry")
        for f in range(4)
    ] + [
        Point(view=0, frame=f, x=80, y=80, id="b", class_label="exit")
        for f in range(4)
    ]
    points_pred = [
        Point(view=0, frame=f, x=20, y=20, id="pa", class_label="entry")
        for f in range(4)
    ]  # the "exit" class goes entirely undetected
    gt = dataset(points_gt, n_views=1, n_frames=4)
    pred = dataset(points_pred, n_views=1, n_frames=4, role=Role.PREDICTION)
    report = evaluate(gt, pred, EvalConfig(alpha=6.0, per_class=True))
    assert set(report.per_class) == {"entry", "exit"}
    assert report.per_class["entry"].mv_hota == 1.0
    assert report.per_class["exit"].mv_hota == 0.0
    assert report.mv_hota == pytest.approx(0.5)
    assert report.det_acc == pytest.approx(0.5)


def test_per_class_label_colliding_with_the_unlabelled_key_raises():
    # a matched "(none)" point and a missed unlabelled one would share a key
    points_gt = [
        Point(view=0, frame=0, x=20, y=20, id="a", class_label="(none)"),
        Point(view=0, frame=0, x=80, y=80, id="b"),
    ]
    points_pred = [Point(view=0, frame=0, x=20, y=20, id="p", class_label="(none)")]
    gt = dataset(points_gt, n_views=1, n_frames=1)
    pred = dataset(points_pred, n_views=1, n_frames=1, role=Role.PREDICTION)
    with pytest.raises(EvaluationError, match=r"'\(none\)' collides"):
        evaluate(gt, pred, EvalConfig(alpha=6.0, per_class=True))
    assert evaluate(gt, pred, CONFIG).tallies["tp"] == 1
    labelled_only = gt.with_points(points_gt[:1])
    report = evaluate(labelled_only, pred, EvalConfig(alpha=6.0, per_class=True))
    assert list(report.per_class) == ["(none)"]


def test_per_class_ignored_by_default():
    points_gt = [Point(view=0, frame=0, x=20, y=20, id="a", class_label="entry")]
    points_pred = [Point(view=0, frame=0, x=20, y=20, id="p", class_label="exit")]
    gt = dataset(points_gt, n_views=1, n_frames=1)
    pred = dataset(points_pred, n_views=1, n_frames=1, role=Role.PREDICTION)
    report = evaluate(gt, pred, CONFIG)
    assert report.det_acc == 1.0  # labels do not gate matching
    strict = evaluate(gt, pred, EvalConfig(alpha=6.0, per_class=True))
    assert strict.det_acc == 0.0


# ---------------------------------------------------------------------------
# report plumbing


def test_report_serialization_shape():
    gt, pred = generate(SynthConfig(n_views=2, n_frames=4, n_points=3, seed=2))
    report = evaluate(gt, pred, CONFIG)
    data = report.to_dict()
    assert list(data["scores"])[:8] == [
        "mota", "idf1", "f1", "det_acc", "ass_acc", "hota", "corres_acc", "mv_hota",
    ]
    table = report.to_table()
    assert "mvHOTA" in table and "CorresAcc" in table
    csv = report.to_csv()
    assert csv.count("\n") == 2
