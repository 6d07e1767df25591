"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts as
they happen; without ``-s`` pytest shows them for failing criteria only.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from math import fsum

from mvteval.core import Dataset, EvalConfig, Point, Role, serialize_dataset
from mvteval.matching import first_min_cost
from mvteval.metrics import evaluate, hota, mv_hota, occlusion_index
from mvteval.synth import SynthConfig, correspondence_contrast_fixture, generate
from oracles import min_cost_assignment_by_permutations, oracle_evaluate

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


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_directional_correspondence_sensitivity():
    started = time.perf_counter()
    a = evaluate(*correspondence_contrast_fixture("A"), CONFIG)
    b = evaluate(*correspondence_contrast_fixture("B"), CONFIG)
    elapsed = time.perf_counter() - started
    stable = all(
        abs(getattr(a, key) - getattr(b, key)) <= 1e-12
        for key in ("mota", "idf1", "f1", "hota")
    )
    moved = abs(a.mv_hota - b.mv_hota) > 0.01
    _verdict(
        1,
        "paired fixture: MOTA/IDF1/F1/HOTA invariant, mvHOTA moves",
        stable and moved and elapsed < 1.0,
        f"delta={abs(a.mv_hota - b.mv_hota):.4f}, {elapsed:.3f}s",
    )


def test_criterion_2_occlusion_index_quarter():
    points = []
    for f in range(4):
        for i in range(3):
            for v in range(2):
                points.append(Point(view=v, frame=f, x=20.0 * i + 10, y=30.0, id=f"full{i}"))
        points.append(Point(view=0, frame=f, x=90.0, y=30.0, id="partial"))
    gt = Dataset(
        n_views=2, n_frames=4, image_width=128, image_height=96,
        points=tuple(points), role=Role.GROUND_TRUTH,
    )
    simple = occlusion_index(gt).simple
    _verdict(
        2,
        "4 points per frame, 3 fully corresponded: simple index 0.25",
        abs(simple - 0.25) <= 1e-12,
        f"got {simple!r}",
    )


def test_criterion_3_geometric_mean_consistency():
    mv = mv_hota(0.219, 0.202, 0.206)
    ho = hota(0.219, 0.202)
    _verdict(
        3,
        "published-score consistency of the geometric means",
        0.204 <= mv <= 0.212 and 0.202 <= ho <= 0.213,
        f"mv_hota={mv:.4f}, hota={ho:.4f}",
    )


def test_criterion_4_oracle_equivalence_thousand_datasets():
    started = time.perf_counter()
    rng = random.Random(2024)
    worst = 0.0
    for index in range(1000):
        cfg = SynthConfig(
            n_views=rng.randint(1, 3),
            n_frames=rng.randint(1, 8),
            n_points=rng.randint(1, 6),
            image_width=320,
            image_height=240,
            motion_amplitude=rng.uniform(0.0, 30.0),
            disparity=rng.uniform(0.0, 10.0),
            view_drop_prob=rng.choice([0.0, 0.1, 0.3]),
            temporal_drop_prob=rng.choice([0.0, 0.1, 0.2]),
            pred_noise_sigma=rng.choice([0.0, 0.3, 1.5, 4.0, 8.0]),
            pred_fp_rate=rng.choice([0.0, 0.3, 1.0]),
            pred_miss_rate=rng.choice([0.0, 0.15, 0.4]),
            id_switch_prob=rng.choice([0.0, 0.05, 0.2]),
            ghost_rate=rng.choice([0.0, 0.1, 0.3]),
            seed=index,
        )
        gt, pred = generate(cfg)
        report = evaluate(gt, pred, CONFIG)
        want = oracle_evaluate(gt, pred, CONFIG)
        for key in SCORE_KEYS:
            got = getattr(report, key)
            if want[key] is None or got is None:
                assert got is None and want[key] is None, (index, key, got, want[key])
                continue
            gap = abs(got - want[key])
            worst = max(worst, gap)
            assert gap <= 1e-12, (index, key, got, want[key])
    elapsed = time.perf_counter() - started
    _verdict(
        4,
        "1000 random datasets equal the definition-level oracle (1e-12)",
        elapsed < 60.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_assignment_optimality_ten_thousand():
    started = time.perf_counter()
    rng = random.Random(55)
    for _ in range(10_000):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        matrix = tuple(tuple(rng.uniform(0, 100) for _ in range(m)) for _ in range(n))
        got = first_min_cost(matrix)
        want_cost, _ = min_cost_assignment_by_permutations(matrix)
        assert fsum(matrix[r][c] for r, c in got) == want_cost, matrix
    elapsed = time.perf_counter() - started
    _verdict(
        5,
        "10000 random matrices: solver equals exhaustive minimum exactly",
        elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_6_reduction_laws():
    ok = True
    detail = []

    # single view: correspondence is exactly one
    for seed in range(20):
        gt, pred = generate(
            SynthConfig(
                n_views=1, n_frames=6, n_points=4,
                pred_noise_sigma=2.0, pred_miss_rate=0.2, pred_fp_rate=0.5, seed=seed,
            )
        )
        report = evaluate(gt, pred, CONFIG)
        if report.tallies["tp"] and report.corres_acc != 1.0:
            ok = False
            detail.append(f"single-view corres {report.corres_acc}")

    # identical prediction: everything is one
    gt, _ = generate(SynthConfig(n_views=2, n_frames=6, n_points=4, view_drop_prob=0.2, seed=77))
    mirror = Dataset(
        n_views=gt.n_views, n_frames=gt.n_frames,
        image_width=gt.image_width, image_height=gt.image_height,
        points=gt.points, role=Role.PREDICTION,
    )
    perfect = evaluate(gt, mirror, CONFIG)
    for key in ("det_acc", "ass_acc", "corres_acc", "mv_hota", "hota", "mota", "idf1", "f1"):
        if getattr(perfect, key) != 1.0:
            ok = False
            detail.append(f"perfect {key}={getattr(perfect, key)}")
    if perfect.loc_acc != 0.0:
        ok = False
        detail.append(f"loc_acc={perfect.loc_acc}")

    # empty prediction: detection-style scores are zero
    empty = Dataset(
        n_views=gt.n_views, n_frames=gt.n_frames,
        image_width=gt.image_width, image_height=gt.image_height,
        points=(), role=Role.PREDICTION,
    )
    nothing = evaluate(gt, empty, CONFIG)
    if (nothing.det_acc, nothing.f1, nothing.mv_hota) != (0.0, 0.0, 0.0):
        ok = False
        detail.append("empty-prediction scores nonzero")

    _verdict(6, "reduction laws (single view, identity, empty)", ok, "; ".join(detail))


def _probe_scene(seed: int):
    """Small random scene plus a perfectly tracked probe with one miss."""
    rng = random.Random(seed)
    gt, pred = generate(
        SynthConfig(
            n_views=2, n_frames=4, n_points=3,
            pred_noise_sigma=rng.choice([0.5, 2.0]),
            pred_miss_rate=rng.choice([0.0, 0.2]),
            pred_fp_rate=rng.choice([0.0, 0.4]),
            view_drop_prob=rng.choice([0.0, 0.2]),
            seed=seed,
            image_width=300, image_height=240,
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
    missing = probe_pred.pop(rng.randrange(len(probe_pred)))

    def tall(ds, extra, role):
        return Dataset(
            n_views=2, n_frames=4, image_width=300, image_height=360,
            points=ds.points + tuple(extra), role=role,
        )

    return (
        tall(gt, probe_gt, Role.GROUND_TRUTH),
        tall(pred, probe_pred, Role.PREDICTION),
        tall(pred, probe_pred + [missing], Role.PREDICTION),
        rng.uniform(20.0, 280.0),
    )


def test_criterion_7_monotonicity_suite():
    started = time.perf_counter()
    ok = True
    for seed in range(500):
        gt2, pred_missing, pred_full, fp_x = _probe_scene(seed)

        base = evaluate(gt2, pred_missing, CONFIG)
        spiked = evaluate(
            gt2,
            pred_missing.with_points(
                pred_missing.points
                + (Point(view=0, frame=0, x=fp_x, y=300.0, id="spike"),)
            ),
            CONFIG,
        )
        if spiked.det_acc > base.det_acc or spiked.mv_hota > base.mv_hota:
            ok = False
            break

        upgraded = evaluate(gt2, pred_full, CONFIG)
        if upgraded.mv_hota < base.mv_hota:
            ok = False
            break
    elapsed = time.perf_counter() - started
    _verdict(
        7,
        "500 scenes: extra FP never helps, full TP upgrade never hurts",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_8_cli_determinism(tmp_path):
    gt, pred = generate(
        SynthConfig(
            n_views=2, n_frames=5, n_points=4,
            pred_noise_sigma=1.0, pred_miss_rate=0.1, view_drop_prob=0.2, seed=13,
        )
    )
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    serialize_dataset(gt, gt_path)
    serialize_dataset(pred, pred_path)
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "mvteval.cli", "evaluate",
                "--gt", str(gt_path), "--pred", str(pred_path),
                "--format", "json", "--output", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    _verdict(
        8,
        "repeated CLI runs produce byte-identical machine-readable output",
        blobs[0] == blobs[1],
        f"{len(blobs[0])} bytes",
    )
