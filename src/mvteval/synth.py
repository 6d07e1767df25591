"""Deterministic synthetic multi-view sequences for tests and benchmarks.

Ground truth follows smooth sinusoidal trajectories with a constant
horizontal disparity per view (a stereo-like rig). Occlusion is modelled
by two drop processes: temporal drops hide a point from every view of a
frame, view drops hide it from single views. Predictions derive from the
visible ground truth through Gaussian noise, misses, spurious detections,
identity switches and optional cross-view ghosts (a prediction emitted in
a view whose ground truth is hidden, which fakes a correspondence).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .core import Dataset, Point, Role


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; the seed fully determines the output pair.

    ``ghost_rate`` emits a prediction only in a view where the point was
    view-dropped while another view still shows it, so without
    ``view_drop_prob > 0`` it changes nothing.
    """

    n_views: int = 2
    n_frames: int = 30
    n_points: int = 8
    image_width: int = 640
    image_height: int = 480
    motion_amplitude: float = 40.0
    disparity: float = 12.0
    view_drop_prob: float = 0.0
    temporal_drop_prob: float = 0.0
    pred_noise_sigma: float = 0.0
    pred_fp_rate: float = 0.0
    pred_miss_rate: float = 0.0
    id_switch_prob: float = 0.0
    ghost_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_views < 1 or self.n_frames < 1 or self.n_points < 1:
            raise ValueError("n_views, n_frames and n_points must be positive")
        for name in (
            "view_drop_prob",
            "temporal_drop_prob",
            "pred_miss_rate",
            "id_switch_prob",
            "ghost_rate",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        for name in ("pred_fp_rate", "pred_noise_sigma", "motion_amplitude", "disparity"):
            # an integer beyond float range compares below inf but fails later
            if not 0.0 <= getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and non-negative")
        for name in ("image_width", "image_height"):
            try:
                float(getattr(self, name))
            except OverflowError:  # an integer beyond float range
                raise ValueError(f"{name} does not fit a float") from None


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    count = 0
    p = rng.random()
    while p > threshold:
        count += 1
        p *= rng.random()
    return count


def generate(config: SynthConfig) -> tuple[Dataset, Dataset]:
    """Generate a paired (ground truth, prediction) dataset."""
    rng = random.Random(config.seed)
    w, h = config.image_width, config.image_height
    amp = config.motion_amplitude
    span = config.disparity * (config.n_views - 1)
    x_lo, x_hi = amp + 1.0, w - amp - 1.0 - span
    y_lo, y_hi = amp + 1.0, h - amp - 1.0
    if x_hi < x_lo or y_hi < y_lo:
        raise ValueError("image too small for the configured motion and disparity")
    period = float(max(config.n_frames, 12))

    trajectories = []
    for _ in range(config.n_points):
        trajectories.append(
            (
                rng.uniform(x_lo, x_hi),
                rng.uniform(y_lo, y_hi),
                rng.uniform(0.5, 2.0),
                rng.uniform(0.5, 2.0),
                rng.uniform(0.0, 2 * math.pi),
                rng.uniform(0.0, 2 * math.pi),
            )
        )

    def position(i: int, frame: int, view: int) -> tuple[float, float]:
        x0, y0, fx, fy, px, py = trajectories[i]
        x = x0 + amp * math.sin(2 * math.pi * fx * frame / period + px)
        y = y0 + amp * math.sin(2 * math.pi * fy * frame / period + py)
        return x + view * config.disparity, y

    visible: dict[tuple[int, int, int], bool] = {}
    for i in range(config.n_points):
        for f in range(config.n_frames):
            gone = rng.random() < config.temporal_drop_prob
            for v in range(config.n_views):
                dropped = rng.random() < config.view_drop_prob
                visible[(i, f, v)] = not gone and not dropped

    generations = []
    for i in range(config.n_points):
        gen, row = 0, []
        for _ in range(config.n_frames):
            if rng.random() < config.id_switch_prob:
                gen += 1
            row.append(gen)
        generations.append(row)

    def clamp(value: float, upper: float) -> float:
        return min(max(value, 0.0), upper)

    gt_points: list[Point] = []
    pred_points: list[Point] = []
    for i in range(config.n_points):
        for f in range(config.n_frames):
            any_visible = any(
                visible[(i, f, v)] for v in range(config.n_views)
            )
            for v in range(config.n_views):
                x, y = position(i, f, v)
                if visible[(i, f, v)]:
                    gt_points.append(Point(view=v, frame=f, x=x, y=y, id=f"g{i}"))
                    detected = rng.random() >= config.pred_miss_rate
                else:  # a ghost
                    detected = any_visible and rng.random() < config.ghost_rate
                if detected:
                    pred_points.append(
                        Point(
                            view=v,
                            frame=f,
                            x=clamp(x + rng.gauss(0, config.pred_noise_sigma), w),
                            y=clamp(y + rng.gauss(0, config.pred_noise_sigma), h),
                            id=f"p{i}g{generations[i][f]}",
                        )
                    )

    for v in range(config.n_views):
        for f in range(config.n_frames):
            for j in range(_poisson(rng, config.pred_fp_rate)):
                pred_points.append(
                    Point(
                        view=v,
                        frame=f,
                        x=rng.uniform(0, w),
                        y=rng.uniform(0, h),
                        id=f"spur{v}x{f}x{j}",
                    )
                )

    def order(p: Point) -> tuple[int, int, str]:
        return (p.view, p.frame, p.id)

    gt_points.sort(key=order)
    pred_points.sort(key=order)
    return _pair(config.n_views, config.n_frames, w, h, gt_points, pred_points)


def _pair(
    n_views: int, n_frames: int, width: int, height: int, gt: list[Point], pred: list[Point]
) -> tuple[Dataset, Dataset]:
    """The (ground truth, prediction) datasets of one scene, points in the order given."""
    geometry = dict(n_views=n_views, n_frames=n_frames, image_width=width, image_height=height)
    return (
        Dataset(**geometry, points=tuple(gt), role=Role.GROUND_TRUTH),
        Dataset(**geometry, points=tuple(pred), role=Role.PREDICTION),
    )


def correspondence_contrast_fixture(variant: str) -> tuple[Dataset, Dataset]:
    """Stereo pair whose variants differ only in correspondence structure.

    Variant "A" holds five identities: two annotated in the left view only
    and tracked perfectly there, one annotated in both views but detected
    only on the left, and two right-view-only identities that go entirely
    undetected. Variant "B" removes the both-view identity together with
    its predictions. Detection, association and all per-view baseline
    scores are unchanged by construction (the left view stays perfect, the
    right view stays prediction-free), while the share of corresponded
    true positives moves from 2/3 to 1.
    """
    if variant not in ("A", "B"):
        raise ValueError("variant must be 'A' or 'B'")
    n_frames = 4
    columns = {"a": 20.0, "b": 44.0, "c": 68.0, "d": 92.0, "e": 116.0}
    gt_views = {"a": (0,), "b": (0,), "c": (0, 1), "d": (1,), "e": (1,)}
    detected = ("a", "b", "c")  # predictions exist in view 0 only
    keep = [k for k in columns if variant == "A" or k != "c"]

    gt_points = []
    pred_points = []
    for f in range(n_frames):
        y = 20.0 + 2.0 * f
        for name in keep:
            for v in gt_views[name]:
                gt_points.append(Point(view=v, frame=f, x=columns[name], y=y, id=name))
            if name in detected:
                pred_points.append(Point(view=0, frame=f, x=columns[name], y=y))

    return _pair(2, n_frames, 128, 96, gt_points, pred_points)


def three_view_fixture() -> tuple[Dataset, Dataset]:
    """Three-view scene covering each correspondence classification.

    Per frame and true positive: identity g1 is annotated and detected in
    all views (pure TPC); g2 exists in view 0 only but its prediction also
    shows up in view 1 (one FPC); g3 exists in views 0 and 1 but is
    detected only in view 0 (one FNC). Predictions carry explicit
    cross-view identities, the way a multi-view tracker would emit them.
    """
    n_frames = 2
    gt_points = []
    pred_points = []
    for f in range(n_frames):
        y = 30.0 + 4.0 * f
        for v in (0, 1, 2):
            gt_points.append(Point(view=v, frame=f, x=30.0, y=y, id="g1"))
            pred_points.append(Point(view=v, frame=f, x=30.0, y=y, id="q1"))
        gt_points.append(Point(view=0, frame=f, x=60.0, y=y, id="g2"))
        pred_points.append(Point(view=0, frame=f, x=60.0, y=y, id="q2"))
        pred_points.append(Point(view=1, frame=f, x=60.0, y=y, id="q2"))
        for v in (0, 1):
            gt_points.append(Point(view=v, frame=f, x=90.0, y=y, id="g3"))
        pred_points.append(Point(view=0, frame=f, x=90.0, y=y, id="q3"))

    return _pair(3, n_frames, 128, 96, gt_points, pred_points)
