"""Scores for multi-view multi-point tracking.

The headline metric is the geometric mean of three Jaccard-style
accuracies: detection (one global pool of matches), temporal association
(per true positive, within its own view) and cross-view correspondence
(per true positive, against every other view of the same frame).
Baseline scores (MOTA, IDF1, F1, HOTA) are computed per view and
averaged, which keeps them comparable with single-view tooling.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from math import fsum
from typing import Any, Iterable, Sequence

from .core import Dataset, EvalConfig, IdMap, Role, remap_gt_ids
from .matching import (
    FrameMatch,
    assign_temporal_ids,
    match_frame,
    minimize_cost,
    near_pairs,
)

# One matched true positive: (view, frame, gt id, pred id, distance).
TpInstance = tuple[int, int, str, str, float]


@dataclass(frozen=True)
class DetTally:
    """Detection counts pooled over all frames and views."""

    tp: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn


@dataclass(frozen=True)
class DetectionScores:
    det_acc: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class AssTally:
    """Per-view identity co-occurrence counts behind temporal association.

    For a true positive c = (view, gt, pred), the frames where the same
    pair recurs are its TPA; the other frames where the ground-truth id
    appears are FNA; the other frames where the prediction id appears are
    FPA.
    """

    pair_frames: dict[tuple[int, str, str], int]
    gt_frames: dict[tuple[int, str], int]
    pred_frames: dict[tuple[int, str], int]

    def terms(self, view: int, gt_id: str, pred_id: str) -> tuple[int, int, int]:
        """(TPA, FNA, FPA) of one true positive."""
        tpa = self.pair_frames[(view, gt_id, pred_id)]
        return (
            tpa,
            self.gt_frames[(view, gt_id)] - tpa,
            self.pred_frames[(view, pred_id)] - tpa,
        )


@dataclass(frozen=True)
class CorresTally:
    """Cross-view correspondence classification for every true positive.

    ``per_tp`` holds one (TPC, FPC, FNC) triple per matched point, in the
    order of the true-positive list it was built from. Exactly one of the
    three counters increments per corresponding view, so the triple sums
    to the number of other views.
    """

    per_tp: tuple[tuple[int, int, int], ...]

    @property
    def tpc(self) -> int:
        return sum(t for t, _, _ in self.per_tp)

    @property
    def fpc(self) -> int:
        return sum(f for _, f, _ in self.per_tp)

    @property
    def fnc(self) -> int:
        return sum(f for _, _, f in self.per_tp)

    def scores(self) -> list[float]:
        out = []
        for tpc, fpc, fnc in self.per_tp:
            denom = tpc + fpc + fnc
            out.append(tpc / denom if denom else 1.0)
        return out


@dataclass(frozen=True)
class OcclusionReport:
    """Occlusion indices of a ground-truth dataset (model independent).

    ``simple`` is the share of point observations lacking full cross-view
    presence, counted per (identity, frame). The weighted per-view form
    averages, over identities, one minus the mean per-frame product of
    view presence and cross-view presence fraction; fixing either factor
    to one gives the temporal-only and view-only variants.
    """

    simple: float | None
    weighted_per_view: tuple[float, ...] | None
    weighted_mean: float | None
    temporal_per_view: tuple[float, ...] | None
    temporal_mean: float | None
    multiview: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "simple": self.simple,
            "weighted_per_view": list(self.weighted_per_view)
            if self.weighted_per_view is not None
            else None,
            "weighted_mean": self.weighted_mean,
            "temporal_per_view": list(self.temporal_per_view)
            if self.temporal_per_view is not None
            else None,
            "temporal_mean": self.temporal_mean,
            "multiview": self.multiview,
        }


@dataclass(frozen=True)
class PerViewScores:
    view: int
    tp: int
    fp: int
    fn: int
    idsw: int
    det_acc: float
    ass_acc: float
    f1: float
    hota: float
    mota: float | None
    idf1: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "view": self.view,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "idsw": self.idsw,
            "det_acc": self.det_acc,
            "ass_acc": self.ass_acc,
            "f1": self.f1,
            "hota": self.hota,
            "mota": self.mota,
            "idf1": self.idf1,
        }


@dataclass(frozen=True)
class MetricReport:
    """Every score plus the raw tallies needed to explain them."""

    alpha: float
    n_views: int
    n_frames: int
    det_acc: float
    precision: float
    recall: float
    f1: float | None
    mota: float | None
    idf1: float | None
    hota: float | None
    ass_acc: float
    corres_acc: float
    mv_hota: float
    loc_acc: float
    occlusion: OcclusionReport
    tallies: dict[str, int]
    per_view: tuple[PerViewScores, ...]
    per_class: dict[str, "MetricReport"] | None = None

    _COLUMNS = ("mota", "idf1", "f1", "det_acc", "ass_acc", "hota", "corres_acc", "mv_hota")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "alpha": self.alpha,
            "n_views": self.n_views,
            "n_frames": self.n_frames,
            "scores": {
                "mota": self.mota,
                "idf1": self.idf1,
                "f1": self.f1,
                "det_acc": self.det_acc,
                "ass_acc": self.ass_acc,
                "hota": self.hota,
                "corres_acc": self.corres_acc,
                "mv_hota": self.mv_hota,
                "precision": self.precision,
                "recall": self.recall,
                "loc_acc": self.loc_acc,
            },
            "occlusion": self.occlusion.to_dict(),
            "tallies": dict(self.tallies),
            "per_view": [v.to_dict() for v in self.per_view],
        }
        if self.per_class is not None:
            out["per_class"] = {
                label: report.to_dict() for label, report in sorted(self.per_class.items())
            }
        return out

    def to_table(self) -> str:
        header = ("MOTA", "IDF1", "F1", "DetAcc", "AssAcc", "HOTA", "CorresAcc", "mvHOTA")
        values = [_fmt(getattr(self, col)) for col in self._COLUMNS]
        widths = [max(len(h), len(v)) for h, v in zip(header, values)]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join(v.ljust(w) for v, w in zip(values, widths)),
            "",
            f"precision={_fmt(self.precision)}  recall={_fmt(self.recall)}  "
            f"loc_acc={_fmt(self.loc_acc)}px",
            f"occlusion_index={_fmt(self.occlusion.simple)}  "
            f"weighted={_fmt(self.occlusion.weighted_mean)}",
        ]
        if self.per_class:
            for label in sorted(self.per_class):
                sub = self.per_class[label]
                row = "  ".join(
                    _fmt(getattr(sub, col)).ljust(w)
                    for col, w in zip(self._COLUMNS, widths)
                )
                lines.append(f"[{label}] {row}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        cols = self._COLUMNS + ("precision", "recall", "loc_acc", "occlusion_index")
        values = [getattr(self, c) for c in self._COLUMNS] + [
            self.precision,
            self.recall,
            self.loc_acc,
            self.occlusion.simple,
        ]
        return (
            ",".join(cols)
            + "\n"
            + ",".join("" if v is None else repr(v) for v in values)
            + "\n"
        )


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


@dataclass(frozen=True)
class EvaluationResult:
    """Report plus the intermediates the pipeline produced on the way.

    The matches carry the ground truth's own ids. ``id_map``, the per-view
    relabelling of ``remap_gt_ids``, is built from ``gt`` on first access.
    """

    report: MetricReport
    matches: tuple[FrameMatch, ...]
    gt: Dataset
    pred_with_ids: Dataset

    @cached_property
    def id_map(self) -> IdMap:
        return remap_gt_ids(self.gt)[1]


# ---------------------------------------------------------------------------
# tallies and scores


def tally_detections(matches: Iterable[FrameMatch]) -> DetTally:
    tp = fp = fn = 0
    for m in matches:
        tp += len(m.tp_pairs)
        fp += len(m.fp_ids)
        fn += len(m.fn_ids)
    return DetTally(tp=tp, fp=fp, fn=fn)


def detection_scores(tally: DetTally) -> DetectionScores:
    """Jaccard detection accuracy plus the frame-level companions."""
    tp, fp, fn = tally.tp, tally.fp, tally.fn
    return DetectionScores(
        det_acc=tp / tally.total if tally.total else 0.0,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        f1=2 * tp / (2 * tp + fp + fn) if tally.total else 0.0,
    )


def build_association_tally(
    gt: Dataset, pred: Dataset, matches: Iterable[FrameMatch]
) -> AssTally:
    """Count identity occurrences per view for the association scores.

    ``gt`` and ``pred`` must be the datasets the matches were produced
    from (predictions already carrying ids).
    """
    pair_frames: dict[tuple[int, str, str], int] = {}
    gt_frames: dict[tuple[int, str], int] = {}
    pred_frames: dict[tuple[int, str], int] = {}
    for p in gt.points:
        key = (p.view, p.id)
        gt_frames[key] = gt_frames.get(key, 0) + 1
    for p in pred.points:
        key = (p.view, p.id)
        pred_frames[key] = pred_frames.get(key, 0) + 1
    for m in matches:
        for g, p, _ in m.tp_pairs:
            key = (m.view, g, p)
            pair_frames[key] = pair_frames.get(key, 0) + 1
    return AssTally(pair_frames=pair_frames, gt_frames=gt_frames, pred_frames=pred_frames)


def _mean(values: Sequence[float], empty: float) -> float:
    return fsum(values) / len(values) if values else empty


def _macro(items: Iterable[Any], attr: str) -> float | None:
    """Mean of ``attr`` over the items where it is not None; None if it never is."""
    defined = [x for x in (getattr(item, attr) for item in items) if x is not None]
    return fsum(defined) / len(defined) if defined else None


def _association(
    view_tp: Sequence[Sequence[TpInstance]], tally: AssTally, zero_tp_policy: float
) -> tuple[float, list[float], tuple[int, int, int]]:
    """Pooled and per-view association accuracy, and the summed (TPA, FNA, FPA).

    Each true positive's Jaccard is computed once and serves both means.
    """
    tpa = fna = fpa = 0
    view_scores: list[list[float]] = []
    for row in view_tp:
        scores = []
        for v, _, g, p, _ in row:
            tp_a, fn_a, fp_a = tally.terms(v, g, p)
            scores.append(tp_a / (tp_a + fn_a + fp_a))
            tpa, fna, fpa = tpa + tp_a, fna + fn_a, fpa + fp_a
        view_scores.append(scores)
    pooled = _mean([x for row in view_scores for x in row], zero_tp_policy)
    return pooled, [_mean(row, zero_tp_policy) for row in view_scores], (tpa, fna, fpa)


def view_masks(dataset: Dataset) -> dict[tuple[int, str | None], int]:
    """Bit mask of the views where each (frame, id) of a dataset has a point."""
    masks: dict[tuple[int, str | None], int] = {}
    for p in dataset.points:
        key = (p.frame, p.id)
        masks[key] = masks.get(key, 0) | 1 << p.view
    return masks


def classify_correspondence(
    tp_instances: Sequence[TpInstance],
    gt: Dataset,
    matches: Iterable[FrameMatch],
    pred: Dataset,
    n_views: int | None = None,
    *,
    gt_views: dict[tuple[int, str | None], int] | None = None,
    pred_views: dict[tuple[int, str | None], int] | None = None,
) -> CorresTally:
    """Classify each true positive against every other view of its frame.

    Where the same physical point is annotated in the other view, a
    matched detection there is a true correspondence and a missing one a
    false negative correspondence. Where it is not annotated, the
    prediction identity showing up anyway is a false positive
    correspondence; its absence is (vacuously) correct. Single-view data
    therefore yields empty triples, scored as fully corresponded.

    Every view is a bit, so a true positive is classified with a few mask
    operations instead of a loop over views. ``gt_views`` and
    ``pred_views`` may pass in ``view_masks(gt)`` and ``view_masks(pred)``
    when the caller already holds them.
    """
    n_views = n_views if n_views is not None else gt.n_views
    if gt_views is None:
        gt_views = view_masks(gt)
    if pred_views is None:
        pred_views = view_masks(pred)

    # (frame, gt id) -> the views where that point was matched
    tp_views: dict[tuple[int, str], int] = {}
    for m in matches:
        bit = 1 << m.view
        for g, _, _ in m.tp_pairs:
            key = (m.frame, g)
            tp_views[key] = tp_views.get(key, 0) | bit

    all_views = (1 << n_views) - 1
    per_tp = []
    for v, f, g, p, _ in tp_instances:
        key = (f, g)
        others = all_views & ~(1 << v)
        annotated = gt_views.get(key, 0) & others
        matched = tp_views.get(key, 0) & annotated
        stray = pred_views.get((f, p), 0) & others & ~annotated
        n_annotated, n_matched = annotated.bit_count(), matched.bit_count()
        fpc = stray.bit_count()
        per_tp.append(
            (n_matched + others.bit_count() - n_annotated - fpc, fpc, n_annotated - n_matched)
        )
    return CorresTally(per_tp=tuple(per_tp))


def correspondence_accuracy(tally: CorresTally, zero_tp_policy: float = 0.0) -> float:
    """Mean per-true-positive correspondence Jaccard."""
    scores = tally.scores()
    if not scores:
        return zero_tp_policy
    return fsum(scores) / len(scores)


def mv_hota(det_acc: float, ass_acc: float, corres_acc: float) -> float:
    """Cube root of the product: equal weight to all three accuracies."""
    return (det_acc * ass_acc * corres_acc) ** (1.0 / 3.0)


def hota(det_acc: float, ass_acc: float) -> float:
    """Square root of detection times association accuracy."""
    return math.sqrt(det_acc * ass_acc)


def mota(gt_total: int, fn: int, fp: int, idsw: int) -> float | None:
    """CLEAR-style tracking accuracy; undefined without ground truth."""
    if gt_total == 0:
        return None
    return 1.0 - (fn + fp + idsw) / gt_total


def count_id_switches(matches: Iterable[FrameMatch]) -> dict[int, int]:
    """Identity switches per view.

    A switch is a ground-truth id whose matched prediction id differs
    from its most recent previous match in the same view.
    """
    last: dict[tuple[int, str], str] = {}
    switches: dict[int, int] = {}
    for m in sorted(matches, key=lambda m: (m.view, m.frame)):
        switches.setdefault(m.view, 0)
        for g, p, _ in m.tp_pairs:
            key = (m.view, g)
            if key in last and last[key] != p:
                switches[m.view] += 1
            last[key] = p
    return switches


def idf1(
    gt: Dataset,
    pred: Dataset,
    view: int,
    alpha: float,
    pairs: Sequence[Sequence[tuple[float, int, int]]] | None = None,
) -> float | None:
    """Trajectory-level identity F1 for one view.

    Ground-truth and prediction identities are paired one-to-one to
    maximise the number of frames where both lie within the detection
    radius; that count is IDTP and the remaining observations are identity
    errors. A caller that already holds the view's within-``alpha`` pairs
    passes them as ``pairs``, indexed by frame, each list as ``near_pairs``
    gives it for ``gt.at(view, frame)`` and ``pred.at(view, frame)``.
    """
    n_gt = n_pred = 0
    gt_ids: set[str] = set()
    pred_ids: set[str] = set()
    hits: Counter[tuple[str, str]] = Counter()
    for f in range(max(gt.n_frames, pred.n_frames)):
        gs, ps = gt.at(view, f), pred.at(view, f)
        if not gs and not ps:
            continue
        n_gt += len(gs)
        n_pred += len(ps)
        gt_ids.update(g.id for g in gs)
        pred_ids.update(p.id for p in ps)
        near = pairs[f] if pairs is not None else near_pairs(gs, ps, alpha)
        hits.update((gs[r].id, ps[c].id) for _, r, c in near)
    if not n_gt and not n_pred:
        return None

    # overlap[g][p]: frames where GT g and prediction p lie within alpha
    gt_order = sorted(gt_ids)
    pred_order = sorted(pred_ids)
    overlap = [[hits[g, p] for p in pred_order] for g in gt_order]
    idtp = 0
    if gt_order and pred_order:
        ceiling = float(max(max(row) for row in overlap))
        costs = tuple(tuple(ceiling - o for o in row) for row in overlap)
        idtp = sum(overlap[r][c] for r, c in minimize_cost(costs))
    return 2 * idtp / (n_gt + n_pred)


def occlusion_index(gt: Dataset) -> OcclusionReport:
    """Occlusion indices of a ground-truth dataset."""
    if gt.role is not Role.GROUND_TRUTH:
        raise ValueError("occlusion_index expects a ground-truth dataset")
    if not gt.points:
        return OcclusionReport(None, None, None, None, None, None)

    views_at: dict[tuple[str, int], set[int]] = {}
    for p in gt.points:
        views_at.setdefault((p.id, p.frame), set()).add(p.view)
    full = sum(1 for views in views_at.values() if len(views) == gt.n_views)
    simple = 1.0 - full / len(views_at)

    ids = sorted({p.id for p in gt.points})
    n, m = gt.n_frames, gt.n_views
    presence = {(p.id, p.frame, p.view) for p in gt.points}

    weighted = []
    temporal = []
    for v in range(m):
        w_values = []
        t_values = []
        for gid in ids:
            acc = 0.0
            seen = 0
            for f in range(n):
                c_f = len(views_at.get((gid, f), ())) / m
                if (gid, f, v) in presence:
                    acc += c_f
                    seen += 1
            w_values.append(1.0 - acc / n)
            t_values.append(1.0 - seen / n)
        weighted.append(fsum(w_values) / len(w_values))
        temporal.append(fsum(t_values) / len(t_values))

    mv_values = [
        1.0 - fsum(len(views_at.get((gid, f), ())) / m for f in range(n)) / n
        for gid in ids
    ]
    return OcclusionReport(
        simple=simple,
        weighted_per_view=tuple(weighted),
        weighted_mean=fsum(weighted) / m,
        temporal_per_view=tuple(temporal),
        temporal_mean=fsum(temporal) / m,
        multiview=fsum(mv_values) / len(mv_values),
    )


# ---------------------------------------------------------------------------
# pipeline

# the ``MetricReport.per_class`` key of points without a class label
_UNLABELLED = "(none)"


class EvaluationError(ValueError):
    """Raised for a well-formed dataset pair that cannot be scored as asked."""


class Scene:
    """The state of one (ground truth, prediction) pair that no radius changes.

    One scene serves every radius up to ``radius``: pass it to each
    ``evaluate_detailed`` call on the pair, as ``--alpha-sweep`` does. It
    holds the occlusion report, the view masks of every (frame, id), the
    per-view point totals and, for every (view, frame), the
    ground-truth/prediction pairs closer than ``radius``, nearest first, so
    that a smaller radius reads its pairs as a prefix. Each part is built on
    first use. The scene also keeps the frame matches already made:
    a frame whose within-radius pairs and prediction ids are those of a radius
    already scored gets that radius's match back. Results are the same with
    a shared scene and without one.
    """

    def __init__(self, gt: Dataset, pred: Dataset, radius: float):
        if gt.role is not Role.GROUND_TRUTH or pred.role is not Role.PREDICTION:
            raise ValueError("evaluate expects (ground truth, prediction) in that order")
        if (gt.image_width, gt.image_height) != (pred.image_width, pred.image_height):
            raise EvaluationError("image dimensions differ; scores would not be comparable")
        if not radius > 0:
            raise ValueError("radius must be positive")
        self.gt = gt
        self.pred = pred
        self.radius = radius
        self.dims = (gt.image_width, gt.image_height)
        self.n_views = max(gt.n_views, pred.n_views)
        self.n_frames = max(gt.n_frames, pred.n_frames)
        # (view, frame, number of pairs within the radius, prediction ids)
        self._frame_matches: dict[tuple[int, int, int, tuple[str, ...]], FrameMatch] = {}

    @cached_property
    def occlusion(self) -> OcclusionReport:
        return occlusion_index(self.gt)

    @cached_property
    def gt_views(self) -> dict[tuple[int, str | None], int]:
        return view_masks(self.gt)

    @cached_property
    def pred_views(self) -> dict[tuple[int, str | None], int]:
        return view_masks(self.pred)

    @cached_property
    def view_totals(self) -> tuple[Counter[int], Counter[int]]:
        """Ground-truth and prediction points per view; linking keeps both."""
        return (
            Counter(p.view for p in self.gt.points),
            Counter(p.view for p in self.pred.points),
        )

    @cached_property
    def pairs(self) -> dict[tuple[int, int], list[tuple[float, int, int]]]:
        """(distance, gt index, pred index) closer than the radius, nearest first."""
        out = {}
        for v in range(self.n_views):
            for f in range(self.n_frames):
                near = near_pairs(self.gt.at(v, f), self.pred.at(v, f), self.radius)
                if near:
                    out[v, f] = sorted(near)
        return out

    def within(self, view: int, frame: int, alpha: float) -> list[tuple[float, int, int]]:
        """The pairs of one (view, frame) closer than ``alpha``."""
        near = self.pairs.get((view, frame), [])
        return near[: bisect_left(near, (alpha,))]

    @cached_property
    def classes(self) -> list[tuple[str, Scene]]:
        """One scene per class label, with its ``MetricReport.per_class`` key."""
        gt, pred = self.gt, self.pred
        labels = sorted(
            {p.class_label for p in gt.points} | {p.class_label for p in pred.points},
            key=lambda x: (x is None, x),
        )
        if None in labels and _UNLABELLED in labels:
            raise EvaluationError(
                f"class label {_UNLABELLED!r} collides with the per-class key of "
                "unlabelled points"
            )
        return [
            (
                label if label is not None else _UNLABELLED,
                Scene(
                    gt.with_points(p for p in gt.points if p.class_label == label),
                    pred.with_points(p for p in pred.points if p.class_label == label),
                    self.radius,
                ),
            )
            for label in labels or [None]
        ]


def evaluate(gt: Dataset, pred: Dataset, config: EvalConfig | None = None) -> MetricReport:
    """Run the full pipeline and return the metric report."""
    return evaluate_detailed(gt, pred, config).report


def evaluate_detailed(
    gt: Dataset,
    pred: Dataset,
    config: EvalConfig | None = None,
    *,
    scene: Scene | None = None,
) -> EvaluationResult:
    """Like ``evaluate`` but keeps the intermediate artifacts.

    Pipeline: assign prediction ids by temporal matching where missing,
    match every (view, frame) on the ground truth's own ids, then tally.
    Deterministic for a given input pair and config. ``scene``, a ``Scene``
    of this same pair with a radius of at least ``config.alpha``, only skips
    work already done for another radius; without it the call builds its
    own.
    """
    config = config or EvalConfig()
    if scene is None:
        scene = Scene(gt, pred, config.alpha)
    elif scene.gt != gt or scene.pred != pred:
        raise ValueError("the scene was built from a different dataset pair")
    elif config.alpha > scene.radius:
        raise ValueError(f"alpha={config.alpha} exceeds the scene radius {scene.radius}")

    if config.per_class:
        return _evaluate_per_class(scene, config)

    gt, pred, alpha = scene.gt, scene.pred, config.alpha
    n_views, n_frames = scene.n_views, scene.n_frames
    # the occlusion report first, so its working sets are freed before the
    # view masks and the frame pairs are built
    occlusion = scene.occlusion
    pred_ids = assign_temporal_ids(pred, config)

    # per-view lists, in (view, frame) order, so the per-view scores below
    # need no rescans of the pooled ones
    view_matches: list[list[FrameMatch]] = []
    view_near: list[list[list[tuple[float, int, int]]]] = []
    for v in range(n_views):
        row = []
        nears = [scene.within(v, f, alpha) for f in range(n_frames)]
        for f, near in enumerate(nears):
            ps = pred_ids.at(v, f)
            key = (v, f, len(near), tuple(p.id for p in ps))
            m = scene._frame_matches.get(key)
            if m is None:
                m = match_frame(gt.at(v, f), ps, config, scene.dims, v, f, near)
                scene._frame_matches[key] = m
            row.append(m)
        view_matches.append(row)
        view_near.append(nears)
    view_tp: list[list[TpInstance]] = [
        [(m.view, m.frame, g, p, d) for m in row for g, p, d in m.tp_pairs]
        for row in view_matches
    ]
    view_gt_total, view_pred_total = scene.view_totals
    matches: list[FrameMatch] = [m for row in view_matches for m in row]
    tp_instances: list[TpInstance] = [t for row in view_tp for t in row]

    det = tally_detections(matches)
    det_scores = detection_scores(det)
    # the tally is dropped once scored, before the correspondence sets exist
    ass, view_ass, (tpa, fna, fpa) = _association(
        view_tp, build_association_tally(gt, pred_ids, matches), config.zero_tp_policy
    )
    corres_tally = classify_correspondence(
        tp_instances,
        gt,
        matches,
        pred_ids,
        n_views=n_views,
        gt_views=scene.gt_views,
        pred_views=scene.pred_views if pred_ids is pred else None,
    )
    corres = correspondence_accuracy(corres_tally, config.zero_tp_policy)
    loc_acc = _mean([d for _, _, _, _, d in tp_instances], 0.0)
    switches = count_id_switches(matches)

    per_view: list[PerViewScores] = []
    for v in range(n_views):
        v_det = tally_detections(view_matches[v])
        v_gt_total = view_gt_total[v]
        if v_gt_total + view_pred_total[v] == 0:
            continue
        v_ass = view_ass[v]
        v_scores = detection_scores(v_det)
        per_view.append(
            PerViewScores(
                view=v,
                tp=v_det.tp,
                fp=v_det.fp,
                fn=v_det.fn,
                idsw=switches.get(v, 0),
                det_acc=v_scores.det_acc,
                ass_acc=v_ass,
                f1=v_scores.f1,
                hota=hota(v_scores.det_acc, v_ass),
                mota=mota(v_gt_total, v_det.fn, v_det.fp, switches.get(v, 0)),
                idf1=idf1(gt, pred_ids, v, alpha, view_near[v]),
            )
        )

    report = MetricReport(
        alpha=alpha,
        n_views=n_views,
        n_frames=n_frames,
        det_acc=det_scores.det_acc,
        precision=det_scores.precision,
        recall=det_scores.recall,
        f1=_macro(per_view, "f1"),
        mota=_macro(per_view, "mota"),
        idf1=_macro(per_view, "idf1"),
        hota=_macro(per_view, "hota"),
        ass_acc=ass,
        corres_acc=corres,
        mv_hota=mv_hota(det_scores.det_acc, ass, corres),
        loc_acc=loc_acc,
        occlusion=occlusion,
        tallies={
            "tp": det.tp,
            "fp": det.fp,
            "fn": det.fn,
            "idsw": sum(switches.values()),
            "gt_observations": len(gt.points),
            "pred_observations": len(pred_ids.points),
            "tpa": tpa,
            "fna": fna,
            "fpa": fpa,
            "tpc": corres_tally.tpc,
            "fpc": corres_tally.fpc,
            "fnc": corres_tally.fnc,
        },
        per_view=tuple(per_view),
    )
    return EvaluationResult(
        report=report,
        matches=tuple(matches),
        gt=gt,
        pred_with_ids=pred_ids,
    )


def _evaluate_per_class(scene: Scene, config: EvalConfig) -> EvaluationResult:
    """Run the whole pipeline once per class label and macro-average."""
    sub_config = replace(config, per_class=False)
    sub_reports: dict[str, MetricReport] = {}
    all_matches: list[FrameMatch] = []
    for key, sub in scene.classes:
        result = evaluate_detailed(sub.gt, sub.pred, sub_config, scene=sub)
        sub_reports[key] = result.report
        all_matches.extend(result.matches)

    reports = [sub_reports[k] for k in sorted(sub_reports)]
    occlusions = [r.occlusion for r in reports]
    occ = OcclusionReport(
        simple=_macro(occlusions, "simple"),
        weighted_per_view=None,
        weighted_mean=_macro(occlusions, "weighted_mean"),
        temporal_per_view=None,
        temporal_mean=_macro(occlusions, "temporal_mean"),
        multiview=_macro(occlusions, "multiview"),
    )
    tallies: dict[str, int] = {}
    for r in reports:
        for k, v in r.tallies.items():
            tallies[k] = tallies.get(k, 0) + v

    report = MetricReport(
        alpha=config.alpha,
        n_views=max(r.n_views for r in reports),
        n_frames=max(r.n_frames for r in reports),
        det_acc=_macro(reports, "det_acc"),
        precision=_macro(reports, "precision"),
        recall=_macro(reports, "recall"),
        f1=_macro(reports, "f1"),
        mota=_macro(reports, "mota"),
        idf1=_macro(reports, "idf1"),
        hota=_macro(reports, "hota"),
        ass_acc=_macro(reports, "ass_acc"),
        corres_acc=_macro(reports, "corres_acc"),
        mv_hota=_macro(reports, "mv_hota"),
        loc_acc=_macro(reports, "loc_acc"),
        occlusion=occ,
        tallies=tallies,
        per_view=(),
        per_class=sub_reports,
    )
    return EvaluationResult(
        report=report,
        matches=tuple(all_matches),
        gt=scene.gt,
        pred_with_ids=scene.pred,
    )
