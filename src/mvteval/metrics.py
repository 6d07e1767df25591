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
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from math import fsum
from typing import Any, Iterable, Sequence

from .core import Dataset, EvalConfig, IdMap, Role, _CollectorPaused, remap_gt_ids
from .matching import (
    FrameMatch,
    assign_temporal_ids,
    match_frame,
    minimize_cost,
    near_pairs,
)

# One view's result: its frame matches, association (TPA, FNA, FPA) sums and
# per-TP values, and its scores (None for a view without points).
ViewResult = tuple[list[FrameMatch], tuple[int, int, int], list[float], "PerViewScores | None"]
# One frame column's result, over every view: its correspondence (TPC, FPC,
# FNC) sums and per-TP values, and its true positives' distances.
ColumnResult = tuple[tuple[int, int, int], list[float], list[float]]


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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


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
        return asdict(self)


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

    # the table's columns, then every other score, in output order
    _COLUMNS = ("mota", "idf1", "f1", "det_acc", "ass_acc", "hota", "corres_acc", "mv_hota")
    _SCORES = _COLUMNS + ("precision", "recall", "loc_acc")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "alpha": self.alpha,
            "n_views": self.n_views,
            "n_frames": self.n_frames,
            "scores": {name: getattr(self, name) for name in self._SCORES},
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

    def to_csv(self, sweep: Sequence[MetricReport] = ()) -> str:
        """One row per report: this one, then each of ``sweep``.

        Under ``per_class`` each report's row, the macro row, is followed by
        one row per class in key order. A ``class`` column then leads, empty
        on the macro row, which comes first in its radius; an ``alpha``
        column follows when a sweep is given. ``None`` is an empty cell.
        """
        import csv  # here, so that importing the package does not load it
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        by_class = self.per_class is not None
        writer.writerow(
            ("class",) * by_class + ("alpha",) * bool(sweep) + self._SCORES + ("occlusion_index",)
        )
        for macro in (self, *sweep):
            for label, report in [("", macro), *sorted((macro.per_class or {}).items())]:
                scores = [getattr(report, c) for c in self._SCORES] + [report.occlusion.simple]
                writer.writerow([label] * by_class + [macro.alpha] * bool(sweep) + scores)
        return out.getvalue()


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


@dataclass(frozen=True)
class EvaluationResult:
    """Report plus the intermediates the pipeline produced on the way.

    The matches carry the ground truth's own ids. ``pred_with_ids`` holds
    the predictions the matches were made on: where any lacked an id, those
    linked once, at the alpha of the scene scored, whatever the radius.
    Under ``per_class`` it holds the predictions as given, not linked,
    since each class links its own. ``id_map``, the per-view relabelling
    of ``remap_gt_ids``, is built from ``gt`` on first access.
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


def detection_scores(tp: int, fp: int, fn: int) -> tuple[float, float, float, float]:
    """Jaccard detection accuracy plus the frame-level companions.

    Returns (det_acc, precision, recall, f1).
    """
    total = tp + fp + fn
    return (
        tp / total if total else 0.0,
        tp / (tp + fp) if tp + fp else 0.0,
        tp / (tp + fn) if tp + fn else 0.0,
        2 * tp / (2 * tp + fp + fn) if total else 0.0,
    )


def build_association_tally(
    gt_frames: Counter[tuple[int, str | None]],
    pred_frames: Counter[tuple[int, str | None]],
    matches: Sequence[FrameMatch],
) -> list[tuple[int, int, int]]:
    """(TPA, FNA, FPA) of each true positive of ``matches``, in match order.

    For a true positive c = (view, gt, pred), the frames of that view where
    the same pair is matched are its TPA; the other frames where the
    ground-truth id appears are FNA; the other frames where the prediction
    id appears are FPA. ``gt_frames`` and ``pred_frames`` are the
    ``Dataset.frame_counts`` of the datasets the true positives were
    matched on (predictions already carrying ids).
    """
    pair_frames = Counter((m.view, g, p) for m in matches for g, p, _ in m.tp_pairs)
    # every true positive of one (view, gt, pred) pair has the same terms
    pair_terms = {
        (v, g, p): (tpa, gt_frames[v, g] - tpa, pred_frames[v, p] - tpa)
        for (v, g, p), tpa in pair_frames.items()
    }
    return [pair_terms[m.view, g, p] for m in matches for g, p, _ in m.tp_pairs]


def _jaccard_values(terms: Sequence[tuple[int, int, int]]) -> list[float]:
    """h / (h + a + b) of each per-true-positive (h, a, b) triple; 1 for an all-zero one."""
    return [h / (h + a + b) if h + a + b else 1.0 for h, a, b in terms]


def _column_sums(terms: Sequence[tuple[int, int, int]]) -> tuple[int, int, int]:
    # a loop, not zip(*terms): one iterator per term sets the collector off
    h_sum = a_sum = b_sum = 0
    for h, a, b in terms:
        h_sum += h
        a_sum += a
        b_sum += b
    return h_sum, a_sum, b_sum


def _mean(values: Sequence[float], empty: float) -> float:
    return fsum(values) / len(values) if values else empty


def _macro(items: Iterable[Any], attr: str) -> float | None:
    """Mean of ``attr`` over the items where it is not None; None if it never is."""
    defined = [x for x in (getattr(item, attr) for item in items) if x is not None]
    return fsum(defined) / len(defined) if defined else None


def classify_correspondence(
    matches: Sequence[FrameMatch],
    gt_views: dict[tuple[int, str | None], int],
    pred_views: dict[tuple[int, str | None], int],
    n_views: int,
) -> list[tuple[int, int, int]]:
    """(TPC, FPC, FNC) of each true positive of ``matches``, in match order.

    Each true positive is classified against every other view of its frame.
    Where the same physical point is annotated in the other view, a
    matched detection there is a true correspondence and a missing one a
    false negative correspondence. Where it is not annotated, the
    prediction identity showing up anyway is a false positive
    correspondence; its absence is (vacuously) correct. Exactly one of the
    three counters increments per other view, so each triple sums to
    ``n_views - 1``; single-view data yields empty triples.

    ``gt_views`` and ``pred_views`` are the ``Dataset.view_masks`` of the
    ground truth and of the predictions (carrying ids) the true positives
    were matched on. Every view is a bit, so a true positive is classified with
    a few mask operations instead of a loop over views. Its own view is
    set in the ground-truth mask G, in the matched mask T (a subset of G)
    and in the prediction mask P, so FNC = |G| - |T|, FPC = |P & ~G| and
    TPC takes the rest.
    """
    # (frame, gt id) -> the number of views where that point was matched
    matched = Counter((m.frame, g) for m in matches for g, _, _ in m.tp_pairs)
    n_others = n_views - 1
    # the triple does not depend on the view, so each (frame, gt id,
    # pred id) is classified once
    triples: dict[tuple[int, str, str], tuple[int, int, int]] = {}
    terms = []
    for m in matches:
        f = m.frame
        for g, p, _ in m.tp_pairs:
            key = (f, g, p)
            triple = triples.get(key)
            if triple is None:
                annotated = gt_views[f, g]
                fnc = annotated.bit_count() - matched[f, g]
                fpc = (pred_views[f, p] & ~annotated).bit_count()
                triple = triples[key] = (n_others - fpc - fnc, fpc, fnc)
            terms.append(triple)
    return terms


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


def count_id_switches(row: Iterable[FrameMatch]) -> int:
    """Identity switches in one view's matches, given in frame order.

    A switch is a ground-truth id whose matched prediction id differs
    from its most recent previous match.
    """
    last: dict[str, str] = {}
    switches = 0
    for m in row:
        for g, p, _ in m.tp_pairs:
            if last.get(g, p) != p:
                switches += 1
            last[g] = p
    return switches


def idf1(n_gt: int, n_pred: int, hits: Counter[tuple[str, str]]) -> float | None:
    """Trajectory-level identity F1 for one view.

    ``n_gt`` and ``n_pred`` count the view's ground-truth and prediction
    points; ``hits`` counts, per (gt id, pred id), the frames where the two
    lie within the detection radius. Identities are paired one-to-one to
    maximise the hits kept; that sum is IDTP and the remaining observations
    are identity errors. An id without a hit adds nothing to IDTP, so only
    ids with one enter the assignment.
    """
    if not n_gt and not n_pred:
        return None
    idtp = 0
    if hits:
        gt_order = sorted({g for g, _ in hits})
        pred_order = sorted({p for _, p in hits})
        ceiling = max(hits.values())
        # .get, not hits[...]: a Counter's missing key costs a Python call
        get = hits.get
        costs = tuple(tuple(ceiling - get((g, p), 0) for p in pred_order) for g in gt_order)
        idtp = sum(get((gt_order[r], pred_order[c]), 0) for r, c in minimize_cost(costs))
    return 2 * idtp / (n_gt + n_pred)


def occlusion_index(gt: Dataset) -> OcclusionReport:
    """Occlusion indices of a ground-truth dataset, read from its view masks."""
    if gt.role is not Role.GROUND_TRUTH:
        raise ValueError("occlusion_index expects a ground-truth dataset")
    if not gt.points:
        return OcclusionReport(None, None, None, None, None, None)

    masks = gt.view_masks
    full = sum(1 for mask in masks.values() if mask.bit_count() == gt.n_views)
    simple = 1.0 - full / len(masks)

    # id -> the view mask of each frame where it has a point, in frame order
    tracks: dict[str, list[int]] = {}
    for frame, gid in sorted(masks):
        tracks.setdefault(gid, []).append(masks[frame, gid])
    ids = sorted(tracks)
    n, m = gt.n_frames, gt.n_views

    weighted = []
    temporal = []
    for v in range(m):
        w_values = []
        t_values = []
        for gid in ids:
            # an int sum of view counts, divided once, rounds alike in every
            # frame order
            acc = 0
            seen = 0
            for mask in tracks[gid]:
                if mask >> v & 1:
                    acc += mask.bit_count()
                    seen += 1
            w_values.append(1.0 - acc / (m * n))
            t_values.append(1.0 - seen / n)
        weighted.append(fsum(w_values) / len(w_values))
        temporal.append(fsum(t_values) / len(t_values))

    mv_values = [1.0 - fsum(mask.bit_count() / m for mask in tracks[gid]) / n for gid in ids]
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

    One scene serves ``alpha`` and every radius of ``sweep``, up to their
    largest, ``radius``: pass it to each ``evaluate_detailed`` call on the
    pair, as ``--alpha-sweep`` does. Predictions that lack an id are linked
    once, at ``alpha``, so that every radius scores the same tracks, as if
    their ids had been given. The scene holds the occlusion report and, for
    every (view, frame), the ground-truth/prediction pairs closer than
    ``radius``, nearest first, so that a radius reads its pairs as a prefix.
    A radius therefore enters scoring only through its pair-count grid: how
    many pairs each (view, frame) has within it. The memos are keyed by the
    part of the grid their result reads: a frame's match and IDF1 hits by
    its count, a view's result by ``zero_tp_policy`` and the view's row of
    counts, and a frame column's correspondence and distances by the column
    of counts. A radius whose key is one already scored gets that result
    back. Each part is built on first use; the frame counts and view masks
    are the datasets' own.
    """

    def __init__(self, gt: Dataset, pred: Dataset, alpha: float, sweep: Iterable[float] = ()):
        if gt.role is not Role.GROUND_TRUTH or pred.role is not Role.PREDICTION:
            raise ValueError("evaluate expects (ground truth, prediction) in that order")
        if (gt.image_width, gt.image_height) != (pred.image_width, pred.image_height):
            raise EvaluationError("image dimensions differ; scores would not be comparable")
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        self.gt = gt
        self.pred = pred
        self.alpha = alpha
        self.radius = max([alpha, *sweep])
        self.dims = (gt.image_width, gt.image_height)
        self.n_views = max(gt.n_views, pred.n_views)
        self.n_frames = max(gt.n_frames, pred.n_frames)
        # (view, frame, pair count) -> the frame's match and its IDF1 (gt id,
        # pred id) hits
        self._frames: dict[tuple[int, int, int], tuple[FrameMatch, tuple]] = {}
        # (zero_tp_policy, view, its pair counts) -> ViewResult
        self._views: dict[tuple, ViewResult] = {}
        # (frame, its pair count in each view) -> ColumnResult
        self._columns: dict[tuple, ColumnResult] = {}

    @cached_property
    def occlusion(self) -> OcclusionReport:
        return occlusion_index(self.gt)

    @cached_property
    def pred_with_ids(self) -> Dataset:
        """The predictions scored: as given if each has an id, else linked at ``alpha``."""
        if all(p.id is not None for p in self.pred.points):
            return self.pred
        return assign_temporal_ids(self.pred, EvalConfig(alpha=self.alpha))

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
                    gt._with_valid_points(p for p in gt.points if p.class_label == label),
                    pred._with_valid_points(p for p in pred.points if p.class_label == label),
                    self.alpha,
                    (self.radius,),
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

    Pipeline: link prediction ids where any is missing, once per scene, at
    the scene's alpha; then each view's frames are matched on the ground
    truth's own ids and the view is scored, unless the scene already holds
    that view's result; correspondence, which needs every view's matches,
    comes last, one frame column at a time, unless the scene already holds
    that column's result.
    Deterministic for a given input pair and config. ``scene``, a ``Scene``
    of this same pair with a radius of at least ``config.alpha``, skips
    work done for another radius; with ids given, the result is the same as
    without it. A call without one builds its own, which links at
    ``config.alpha``.
    Runs with Python's cyclic garbage collector paused, since scoring makes
    no reference cycles, and restores its state on return or error. The
    pause is process-wide, so cycles made by other threads meanwhile are
    reclaimed only after the call.
    """
    with _CollectorPaused():
        config = config or EvalConfig()
        if scene is None:
            scene = Scene(gt, pred, config.alpha)
        elif scene.gt != gt or scene.pred != pred:
            raise ValueError("the scene was built from a different dataset pair")
        elif config.alpha > scene.radius:
            raise ValueError(f"alpha={config.alpha} exceeds the scene radius {scene.radius}")

        if config.per_class:
            return _evaluate_per_class(scene, config)

        gt, alpha, policy = scene.gt, config.alpha, config.zero_tp_policy
        n_views, n_frames = scene.n_views, scene.n_frames
        pred, views, columns = scene.pred_with_ids, scene._views, scene._columns
        all_pairs = scene.pairs
        # the radius's pair-count grid: each (view, frame)'s pairs within alpha
        counts = [
            tuple(bisect_left(all_pairs.get((v, f), ()), (alpha,)) for f in range(n_frames))
            for v in range(n_views)
        ]

        # pooled in (view, frame) order; the pooled association mean and each
        # view's are exactly rounded sums over the same per-TP values
        matches: list[FrameMatch] = []
        ass_sums: list[tuple[int, int, int]] = []
        ass_values: list[float] = []
        per_view: list[PerViewScores] = []
        rows: list[list[FrameMatch]] = []
        for v, row_counts in enumerate(counts):
            key = (policy, v, row_counts)
            entry = views.get(key)
            if entry is None:
                entry = views[key] = _score_view(scene, v, row_counts, config)
            row, v_sums, v_values, scores = entry
            matches.extend(row)
            rows.append(row)
            ass_sums.append(v_sums)
            ass_values.extend(v_values)
            if scores is not None:
                per_view.append(scores)

        # pooled in (frame, view) order; the means are exactly rounded sums, so
        # the order does not change them
        corres_sums: list[tuple[int, int, int]] = []
        corres_values: list[float] = []
        distances: list[float] = []
        # the occlusion report reads the ground truth's view masks, so it is taken
        # where correspondence first needs them, not built before the view loop
        occlusion = scene.occlusion
        gt_views, pred_views = gt.view_masks, pred.view_masks
        for f, column in enumerate(zip(*counts)):
            entry = columns.get((f, column))
            if entry is None:
                frame_matches = [row[f] for row in rows]
                terms = classify_correspondence(frame_matches, gt_views, pred_views, n_views)
                entry = columns[f, column] = (
                    _column_sums(terms),
                    _jaccard_values(terms),
                    [d for m in frame_matches for _, _, d in m.tp_pairs],
                )
            c_sums, c_values, c_distances = entry
            corres_sums.append(c_sums)
            corres_values.extend(c_values)
            distances.extend(c_distances)

        # a view without points adds no tp, fp or fn
        tp, fp, fn = _column_sums([(view.tp, view.fp, view.fn) for view in per_view])
        tpa, fna, fpa = _column_sums(ass_sums)
        tpc, fpc, fnc = _column_sums(corres_sums)
        det_acc, precision, recall, _ = detection_scores(tp, fp, fn)
        ass = _mean(ass_values, policy)
        corres = _mean(corres_values, policy)
        loc_acc = _mean(distances, 0.0)

        report = MetricReport(
            alpha=alpha,
            n_views=n_views,
            n_frames=n_frames,
            det_acc=det_acc,
            precision=precision,
            recall=recall,
            f1=_macro(per_view, "f1"),
            mota=_macro(per_view, "mota"),
            idf1=_macro(per_view, "idf1"),
            hota=_macro(per_view, "hota"),
            ass_acc=ass,
            corres_acc=corres,
            mv_hota=mv_hota(det_acc, ass, corres),
            loc_acc=loc_acc,
            occlusion=occlusion,
            tallies={
                "tp": tp,
                "fp": fp,
                "fn": fn,
                "idsw": sum(view.idsw for view in per_view),
                "gt_observations": len(gt.points),
                "pred_observations": len(pred.points),
                "tpa": tpa,
                "fna": fna,
                "fpa": fpa,
                "tpc": tpc,
                "fpc": fpc,
                "fnc": fnc,
            },
            per_view=tuple(per_view),
        )
        return EvaluationResult(
            report=report,
            matches=tuple(matches),
            gt=gt,
            pred_with_ids=pred,
        )


def _score_view(scene: Scene, v: int, counts: Sequence[int], config: EvalConfig) -> ViewResult:
    """View ``v``'s frame matches, association sums and values, and scores.

    ``counts`` are the view's pair counts, in frame order; a frame is
    matched only where the scene's frame memo holds no result for its
    count. The scores are None for a view without points.
    """
    gt, pred, all_pairs, frames = scene.gt, scene.pred_with_ids, scene.pairs, scene._frames
    row = []
    hits: list[tuple[str, str]] = []  # IDF1's (gt id, pred id) frames
    v_tp = v_fp = v_fn = 0
    for f, n_near in enumerate(counts):
        entry = frames.get((v, f, n_near))
        if entry is None:
            gs, ps = gt.at(v, f), pred.at(v, f)
            near = all_pairs.get((v, f), ())[:n_near]
            m = match_frame(gs, ps, config, scene.dims, v, f, near)
            # every pair within alpha is an IDF1 hit, matched or not
            entry = frames[v, f, n_near] = (m, tuple((gs[r].id, ps[c].id) for _, r, c in near))
        m, frame_hits = entry
        row.append(m)
        hits.extend(frame_hits)
        v_tp += m.tp
        v_fp += len(m.fp_ids)
        v_fn += len(m.fn_ids)
    # a view's points are its tp + fn ground truth and tp + fp predictions
    if v_tp + v_fp + v_fn == 0:
        return row, (0, 0, 0), [], None
    # a true positive's terms depend only on its own view's matches and the
    # per-(view, id) frame counts
    ass_terms = build_association_tally(gt.frame_counts, pred.frame_counts, row)
    v_values = _jaccard_values(ass_terms)
    v_ass = _mean(v_values, config.zero_tp_policy)
    v_det_acc, _, _, v_f1 = detection_scores(v_tp, v_fp, v_fn)
    v_idsw = count_id_switches(row)
    scores = PerViewScores(
        view=v,
        tp=v_tp,
        fp=v_fp,
        fn=v_fn,
        idsw=v_idsw,
        det_acc=v_det_acc,
        ass_acc=v_ass,
        f1=v_f1,
        hota=hota(v_det_acc, v_ass),
        mota=mota(v_tp + v_fn, v_fn, v_fp, v_idsw),
        idf1=idf1(v_tp + v_fn, v_tp + v_fp, Counter(hits)),
    )
    return row, _column_sums(ass_terms), v_values, scores


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
        **{name: _macro(reports, name) for name in MetricReport._SCORES},
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
