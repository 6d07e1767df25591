"""Domain model, dataset I/O and identity plumbing.

A dataset is an immutable collection of 2-D points indexed by camera view
and frame. Ground-truth points carry identities that are shared across
views and time; predicted points may arrive with identities (multi-view
tracker output) or without (per-frame detector output, to be linked later
by temporal matching).
"""

from __future__ import annotations

import enum
import gc
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Any, Iterable


class _CollectorPaused:
    """Run a ``with`` block with Python's cyclic garbage collector paused.

    Reading and scoring make no reference cycles, so collections during
    them walk every live point and match and reclaim nothing. The pause is
    process-wide. On exit, an exception included, the collector is
    re-enabled only if it was enabled on entry, so nested blocks are
    no-ops; nothing is allocated after it is re-enabled, so the collection
    that the block deferred runs after it, not inside it.
    """

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.enabled:
            gc.enable()


class Role(enum.Enum):
    """Which side of the evaluation a dataset belongs to."""

    GROUND_TRUTH = "ground_truth"
    PREDICTION = "prediction"


class DatasetError(ValueError):
    """Raised for malformed or inconsistent dataset input.

    ``position`` locates the offending element, e.g. ``points[3].x``.
    """

    def __init__(self, message: str, position: str | None = None):
        self.position = position
        super().__init__(f"{position}: {message}" if position else message)


@dataclass(frozen=True, slots=True)
class Point:
    """One labelled or predicted 2-D point observation (slotted: no ``__dict__``)."""

    view: int
    frame: int
    x: float
    y: float
    id: str | None = None
    class_label: str | None = None


@dataclass(frozen=True)
class Dataset:
    """Immutable point collection with its image geometry.

    Building one checks the geometry and then every point (see
    ``_check_points``). Points are kept in input order; all per-(view,
    frame) accessors preserve that order, which makes downstream matching
    deterministic. The indices ``_by_frame``, ``frame_counts`` and
    ``view_masks`` are built on first read and kept; they take no part in
    equality or repr.
    """

    n_views: int
    n_frames: int
    image_width: int
    image_height: int
    points: tuple[Point, ...]
    role: Role

    def __post_init__(self):
        _check_geometry(self.n_views, self.n_frames, self.image_width, self.image_height)
        _check_points(self)

    def at(self, view: int, frame: int) -> tuple[Point, ...]:
        """Points of one (view, frame), in input order."""
        return self._by_frame.get((view, frame), ())

    @cached_property
    def _by_frame(self) -> dict[tuple[int, int], tuple[Point, ...]]:
        """The points of each (view, frame) that has any, built on first read."""
        rows: dict[tuple[int, int], list[Point]] = {}
        for p in self.points:
            row = rows.get((p.view, p.frame))
            if row is None:
                rows[p.view, p.frame] = [p]
            else:
                row.append(p)
        return {key: tuple(row) for key, row in rows.items()}

    @cached_property
    def frame_counts(self) -> Counter[tuple[int, str | None]]:
        """Number of frames where each (view, id) has a point, built on first read."""
        return Counter((p.view, p.id) for p in self.points)

    @cached_property
    def view_masks(self) -> dict[tuple[int, str | None], int]:
        """Bit mask of the views where each (frame, id) has a point, built on first read."""
        masks: dict[tuple[int, str | None], int] = {}
        for p in self.points:
            key = (p.frame, p.id)
            masks[key] = masks.get(key, 0) | 1 << p.view
        return masks

    def with_points(self, points: Iterable[Point]) -> Dataset:
        """Same geometry and role, different point set."""
        return Dataset(
            n_views=self.n_views,
            n_frames=self.n_frames,
            image_width=self.image_width,
            image_height=self.image_height,
            points=tuple(points),
            role=self.role,
        )

    def _with_valid_points(self, points: Iterable[Point]) -> Dataset:
        """``with_points`` for points known to keep every invariant, without the checks.

        For points that follow from this dataset's: same geometry, same
        role, and ids that stay unique per (view, frame).
        """
        dataset = object.__new__(Dataset)
        dataset.__dict__.update(
            n_views=self.n_views,
            n_frames=self.n_frames,
            image_width=self.image_width,
            image_height=self.image_height,
            points=tuple(points),
            role=self.role,
        )
        return dataset

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_views": self.n_views,
            "n_frames": self.n_frames,
            "image_width": self.image_width,
            "image_height": self.image_height,
            "points": [
                {
                    "view": p.view,
                    "frame": p.frame,
                    "x": p.x,
                    "y": p.y,
                    "id": p.id,
                    "class": p.class_label,
                }
                for p in self.points
            ],
        }


@dataclass(frozen=True)
class EvalConfig:
    """Knobs shared by the whole evaluation pipeline.

    ``alpha`` is the detection radius in pixels, positive and finite; a
    prediction counts as a true positive only when its distance to the
    ground truth is strictly below it. ``zero_tp_policy``, within [0, 1], is the
    score assigned to the association and correspondence accuracies when no
    true positive exists at all.
    """

    alpha: float = 6.0
    per_class: bool = False
    zero_tp_policy: float = 0.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 <= self.zero_tp_policy <= 1.0:
            raise ValueError("zero_tp_policy must be within [0, 1]")


@dataclass(frozen=True)
class IdMap:
    """Per-view relabelling of global ids to contiguous 0-based indices."""

    to_local: dict[int, dict[str, int]]
    to_global: dict[int, dict[int, str]]


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of comparing a ground-truth / prediction pair.

    Geometry mismatches make scores incomparable and block evaluation by
    default; missing views or frames are ordinary data (they turn into
    false negatives or positives downstream) and are reported as
    information only.
    """

    geometry: tuple[ValidationIssue, ...]
    coverage: tuple[ValidationIssue, ...]

    @property
    def has_geometry_mismatch(self) -> bool:
        return bool(self.geometry)

    @property
    def issues(self) -> tuple[ValidationIssue, ...]:
        return self.geometry + self.coverage

    def to_dict(self) -> dict[str, Any]:
        return {
            "geometry": [{"kind": i.kind, "detail": i.detail} for i in self.geometry],
            "coverage": [{"kind": i.kind, "detail": i.detail} for i in self.coverage],
        }


# The field checks take the point index rather than a formatted position, so
# that a position string is built only for a field that fails.
_MISSING = object()


def _invalid(value: Any, expected: str, key: str, index: int | None) -> DatasetError:
    if value is _MISSING:
        where = "$" if index is None else f"points[{index}]"
        return DatasetError(f"missing required field {key!r}", where)
    where = key if index is None else f"points[{index}].{key}"
    return DatasetError(f"expected {expected}, got {value!r}", where)


def _int_field(obj: dict, key: str, index: int | None = None) -> int:
    value = obj.get(key, _MISSING)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(value, "integer", key, index)
    return value


def _number_field(obj: dict, key: str, index: int | None = None) -> float:
    value = obj.get(key, _MISSING)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(value, "number", key, index)
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range; too long to quote
        raise DatasetError(
            "number does not fit a float", key if index is None else f"points[{index}].{key}"
        ) from None


def _opt_str_field(obj: dict, key: str, index: int | None = None) -> str | None:
    value = obj.get(key)
    if value is None or isinstance(value, str):
        return value
    raise _invalid(value, "string or null", key, index)


def _check_geometry(n_views: int, n_frames: int, image_width: int, image_height: int) -> None:
    if n_views < 1:
        raise DatasetError("n_views must be >= 1", "n_views")
    if n_frames < 1:
        raise DatasetError("n_frames must be >= 1", "n_frames")
    if image_width <= 0 or image_height <= 0:
        raise DatasetError("image dimensions must be positive", "image_width")
    # matching prices a cell at the image diagonal, a float
    for key, value in (("image_width", image_width), ("image_height", image_height)):
        try:
            float(value)
        except OverflowError:  # an integer beyond float range; too long to quote
            raise DatasetError("number does not fit a float", key) from None
    if math.isinf(math.hypot(image_width, image_height)):
        raise DatasetError("image diagonal does not fit a float", "image_width")


def _check_points(dataset: Dataset) -> None:
    """Raise for the first point that breaks a rule, by the rules in order.

    A point must lie in the geometry (view, frame, x, y), carry an id if
    the dataset is ground truth, and not repeat an id of its (view, frame).
    """
    n_views, n_frames = dataset.n_views, dataset.n_frames
    image_width, image_height = dataset.image_width, dataset.image_height
    needs_id = dataset.role is Role.GROUND_TRUTH
    seen_ids: set[tuple[str, int, int]] = set()
    # positions are formatted only for a failing point
    for i, p in enumerate(dataset.points):
        view, frame, pid = p.view, p.frame, p.id
        if not 0 <= view < n_views:
            raise DatasetError(f"view {view} out of range", f"points[{i}].view")
        if not 0 <= frame < n_frames:
            raise DatasetError(f"frame {frame} out of range", f"points[{i}].frame")
        if not 0 <= p.x <= image_width:
            raise DatasetError(f"x={p.x} outside image", f"points[{i}].x")
        if not 0 <= p.y <= image_height:
            raise DatasetError(f"y={p.y} outside image", f"points[{i}].y")
        if pid is None:
            if needs_id:
                raise DatasetError("ground-truth point without id", f"points[{i}].id")
        elif (pid, view, frame) in seen_ids:
            raise DatasetError(
                f"duplicate id {pid!r} in view {view}, frame {frame}", f"points[{i}].id"
            )
        else:
            seen_ids.add((pid, view, frame))


_HEADER = ("n_views", "n_frames", "image_width", "image_height")


def dataset_from_dict(data: Any, role: Role) -> Dataset:
    """Build a validated dataset from already-decoded JSON.

    Every point's fields are read first, then the header's, and the
    dataset then checks its geometry and its points. So the first error is
    reported in this precedence: a field of the wrong type, in point order;
    then the header's fields; then the geometry; then a point out of range,
    without a ground-truth id or repeating an id, in point order.
    """
    if not isinstance(data, dict):
        raise DatasetError("top-level value must be an object", "$")
    if "points" not in data:
        raise DatasetError("missing required field 'points'", "$")
    raw_points = data["points"]
    if not isinstance(raw_points, list):
        raise DatasetError("points must be an array", "points")
    points = tuple(_read_points(raw_points))
    n_views, n_frames, image_width, image_height = (_int_field(data, key) for key in _HEADER)
    return Dataset(n_views, n_frames, image_width, image_height, points, role)


def _read_points(raw_points: list) -> Iterable[Point]:
    """Each entry as a ``Point``, raising on the first field of the wrong type.

    A value of its field's exact JSON type is taken as it is; any other
    value goes through the field's check, which raises or converts it.
    """
    for i, entry in enumerate(raw_points):
        if not isinstance(entry, dict):
            raise DatasetError("point must be an object", f"points[{i}]")
        get = entry.get
        view, frame, x, y = get("view"), get("frame"), get("x"), get("y")
        pid, label = get("id"), get("class")
        if type(view) is not int:
            view = _int_field(entry, "view", i)
        if type(frame) is not int:
            frame = _int_field(entry, "frame", i)
        if type(x) is not float:
            x = _number_field(entry, "x", i)
        if type(y) is not float:
            y = _number_field(entry, "y", i)
        if pid is not None and type(pid) is not str:
            pid = _opt_str_field(entry, "id", i)
        if label is not None and type(label) is not str:
            label = _opt_str_field(entry, "class", i)
        yield Point(view, frame, x, y, pid, label)


def parse_dataset(source: str | Path | IO[str], role: Role) -> Dataset:
    """Parse a dataset file (or open stream) and validate every invariant."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source.read()
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(
            f"malformed JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except UnicodeDecodeError as exc:  # its offset counts from the decoded chunk, not the file
        raise DatasetError(f"not UTF-8 text: {exc.reason}") from exc
    except ValueError as exc:  # an integer literal longer than the interpreter converts
        raise DatasetError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise DatasetError("malformed JSON: nested too deeply") from exc
    return dataset_from_dict(data, role)


def serialize_dataset(dataset: Dataset, target: str | Path | IO[str] | None = None) -> str:
    """Render a dataset to its JSON document; optionally write it out."""
    text = json.dumps(dataset.to_dict(), indent=2)
    if target is not None:
        if isinstance(target, (str, Path)):
            Path(target).write_text(text + "\n", encoding="utf-8")
        else:
            target.write(text + "\n")
    return text


def remap_gt_ids(gt: Dataset) -> tuple[Dataset, IdMap]:
    """Relabel ground-truth ids to per-view contiguous indices.

    Global ids are sorted lexicographically within each view, so the map
    does not depend on point order. The original grouping of one physical
    point across views stays recoverable through the returned map.
    """
    if gt.role is not Role.GROUND_TRUTH:
        raise ValueError("remap_gt_ids expects a ground-truth dataset")
    per_view: dict[int, set[str]] = {}
    for p in gt.points:
        if p.id is None:
            raise DatasetError("ground-truth point without id", "points")
        per_view.setdefault(p.view, set()).add(p.id)
    to_local = {
        view: {gid: i for i, gid in enumerate(sorted(ids))}
        for view, ids in per_view.items()
    }
    to_global = {
        view: {i: gid for gid, i in mapping.items()}
        for view, mapping in to_local.items()
    }
    # ids map one-to-one within a view, so they stay unique per (view, frame)
    remapped = gt._with_valid_points(
        Point(
            view=p.view,
            frame=p.frame,
            x=p.x,
            y=p.y,
            id=str(to_local[p.view][p.id]),
            class_label=p.class_label,
        )
        for p in gt.points
    )
    return remapped, IdMap(to_local=to_local, to_global=to_global)


def validate_pair(gt: Dataset, pred: Dataset) -> ValidationReport:
    """Compare the shape of a ground-truth / prediction pair.

    Pure report: neither input is modified and nothing raises.
    """
    geometry: list[ValidationIssue] = []
    for attr in ("n_views", "n_frames", "image_width", "image_height"):
        a, b = getattr(gt, attr), getattr(pred, attr)
        if a != b:
            geometry.append(
                ValidationIssue("geometry-mismatch", f"{attr}: gt={a} pred={b}")
            )

    coverage: list[ValidationIssue] = []
    gt_views = {p.view for p in gt.points}
    pred_views = {p.view for p in pred.points}
    for v in sorted(gt_views - pred_views):
        coverage.append(ValidationIssue("missing-view", f"view {v} has no predictions"))
    for v in sorted(pred_views - gt_views):
        coverage.append(ValidationIssue("extra-view", f"view {v} has no ground truth"))
    gt_frames = {p.frame for p in gt.points}
    pred_frames = {p.frame for p in pred.points}
    for f in sorted(gt_frames - pred_frames):
        coverage.append(ValidationIssue("missing-frame", f"frame {f} has no predictions"))
    for f in sorted(pred_frames - gt_frames):
        coverage.append(ValidationIssue("extra-frame", f"frame {f} has no ground truth"))
    return ValidationReport(geometry=tuple(geometry), coverage=tuple(coverage))
