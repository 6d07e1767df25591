"""The three benchmark workloads: scene set-up, one evaluation, and its check.

Every workload uses the baseline synthetic noise model below. The scenes
come from ``mvteval.synth.generate`` only, and are handed to the public
entry points ``mvteval.evaluate`` and ``mvteval.cli.main``. Each workload
seed stands for a suite of scenes, because one scene's work varies a lot
between seeds (the assignment solver's probes grow with the cube of a
frame's size); a suite keeps the work of a run nearly the same at every
seed, so that timings compare across seeds.

``dense_ids``       8 scenes of 4 x 50 x 20 with prediction ids: dense
                    frames, so the per-frame assignment solver dominates.
``nameless_link``   20 scenes of 2 x 10 x 20 whose prediction ids are all
                    dropped, so the temporal linker dominates. At the
                    default 40 px motion amplitude points outrun alpha and
                    the linker mints an id for most points; at 5 px it links.
``wide_cli_sweep``  4 sparse scenes of 8 x 125 x 4 written to JSON and
                    scored through the CLI with a 6-radius alpha sweep, so
                    parsing, relabelling, correspondence and the sweep
                    dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BASELINE_NOISE = dict(
    pred_noise_sigma=1.5,
    pred_miss_rate=0.1,
    pred_fp_rate=0.5,
    view_drop_prob=0.15,
    id_switch_prob=0.02,
)
SWEEP_SPEC = "2:12:2"
SCORE_KEYS = (
    "mv_hota", "det_acc", "ass_acc", "corres_acc", "hota", "idf1", "mota",
    "f1", "precision", "recall", "loc_acc",
)
# Scores that are shares; mota can go negative and loc_acc is in pixels.
UNIT_SCORES = ("mv_hota", "det_acc", "ass_acc", "corres_acc", "hota", "idf1", "f1", "precision", "recall")
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Shape:
    views: int
    frames: int
    points: int
    scenes: int = 1
    motion_amplitude: float = 40.0


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    smoke: Shape
    strip_ids: bool = False
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_ids", Shape(4, 50, 20, scenes=8), Shape(2, 6, 4)),
        Workload(
            "nameless_link",
            Shape(2, 10, 20, scenes=20, motion_amplitude=5.0),
            Shape(2, 6, 4, scenes=2, motion_amplitude=5.0),
            strip_ids=True,
        ),
        Workload("wide_cli_sweep", Shape(8, 125, 4, scenes=4), Shape(2, 6, 4), via_cli=True),
    )
}


def scene_seeds(seed: int, shape: Shape) -> list[int]:
    """Generator seeds of one workload seed; disjoint between workload seeds."""
    return [shape.scenes * (seed - 1) + i + 1 for i in range(shape.scenes)]


@dataclass
class Scenes:
    """What one set-up produced: the mvteval module and the inputs."""

    mvteval: Any
    pairs: list[tuple[Any, Any]]
    files: list[tuple[str, str]]


def make_scenes(mvteval: Any, workload: Workload, shape: Shape, seed: int, workdir: Path) -> Scenes:
    """Generate the workload's inputs; for the CLI workload also write them to JSON."""
    Point = mvteval.core.Point
    pairs = []
    files = []
    for scene_seed in scene_seeds(seed, shape):
        config = mvteval.synth.SynthConfig(
            n_views=shape.views,
            n_frames=shape.frames,
            n_points=shape.points,
            motion_amplitude=shape.motion_amplitude,
            seed=scene_seed,
            **BASELINE_NOISE,
        )
        gt, pred = mvteval.synth.generate(config)
        if workload.strip_ids:
            pred = pred.with_points(
                Point(view=p.view, frame=p.frame, x=p.x, y=p.y, id=None, class_label=p.class_label)
                for p in pred.points
            )
        if workload.via_cli:
            gt_path = workdir / f"gt-{scene_seed}.json"
            pred_path = workdir / f"pred-{scene_seed}.json"
            mvteval.core.serialize_dataset(gt, gt_path)
            mvteval.core.serialize_dataset(pred, pred_path)
            files.append((str(gt_path), str(pred_path)))
        pairs.append((gt, pred))
    return Scenes(mvteval=mvteval, pairs=pairs, files=files)


class EvaluationFailed(Exception):
    pass


def evaluate_scene(scenes: Scenes, workload: Workload, index: int) -> Any:
    """One evaluation of one scene through the public entry point.

    Returns the raw output: the report dict, or the CLI's JSON text. The
    caller times this call, so it does no more than a user's call would.
    """
    mvteval = scenes.mvteval
    if workload.via_cli:
        gt_path, pred_path = scenes.files[index]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mvteval.cli.main(
                ["evaluate", "--gt", gt_path, "--pred", pred_path,
                 "--format", "json", "--alpha-sweep", SWEEP_SPEC]
            )
        if code != 0:
            raise EvaluationFailed(f"cli exited with {code}")
        return out.getvalue()
    gt, pred = scenes.pairs[index]
    return mvteval.evaluate(gt, pred)


def canonical(raw: Any) -> dict[str, Any]:
    """The full report as a dict, for exact comparison between runs."""
    return json.loads(raw) if isinstance(raw, str) else raw.to_dict()


def summary(report: dict[str, Any]) -> dict[str, Any]:
    """The scores, tallies and sweep rows that the reference pins."""
    out: dict[str, Any] = {
        "alpha": report["alpha"],
        "scores": {k: report["scores"][k] for k in SCORE_KEYS},
        "tallies": dict(report["tallies"]),
    }
    if "alpha_sweep" in report:
        out["alpha_sweep"] = report["alpha_sweep"]
    return out


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _score_problems(scores: dict[str, Any], alpha: float, where: str) -> list[str]:
    problems = []
    for key in UNIT_SCORES:
        if key in scores and not (_is_number(scores[key]) and 0.0 <= scores[key] <= 1.0):
            problems.append(f"{where}: {key}={scores[key]!r} outside [0, 1]")
    if not _is_number(scores.get("mota")):
        problems.append(f"{where}: mota={scores.get('mota')!r} is not a number")
    if all(_is_number(scores.get(k)) for k in ("mv_hota", "det_acc", "ass_acc", "corres_acc")):
        cube = (scores["det_acc"] * scores["ass_acc"] * scores["corres_acc"]) ** (1.0 / 3.0)
        if abs(scores["mv_hota"] - cube) > TOLERANCE:
            problems.append(f"{where}: mv_hota={scores['mv_hota']!r} != cube root {cube!r}")
    if not (_is_number(scores.get("loc_acc")) and scores["loc_acc"] < alpha):
        problems.append(f"{where}: loc_acc={scores.get('loc_acc')!r} not below alpha={alpha}")
    return problems


def invariant_problems(s: dict[str, Any]) -> list[str]:
    """Checks that hold for any input, so they need no reference."""
    t = s["tallies"]
    problems = []
    if t["tp"] + t["fn"] != t["gt_observations"]:
        problems.append(f"tp + fn = {t['tp'] + t['fn']} != gt_observations = {t['gt_observations']}")
    if t["tp"] + t["fp"] != t["pred_observations"]:
        problems.append(
            f"tp + fp = {t['tp'] + t['fp']} != pred_observations = {t['pred_observations']}"
        )
    problems += _score_problems(s["scores"], s["alpha"], "scores")
    for row in s.get("alpha_sweep", []):
        problems += _score_problems(row, row["alpha"], f"alpha_sweep[{row['alpha']:g}]")
    return problems


def reference_problems(actual: Any, expected: Any, where: str = "") -> list[str]:
    """Floats must agree within TOLERANCE, everything else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in reference_problems(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected)) for p in reference_problems(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and _is_number(actual) and not isinstance(actual, int):
        return [] if abs(actual - expected) <= TOLERANCE else [f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []
