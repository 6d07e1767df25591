"""Command-line interface: evaluate, synth and validate subcommands.

Exit codes: 0 success, 1 validation failure (geometry mismatch without
--force, a pair that cannot be scored even with --force, invalid generator
settings, synth output paths that name one file, a radius that is not
positive and finite, an --alpha-sweep that is malformed, that holds a
radius rounding to 0 at 9 decimals, whose STEP cannot advance in floating
point or that gives more than 10,000 radii, flags that do not combine:
--dump-matches with --per-class, --meta without --format json, or an
--output or --dump-matches that names the --gt or --pred file), 2
unreadable or malformed input, or an output that cannot be written (then
none is, and an output path that is a directory is refused before any is
written). Machine-readable output is a pure function of inputs and flags;
--meta opts into provenance fields. A CSV report has one row per class
and radius scored; see ``MetricReport.to_csv``.

Each call of ``main`` runs with Python's cyclic garbage collector paused,
from parsing the arguments to writing the report, and restores its state
on return or error. The pause is process-wide, so cycles made by other
threads meanwhile are reclaimed only after the call.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import itertools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .core import (
    DatasetError,
    EvalConfig,
    Point,
    Role,
    _CollectorPaused,
    parse_dataset,
    serialize_dataset,
    validate_pair,
)
from .metrics import EvaluationError, MetricReport, Scene, evaluate_detailed, occlusion_index
from .synth import SynthConfig, generate

_SWEEP_KEYS = ("alpha",) + MetricReport._COLUMNS + ("loc_acc",)
# the most radii one --alpha-sweep may ask for: the list is built before any is scored
_SWEEP_LIMIT = 10_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvteval",
        description="Evaluate multi-point detection and tracking across views.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="score a prediction file against ground truth")
    ev.add_argument("--gt", required=True, help="ground-truth dataset (JSON)")
    ev.add_argument("--pred", required=True, help="prediction dataset (JSON)")
    ev.add_argument("--alpha", type=float, default=6.0, help="detection radius in pixels")
    ev.add_argument(
        "--assign-ids",
        action="store_true",
        help="discard prediction ids and re-assign them by temporal matching",
    )
    ev.add_argument("--per-class", action="store_true", help="evaluate per class and macro-average")
    ev.add_argument("--force", action="store_true", help="evaluate despite geometry mismatches")
    ev.add_argument("--output", help="write the report here instead of stdout")
    ev.add_argument("--format", choices=("json", "table", "csv"), default="table")
    ev.add_argument("--dump-matches", metavar="PATH", help="write per-frame matches as JSON")
    ev.add_argument("--alpha-sweep", metavar="LO:HI:STEP", help="also score a range of radii")
    ev.add_argument("--meta", action="store_true", help="include provenance in JSON output")

    sy = sub.add_parser("synth", help="generate a synthetic ground-truth/prediction pair")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--views", type=int, default=2)
    sy.add_argument("--frames", type=int, default=30)
    sy.add_argument("--points", type=int, default=8)
    sy.add_argument("--width", type=int, default=640)
    sy.add_argument("--height", type=int, default=480)
    sy.add_argument("--motion-amplitude", type=float, default=40.0)
    sy.add_argument("--disparity", type=float, default=12.0)
    sy.add_argument("--view-drop-prob", type=float, default=0.0)
    sy.add_argument("--temporal-drop-prob", type=float, default=0.0)
    sy.add_argument("--noise-sigma", type=float, default=0.0)
    sy.add_argument("--fp-rate", type=float, default=0.0)
    sy.add_argument("--miss-rate", type=float, default=0.0)
    sy.add_argument("--id-switch-prob", type=float, default=0.0)
    sy.add_argument(
        "--ghost-rate",
        type=float,
        default=0.0,
        help="chance of a prediction in a view that dropped a point another view shows; "
        "no effect without --view-drop-prob",
    )
    sy.add_argument("--out-gt", default="gt.json")
    sy.add_argument("--out-pred", default="pred.json")

    va = sub.add_parser("validate", help="check a ground-truth/prediction pair for mismatches")
    va.add_argument("--gt", required=True)
    va.add_argument("--pred", required=True)
    return parser


def _load(path: str, role: Role):
    if not Path(path).exists():
        raise FileNotFoundError(f"no such file: {path}")
    return parse_dataset(path, role)


def _parse_sweep(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("--alpha-sweep expects LO:HI:STEP")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError("--alpha-sweep needs finite LO, HI and STEP")
    if step <= 0 or lo <= 0 or hi < lo:
        raise ValueError("--alpha-sweep needs 0 < LO <= HI and STEP > 0")
    values = []
    current = lo
    while current <= hi + 1e-9:
        radius = round(current, 9)
        if radius == 0:
            raise ValueError(f"--alpha-sweep radius {current:g} rounds to 0 at 9 decimals")
        values.append(radius)
        if current + step == current:
            raise ValueError(f"--alpha-sweep STEP {step:g} is too small to advance from {current:g}")
        if len(values) > _SWEEP_LIMIT:
            raise ValueError(f"--alpha-sweep gives more than {_SWEEP_LIMIT} radii")
        current += step
    return values


def _write_files(outputs: dict[str, str]) -> bool:
    """Write each text to its path, all or none.

    Paths that resolve to one file are one output, and of their texts the
    later one is written. Every text goes to a new sibling of its file
    first, created exclusively and named none of the outputs, so that
    staging replaces no file. The temporaries replace their files only
    once all of them are written, so a write that fails leaves no output
    behind. A path that is a directory is refused before anything is
    written, since replacing it would fail after the paths before it were
    replaced. On failure print an ``error:`` line naming the path and
    return False.
    """
    # resolved file -> (the path as given, its text)
    targets = {os.path.realpath(path): (path, text) for path, text in outputs.items()}
    staged: list[tuple[Path, str, str]] = []
    try:
        for real, (path, _) in targets.items():
            if os.path.isdir(real):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for real, (path, text) in targets.items():
            for n in itertools.count():
                temporary = Path(f"{real}.mvteval-tmp{n or ''}")
                try:
                    if str(temporary) not in targets:
                        temporary.open("x").close()
                        break
                except FileExistsError:
                    pass
            staged.append((temporary, real, path))
            temporary.write_text(text, encoding="utf-8")
        for temporary, real, path in staged:
            temporary.replace(real)
    except OSError as exc:
        for temporary, _, _ in staged:
            temporary.unlink(missing_ok=True)
        print(f"error: {OSError(exc.errno, exc.strerror, path)}", file=sys.stderr)
        return False
    return True


def _cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        gt = _load(args.gt, Role.GROUND_TRUTH)
        pred = _load(args.pred, Role.PREDICTION)
    except (OSError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    validation = validate_pair(gt, pred)
    if validation.has_geometry_mismatch and not args.force:
        for issue in validation.geometry:
            print(f"geometry mismatch: {issue.detail}", file=sys.stderr)
        print("use --force to evaluate anyway", file=sys.stderr)
        return 1

    sweep_alphas: list[float] = []
    if args.alpha_sweep:
        try:
            sweep_alphas = _parse_sweep(args.alpha_sweep)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.dump_matches and args.per_class:
        print("error: --dump-matches is not supported with --per-class", file=sys.stderr)
        return 1
    if args.meta and args.format != "json":
        # only a JSON report has a place for provenance
        print(f"error: --meta is not supported with --format {args.format}", file=sys.stderr)
        return 1
    # an output onto an input would replace the data it was computed from
    inputs = {os.path.realpath(args.gt): "--gt", os.path.realpath(args.pred): "--pred"}
    for flag, path in (("--output", args.output), ("--dump-matches", args.dump_matches)):
        named = path and inputs.get(os.path.realpath(path))
        if named:
            print(f"error: {flag} would overwrite the {named} file: {path}", file=sys.stderr)
            return 1

    if args.assign_ids:
        # predictions may lack ids, so stripping every id keeps them valid
        pred = pred._with_valid_points(
            Point(view=p.view, frame=p.frame, x=p.x, y=p.y, id=None, class_label=p.class_label)
            for p in pred.points
        )

    try:
        config = EvalConfig(alpha=args.alpha, per_class=args.per_class)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        # every radius, the headline's and the sweep's, is scored on one scene,
        # which links id-less predictions once, at the headline's
        scene = Scene(gt, pred, config.alpha, sweep_alphas)
        result = evaluate_detailed(gt, pred, config, scene=scene)
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = result.report

    # every output is rendered before any is written; with one file named
    # twice, however spelled, the report wins
    outputs: dict[str, str] = {}
    if args.dump_matches:
        dump = [
            {
                "view": m.view,
                "frame": m.frame,
                "tp": [{"gt": g, "pred": p, "distance": d} for g, p, d in m.tp_pairs],
                "fp": list(m.fp_ids),
                "fn": list(m.fn_ids),
            }
            for m in result.matches
        ]
        outputs[args.dump_matches] = json.dumps(dump, indent=2) + "\n"

    sweep: list[MetricReport] = []
    for alpha in sweep_alphas:
        sweep_config = EvalConfig(alpha=alpha, per_class=args.per_class)
        sweep.append(evaluate_detailed(gt, pred, sweep_config, scene=scene).report)

    if args.format == "json":
        payload = report.to_dict()
        payload["validation"] = validation.to_dict()
        if sweep:
            payload["alpha_sweep"] = [{k: getattr(r, k) for k in _SWEEP_KEYS} for r in sweep]
        if args.meta:
            payload["meta"] = {
                "tool": "mvteval",
                "version": __version__,
                "gt": args.gt,
                "pred": args.pred,
                "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = report.to_csv(sweep)
    else:
        text = report.to_table()
        if sweep:
            text += "\nalpha sweep:\n" + "".join(
                f"  alpha={r.alpha:g}  det_acc={r.det_acc:.4f}  ass_acc={r.ass_acc:.4f}  "
                f"corres_acc={r.corres_acc:.4f}  mv_hota={r.mv_hota:.4f}\n"
                for r in sweep
            )
    if args.output:
        outputs[args.output] = text
    if not _write_files(outputs):
        return 2
    if not args.output:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if os.path.realpath(args.out_gt) == os.path.realpath(args.out_pred):
        print(f"error: --out-gt and --out-pred name one file: {args.out_pred}", file=sys.stderr)
        return 1
    try:
        config = SynthConfig(
            n_views=args.views,
            n_frames=args.frames,
            n_points=args.points,
            image_width=args.width,
            image_height=args.height,
            motion_amplitude=args.motion_amplitude,
            disparity=args.disparity,
            view_drop_prob=args.view_drop_prob,
            temporal_drop_prob=args.temporal_drop_prob,
            pred_noise_sigma=args.noise_sigma,
            pred_fp_rate=args.fp_rate,
            pred_miss_rate=args.miss_rate,
            id_switch_prob=args.id_switch_prob,
            ghost_rate=args.ghost_rate,
            seed=args.seed,
        )
        gt, pred = generate(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outputs = {
        args.out_gt: serialize_dataset(gt) + "\n",
        args.out_pred: serialize_dataset(pred) + "\n",
    }
    if not _write_files(outputs):
        return 2
    occlusion = occlusion_index(gt)
    print(f"wrote {args.out_gt} ({len(gt.points)} points)")
    print(f"wrote {args.out_pred} ({len(pred.points)} points)")
    simple = 0.0 if occlusion.simple is None else occlusion.simple
    weighted = 0.0 if occlusion.weighted_mean is None else occlusion.weighted_mean
    print(f"occlusion index: simple={simple:.4f} weighted_mean={weighted:.4f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        gt = _load(args.gt, Role.GROUND_TRUTH)
        pred = _load(args.pred, Role.PREDICTION)
    except (OSError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = validate_pair(gt, pred)
    if not report.issues:
        print("ok: datasets are aligned")
        return 0
    for issue in report.issues:
        print(f"{issue.kind}: {issue.detail}")
    return 1 if report.has_geometry_mismatch else 0


def main(argv: list[str] | None = None) -> int:
    with _CollectorPaused():
        args = build_parser().parse_args(argv)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
