"""Digest every output of mvteval over a fixed grid of synthetic scenes.

Usage: python tests/equivalence.py SRC_DIR

Imports mvteval from SRC_DIR and prints, for the library and for the
command line, the number of runs and one sha256 over all their outputs.
A change that should leave every output as it was gives the same two
lines on its own ``src`` as on a checkout of its parent:

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python tests/equivalence.py /tmp/parent/src
    python tests/equivalence.py src

Library runs (12,960): 60 seeds x 1-3 views x prediction ids kept, half
stripped and all stripped x per-class off and on x one ``Scene`` shared by
every radius or a fresh one per call x the radii 0.5, 3, 6, 20, 1e9 and 6
again. The shared scene is built as ``Scene(gt, pred, 1e9)``, so it links
id-less predictions once, at 1e9, for every radius, while a fresh one
links them at its own radius. Each run digests ``report.to_dict()``, the
per-frame matches and ``pred_with_ids``, or the error raised.

Command-line runs (432): 36 scenes x 12 flag sets, covering the README's
commands, ``--assign-ids``, ``--per-class``, the sweeps 2:12:2 and
1:200:33, and all three formats. Each run digests the exit code, stdout,
stderr and every file written. The script is not a test module, so pytest
does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ALPHAS = (0.5, 3.0, 6.0, 20.0, 1e9, 6.0)
LABELS = ("a", "b", None)
FLAG_SETS = (
    (),
    ("--alpha", "4.0", "--assign-ids", "--format", "json", "--output", "report.json"),
    ("--per-class", "--alpha-sweep", "2:12:2", "--format", "json"),
    ("--dump-matches", "matches.json"),
    ("--format", "csv"),
    ("--assign-ids",),
    ("--per-class",),
    ("--alpha-sweep", "1:200:33", "--format", "json"),
    ("--alpha-sweep", "2:12:2"),
    ("--assign-ids", "--per-class", "--alpha-sweep", "2:12:2", "--format", "csv"),
    ("--alpha", "0.5", "--assign-ids", "--dump-matches", "matches.json", "--format", "json"),
    ("--alpha", "1e9", "--per-class", "--alpha-sweep", "1:200:33", "--format", "json"),
)


def load(src_dir: str):
    src = Path(src_dir).resolve()
    sys.path.insert(0, str(src))
    import mvteval
    from mvteval import cli, core, metrics, synth

    if Path(mvteval.__file__).resolve().parent != src / "mvteval":
        raise SystemExit(f"mvteval was imported from {mvteval.__file__}, not from {src}")
    return cli, core, metrics, synth


def make_scene(core, synth, seed: int, n_views: int, ids: str, labelled: bool):
    """A small noisy pair; ``ids`` is "kept", "half" or "none"."""
    gt, pred = synth.generate(
        synth.SynthConfig(
            n_views=n_views,
            n_frames=6,
            n_points=4,
            image_width=64,
            image_height=48,
            motion_amplitude=8.0,
            disparity=4.0,
            pred_noise_sigma=1.5,
            pred_miss_rate=0.1,
            pred_fp_rate=0.5,
            view_drop_prob=0.15,
            id_switch_prob=0.05,
            ghost_rate=0.1,
            seed=seed,
        )
    )

    def relabel(dataset, offset, strip):
        return dataset.with_points(
            core.Point(
                view=p.view,
                frame=p.frame,
                x=p.x,
                y=p.y,
                id=None if strip(i) else p.id,
                class_label=LABELS[(i + offset) % 3] if labelled else None,
            )
            for i, p in enumerate(dataset.points)
        )

    strip = {"kept": lambda i: False, "half": lambda i: i % 2 == 1, "none": lambda i: True}[ids]
    return relabel(gt, 0, lambda i: False), relabel(pred, 1, strip)


def library_outputs(core, metrics, synth):
    for seed in range(60):
        for n_views in (1, 2, 3):
            for ids in ("kept", "half", "none"):
                for per_class in (False, True):
                    gt, pred = make_scene(core, synth, seed, n_views, ids, per_class)
                    for shared in (True, False):
                        scene = metrics.Scene(gt, pred, max(ALPHAS)) if shared else None
                        for alpha in ALPHAS:
                            config = core.EvalConfig(alpha=alpha, per_class=per_class)
                            try:
                                result = metrics.evaluate_detailed(gt, pred, config, scene=scene)
                            except ValueError as exc:
                                yield [type(exc).__name__, str(exc)]
                                continue
                            yield [
                                result.report.to_dict(),
                                [
                                    [m.view, m.frame, m.tp_pairs, m.fp_ids, m.fn_ids]
                                    for m in result.matches
                                ],
                                [
                                    [p.view, p.frame, p.x, p.y, p.id, p.class_label]
                                    for p in result.pred_with_ids.points
                                ],
                            ]


def cli_outputs(cli, core, synth):
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths, so that no output names the temporary directory
        os.chdir(tmp)
        try:
            for seed in range(12):
                for n_views in (1, 2, 3):
                    gt, pred = make_scene(core, synth, seed, n_views, "kept", seed % 2 == 0)
                    core.serialize_dataset(gt, "gt.json")
                    core.serialize_dataset(pred, "pred.json")
                    for flags in FLAG_SETS:
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = cli.main(["evaluate", "--gt", "gt.json", "--pred", "pred.json", *flags])
                        written = {}
                        for name in ("report.json", "matches.json"):
                            path = Path(name)
                            if path.exists():
                                written[name] = path.read_text(encoding="utf-8")
                                path.unlink()
                        yield [code, out.getvalue(), err.getvalue(), written]
        finally:
            os.chdir(home)


def digest(outputs) -> tuple[int, str]:
    sha = hashlib.sha256()
    count = 0
    for output in outputs:
        sha.update(json.dumps(output).encode())
        sha.update(b"\n")
        count += 1
    return count, sha.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cli, core, metrics, synth = load(argv[0])
    count, sha = digest(library_outputs(core, metrics, synth))
    print(f"library {count} runs sha256 {sha}")
    count, sha = digest(cli_outputs(cli, core, synth))
    print(f"cli {count} runs sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
