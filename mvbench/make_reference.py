#!/usr/bin/env python3
"""Write the reference scores that run.py checks at the default seed.

    python3 mvbench/make_reference.py

Evaluates every scene of every workload once at the default seed and
stores its scores, integer tallies and (for the CLI workload) alpha-sweep
rows in ``mvbench/reference.json``. Run it only when the scores are meant
to change, and say why in the change that does.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, canonical, evaluate_scene, invariant_problems, make_scenes, summary


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mvteval = run.import_mvteval()
    reference = {}
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT_DIR)
        try:
            scenes = make_scenes(mvteval, workload, workload.shape, run.DEFAULT_SEED, Path(workdir))
            summaries = [
                summary(canonical(evaluate_scene(scenes, workload, i))) for i in range(len(scenes.pairs))
            ]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for i, s in enumerate(summaries):
            problems = invariant_problems(s)
            if problems:
                print(f"error: {workload.name} scene {i}: {problems}", file=sys.stderr)
                return 1
        reference[workload.name] = summaries
        print(f"{workload.name}: {len(summaries)} scene(s)")
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
