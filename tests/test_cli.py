"""End-to-end command-line behaviour, exit codes and output stability."""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mvteval import cli
from mvteval.core import EvalConfig, Role, parse_dataset, serialize_dataset
from mvteval.metrics import evaluate
from mvteval.synth import SynthConfig, generate


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "mvteval.cli", *args], capture_output=True, text=True, **kwargs
    )


def cap_memory():
    """Limit the calling process's address space to 1 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture
def scene(tmp_path):
    gt, pred = generate(
        SynthConfig(
            n_views=2,
            n_frames=6,
            n_points=4,
            pred_noise_sigma=1.5,
            pred_miss_rate=0.1,
            pred_fp_rate=0.4,
            view_drop_prob=0.15,
            seed=99,
        )
    )
    gt_path = tmp_path / "gt.json"
    pred_path = tmp_path / "pred.json"
    serialize_dataset(gt, gt_path)
    serialize_dataset(pred, pred_path)
    return gt_path, pred_path


def test_self_evaluation_prints_perfect_table(scene):
    gt_path, _ = scene
    result = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(gt_path))
    assert result.returncode == 0
    assert "1.0000" in result.stdout
    assert "mvHOTA" in result.stdout


def test_missing_prediction_file_is_io_error(scene, tmp_path):
    gt_path, _ = scene
    result = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(tmp_path / "nope.json"))
    assert result.returncode == 2
    assert "error" in result.stderr


def test_malformed_json_is_io_error(scene, tmp_path):
    gt_path, _ = scene
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    result = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(bad))
    assert result.returncode == 2
    assert "malformed" in result.stderr


# a coordinate beyond float range, and an integer literal longer than the
# interpreter converts (4,300 digits by default)
HUGE_NUMBERS = {"overflow": "1" + "0" * 400, "too_many_digits": "1" + "0" * 5000}


@pytest.mark.parametrize("command", ["evaluate", "validate"])
@pytest.mark.parametrize("number", sorted(HUGE_NUMBERS))
def test_a_number_that_does_not_fit_is_malformed_input(scene, tmp_path, command, number):
    gt_path, pred_path = scene
    bad = tmp_path / "bad.json"
    # the first point's x becomes the number; its old value moves to a key no one reads
    text = gt_path.read_text(encoding="utf-8")
    bad.write_text(text.replace('"x": ', f'"x": {HUGE_NUMBERS[number]}, "_": ', 1), encoding="utf-8")
    for args in (("--gt", str(bad), "--pred", str(pred_path)), ("--gt", str(gt_path), "--pred", str(bad))):
        result = run_cli(command, *args)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: ")
    if number == "overflow":
        assert line == "error: points[0].x: number does not fit a float"


# input that fails before any field is read, and a header size beyond float
# range, each with the one error line it gives
UNREADABLE = {
    "not_utf8": (b"\xff\xfe{", "error: not UTF-8 text: invalid start byte"),
    "too_deep": (b"[" * 200_000 + b"]" * 200_000, "error: malformed JSON: nested too deeply"),
    "huge_width": (None, "error: image_width: number does not fit a float"),
}


@pytest.mark.parametrize("command", ["evaluate", "validate"])
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_is_malformed_input(scene, tmp_path, command, case):
    gt_path, pred_path = scene
    content, message = UNREADABLE[case]
    if content is None:
        text = gt_path.read_text(encoding="utf-8")
        content = text.replace('"image_width": ', '"image_width": 1' + "0" * 400 + ', "_": ', 1)
        content = content.encode("utf-8")
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for args in (("--gt", str(bad), "--pred", str(pred_path)), ("--gt", str(gt_path), "--pred", str(bad))):
        result = run_cli(command, *args)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr.splitlines() == [message]


def test_unknown_flag_rejected(scene):
    gt_path, _ = scene
    result = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(gt_path), "--wat")
    assert result.returncode != 0


def test_json_report_matches_library(scene):
    gt_path, pred_path = scene
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    gt = parse_dataset(gt_path, Role.GROUND_TRUTH)
    pred = parse_dataset(pred_path, Role.PREDICTION)
    report = evaluate(gt, pred, EvalConfig(alpha=6.0))
    want = report.to_dict()
    for key, value in want["scores"].items():
        assert payload["scores"][key] == value, key


def test_repeated_runs_are_byte_identical(scene, tmp_path):
    gt_path, pred_path = scene
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = run_cli(
            "evaluate",
            "--gt", str(gt_path),
            "--pred", str(pred_path),
            "--format", "json",
            "--output", str(out),
        )
        assert result.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_meta_flag_adds_provenance(scene):
    gt_path, pred_path = scene
    plain = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "json")
    tagged = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "json", "--meta"
    )
    assert "meta" not in json.loads(plain.stdout)
    meta = json.loads(tagged.stdout)["meta"]
    assert meta["tool"] == "mvteval"


def test_csv_format(scene):
    gt_path, pred_path = scene
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "csv"
    )
    header, row, _ = result.stdout.split("\n")
    assert header.startswith("mota,idf1,f1,det_acc,ass_acc,hota,corres_acc,mv_hota")
    assert len(row.split(",")) == len(header.split(","))


# labels a CSV cell must quote, the empty label and unlabelled points
CSV_LABELS = ("a,b", 'say "hi"', "", None)
CSV_SCORES = [
    "mota", "idf1", "f1", "det_acc", "ass_acc", "hota", "corres_acc", "mv_hota",
    "precision", "recall", "loc_acc", "occlusion_index",
]


@pytest.fixture
def labelled(scene, tmp_path):
    """The scene's pair with its points spread over ``CSV_LABELS``."""
    paths = tmp_path / "labelled_gt.json", tmp_path / "labelled_pred.json"
    for source, role, path in zip(scene, (Role.GROUND_TRUTH, Role.PREDICTION), paths):
        dataset = parse_dataset(source, role)
        serialize_dataset(
            dataset.with_points(
                replace(p, class_label=CSV_LABELS[(p.frame + p.view) % len(CSV_LABELS)])
                for p in dataset.points
            ),
            path,
        )
    return paths


@pytest.mark.parametrize("sweep", [False, True], ids=["headline", "sweep"])
@pytest.mark.parametrize("per_class", [False, True], ids=["macro", "per-class"])
def test_csv_has_one_row_per_class_and_radius(labelled, capsys, per_class, sweep):
    gt_path, pred_path = labelled
    flags = ["--per-class"] * per_class + ["--alpha-sweep", "2:12:2"] * sweep
    argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "csv", *flags]
    assert cli.main(argv) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["class"] * per_class + ["alpha"] * sweep + CSV_SCORES

    alphas = [6.0] + [2.0, 4.0, 6.0, 8.0, 10.0, 12.0] * sweep
    classes = ["", "(none)", "a,b", 'say "hi"'] if per_class else []
    assert len(rows) == len(alphas) * (1 + len(classes))
    if per_class:
        # each radius leads with its macro row, whose class cell is empty, as the class ""'s is
        assert [row[0] for row in rows] == ["", *classes] * len(alphas)
    gt = parse_dataset(gt_path, Role.GROUND_TRUTH)
    pred = parse_dataset(pred_path, Role.PREDICTION)
    want = []
    for alpha in alphas:
        report = evaluate(gt, pred, EvalConfig(alpha=alpha, per_class=per_class))
        assert sorted(report.per_class or {}) == classes
        for sub in [report, *(report.per_class[c] for c in classes)]:
            scores = [getattr(sub, name) for name in CSV_SCORES[:-1]] + [sub.occlusion.simple]
            want.append([alpha] * sweep + scores)
    got = [[None if cell == "" else float(cell) for cell in row[per_class:]] for row in rows]
    assert got == want


@pytest.mark.parametrize(
    "flags, message",
    [
        (
            ["--dump-matches", "matches.json", "--per-class"],
            "--dump-matches is not supported with --per-class",
        ),
        (
            ["--meta", "--dump-matches", "matches.json"],
            "--meta is not supported with --format table",
        ),
        (["--meta", "--format", "csv"], "--meta is not supported with --format csv"),
    ],
)
def test_flags_that_do_not_combine_are_refused_before_any_evaluation(
    scene, tmp_path, monkeypatch, capsys, flags, message
):
    gt_path, pred_path = scene
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "evaluate_detailed", lambda *args, **kwargs: pytest.fail("evaluated"))
    assert cli.main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "matches.json").exists()


def test_dump_matches(scene, tmp_path):
    gt_path, pred_path = scene
    dump = tmp_path / "matches.json"
    result = run_cli(
        "evaluate",
        "--gt", str(gt_path),
        "--pred", str(pred_path),
        "--dump-matches", str(dump),
    )
    assert result.returncode == 0
    entries = json.loads(dump.read_text())
    assert all({"view", "frame", "tp", "fp", "fn"} <= set(e) for e in entries)
    gt = parse_dataset(gt_path, Role.GROUND_TRUTH)
    gt_ids = {p.id for p in gt.points}
    matched = {pair["gt"] for e in entries for pair in e["tp"]}
    assert matched <= gt_ids  # dumped ids are the original global ones


def test_alpha_sweep_json(scene):
    gt_path, pred_path = scene
    result = run_cli(
        "evaluate",
        "--gt", str(gt_path),
        "--pred", str(pred_path),
        "--format", "json",
        "--alpha-sweep", "2:10:4",
    )
    payload = json.loads(result.stdout)
    sweep = payload["alpha_sweep"]
    assert [row["alpha"] for row in sweep] == [2.0, 6.0, 10.0]
    assert sweep[0]["det_acc"] <= sweep[-1]["det_acc"]


def test_alpha_sweep_bad_spec(scene):
    gt_path, pred_path = scene
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--alpha-sweep", "10:2:1"
    )
    assert result.returncode == 1


@pytest.mark.parametrize("spec", ["2:nan:2", "nan:4:1", "2:4:nan", "1:inf:1", "-inf:4:1", "2:4:inf"])
def test_parse_sweep_rejects_non_finite_values(spec):
    with pytest.raises(ValueError, match="finite"):
        cli._parse_sweep(spec)


def test_alpha_sweep_with_a_non_finite_bound_is_an_error(scene):
    gt_path, pred_path = scene
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--alpha-sweep", "2:nan:2"
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: --alpha-sweep needs finite LO, HI and STEP\n"


def test_alpha_sweep_with_a_step_below_the_float_resolution_is_an_error(scene):
    gt_path, pred_path = scene
    # 1e17 + 1 == 1e17, so the sweep would never advance; a regression
    # that loops runs into the caps instead of filling memory
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
        "--alpha-sweep", "1e17:2e17:1", timeout=60, preexec_fn=cap_memory,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: --alpha-sweep STEP 1 is too small to advance from 1e+17\n"


def test_alpha_sweep_with_a_radius_rounding_to_zero_is_an_error(scene):
    gt_path, pred_path = scene
    # radii are rounded to 9 decimals, and a radius of 0 is no radius
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--alpha-sweep", "1e-10:1e-10:1"
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: --alpha-sweep radius 1e-10 rounds to 0 at 9 decimals\n"


def test_parse_sweep_accepts_up_to_the_radius_limit():
    assert len(cli._parse_sweep(f"1:{cli._SWEEP_LIMIT}:1")) == cli._SWEEP_LIMIT
    with pytest.raises(ValueError, match=f"more than {cli._SWEEP_LIMIT} radii"):
        cli._parse_sweep(f"1:{cli._SWEEP_LIMIT + 1}:1")


def test_alpha_sweep_with_too_many_radii_is_an_error(scene):
    gt_path, pred_path = scene
    # a billion radii; a regression that builds them runs into the caps
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
        "--alpha-sweep", "1:1e9:1", timeout=60, preexec_fn=cap_memory,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: --alpha-sweep gives more than 10000 radii\n"


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_non_finite_alpha_is_an_error(scene, alpha):
    gt_path, pred_path = scene
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
        "--alpha", alpha, "--format", "json",
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: alpha must be positive and finite\n"


def assert_output_error(result, target):
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert str(target) in result.stderr
    assert not target.parent.exists()


@pytest.mark.parametrize("flag", ["--output", "--dump-matches"])
def test_evaluate_into_a_missing_directory_is_an_output_error(scene, tmp_path, flag):
    gt_path, pred_path = scene
    target = tmp_path / "missing" / "out.json"
    result = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(pred_path), flag, str(target))
    assert_output_error(result, target)


@pytest.mark.parametrize("flag", ["--out-gt", "--out-pred"])
def test_synth_into_a_missing_directory_is_an_output_error(tmp_path, flag):
    target = tmp_path / "missing" / "out.json"
    result = run_cli("synth", "--frames", "3", flag, str(target), cwd=tmp_path)
    assert_output_error(result, target)


def test_a_failed_evaluate_output_leaves_no_dump_behind(scene, tmp_path):
    gt_path, pred_path = scene
    dump, target = tmp_path / "m.json", tmp_path / "missing" / "r.json"
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
        "--dump-matches", str(dump), "--output", str(target),
    )
    assert_output_error(result, target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.json", "pred.json"]


def test_a_failed_synth_output_leaves_no_ground_truth_behind(tmp_path):
    target = tmp_path / "missing" / "pred.json"
    result = run_cli("synth", "--frames", "3", "--out-pred", str(target), cwd=tmp_path)
    assert_output_error(result, target)
    assert list(tmp_path.iterdir()) == []


def assert_directory_error(result, directory, named):
    """The output error of a target that is a directory, given as ``named``."""
    assert result.returncode == 2
    assert result.stdout == ""
    message = os.strerror(errno.EISDIR)
    assert result.stderr == f"error: [Errno {errno.EISDIR}] {message}: {named!r}\n"
    assert list(directory.iterdir()) == []


def test_an_evaluate_output_onto_a_directory_leaves_no_dump_behind(scene, tmp_path):
    gt_path, pred_path = scene
    dump, target = tmp_path / "m.json", tmp_path / "adir"
    target.mkdir()
    result = run_cli(
        "evaluate", "--gt", str(gt_path), "--pred", str(pred_path),
        "--dump-matches", str(dump), "--output", str(target),
    )
    assert_directory_error(result, target, str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "gt.json", "pred.json"]


def test_a_synth_output_onto_a_directory_leaves_no_ground_truth_behind(tmp_path):
    target = tmp_path / "adir"
    target.mkdir()
    result = run_cli("synth", "--frames", "3", "--out-gt", "g2.json", "--out-pred", "adir", cwd=tmp_path)
    assert_directory_error(result, target, "adir")
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


def test_evaluate_writes_the_report_and_the_dump_together(scene, tmp_path):
    gt_path, pred_path = scene
    dump, target = tmp_path / "m.json", tmp_path / "r.json"
    args = ("evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "json")
    result = run_cli(*args, "--dump-matches", str(dump), "--output", str(target))
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert target.read_text() == run_cli(*args).stdout
    assert json.loads(dump.read_text())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.json", "m.json", "pred.json", "r.json"]


@pytest.mark.parametrize("spelling", ["./r.json", "r.json", "link.json"])
def test_evaluate_writes_one_file_named_twice_once_with_the_report(scene, tmp_path, spelling):
    gt_path, pred_path = scene
    (tmp_path / "link.json").symlink_to("r.json")
    args = ("evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "json")
    result = run_cli(*args, "--dump-matches", spelling, "--output", "r.json", cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert (tmp_path / "r.json").read_text() == run_cli(*args).stdout
    assert (tmp_path / "link.json").resolve() == tmp_path / "r.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.json", "link.json", "pred.json", "r.json"]


def test_staging_the_report_replaces_no_input(scene, tmp_path, monkeypatch, capsys):
    gt_path, pred_path = scene
    monkeypatch.chdir(tmp_path)
    # the ground truth sits where the report's temporary used to go
    gt_path.rename("r.json.mvteval-tmp")
    gt_text = Path("r.json.mvteval-tmp").read_text()
    args = ["evaluate", "--gt", "r.json.mvteval-tmp", "--pred", "pred.json"]
    assert cli.main(args) == 0
    assert cli.main([*args, "--output", "r.json"]) == 0
    assert Path("r.json.mvteval-tmp").read_text() == gt_text
    assert Path("r.json").read_text() == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pred.json", "r.json", "r.json.mvteval-tmp"]


def test_staging_the_report_keeps_files_beside_it(scene, tmp_path, monkeypatch, capsys):
    gt_path, pred_path = scene
    monkeypatch.chdir(tmp_path)
    mine = {Path(name): name for name in ("out.txt.mvteval-tmp", "out.txt.mvteval-tmp1")}
    for path, text in mine.items():
        path.write_text(text)
    args = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path)]
    assert cli.main(args) == 0
    assert cli.main([*args, "--output", "out.txt"]) == 0
    assert Path("out.txt").read_text() == capsys.readouterr().out
    assert {path: path.read_text() for path in mine} == mine
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "gt.json", "out.txt", "out.txt.mvteval-tmp", "out.txt.mvteval-tmp1", "pred.json"
    ]


def test_synth_writes_an_output_named_as_another_outputs_temporary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--frames", "3", "--out-gt", "g.json", "--out-pred", "p.json"]) == 0
    assert cli.main(["synth", "--frames", "3", "--out-gt", "s.mvteval-tmp", "--out-pred", "s"]) == 0
    assert Path("s.mvteval-tmp").read_text() == Path("g.json").read_text()
    assert Path("s").read_text() == Path("p.json").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "p.json", "s", "s.mvteval-tmp"]


@pytest.mark.parametrize("named", ["--gt", "--pred"])
@pytest.mark.parametrize("flag", ["--output", "--dump-matches"])
def test_evaluate_refuses_an_output_onto_an_input(scene, tmp_path, monkeypatch, capsys, flag, named):
    inputs = {path: path.read_bytes() for path in scene}
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "evaluate_detailed", lambda *args, **kwargs: pytest.fail("evaluated"))
    spelling = {"--gt": "./gt.json", "--pred": "./pred.json"}[named]
    args = ["evaluate", "--gt", "gt.json", "--pred", "pred.json", "--format", "json"]
    assert cli.main([*args, flag, spelling]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {flag} would overwrite the {named} file: {spelling}\n"
    assert {path: path.read_bytes() for path in scene} == inputs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.json", "pred.json"]


@pytest.mark.parametrize("spelling", ["./s.json", "s.json", "link.json"])
def test_synth_refuses_output_paths_that_name_one_file(tmp_path, spelling):
    (tmp_path / "link.json").symlink_to("s.json")
    result = run_cli("synth", "--frames", "3", "--out-gt", spelling, "--out-pred", "s.json", cwd=tmp_path)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: --out-gt and --out-pred name one file: s.json\n"
    assert [p.name for p in tmp_path.iterdir()] == ["link.json"]


def test_geometry_mismatch_requires_force(tmp_path):
    gt, _ = generate(SynthConfig(n_views=2, n_frames=4, n_points=3, seed=4))
    _, pred = generate(SynthConfig(n_views=1, n_frames=4, n_points=3, seed=4))
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    serialize_dataset(gt, gt_path)
    serialize_dataset(pred, pred_path)
    blocked = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(pred_path))
    assert blocked.returncode == 1
    assert "geometry" in blocked.stderr
    forced = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--force")
    assert forced.returncode == 0


def test_forced_pair_of_different_image_sizes_is_an_error(tmp_path):
    gt, pred = generate(SynthConfig(n_views=1, n_frames=2, n_points=2, seed=4))
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    serialize_dataset(gt, gt_path)
    serialize_dataset(replace(pred, image_width=pred.image_width + 20), pred_path)
    forced = run_cli("evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--force")
    assert forced.returncode == 1
    assert forced.stdout == ""
    assert forced.stderr == "error: image dimensions differ; scores would not be comparable\n"


def test_assign_ids_flag_reassigns(scene):
    gt_path, pred_path = scene
    result = run_cli(
        "evaluate",
        "--gt", str(gt_path),
        "--pred", str(pred_path),
        "--assign-ids",
        "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert 0.0 <= payload["scores"]["mv_hota"] <= 1.0


def test_synth_round_trips_through_evaluate(tmp_path):
    result = run_cli(
        "synth",
        "--seed", "11",
        "--views", "2",
        "--frames", "5",
        "--points", "4",
        "--noise-sigma", "1.0",
        "--miss-rate", "0.1",
        "--view-drop-prob", "0.2",
        cwd=tmp_path,
    )
    assert result.returncode == 0
    assert "occlusion index" in result.stdout
    report = run_cli(
        "evaluate", "--gt", "gt.json", "--pred", "pred.json", "--format", "json",
        cwd=tmp_path,
    )
    payload = json.loads(report.stdout)

    gt, pred = generate(
        SynthConfig(
            n_views=2, n_frames=5, n_points=4, pred_noise_sigma=1.0,
            pred_miss_rate=0.1, view_drop_prob=0.2, seed=11,
        )
    )
    in_process = evaluate(gt, pred, EvalConfig(alpha=6.0))
    assert payload["scores"]["mv_hota"] == in_process.mv_hota
    assert payload["scores"]["det_acc"] == in_process.det_acc


def test_synth_is_deterministic_on_disk(tmp_path):
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        result = run_cli(
            "synth", "--seed", "3", "--view-drop-prob", "0.2", cwd=d
        )
        assert result.returncode == 0
    assert (tmp_path / "one" / "gt.json").read_bytes() == (
        tmp_path / "two" / "gt.json"
    ).read_bytes()
    assert (tmp_path / "one" / "pred.json").read_bytes() == (
        tmp_path / "two" / "pred.json"
    ).read_bytes()


def test_synth_zero_drop_prints_zero_occlusion(tmp_path):
    result = run_cli("synth", "--seed", "2", cwd=tmp_path)
    assert result.returncode == 0
    assert "simple=0.0000" in result.stdout


def test_synth_invalid_probability_fails_validation(tmp_path):
    result = run_cli("synth", "--view-drop-prob", "1.7", cwd=tmp_path)
    assert result.returncode == 1
    assert "view_drop_prob" in result.stderr


def test_synth_non_finite_rate_is_an_error(tmp_path):
    # a NaN rate drew no false positive at all, where an infinite one drew
    # thousands
    result = run_cli("synth", "--frames", "3", "--points", "2", "--fp-rate", "nan", cwd=tmp_path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: ") and "pred_fp_rate" in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--width", "--height"])
def test_synth_size_beyond_float_range_is_an_error(tmp_path, flag):
    result = run_cli("synth", "--frames", "2", flag, "1" + "0" * 400, cwd=tmp_path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_per_class_flag(tmp_path):
    doc = {
        "n_views": 1,
        "n_frames": 2,
        "image_width": 100,
        "image_height": 100,
        "points": [
            {"view": 0, "frame": f, "x": 20, "y": 20, "id": "a", "class": "entry"}
            for f in range(2)
        ]
        + [
            {"view": 0, "frame": f, "x": 70, "y": 70, "id": "b", "class": "exit"}
            for f in range(2)
        ],
    }
    pred_doc = dict(doc)
    pred_doc["points"] = [
        {"view": 0, "frame": f, "x": 20, "y": 20, "id": "pa", "class": "entry"}
        for f in range(2)
    ]
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    gt_path.write_text(json.dumps(doc))
    pred_path.write_text(json.dumps(pred_doc))
    result = run_cli(
        "evaluate",
        "--gt", str(gt_path),
        "--pred", str(pred_path),
        "--per-class",
        "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["per_class"]["entry"]["scores"]["mv_hota"] == 1.0
    assert payload["per_class"]["exit"]["scores"]["mv_hota"] == 0.0
    assert payload["scores"]["mv_hota"] == 0.5


def test_per_class_key_collision_is_an_error(tmp_path):
    doc = {
        "n_views": 1,
        "n_frames": 1,
        "image_width": 100,
        "image_height": 100,
        "points": [
            {"view": 0, "frame": 0, "x": 20, "y": 20, "id": "a", "class": "(none)"},
            {"view": 0, "frame": 0, "x": 70, "y": 70, "id": "b"},
        ],
    }
    pred_doc = dict(doc)
    pred_doc["points"] = [
        {"view": 0, "frame": 0, "x": 20, "y": 20, "id": "p", "class": "(none)"}
    ]
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    gt_path.write_text(json.dumps(doc))
    pred_path.write_text(json.dumps(pred_doc))
    args = ("evaluate", "--gt", str(gt_path), "--pred", str(pred_path))
    result = run_cli(*args, "--per-class")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "(none)" in result.stderr
    assert "Traceback" not in result.stderr
    assert run_cli(*args).returncode == 0


def test_validate_subcommand(tmp_path, scene):
    gt_path, pred_path = scene
    ok = run_cli("validate", "--gt", str(gt_path), "--pred", str(pred_path))
    assert ok.returncode == 0

    gt, _ = generate(SynthConfig(n_views=2, seed=1))
    _, other = generate(SynthConfig(n_views=3, seed=1))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    serialize_dataset(gt, a)
    serialize_dataset(other, b)
    mismatch = run_cli("validate", "--gt", str(a), "--pred", str(b))
    assert mismatch.returncode == 1
    assert "geometry-mismatch" in mismatch.stdout


def readme_commands():
    """The ``mvteval`` commands of the README's "Command line" block, in order."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()  # join continued lines
    commands = [shlex.split(line, comments=True) for line in lines]
    return [words for words in commands if words[:1] == ["mvteval"]]


def test_every_readme_command_runs_as_written(tmp_path):
    commands = readme_commands()
    assert len(commands) >= 5
    # in an empty directory, top to bottom, as a reader would paste them
    for words in commands:
        result = run_cli(*words[1:], cwd=tmp_path)
        assert result.returncode == 0, (shlex.join(words), result.stderr)
