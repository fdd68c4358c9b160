import json
import platform
import re

import numpy as np
import pytest

from multisiam import cli
from multisiam import scenes as S
from multisiam import tensor as T
from multisiam.checkpoint import load_checkpoint
from multisiam.metrics import adjusted_rand_index, embedding_spread, smoothed_endpoints
from multisiam.probe import paired_clusters, paired_probe, probe_image
from multisiam.tensor import Tensor
from multisiam.viz import PALETTE, cluster_panel, compose_panels, write_ppm


def read_ppm(path) -> np.ndarray:
    """Read a binary (P6) PPM with maxval 255 as an [H,W,3] uint8 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    assert parts[0] == b"P6" and len(parts) == 4 and parts[2] == b"255", parts[:3]
    w, h = map(int, parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8, count=h * w * 3).reshape(h, w, 3)


def pair_counting_ari(a, b):
    """Direct contingency oracle: classify every item pair, then adjust."""
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                ss += 1
            elif same_a:
                sd += 1
            elif same_b:
                ds += 1
            else:
                dd += 1
    num = 2.0 * (ss * dd - sd * ds)
    den = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    return 1.0 if den == 0 else num / den


def test_ari_reference_values():
    assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert adjusted_rand_index([0, 1, 2, 3], [0, 0, 0, 0]) == pytest.approx(0.0)
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_permutation_invariance():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=40)
    permuted = (labels + 2) % 4
    assert adjusted_rand_index(labels, permuted) == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_ari_matches_pair_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        a = rng.integers(0, rng.integers(2, 5), size=20)
        b = rng.integers(0, rng.integers(2, 5), size=20)
        assert adjusted_rand_index(a, b) == pytest.approx(pair_counting_ari(a, b), abs=1e-12)


def test_embedding_spread_behaviour():
    assert embedding_spread(np.ones((8, 4))) == 0.0
    rng = np.random.default_rng(1)
    healthy = embedding_spread(rng.standard_normal((256, 32)))
    assert healthy == pytest.approx(1.0 / np.sqrt(32), rel=0.1)


def old_embedding_spread(rows):
    """The spread's formula before it shared ``tensor.unit_normalize``."""
    rows = np.asarray(rows, dtype=np.float64)
    centered = rows - rows.mean(axis=0, keepdims=True)
    norms = np.maximum(np.linalg.norm(centered, axis=1, keepdims=True), 1e-12)
    return float((centered / norms).std(axis=0).mean())


@pytest.mark.parametrize("shape", [(2, 3), (8, 32), (256, 32), (33, 7)])
def test_embedding_spread_matches_its_norm_formula(shape):
    rng = np.random.default_rng(sum(shape))
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=(shape[0], 1))
    # centered rows of norm below 1e-12, on the norm's floor
    tiny = 1.0 + 1e-14 * rng.standard_normal(shape)
    for batch in (rows, rows[::-1], rows[:, ::-1], np.asfortranarray(rows), tiny):
        want = old_embedding_spread(batch)
        assert np.float64(embedding_spread(batch)).tobytes() == np.float64(want).tobytes()


def test_smoothed_endpoints():
    first, last = smoothed_endpoints([4.0, 2.0, 1.0, 1.0, 0.0, -2.0], window=2)
    assert first == pytest.approx(3.0)
    assert last == pytest.approx(-1.0)


def test_ppm_roundtrip_and_palette(tmp_path):
    rng = np.random.default_rng(2)
    pixels = rng.integers(0, 255, size=(6, 9, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(path, pixels)
    assert np.array_equal(read_ppm(path), pixels)

    labels = np.array([[0, 1], [2, 2]])
    panel = cluster_panel(labels)
    assert panel.shape == (2, 2, 3)
    assert np.array_equal(panel[0, 0], PALETTE[0])
    combo = compose_panels([panel, panel])
    assert combo.shape == (2, 4, 3)


def test_probe_one_hot_features_score_perfectly():
    scene = S.generate(S.SceneSpec(seed=3, size=(32, 32)), 1)[0]
    inst_small = S.downsample_mask(scene.instance_mask, 8)
    cls_small = S.downsample_mask(scene.class_mask, 8)
    values, dense = np.unique(inst_small, return_inverse=True)
    dense = dense.reshape(inst_small.shape)
    onehot = np.moveaxis(np.eye(len(values))[dense], -1, 0)
    ari_inst, _, _ = probe_image(Tensor(onehot), inst_small, cls_small,
                                 k=len(values), metric="euclidean", max_iter=10,
                                 rng=np.random.default_rng(0))
    assert ari_inst == 1.0


TINY = ["--steps=4", "--batch_size=2", "--corpus_images=6", "--eval_images=4",
        "--out_size=32", "--kmeans_iters=3"]


def test_cli_train_outputs(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out)] + TINY) == 0
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(rows) == 4
    assert list(rows[0]) == ["step", "loss", "l1d", "l2d", "lr", "tau", "feature_std"]
    assert [r["step"] for r in rows] == [0, 1, 2, 3]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["config"]["steps"] == 4
    assert manifest["metrics_path"] == "metrics.jsonl"
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert (manifest["blas"], manifest["blas_version"]) == (blas["name"], blas["version"])
    assert manifest["git_commit"] is None or re.fullmatch(r"[0-9a-f]{40}",
                                                          manifest["git_commit"])
    assert (out / "final.ckpt").exists()


def test_cli_train_summary_stays_short_for_a_huge_loss(tmp_path, capsys):
    # a temperature of 1e-300 gives a finite loss near 9e298
    argv = ["train", "--out", str(tmp_path / "run"), "--steps=1", "--batch_size=2",
            "--out_size=32", "--corpus_images=4", "--kmeans_iters=3", "--loss_mode=moco",
            "--temperature=1e-300"]
    assert cli.main(argv) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("trained 1 steps: loss +") and len(summary) < 80, summary
    assert float(summary.split()[4].rstrip(",")) > 1e298, summary


def test_cli_metrics_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--out", str(out_a)] + TINY) == 0
    assert cli.main(["train", "--out", str(out_b)] + TINY) == 0
    assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()


def test_cli_config_file_and_env_seed(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("steps=3\nbatch_size=2\ncorpus_images=6\n"
                        "eval_images=4\nout_size=32\nkmeans_iters=3\nseed=4\n")
    out = tmp_path / "run"
    monkeypatch.setenv("MULTISIAM_SEED", "11")
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11  # env var wins over the file


def test_cli_overrides_resolve_with_the_config_file_before_validation(tmp_path):
    # the file alone is invalid (dense needs loss_mode=cluster); with the
    # override the resolved config is valid
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("loss_mode=moco\ndense=true\nsteps=0\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out),
                     "--loss_mode=cluster"] + TINY) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["loss_mode"] == "cluster" and manifest["config"]["dense"]
    assert manifest["config"]["steps"] == 4


def test_cli_eval_report(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out)] + TINY) == 0
    eval_out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(out / "final.ckpt"),
                     "--out", str(eval_out), "--images", "3"]) == 0
    report = json.loads((eval_out / "probe_report.json").read_text())
    assert list(report) == ["ari_instance", "ari_class", "feature_std", "ari_instance_random",
                            "ari_class_random", "margin_instance", "margin_class"]
    assert -1.0 <= report["ari_instance"] <= 1.0
    assert report["feature_std"] >= 0.0


def test_cli_viz_panels_valid_and_bounded_colors(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out)] + TINY) == 0
    viz_out = tmp_path / "viz"
    assert cli.main(["viz", "--checkpoint", str(out / "final.ckpt"),
                     "--out", str(viz_out), "--images", "2"]) == 0
    files = sorted(viz_out.glob("viz_*.ppm"))
    assert len(files) == 2
    panel = read_ppm(files[0])
    h, w, _ = panel.shape
    assert w == 3 * h  # input | random clusters | trained clusters
    for start in (h, 2 * h):  # each cluster panel uses at most k colors
        section = panel[:, start:start + h].reshape(-1, 3)
        distinct = np.unique(section, axis=0)
        assert len(distinct) <= 3
        for color in distinct:
            assert any(np.array_equal(color, p) for p in PALETTE)


def test_cli_usage_and_runtime_errors(tmp_path):
    assert cli.main([]) == 1
    assert cli.main(["dance"]) == 1
    assert cli.main(["gen", "--out", str(tmp_path)]) == 1  # an unknown command
    assert cli.main(["train"]) == 1  # no --out
    assert cli.main(["train", "--out", str(tmp_path), "--bogus_key=1"]) == 1
    assert cli.main(["train", "--out", str(tmp_path), "--lambda=2.0"]) == 1
    assert cli.main(["train", "--out", str(tmp_path), "--lr_base=inf"]) == 1
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["--help"]) == 0


@pytest.fixture(scope="module")
def tiny_checkpoints(tmp_path_factory):
    """Checkpoints of TINY runs at the default k and at k=9, one cluster more
    than the viz palette has colors."""
    root = tmp_path_factory.mktemp("tiny")
    for name, extra in (("k3", []), ("k9", ["--k=9"])):
        assert cli.main(["train", "--out", str(root / name)] + TINY + extra) == 0
    return {name: root / name / "final.ckpt" for name in ("k3", "k9")}


def test_cli_eval_and_viz_repeat_byte_for_byte(tiny_checkpoints, tmp_path):
    checkpoint = str(tiny_checkpoints["k3"])
    for run in ("first", "second"):
        assert cli.main(["eval", "--checkpoint", checkpoint,
                         "--out", str(tmp_path / run / "eval")]) == 0
        assert cli.main(["viz", "--checkpoint", checkpoint,
                         "--out", str(tmp_path / run / "viz")]) == 0
    first, second = tmp_path / "first", tmp_path / "second"
    report = "eval/probe_report.json"
    assert (first / report).read_bytes() == (second / report).read_bytes()
    panels = sorted(p.name for p in (first / "viz").glob("viz_*.ppm"))
    assert panels and panels == sorted(p.name for p in (second / "viz").glob("viz_*.ppm"))
    for name in panels:
        assert (first / "viz" / name).read_bytes() == (second / "viz" / name).read_bytes()


def test_failed_eval_report_write_keeps_the_old_report(tiny_checkpoints, tmp_path,
                                                      monkeypatch, capsys):
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(tiny_checkpoints["k3"]), "--out", str(out)]
    assert cli.main([*argv, "--images", "2"]) == 0
    blob = (out / "probe_report.json").read_bytes()
    capsys.readouterr()

    def broken(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(cli.os, "fsync", broken)
    # three images: a write that went through would change the report
    assert cli.main([*argv, "--images", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert (out / "probe_report.json").read_bytes() == blob
    assert [p.name for p in out.iterdir()] == ["probe_report.json"]


def test_eval_and_viz_build_no_tape(tiny_checkpoints, monkeypatch):
    # both only read features, so a node that requires grad is a tape that
    # nothing consumes
    state = load_checkpoint(tiny_checkpoints["k3"])
    corpus = cli._eval_corpus(state.config, 2)
    result, built = T._result, []

    def watch(data, parents, backward_fn):
        out = result(data, parents, backward_fn)
        built.append(out.requires_grad)
        return out

    monkeypatch.setattr(T, "_result", watch)
    for call in (paired_probe, paired_clusters):
        built.clear()
        call(state, corpus)
        assert built and not any(built), call.__name__


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


# int() reads '1_0' as 10 and '\u0663' (Arabic-Indic three) as 3; counts take ASCII digits only
@pytest.mark.parametrize("argv", [["eval", "--images", "0"], ["viz", "--images", "-1"],
                                  ["viz", "--images=0"], ["eval", "--images=1_0"],
                                  ["viz", "--images", "\u0663"]])
def test_cli_rejects_non_positive_image_counts(tiny_checkpoints, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = argv[:1] + ["--checkpoint", str(tiny_checkpoints["k3"]), "--out", str(out)] + argv[1:]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, "--images", "positive integer")
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-2", "two", "1_0", "\u0663"])
def test_cli_gradcheck_rejects_non_positive_seeds(tmp_path, capsys, seeds):
    out = tmp_path / "out"
    assert cli.main(["gradcheck", f"--seeds={seeds}", "--out", str(out)]) == 1
    assert_one_error_line(capsys, "--seeds", "positive integer")
    assert not out.exists()


def test_cli_viz_rejects_more_clusters_than_palette_colors(tiny_checkpoints, tmp_path,
                                                             capsys):
    out = tmp_path / "viz"
    capsys.readouterr()
    assert cli.main(["viz", "--checkpoint", str(tiny_checkpoints["k9"]),
                     "--out", str(out)]) == 1
    assert_one_error_line(capsys, f"at most {len(PALETTE)} clusters", "k=9")
    assert not out.exists()


def test_cli_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"steps=\xff\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert_one_error_line(capsys, str(cfg_file), "not UTF-8")
    assert not out.exists()


@pytest.mark.parametrize("make, fragment", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
], ids=["missing", "directory"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, make, fragment):
    cfg_file = tmp_path / "run.cfg"
    make(cfg_file)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert_one_error_line(capsys, f"error: {cfg_file}: {fragment}")
    assert not out.exists()


@pytest.mark.parametrize("text, fragment", [
    ("steps=3\nbogus line\n", "line 2: expected key=value, got 'bogus line'"),
    ("steps=0\n", "steps: must be at least 1"),
    ("loss_mode=moco\nresidual=true\n", "residual: "),
    ("steps=many\n", "steps: cannot parse 'many' as int"),
    ("bananas=3\n", "unknown config key 'bananas'"),
    ("out_size=8\n", "k: must not exceed the 1 feature-map pixels at out_size=8"),
])
def test_cli_config_file_error_names_the_file(tmp_path, capsys, text, fragment):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert_one_error_line(capsys, f"error: {cfg_file}: {fragment}")
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("argv", [["train"], ["eval", "--checkpoint", "x.ckpt"],
                                  ["viz", "--checkpoint", "x.ckpt"], ["gradcheck"]],
                         ids=["train", "eval", "viz", "gradcheck"])
def test_cli_out_that_is_not_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                           argv, below):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("generate", "load_checkpoint", "run_gradient_suite"):
        monkeypatch.setattr(cli, name, no_work)
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept")
    out = afile / "run" if below else afile
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert_one_error_line(capsys, f"--out {out}: {afile} is not a directory")
    assert afile.read_bytes() == b"kept"


def test_cli_gradcheck_passes(tmp_path, capsys):
    rc = cli.main(["gradcheck", "--seeds", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "PASS" in captured.out and "FAIL" not in captured.out
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    assert all(err < 1e-4 for err in report.values())


@pytest.mark.parametrize("text, argv, env, error", [
    ("steps=4\n", ["--steps=0"], None, "error: steps: must be at least 1"),
    ("dense=true\n", ["--loss_mode=moco"], None, "error: {cfg}: dense: only loss_mode"),
    ("seed=3\n", [], "-1", "error: MULTISIAM_SEED: seed: must be non-negative"),
    ("seed=3\n", [], "x", "error: MULTISIAM_SEED: seed: cannot parse 'x' as int"),
    ("loss_mode=moco\n", ["--dense=true"], None, "error: {cfg}: dense: only loss_mode"),
    # the lambda_weight field's config key is lambda
    ("steps=4\n", ["--lambda_weight=0.7"], None, "error: unknown config key 'lambda_weight'"),
], ids=["override", "file", "env", "env-parse", "file-rule", "override-field-name"])
def test_cli_config_error_names_where_the_value_was_read(tmp_path, capsys, monkeypatch,
                                                          text, argv, env, error):
    # an error names the file when a value its rule reads came from it, and
    # not when every such value came from elsewhere
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    if env is not None:
        monkeypatch.setenv("MULTISIAM_SEED", env)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(error.format(cfg=cfg_file)) and err.count("\n") == 1, err
    assert not out.exists()


@pytest.fixture(scope="module")
def compared_runs(tmp_path_factory):
    """TINY runs: two of one seed, one with lambda=0.7, each with its
    probe_report.json in the run directory."""
    root = tmp_path_factory.mktemp("compare")
    for name, extra in (("a", []), ("b", []), ("lambda", ["--lambda=0.7"])):
        run = root / name
        assert cli.main(["train", "--out", str(run)] + TINY + extra) == 0
        assert cli.main(["eval", "--checkpoint", str(run / "final.ckpt"), "--out", str(run),
                         "--images", "2"]) == 0
    return root


def test_cli_compare_two_runs_of_one_seed_are_identical(compared_runs, capsys):
    capsys.readouterr()
    assert cli.main(["compare", str(compared_runs / "a"), str(compared_runs / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "metrics.jsonl: byte-identical, 4 rows"
    rows = [json.loads(line) for line in (compared_runs / "a" / "metrics.jsonl").open()]
    first, last = smoothed_endpoints(r["loss"] for r in rows)
    floor = min(r["feature_std"] for r in rows)
    summary = f"smoothed loss {first!r} -> {last!r}, feature_std floor {floor!r}"
    assert lines[3:5] == [f"a: {summary}", f"b: {summary}"]
    report = json.loads((compared_runs / "a" / "probe_report.json").read_text())
    margins = (f"margin_instance {report['margin_instance']!r}, "
               f"margin_class {report['margin_class']!r}")
    assert lines[5:] == [f"a: {margins}", f"b: {margins}"]


def test_cli_compare_flags_a_changed_lambda(compared_runs, capsys):
    capsys.readouterr()
    assert cli.main(["compare", str(compared_runs / "a"), str(compared_runs / "lambda")]) == 0
    out = capsys.readouterr().out
    assert "metrics.jsonl: differs; 4 and 4 rows, 4 of the first 4 differ" in out
    deltas = dict(re.findall(r"max \|delta\| (\w+) +(\S+)", out))
    assert list(deltas) == ["step", "loss", "l1d", "l2d", "lr", "tau", "feature_std"]
    assert float(deltas["step"]) == float(deltas["lr"]) == float(deltas["tau"]) == 0.0
    assert float(deltas["loss"]) > 1e-3
    a_loss, b_loss = re.findall(r"^[ab]: smoothed loss (.*) ->", out, re.M)
    assert a_loss != b_loss


def test_cli_compare_without_probe_reports_prints_no_margins(compared_runs, tmp_path, capsys):
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "metrics.jsonl").write_bytes((compared_runs / "a" / "metrics.jsonl").read_bytes())
    capsys.readouterr()
    assert cli.main(["compare", str(compared_runs / "a"), str(bare)]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out and "margin" not in out


@pytest.mark.parametrize("case, fragment", [
    ("missing-dir", "not a run directory"),
    ("missing-metrics", "No such file"),
    ("not-json", "not the metrics of a run"),
    ("empty", "not the metrics of a run"),
    ("other-columns", "not the metrics of a run"),
    ("bad-report", "not a probe report"),
    ("one-run", "required"),
    ("extra-key", "compare takes two run directories"),
])
def test_cli_compare_rejects_what_is_not_two_runs(compared_runs, tmp_path, capsys, case,
                                                  fragment):
    other = tmp_path / "other"
    other.mkdir()
    (other / "probe_report.json").write_bytes(
        (compared_runs / "a" / "probe_report.json").read_bytes())
    metrics = (compared_runs / "a" / "metrics.jsonl").read_text()
    if case == "not-json":
        (other / "metrics.jsonl").write_text(metrics + "{oops\n")
    elif case == "empty":
        (other / "metrics.jsonl").write_text("")
    elif case == "other-columns":
        (other / "metrics.jsonl").write_text(metrics.replace('"tau"', '"tau2"'))
    elif case != "missing-metrics":
        (other / "metrics.jsonl").write_text(metrics)
    if case == "bad-report":
        (other / "probe_report.json").write_text('{"margin_instance": 0.1}')
    argv = ["compare", str(compared_runs / "a"), str(other)]
    if case == "missing-dir":
        argv[2] = str(tmp_path / "nowhere")
    elif case == "one-run":
        argv = argv[:2]
    elif case == "extra-key":
        argv.append("--lambda=0.7")
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_error_line(capsys, fragment)
