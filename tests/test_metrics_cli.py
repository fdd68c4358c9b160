import json

import numpy as np
import pytest

from multisiam import cli
from multisiam import scenes as S
from multisiam.metrics import adjusted_rand_index, embedding_spread, smoothed_endpoints
from multisiam.probe import probe_image
from multisiam.tensor import Tensor
from multisiam.viz import PALETTE, cluster_panel, compose_panels, read_ppm, write_ppm


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
    assert (out / "final.ckpt").exists()


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


def test_cli_eval_report(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out)] + TINY) == 0
    eval_out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(out / "final.ckpt"),
                     "--out", str(eval_out), "--images", "3"]) == 0
    report = json.loads((eval_out / "probe_report.json").read_text())
    for key in ("ari_instance", "ari_class", "feature_std", "ari_instance_random",
                "ari_class_random", "margin_instance", "cluster_maps"):
        assert key in report
    assert -1.0 <= report["ari_instance"] <= 1.0
    assert len(report["cluster_maps"]) == 3
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


def test_cli_gradcheck_passes(tmp_path, capsys):
    rc = cli.main(["gradcheck", "--seeds", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "PASS" in captured.out and "FAIL" not in captured.out
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    assert all(err < 1e-4 for err in report.values())
