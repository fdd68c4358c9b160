import copy
import dataclasses
import os
import platform
import re
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from multisiam import checkpoint as CK
from multisiam import cli
from multisiam import optim
from multisiam import scenes as S
from multisiam import train as TR
from multisiam.align import flip_back, intersection_relative, roi_align
from multisiam.model import (ModelConfig, backbone_forward, init_siamese_pair, project_2d,
                             self_attention_predict)
from multisiam.objectives import NegativeQueue, kmeans_batch, moco_pixel_infonce
from multisiam.optim import lars_step, sgd_step
from multisiam.tensor import Tensor, backward, zero_grads
from multisiam.views import sample_view_pair

FAST = TR.TrainConfig(steps=6, batch_size=2, corpus_images=8, out_size=32,
                      kmeans_iters=4)


@pytest.fixture(scope="module")
def small_corpus():
    return S.generate(S.SceneSpec(seed=0, size=(32, 32)), 8)


def run_steps(cfg, corpus, n=None, state=None):
    state = state or TR.init_state(cfg)
    metrics = []
    for _ in range(n if n is not None else cfg.steps - state.step):
        metrics.append(TR.train_step(state, corpus))
    return state, metrics


# ---------------------------------------------------------------------------
# config


def test_config_defaults_match_recipe():
    cfg = TR.TrainConfig()
    assert (cfg.iou_threshold, cfg.k, cfg.lambda_weight) == (0.5, 3, 0.5)
    assert (cfg.tau_base, cfg.temperature, cfg.min_scale) == (0.996, 0.2, 0.08)
    assert cfg.weight_decay == 1e-5
    assert (cfg.steps, cfg.batch_size, cfg.accumulation_steps, cfg.optimizer) == (300, 8, 1, "sgd")
    assert (cfg.alignment, cfg.self_attention, cfg.loss_mode) == ("offset", True, "cluster")


def test_config_parsing_and_overrides():
    cfg = TR.config_from_text("")
    assert cfg == TR.TrainConfig()

    cfg = TR.config_from_text("# comment\nlambda=0.7\n\nsteps=12 # trailing\n")
    assert cfg.lambda_weight == 0.7 and cfg.steps == 12

    with pytest.raises(TR.ConfigError, match="alignment"):
        TR.config_from_pairs([("alignment", "banana")])
    with pytest.raises(TR.ConfigError, match="unknown config key"):
        TR.config_from_pairs([("bananas", "3")])
    # a field whose config key differs is known only by its key
    with pytest.raises(TR.ConfigError, match="unknown config key 'lambda_weight'"):
        TR.config_from_pairs([("lambda_weight", "0.7")])
    with pytest.raises(TR.ConfigError, match="steps"):
        TR.config_from_pairs([("steps", "0")])
    with pytest.raises(TR.ConfigError, match="lambda"):
        TR.config_from_pairs([("lambda", "1.5")])
    with pytest.raises(TR.ConfigError, match="steps"):
        TR.config_from_pairs([("steps", "many")])


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", ["lr_base", "weight_decay", "momentum", "trust_coeff",
                                 "lambda", "iou_threshold", "min_scale", "tau_base",
                                 "temperature"])
def test_config_rejects_non_finite_floats(key, value):
    with pytest.raises(TR.ConfigError, match=f"{key}: must be finite"):
        TR.config_from_pairs([(key, value)])


@pytest.mark.parametrize("steps,window", [(5, 2), (2, 3), (7, 6)])
def test_config_rejects_partial_accumulation_window(tmp_path, steps, window):
    with pytest.raises(TR.ConfigError, match="accumulation_steps: must divide steps"):
        TR.config_from_pairs([("steps", str(steps)), ("accumulation_steps", str(window))])
    with pytest.raises(TR.ConfigError):
        TR.init_state(TR.TrainConfig(steps=steps, accumulation_steps=window))
    assert cli.main(["train", "--out", str(tmp_path / "run"), f"--steps={steps}",
                     f"--accumulation_steps={window}"]) == 1


@pytest.mark.parametrize("mode", ["moco", "wo_kmeans"])
def test_dense_outside_cluster_mode_is_a_config_error(tmp_path, capsys, mode):
    # only loss_2d_cluster has dense targets; the other modes would drop the key
    with pytest.raises(TR.ConfigError, match="dense: only loss_mode=cluster"):
        TR.config_from_pairs([("loss_mode", mode), ("dense", "true")])
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out), "--steps=1", f"--loss_mode={mode}",
                     "--dense=true"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dense:") and err.count("\n") == 1
    assert not (out / "metrics.jsonl").exists()
    assert TR.config_from_pairs([("loss_mode", "cluster"), ("dense", "true")]).dense


# loss_mode=moco aligns by roi and attends without a residual, and without
# self-attention there is no residual to set; only loss_mode=moco has a
# temperature and a queue, and only optimizer=lars a trust coefficient: each of
# these keys would be dropped. An alignment under moco would still change the
# run: it sets the input channels of the unused 2D predictor, whose draws shift
# the initialization of the 1D heads
@pytest.mark.parametrize("key, pairs", [
    ("residual", [("loss_mode", "moco"), ("residual", "true")]),
    ("residual", [("loss_mode", "moco"), ("residual", "false")]),
    ("residual", [("self_attention", "false"), ("residual", "true")]),
    ("residual", [("self_attention", "false"), ("residual", "false")]),
    ("normalize_offset", [("loss_mode", "moco"), ("normalize_offset", "false")]),
    ("normalize_offset", [("alignment", "roi"), ("normalize_offset", "false")]),
    ("normalize_offset", [("alignment", "none"), ("normalize_offset", "false")]),
    ("temperature", [("temperature", "0.5")]),
    ("temperature", [("loss_mode", "wo_kmeans"), ("temperature", "0.5")]),
    ("queue_length", [("queue_length", "7")]),
    ("queue_length", [("loss_mode", "moco"), ("queue_length", "7"), ("loss_mode", "cluster")]),
    ("trust_coeff", [("trust_coeff", "5")]),
    ("trust_coeff", [("loss_mode", "moco"), ("trust_coeff", "5")]),
    ("alignment", [("loss_mode", "moco"), ("alignment", "roi")]),
    ("alignment", [("alignment", "none"), ("loss_mode", "moco")]),
])
def test_key_its_mode_ignores_is_a_config_error(tmp_path, capsys, key, pairs):
    with pytest.raises(TR.ConfigError, match=f"^{key}: "):
        TR.config_from_pairs(pairs)
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out), "--steps=1"]
                    + [f"--{k}={v}" for k, v in pairs]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:") and err.count("\n") == 1, err
    assert not (out / "metrics.jsonl").exists()


# criterion 9's variants cover residual and normalize_offset at the defaults
@pytest.mark.parametrize("pairs", [
    [("loss_mode", "wo_kmeans"), ("alignment", "roi"), ("residual", "false")],
    [("loss_mode", "wo_kmeans"), ("normalize_offset", "false"), ("residual", "true")],
    [("loss_mode", "moco"), ("residual", "auto")],
    [("self_attention", "false"), ("residual", "auto"), ("alignment", "roi")],
    [("loss_mode", "moco"), ("temperature", "0.5"), ("queue_length", "7")],
    [("optimizer", "lars"), ("trust_coeff", "5")],
    [("temperature", "0.2"), ("queue_length", "1024"), ("trust_coeff", "0.001")],
])
def test_keys_their_mode_reads_are_accepted(pairs):
    cfg = TR.config_from_pairs(pairs)
    assert TR.config_from_text(TR.config_to_text(cfg)) == cfg


@pytest.mark.parametrize("key, raw", [("steps", "\u0663"), ("lr_base", "1_0"),
                                      ("k", "\uff13"), ("momentum", "0.\u0669")],
                         ids=["arabic-indic-digit", "underscore", "fullwidth-digit",
                              "arabic-indic-decimal"])
def test_numbers_take_plain_ascii_forms_only(tmp_path, capsys, key, raw):
    # int() and float() accept these: '\u0663' is 3 and '1_0' is 10
    with pytest.raises(TR.ConfigError, match=f"^{key}: cannot parse"):
        TR.config_from_pairs([(key, raw)])
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out), f"--{key}={raw}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: cannot parse") and err.count("\n") == 1, err
    assert not out.exists()


def test_plain_number_forms_are_accepted():
    cfg = TR.config_from_pairs([("steps", "+3"), ("lr_base", "1e1"), ("momentum", ".5"),
                                ("weight_decay", " 0 ")])
    assert (cfg.steps, cfg.lr_base, cfg.momentum, cfg.weight_decay) == (3, 10.0, 0.5, 0.0)


@pytest.mark.parametrize("mode", ["--alignment=roi", "--loss_mode=moco"])
def test_zero_iou_threshold_trains_on_overlapping_views(tmp_path, mode):
    # among these 80 pairs' draws are disjoint boxes, which roi alignment
    # cannot pool: the sampler redraws them
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out), "--iou_threshold=0", mode, "--steps=20",
                     "--batch_size=4", "--corpus_images=16", "--out_size=32",
                     "--kmeans_iters=3"]) == 0
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 20


def test_config_text_roundtrip():
    cfg = TR.TrainConfig(steps=17, lambda_weight=0.25, residual=True, optimizer="lars",
                         loss_mode="wo_kmeans", seed=9)
    assert TR.config_from_text(TR.config_to_text(cfg)) == cfg
    auto = TR.TrainConfig()
    assert TR.config_from_text(TR.config_to_text(auto)).residual is None


def test_residual_resolution_follows_alignment():
    assert TR.TrainConfig(alignment="roi").resolved_residual is True
    assert TR.TrainConfig(alignment="offset").resolved_residual is False
    assert TR.TrainConfig(alignment="roi", residual=False).resolved_residual is False


# ---------------------------------------------------------------------------
# schedules and optimizers


def test_effective_lr_endpoints_and_scaling():
    cfg = TR.TrainConfig(steps=100, batch_size=256, lr_base=1.0)
    assert TR.effective_lr(0, cfg) == pytest.approx(1.0)
    assert TR.effective_lr(100, cfg) == pytest.approx(0.0, abs=1e-15)
    assert TR.effective_lr(50, cfg) == pytest.approx(0.5)

    half = TR.TrainConfig(steps=100, batch_size=128, lr_base=1.0)
    assert TR.effective_lr(0, half) == pytest.approx(0.5)


def test_sgd_step_basics():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    buffers = {}
    sgd_step({"w": w}, lr=0.1, momentum=0.0, weight_decay=0.0, buffers=buffers)
    assert np.array_equal(w.data, [1.0, 2.0])  # no grad, no update

    w.grad = np.array([1.0, -1.0])
    sgd_step({"w": w}, lr=0.1, momentum=0.0, weight_decay=0.5, buffers=buffers)
    assert np.allclose(w.data, [1.0 - 0.1 * 1.5, 2.0 + 0.1 * 0.0])  # g + wd*w


def test_sgd_momentum_matches_recurrence():
    w = Tensor(np.array([0.5]), requires_grad=True)
    buffers = {}
    grads = [np.array([0.2]), np.array([-0.1])]
    expect_w, buf = 0.5, 0.0
    for g in grads:
        w.grad = g.copy()
        sgd_step({"w": w}, lr=0.3, momentum=0.9, weight_decay=0.0, buffers=buffers)
        buf = 0.9 * buf + float(g[0])
        expect_w -= 0.3 * buf
    assert w.data[0] == pytest.approx(expect_w, abs=1e-15)


def test_lars_step_cases():
    # zero gradient, zero weight decay: no movement
    w = Tensor(np.full((2, 2), 3.0), requires_grad=True)
    w.grad = np.zeros((2, 2))
    lars_step({"w": w}, lr=1.0, momentum=0.0, weight_decay=0.0, trust_coeff=0.001,
              buffers={})
    assert np.allclose(w.data, 3.0)

    # ||w|| == ||g||, trust 1: reduces to sgd
    w = Tensor(np.array([[2.0, 0.0], [0.0, 0.0]]), requires_grad=True)
    w.grad = np.array([[0.0, 2.0], [0.0, 0.0]])
    lars_step({"w": w}, lr=0.1, momentum=0.0, weight_decay=0.0, trust_coeff=1.0,
              buffers={})
    assert np.allclose(w.data, [[2.0, -0.2], [0.0, 0.0]], atol=1e-9)

    # single-element weight matrix: w=2, g=1 -> w - lr * 0.001 * 2 / 1
    w = Tensor(np.array([[2.0]]), requires_grad=True)
    w.grad = np.array([[1.0]])
    lars_step({"w": w}, lr=1.0, momentum=0.0, weight_decay=0.0, trust_coeff=0.001,
              buffers={})
    assert w.data[0, 0] == pytest.approx(1.998, abs=1e-9)

    # bias-like tensors use local rate 1 and skip weight decay
    b = Tensor(np.array([1.0]), requires_grad=True)
    b.grad = np.array([0.5])
    lars_step({"b": b}, lr=0.1, momentum=0.0, weight_decay=10.0, trust_coeff=0.001,
              buffers={})
    assert b.data[0] == pytest.approx(1.0 - 0.05)


# ---------------------------------------------------------------------------
# the training step


def test_train_step_deterministic(small_corpus):
    _, a = run_steps(FAST, small_corpus)
    _, b = run_steps(FAST, small_corpus)
    assert a == b


def test_cluster_mode_loss_bounded(small_corpus):
    _, metrics = run_steps(FAST, small_corpus)
    for row in metrics:
        assert -1.0 - 1e-9 <= row.loss <= 1.0 + 1e-9
        assert -1.0 - 1e-9 <= row.l1d <= 1.0 + 1e-9
        assert -1.0 - 1e-9 <= row.l2d <= 1.0 + 1e-9


@pytest.mark.parametrize("loss_mode", ["cluster", "wo_kmeans", "moco"])
def test_no_target_gradients_in_any_mode(small_corpus, loss_mode):
    # one step inside an accumulation window: the online grads stay in place
    cfg = TR.TrainConfig(steps=2, batch_size=2, accumulation_steps=2, corpus_images=8,
                         out_size=32, loss_mode=loss_mode, kmeans_iters=3)
    state = TR.init_state(cfg)
    TR.train_step(state, small_corpus)
    assert all(p.grad is None for p in state.pair.target.values())
    assert any(p.grad is not None for p in state.pair.online.values())
    if loss_mode == "moco":
        assert state.queue.size > 0


def test_target_params_follow_ema_recurrence(small_corpus):
    cfg = TR.TrainConfig(steps=5, batch_size=2, corpus_images=8, out_size=32,
                         kmeans_iters=3)
    state = TR.init_state(cfg)
    target0 = {k: v.data.copy() for k, v in state.pair.target.items()}
    online_after: list[dict] = []
    taus = []
    for step in range(cfg.steps):
        row = TR.train_step(state, small_corpus)
        online_after.append({k: v.data.copy() for k, v in state.pair.online.items()})
        taus.append(row.tau)

    expected = target0
    for theta, tau in zip(online_after, taus):
        expected = {k: tau * expected[k] + (1.0 - tau) * theta[k] for k in expected}
    for name, want in expected.items():
        assert np.allclose(state.pair.target[name].data, want, atol=1e-12)


def test_accumulated_grads_equal_sum_of_micro_batches(small_corpus, monkeypatch):
    cfg = TR.TrainConfig(steps=2, batch_size=2, accumulation_steps=2, corpus_images=8,
                         out_size=32, kmeans_iters=3)

    micro = []
    for step in range(2):
        solo = TR.init_state(TR.TrainConfig(**{**cfg.__dict__, "steps": 6,
                                               "accumulation_steps": 3}))
        solo.step = step
        TR.train_step(solo, small_corpus)  # never reaches a boundary
        micro.append({k: (p.grad.copy() if p.grad is not None else None)
                      for k, p in solo.pair.online.items()})

    state = TR.init_state(cfg)
    boundary = {}

    def capturing_sgd_step(params, *args):
        boundary.update({k: None if p.grad is None else p.grad.copy()
                         for k, p in params.items()})
        return sgd_step(params, *args)

    monkeypatch.setattr(optim, "sgd_step", capturing_sgd_step)
    params_before_first = {k: p.data.copy() for k, p in state.pair.online.items()}
    TR.train_step(state, small_corpus)
    for name, p in state.pair.online.items():
        assert np.array_equal(p.data, params_before_first[name])  # no optimizer yet
    assert not boundary
    TR.train_step(state, small_corpus)

    assert boundary.keys() == micro[0].keys()
    for name, got in boundary.items():
        want = micro[0][name] + micro[1][name]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_training_step_speed(small_corpus):
    cfg = TR.TrainConfig(steps=2)
    corpus = S.generate(S.SceneSpec(seed=1, size=(64, 64)), 8)
    state = TR.init_state(cfg)
    TR.train_step(state, corpus)  # warm-up
    start = time.perf_counter()
    TR.train_step(state, corpus)
    assert time.perf_counter() - start < 2.0


def test_warm_default_step_memory_and_tape(monkeypatch):
    # the relu of each backbone stage and head runs in place inside its conv,
    # and the target branch encodes the one view batch before the online tape
    # exists: 51 tape nodes and a 32.7 MiB peak before both. conv2d rebuilds
    # its im2col in the backward and backward() frees each node once it has
    # run: a 26.9 MiB peak before both, 13.5 MiB after (the forward alone
    # peaks at 13.1 MiB).
    # The watch counts the nodes without keeping them.
    import tracemalloc

    from multisiam import align
    from multisiam import tensor as T

    cfg = TR.TrainConfig()
    corpus = S.generate(S.SceneSpec(seed=cfg.seed, size=(cfg.out_size, cfg.out_size)),
                        cfg.corpus_images)
    state = TR.init_state(cfg)
    TR.train_step(state, corpus)  # warm-up
    built = []

    def watch(result):
        def wrapped(data, parents, backward_fn):
            out = result(data, parents, backward_fn)
            if out._backward_fn is not None:
                built.append(out.shape)
            return out
        return wrapped

    monkeypatch.setattr(T, "_result", watch(T._result))
    monkeypatch.setattr(align, "_result", watch(align._result))
    tracemalloc.start()
    try:
        TR.train_step(state, corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 44
    assert peak <= 16 << 20, peak / (1 << 20)


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip_bitwise(tmp_path, small_corpus):
    state, _ = run_steps(FAST, small_corpus, n=3)
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(state, path)
    loaded = CK.load_checkpoint(path)
    assert loaded.step == 3
    assert loaded.config == state.config
    for name, p in state.pair.online.items():
        assert np.array_equal(loaded.pair.online[name].data, p.data)
        assert loaded.pair.online[name].requires_grad
    for name, p in state.pair.target.items():
        assert np.array_equal(loaded.pair.target[name].data, p.data)
        assert not loaded.pair.target[name].requires_grad
    assert set(loaded.opt_buffers) == set(state.opt_buffers)
    for name, buf in state.opt_buffers.items():
        assert np.array_equal(loaded.opt_buffers[name], buf)


def test_failed_checkpoint_save_leaves_the_old_file(tmp_path, small_corpus, monkeypatch):
    state, _ = run_steps(FAST, small_corpus, n=1)
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(state, path)
    blob = path.read_bytes()
    run_steps(FAST, small_corpus, n=1, state=state)

    def broken(cfg):
        raise RuntimeError("config block lost")

    # the config block is the last thing written: every tensor is already out
    monkeypatch.setattr(CK, "config_to_text", broken)
    with pytest.raises(RuntimeError, match="config block lost"):
        CK.save_checkpoint(state, path)
    assert path.read_bytes() == blob
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]


def test_checkpoint_save_fsyncs_the_temporary_file_before_the_rename(tmp_path, monkeypatch):
    path = tmp_path / "run.ckpt"
    tmp = tmp_path / "run.ckpt.tmp"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        # the descriptor is the temporary file's, and every byte is flushed to it
        st, want = os.fstat(fd), tmp.stat()
        events.append(("fsync", (st.st_dev, st.st_ino) == (want.st_dev, want.st_ino),
                       st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(src), Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(CK.os, "fsync", fsync)
    monkeypatch.setattr(CK.os, "replace", replace)
    CK.save_checkpoint(TR.init_state(FAST), path)
    assert events == [("fsync", True, path.stat().st_size), ("replace", tmp, path)]


def test_failed_checkpoint_fsync_keeps_the_old_file_and_exits_runtime(tmp_path, monkeypatch,
                                                                      capsys):
    out = tmp_path / "run"
    argv = ["train", "--out", str(out), "--batch_size=1", "--out_size=32", "--corpus_images=2"]
    assert cli.main([*argv, "--steps=1"]) == 0
    run = ("metrics.jsonl", "final.ckpt", "manifest.json")
    blobs = [(out / name).read_bytes() for name in run]
    capsys.readouterr()

    def broken(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(CK.os, "fsync", broken)
    # two steps: a save that went through would change the files; the metrics
    # and the manifest of the failed run never replace the 1-step ones
    assert cli.main([*argv, "--steps=2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert [(out / name).read_bytes() for name in run] == blobs
    assert sorted(p.name for p in out.iterdir()) == sorted(run)


def test_checkpoint_rejects_damage(tmp_path, small_corpus):
    state, _ = run_steps(FAST, small_corpus, n=1)
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(state, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CK.CheckpointError, match="magic"):
        CK.load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[:-20])
    with pytest.raises(CK.CheckpointError):
        CK.load_checkpoint(truncated)

    trailing = tmp_path / "trail.ckpt"
    trailing.write_bytes(blob + b"junk")
    with pytest.raises(CK.CheckpointError, match="trailing"):
        CK.load_checkpoint(trailing)


def test_checkpoint_rejects_f32_dtype_tag(tmp_path):
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(TR.init_state(FAST), path)
    blob = bytearray(path.read_bytes())
    # magic, u32 version, u64 step, u32 count; then the first tensor's header
    off = 4 + 16
    (name_len,) = struct.unpack_from("<I", blob, off)
    off += 4 + name_len
    (ndim,) = struct.unpack_from("<I", blob, off)
    off += 4 + 8 * ndim
    assert blob[off] == 0
    blob[off] = 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CK.CheckpointError, match="unknown dtype tag 1"):
        CK.load_checkpoint(path)


@pytest.mark.parametrize("name,buffer", [("backbone.conv1.b", np.zeros(3)),
                                         ("backbone.conv1.w", np.zeros((16, 3, 3))),
                                         ("backbone.conv9.b", np.zeros(16))])
def test_checkpoint_rejects_mismatched_optimizer_buffer(tmp_path, capsys, small_corpus, name,
                                                        buffer):
    state, _ = run_steps(FAST, small_corpus, n=1)
    assert set(state.opt_buffers) == set(state.pair.online)
    state.opt_buffers[name] = buffer
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(state, path)
    with pytest.raises(CK.CheckpointError, match=re.escape(f"opt.{name}")):
        CK.load_checkpoint(path)
    capsys.readouterr()
    assert _eval_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and f"opt.{name}" in err and err.count("\n") == 1, err


def _saved_checkpoint_bytes(tmp_path):
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(TR.init_state(FAST), path)
    return path, bytearray(path.read_bytes())


def _eval_exit_code(tmp_path, path):
    return cli.main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "eval")])


def test_checkpoint_non_utf8_name_exits_runtime(tmp_path):
    path, blob = _saved_checkpoint_bytes(tmp_path)
    blob[24] = 0xFF  # magic, u32 version, u64 step, u32 count, u32 name length
    path.write_bytes(bytes(blob))
    with pytest.raises(CK.CheckpointError, match="tensor name is not UTF-8"):
        CK.load_checkpoint(path)
    assert _eval_exit_code(tmp_path, path) == 2


def test_checkpoint_non_utf8_config_block_exits_runtime(tmp_path):
    path, blob = _saved_checkpoint_bytes(tmp_path)
    blob[-2] = 0xFF  # inside the final config line
    path.write_bytes(bytes(blob))
    with pytest.raises(CK.CheckpointError, match="config block is not UTF-8"):
        CK.load_checkpoint(path)
    assert _eval_exit_code(tmp_path, path) == 2


def test_checkpoint_invalid_config_block_exits_runtime(tmp_path):
    path, blob = _saved_checkpoint_bytes(tmp_path)
    line = b"\nsteps=%d\n" % FAST.steps
    assert blob.count(line) == 1
    at = blob.index(line)
    blob[at:at + len(line)] = b"\nsteps=" + b"0" * (len(line) - 8) + b"\n"
    path.write_bytes(bytes(blob))
    with pytest.raises(CK.CheckpointError, match="config block: steps"):
        CK.load_checkpoint(path)
    assert _eval_exit_code(tmp_path, path) == 2


@pytest.mark.parametrize("groups", [("online", "target", "opt"), ("target",)],
                         ids=["every-group", "target-only"])
def test_checkpoint_rejects_parameter_shapes_the_architecture_does_not_have(tmp_path, capsys,
                                                                            groups):
    # online, target and optimizer tensors that agree with one another pass
    # every check among them; only the architecture tells the shape is wrong
    state = TR.init_state(FAST)
    name = "backbone.conv4.b"
    if "online" in groups:
        state.pair.online[name] = Tensor(np.zeros(5), requires_grad=True)
    if "target" in groups:
        state.pair.target[name] = Tensor(np.zeros(5))
    if "opt" in groups:
        state.opt_buffers = {name: np.zeros(5)}
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(state, path)
    with pytest.raises(CK.CheckpointError, match=rf"{groups[0]}\.{name} has shape \(5,\)"):
        CK.load_checkpoint(path)
    capsys.readouterr()
    assert _eval_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {groups[0]}.{name}") and err.count("\n") == 1, err


@pytest.mark.parametrize("command, output", [("eval", "probe_report.json"),
                                             ("viz", "viz_0.ppm")])
def test_weights_that_overflow_the_probe_exit_runtime(tmp_path, capsys, command, output):
    # finite weights, so the checkpoint loads; the features they give overflow
    # the probe's arithmetic, and nothing may be scored from them
    state = TR.init_state(FAST)
    state.pair.online["backbone.conv1.w"].data[:] = 1e300
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(state, path)
    out = tmp_path / command
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--checkpoint", str(path), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the trained weights overflow") and err.count("\n") == 1, err
    assert not (out / output).exists()
    assert not out.exists()


MOCO_TINY = TR.TrainConfig(steps=2, batch_size=2, corpus_images=4, eval_images=2, out_size=32,
                           loss_mode="moco", kmeans_iters=3, queue_length=64)


@pytest.mark.parametrize("state, accepted", [
    ((np.nan, 0.0), False),
    ((-5.0, 0.0), False),
    ((1e6, 0.0), False),
    ((2.5, 2.0), False),
    ((0.0, np.inf), False),
    ((64.0, 64.0), False),  # the cursor wraps to 0 at the queue length
    ((10.0, 3.0), False),   # until the queue is full the cursor is its size
    ((10.0,), False),
    ((10.0, 10.0, 0.0), False),
    ((10.0, 10.0), True),
    ((64.0, 5.0), True),
], ids=["nan-size", "negative-size", "oversized", "fractional-size", "inf-cursor",
        "cursor-at-length", "cursor-behind-size", "one-value", "three-values", "filling",
        "full"])
def test_checkpoint_queue_state_must_be_reachable(tmp_path, capsys, state, accepted):
    path = tmp_path / "moco.ckpt"
    CK.save_checkpoint(TR.init_state(MOCO_TINY), path)
    blob = path.read_bytes()
    name = b"queue.state"
    # after the name: u32 ndim, u64 dims, u8 dtype tag, then the f64 values
    at = blob.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
    assert blob[at:at + 13] == struct.pack("<IQB", 1, 2, 0)
    path.write_bytes(blob[:at] + struct.pack("<IQB", 1, len(state), 0)
                     + struct.pack(f"<{len(state)}d", *state) + blob[at + 13 + 16:])
    capsys.readouterr()
    if accepted:
        queue = CK.load_checkpoint(path).queue
        assert (queue.size, queue.cursor) == tuple(map(int, state))
        assert _eval_exit_code(tmp_path, path) == 0
        return
    with pytest.raises(CK.CheckpointError, match=r"queue\.state"):
        CK.load_checkpoint(path)
    assert _eval_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: queue.state") and err.count("\n") == 1, err


def test_checkpoint_dims_whose_product_overflows_int64_exit_runtime(tmp_path, capsys):
    path, blob = _saved_checkpoint_bytes(tmp_path)
    name = b"online.backbone.conv1.w"
    at = blob.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
    assert struct.unpack_from("<I", blob, at) == (4,)
    struct.pack_into("<QQ", blob, at + 4, 2 ** 32, 2 ** 32)  # 2**64 values: 0 in int64
    path.write_bytes(bytes(blob))
    with pytest.raises(CK.CheckpointError, match="truncated"):
        CK.load_checkpoint(path)
    capsys.readouterr()
    assert _eval_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: truncated") and err.count("\n") == 1, err


def _moco_state_with_buffers():
    """A moco state whose checkpoint holds every group of saved values:
    online and target parameters, optimizer buffers and the queue."""
    state = TR.init_state(MOCO_TINY)
    rng = np.random.default_rng(0)
    state.opt_buffers = {name: rng.standard_normal(p.shape)
                         for name, p in state.pair.online.items()}
    state.queue.push(rng.standard_normal((10, state.queue.buffer.shape[1])))
    return state


def _first_value_offset(blob, name):
    """The byte offset of the first f64 value of tensor ``name``."""
    encoded = name.encode()
    at = blob.index(struct.pack("<I", len(encoded)) + encoded) + 4 + len(encoded)
    (ndim,) = struct.unpack_from("<I", blob, at)
    return at + 4 + 8 * ndim + 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["online.backbone.conv4.b", "target.proj2d.conv1.w",
                                  "opt.pred1d.conv2.w", "queue.buffer"])
def test_checkpoint_rejects_non_finite_values(tmp_path, capsys, name, value):
    path = tmp_path / "moco.ckpt"
    CK.save_checkpoint(_moco_state_with_buffers(), path)
    blob = bytearray(path.read_bytes())
    at = _first_value_offset(blob, name)
    blob[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))
    with pytest.raises(CK.CheckpointError, match=f"tensor {name} holds a non-finite value"):
        CK.load_checkpoint(path)
    capsys.readouterr()
    assert _eval_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: tensor {name}") and err.count("\n") == 1, err


def test_checkpoint_with_finite_values_loads_the_saved_state(tmp_path):
    state = _moco_state_with_buffers()
    path = tmp_path / "moco.ckpt"
    CK.save_checkpoint(state, path)
    loaded = CK.load_checkpoint(path)
    for group, want in (("online", state.pair.online), ("target", state.pair.target)):
        got = getattr(loaded.pair, group)
        assert set(got) == set(want)
        for name, p in want.items():
            assert got[name].data.tobytes() == p.data.tobytes()
    assert set(loaded.opt_buffers) == set(state.opt_buffers)
    for name, buf in state.opt_buffers.items():
        assert loaded.opt_buffers[name].tobytes() == buf.tobytes()
    assert loaded.queue.buffer.tobytes() == state.queue.buffer.tobytes()
    assert (loaded.queue.size, loaded.queue.cursor) == (state.queue.size, state.queue.cursor)


@pytest.mark.parametrize("loss_mode, old, new, message", [
    # one byte: the buffer of conv1.b is read as a second conv2.b
    ("moco", "opt.backbone.conv1.b", "opt.backbone.conv2.b", "appears twice"),
    ("moco", "opt.backbone.conv1.b", "ppt.backbone.conv1.b",
     "loss_mode=moco keeps no tensor ppt.backbone.conv1.b"),
    ("moco", "queue.state", "queue.stats", "loss_mode=moco keeps no tensor queue.stats"),
    ("cluster", "queue.buffer", "queue.buffer", "loss_mode=cluster keeps no tensor queue.buffer"),
], ids=["repeated", "unknown-group", "unknown-queue-name", "queue-without-moco"])
def test_checkpoint_rejects_names_it_would_not_read(tmp_path, capsys, loss_mode, old, new,
                                                    message):
    state = _moco_state_with_buffers()
    state.config = dataclasses.replace(state.config, loss_mode=loss_mode)
    if loss_mode != "moco":  # a queue length outside moco is a config error of its own
        state.config = dataclasses.replace(state.config, queue_length=TR.TrainConfig.queue_length)
    path = tmp_path / "edited.ckpt"
    CK.save_checkpoint(state, path)
    blob = path.read_bytes()
    values = blob[_first_value_offset(blob, old):][:64]
    blob = blob.replace(struct.pack("<I", len(old)) + old.encode(),
                        struct.pack("<I", len(new)) + new.encode())
    assert blob[_first_value_offset(blob, new):][:64] == values  # only the name changed
    path.write_bytes(blob)
    with pytest.raises(CK.CheckpointError, match=message):
        CK.load_checkpoint(path)
    capsys.readouterr()
    assert _eval_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize("drop", ["online", "target", "queue"])
def test_checkpoint_rejects_a_missing_tensor(tmp_path, capsys, drop):
    state = _moco_state_with_buffers()
    if drop == "queue":
        state.queue, missing = None, "queue.buffer"
    else:
        # the optimizer buffer of the dropped parameter stays in the file
        del getattr(state.pair, drop)["backbone.conv2.w"]
        missing = f"{drop}.backbone.conv2.w"
    path = tmp_path / "partial.ckpt"
    CK.save_checkpoint(state, path)
    with pytest.raises(CK.CheckpointError, match=re.escape(f"tensor {missing} is missing")):
        CK.load_checkpoint(path)
    capsys.readouterr()
    assert _eval_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: tensor {missing}") and err.count("\n") == 1, err


WINDOWED = dataclasses.replace(FAST, steps=4, accumulation_steps=2)


def test_checkpoint_save_rejects_a_state_inside_an_accumulation_window(tmp_path, small_corpus):
    # the window's grads are not saved: a resumed run would apply half of them
    state, _ = run_steps(WINDOWED, small_corpus, n=1)
    path = tmp_path / "run.ckpt"
    with pytest.raises(CK.CheckpointError, match="step 1 is inside an accumulation window"):
        CK.save_checkpoint(state, path)
    assert list(tmp_path.iterdir()) == []
    run_steps(WINDOWED, small_corpus, n=1, state=state)
    CK.save_checkpoint(state, path)
    assert CK.load_checkpoint(path).step == 2


@pytest.mark.parametrize("step, accepted", [(0, True), (2, True), (4, True), (1, False),
                                            (3, False), (5, False), (6, False), (999, False)])
def test_checkpoint_step_must_be_an_accumulation_boundary_of_the_schedule(tmp_path, capsys,
                                                                           step, accepted):
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(TR.init_state(WINDOWED), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 8, step)  # after the magic and the u32 version
    path.write_bytes(bytes(blob))
    if accepted:
        assert CK.load_checkpoint(path).step == step
        return
    with pytest.raises(CK.CheckpointError, match=f"step {step} is no accumulation boundary"):
        CK.load_checkpoint(path)
    capsys.readouterr()
    assert _eval_exit_code(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: step {step}") and err.count("\n") == 1, err


# the default config, each ablation variant of the benchmark, and a window of two
ROUNDTRIP_VARIANTS = [{}, {"loss_mode": "moco"}, {"alignment": "roi"},
                      {"loss_mode": "wo_kmeans", "alignment": "none"}, {"dense": True},
                      {"optimizer": "lars", "k": 5}, {"self_attention": False, "symmetrize": False},
                      {"accumulation_steps": 2}]


@pytest.mark.parametrize("extra", ROUNDTRIP_VARIANTS, ids=str)
def test_checkpoint_load_gives_back_what_save_wrote(tmp_path, small_corpus, extra):
    queue = {"queue_length": 64} if extra.get("loss_mode") == "moco" else {}
    state = TR.init_state(dataclasses.replace(FAST, steps=4, **queue, **extra))
    for step in (0, 2):
        run_steps(state.config, small_corpus, n=step - state.step, state=state)
        path = tmp_path / f"step{step}.ckpt"
        CK.save_checkpoint(state, path)
        loaded = CK.load_checkpoint(path)
        assert (loaded.step, loaded.config) == (step, state.config)
        saved, got = CK._named_tensors(state), CK._named_tensors(loaded)
        assert list(got) == list(saved)
        for name, arr in saved.items():
            assert got[name].shape == arr.shape and got[name].tobytes() == arr.tobytes(), name
        assert all(p.requires_grad for p in loaded.pair.online.values())
        assert not any(p.requires_grad for p in loaded.pair.target.values())
        again = tmp_path / f"step{step}.again.ckpt"
        CK.save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_resume_matches_uninterrupted_run(tmp_path, small_corpus):
    cfg = TR.TrainConfig(steps=6, batch_size=2, corpus_images=8, out_size=32,
                         kmeans_iters=3)
    full_state, full_metrics = run_steps(cfg, small_corpus)

    head_state, head_metrics = run_steps(cfg, small_corpus, n=3)
    path = tmp_path / "head.ckpt"
    CK.save_checkpoint(head_state, path)
    resumed = CK.load_checkpoint(path)
    tail_metrics = []
    while resumed.step < cfg.steps:
        tail_metrics.append(TR.train_step(resumed, small_corpus))

    assert head_metrics + tail_metrics == full_metrics
    for name, p in full_state.pair.online.items():
        assert np.array_equal(resumed.pair.online[name].data, p.data)
    for name, p in full_state.pair.target.items():
        assert np.array_equal(resumed.pair.target[name].data, p.data)


def test_moco_checkpoint_preserves_queue(tmp_path, small_corpus):
    cfg = TR.TrainConfig(steps=4, batch_size=2, corpus_images=8, out_size=32,
                         loss_mode="moco", kmeans_iters=3, queue_length=64)
    state, _ = run_steps(cfg, small_corpus, n=2)
    path = tmp_path / "moco.ckpt"
    CK.save_checkpoint(state, path)
    loaded = CK.load_checkpoint(path)
    assert np.array_equal(loaded.queue.buffer, state.queue.buffer)
    assert (loaded.queue.size, loaded.queue.cursor) == (state.queue.size, state.queue.cursor)

    resumed_rows = [TR.train_step(loaded, small_corpus) for _ in range(2)]
    direct_rows = [TR.train_step(state, small_corpus) for _ in range(2)]
    assert resumed_rows == direct_rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts(small_corpus):
    state = TR.init_state(FAST)
    # the final 1d layer has no relu after it, so the inf reaches the loss
    state.pair.online["pred1d.conv2.w"].data[:] = np.inf
    with pytest.raises(TR.TrainingError, match="non-finite"):
        TR.train_step(state, small_corpus)


# the loss of step 0 is finite; its update overflows every online parameter
HUGE_LR = ["--batch_size=2", "--out_size=32", "--corpus_images=4", "--kmeans_iters=3",
           "--lr_base=1e308"]


def test_overflowing_batch_scaled_lr_is_a_config_error(tmp_path, capsys):
    # 1e308 * 2 / 256 overflows before the schedule ever runs
    with pytest.raises(TR.ConfigError, match="lr_base"):
        TR.init_state(dataclasses.replace(FAST, lr_base=1e308))
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out), "--steps=1"] + HUGE_LR) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lr_base:") and err.count("\n") == 1
    assert not (out / "final.ckpt").exists()


def test_overflowing_forward_prints_only_the_typed_error(tmp_path):
    # lr_base=1e307 passes validation and the step-0 update, then the step-1
    # forward overflows; numpy must not warn ahead of the typed error
    src = str(Path(TR.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "multisiam.cli", "train",
                           "--out", str(tmp_path / "run"), "--steps=2"]
                          + HUGE_LR[:-1] + ["--lr_base=1e307"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == ("error: non-finite loss at step 1: loss=nan, "
                           "l1d=[nan, nan, nan, nan], l2d=[nan, nan, nan, nan]\n")


def infinite_lr(step, cfg):
    return float("inf")


@pytest.mark.filterwarnings("error")
def test_non_finite_update_raises_training_error(small_corpus, monkeypatch):
    state = TR.init_state(FAST)
    monkeypatch.setattr(TR, "effective_lr", infinite_lr)
    with pytest.raises(TR.TrainingError,
                       match=r"non-finite parameter \S+ after the update at step 0"):
        TR.train_step(state, small_corpus)


@pytest.mark.parametrize("steps", [1, 2])
def test_non_finite_update_exits_runtime(tmp_path, capsys, monkeypatch, steps):
    monkeypatch.setattr(TR, "effective_lr", infinite_lr)
    out = tmp_path / "run"
    assert cli.main(["train", "--out", str(out), f"--steps={steps}"] + HUGE_LR[:-1]) == 2
    err = capsys.readouterr().err
    # the typed error is the only line: the overflowing update warns nothing
    assert err.startswith("error: non-finite parameter") and err.count("\n") == 1
    assert not (out / "final.ckpt").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("optimizer", ["sgd", "lars"])
def test_overflowing_update_leaves_non_finite_values_without_warning(optimizer):
    params = {"w": Tensor(np.full((2, 2), 1e300), requires_grad=True),
              "b": Tensor(np.zeros(2), requires_grad=True)}
    params["w"].grad = np.full((2, 2), 1e300)
    params["b"].grad = np.ones(2)
    if optimizer == "lars":
        lars_step(params, 1e308, 0.9, 1e-5, 1.0, {})
    else:
        sgd_step(params, 1e308, 0.9, 1e-5, {})
    assert not np.isfinite(params["w"].data).any()


_FAULTS_PER_CALL_SCRIPT = """
import ctypes
import resource
import numpy as np

# glibc's default mmap threshold, as in a process that has not yet freed a
# large block when the package is imported
ctypes.CDLL(None).mallopt(-3, 128 << 10)
from multisiam import objectives as O, scenes, train as TR


def faults_per_call(call, warm=3, timed=5):
    for _ in range(warm):
        call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(timed):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / timed


# k-means first, on a heap that no training step has grown yet
fmap = np.random.default_rng(0).standard_normal((32, 64, 64))
kmeans_faults = faults_per_call(lambda: O.kmeans(fmap, 3, rng=np.random.default_rng(0)))
# and the call viz makes: an 8x8 map clustered at its 64x64 upsample
small = np.maximum(np.random.default_rng(1).standard_normal((32, 8, 8)), 0.0)
upsample_faults = faults_per_call(
    lambda: O.kmeans(small, 3, rng=np.random.default_rng(0), size=(64, 64)))
cfg = TR.TrainConfig(corpus_images=16)
corpus = scenes.generate(scenes.SceneSpec(seed=0, size=(cfg.out_size, cfg.out_size)), 16)
state = TR.init_state(cfg)
print(faults_per_call(lambda: TR.train_step(state, corpus)), kmeans_faults, upsample_faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings are glibc's")
def test_warm_step_and_full_resolution_kmeans_keep_their_memory_mapped():
    # without the allocator settings a warm default step takes 5,000-6,200 minor
    # page faults, re-faulting the memory the previous step freed, and with
    # the top pad alone a 4,096-pixel k-means took ~17,000 (one mmap per
    # 1 MiB array)
    src = str(Path(TR.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    step_faults, kmeans_faults, upsample_faults = map(float, done.stdout.split())
    assert step_faults < 500
    assert kmeans_faults < 500
    assert upsample_faults < 500


# ---------------------------------------------------------------------------
# the batched loss against one image at a time

BATCH_TOY = ModelConfig(widths=(4, 3), downsample=(True, False), proj2d_hidden=3,
                           proj2d_out=3, pred2d_hidden=3, proj1d_hidden=4, embed_dim=3,
                           pred1d_hidden=4)
BATCH_VARIANTS = (
    [{"loss_mode": m, "alignment": a} for m in ("cluster", "wo_kmeans", "moco")
     for a in ("offset", "roi", "none")]
    + [{"dense": True}, {"self_attention": False}, {"symmetrize": False}])


def _relative_gap(got, want, scale=None):
    scale = float(np.max(np.abs(want))) if scale is None else scale
    return float(np.max(np.abs(got - want)) / max(scale, 1e-300))


@pytest.mark.parametrize("overrides", BATCH_VARIANTS,
                         ids=["-".join(f"{k}={v}" for k, v in o.items()) for o in BATCH_VARIANTS])
def test_batched_loss_equals_mean_of_single_image_losses(overrides):
    cfg = TR.TrainConfig(k=2, queue_length=40, **overrides)
    mcfg = dataclasses.replace(BATCH_TOY, alignment=cfg.alignment)
    rng = np.random.default_rng(11)
    pair = init_siamese_pair(mcfg, rng)
    for name, p in pair.target.items():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.shape)
    aug = TR.TrainConfig(out_size=8)
    specs, views = [], []
    for _ in range(3):
        vp = sample_view_pair((32, 32), aug, rng)
        specs.append((vp.spec_a, vp.spec_b))
        views += [rng.random((3, 8, 8)) for _ in range(2)]
    views = np.stack(views, axis=1)  # image b's views at columns 2b and 2b+1
    assert len({s.flipped for pair_specs in specs for s in pair_specs}) == 2
    queue = None
    if cfg.loss_mode == "moco":
        queue = NegativeQueue(cfg.queue_length, mcfg.proj2d_out)
        queue.push(rng.standard_normal((12, mcfg.proj2d_out)))
    single_queue = copy.deepcopy(queue)

    loss, l1s, l2s, pooled = TR.image_loss(pair, cfg, mcfg, views, specs,
                                           np.random.default_rng(3), queue)
    backward(loss)
    # MoCo leaves the 2D predictor unused
    batched = {name: p.grad.copy() for name, p in pair.online.items() if p.grad is not None}
    zero_grads(pair.online)

    krng = np.random.default_rng(3)  # carried from image to image, like the queue
    total, single_l1, single_l2, single_pooled = 0.0, [], [], []
    for b in range(len(specs)):
        one, l1, l2, rows = TR.image_loss(pair, cfg, mcfg, views[:, 2 * b:2 * b + 2],
                                          specs[b:b + 1], krng, single_queue)
        backward(one)
        total += one.item()
        single_l1 += l1
        single_l2 += l2
        single_pooled += rows

    assert _relative_gap(loss.data, np.array(total / len(specs))) <= 1e-12
    assert _relative_gap(np.array(l1s), np.array(single_l1)) <= 1e-12
    assert _relative_gap(np.array(l2s), np.array(single_l2)) <= 1e-12
    assert _relative_gap(np.array(pooled), np.array(single_pooled)) <= 1e-12
    # relative to the largest gradient entry: some toy parameters get gradients
    # of rounding size only
    singles = {name: p.grad / len(specs) for name, p in pair.online.items()
               if p.grad is not None}
    assert set(singles) == set(batched)
    scale = max(float(np.max(np.abs(g))) for g in singles.values())
    for name, want in singles.items():
        assert _relative_gap(batched[name], want, scale) <= 1e-12, name
    if queue is not None:
        assert _relative_gap(queue.buffer, single_queue.buffer) <= 1e-12
        assert (queue.size, queue.cursor) == (single_queue.size, single_queue.cursor)


@pytest.mark.parametrize("alignment", ["offset", "roi"])
@pytest.mark.parametrize("self_attention", [True, False])
def test_moco_image_loss_matches_hand_composed_chain(alignment, self_attention):
    # moco ignores the alignment setting: it always roi-aligns the raw maps
    # and then projects, with attention keyed by the raw regions, no residual
    cfg = TR.TrainConfig(k=2, queue_length=40, loss_mode="moco", alignment=alignment,
                         self_attention=self_attention, symmetrize=False)
    mcfg = dataclasses.replace(BATCH_TOY, alignment=cfg.alignment)
    rng = np.random.default_rng(13)
    pair = init_siamese_pair(mcfg, rng)
    for name, p in pair.target.items():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.shape)
    aug = TR.TrainConfig(out_size=8)
    specs, views = [], []
    for flips in ((True, False), (False, True)):
        vp = sample_view_pair((32, 32), aug, rng)
        specs.append(tuple(dataclasses.replace(s, flipped=f)
                           for s, f in zip((vp.spec_a, vp.spec_b), flips)))
        views += [rng.random((3, 8, 8)) for _ in range(2)]
    views = np.stack(views, axis=1)
    queue = NegativeQueue(cfg.queue_length, mcfg.proj2d_out)
    queue.push(rng.standard_normal((12, mcfg.proj2d_out)))
    want_queue = copy.deepcopy(queue)

    _, _, l2s, _ = TR.image_loss(pair, cfg, mcfg, views, specs, np.random.default_rng(3), queue)

    on_specs, tg_specs = [s[0] for s in specs], [s[1] for s in specs]
    f_on = backbone_forward(pair.online, Tensor(views[:, 0::2]), mcfg)
    f_tg = backbone_forward(pair.target, Tensor(views[:, 1::2]), mcfg)
    raw_on = flip_back(f_on, [s.flipped for s in on_specs])
    raw_tg = flip_back(f_tg, [s.flipped for s in tg_specs])
    rel_on, rel_tg = zip(*(intersection_relative(a, b) for a, b in zip(on_specs, tg_specs)))
    h, w = raw_on.shape[-2:]
    region_on = roi_align(raw_on, rel_on, h, w)
    region_tg = roi_align(raw_tg, rel_tg, h, w)
    online = project_2d(pair.online, region_on)
    if self_attention:
        online = self_attention_predict(region_on, online, residual=False)
    target = project_2d(pair.target, region_tg).data
    clusters = kmeans_batch(target, cfg.k, metric=cfg.kmeans_metric, max_iter=cfg.kmeans_iters,
                            rng=np.random.default_rng(3))
    want = moco_pixel_infonce(online, target, clusters, want_queue, cfg.temperature)

    assert l2s == want.data.tolist()
    assert queue.buffer.tobytes() == want_queue.buffer.tobytes()
    assert (queue.size, queue.cursor) == (want_queue.size, want_queue.cursor)
