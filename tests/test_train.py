import copy
import dataclasses
import os
import platform
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from multisiam import checkpoint as CK
from multisiam import cli
from multisiam import scenes as S
from multisiam import train as TR
from multisiam.model import ModelConfig, init_siamese_pair
from multisiam.objectives import NegativeQueue
from multisiam.optim import lars_step, sgd_step
from multisiam.tensor import Tensor, backward, zero_grads
from multisiam.views import AugmentConfig, sample_view_pair

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


def test_config_text_roundtrip():
    cfg = TR.TrainConfig(steps=17, lambda_weight=0.25, residual=True, optimizer="lars",
                         loss_mode="moco", seed=9)
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
    cfg = TR.TrainConfig(steps=2, batch_size=2, corpus_images=8, out_size=32,
                         loss_mode=loss_mode, kmeans_iters=3)
    state = TR.init_state(cfg)
    captured = {}
    TR.train_step(state, small_corpus, grad_probe=captured.update)
    assert all(p.grad is None for p in state.pair.target.values())
    assert any(g is not None for g in captured.values())
    if loss_mode == "moco":
        assert len(state.queue) > 0


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


def test_accumulated_grads_equal_sum_of_micro_batches(small_corpus):
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
    params_before_first = {k: p.data.copy() for k, p in state.pair.online.items()}
    TR.train_step(state, small_corpus)
    for name, p in state.pair.online.items():
        assert np.array_equal(p.data, params_before_first[name])  # no optimizer yet
    TR.train_step(state, small_corpus, grad_probe=boundary.update)

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
def test_checkpoint_rejects_mismatched_optimizer_buffer(tmp_path, small_corpus, name, buffer):
    state, _ = run_steps(FAST, small_corpus, n=1)
    assert set(state.opt_buffers) == set(state.pair.online)
    state.opt_buffers[name] = buffer
    path = tmp_path / "run.ckpt"
    CK.save_checkpoint(state, path)
    with pytest.raises(CK.CheckpointError, match=f"optimizer buffer {name}"):
        CK.load_checkpoint(path)
    assert _eval_exit_code(tmp_path, path) == 2


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
    state.pair.online["pred1d.fc2.w"].data[:] = np.inf
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
cfg = TR.TrainConfig(corpus_images=16)
corpus = scenes.generate(scenes.SceneSpec(seed=0, size=(cfg.out_size, cfg.out_size)), 16)
state = TR.init_state(cfg)
print(faults_per_call(lambda: TR.train_step(state, corpus)), kmeans_faults)
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
    step_faults, kmeans_faults = map(float, done.stdout.split())
    assert step_faults < 500
    assert kmeans_faults < 500


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
    mcfg = dataclasses.replace(BATCH_TOY, alignment=cfg.alignment, residual=cfg.resolved_residual)
    rng = np.random.default_rng(11)
    pair = init_siamese_pair(mcfg, rng)
    for name, p in pair.target.items():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.shape)
    aug = AugmentConfig(out_size=(8, 8))
    specs, views = [], []
    for _ in range(3):
        vp = sample_view_pair((32, 32), aug, rng)
        specs.append((vp.spec_a, vp.spec_b))
        views.append([Tensor(rng.random((3, 8, 8))) for _ in range(2)])
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
    for b in range(len(views)):
        one, l1, l2, rows = TR.image_loss(pair, cfg, mcfg, views[b:b + 1], specs[b:b + 1],
                                          krng, single_queue)
        backward(one)
        total += one.item()
        single_l1 += l1
        single_l2 += l2
        single_pooled += rows

    assert _relative_gap(loss.data, np.array(total / len(views))) <= 1e-12
    assert _relative_gap(np.array(l1s), np.array(single_l1)) <= 1e-12
    assert _relative_gap(np.array(l2s), np.array(single_l2)) <= 1e-12
    assert _relative_gap(np.array(pooled), np.array(single_pooled)) <= 1e-12
    # relative to the largest gradient entry: some toy parameters get gradients
    # of rounding size only
    singles = {name: p.grad / len(views) for name, p in pair.online.items()
               if p.grad is not None}
    assert set(singles) == set(batched)
    scale = max(float(np.max(np.abs(g))) for g in singles.values())
    for name, want in singles.items():
        assert _relative_gap(batched[name], want, scale) <= 1e-12, name
    if queue is not None:
        assert _relative_gap(queue.buffer, single_queue.buffer) <= 1e-12
        assert (queue.size, queue.cursor) == (single_queue.size, single_queue.cursor)
