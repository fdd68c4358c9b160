"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line when the criterion holds. Criteria 7 and 8
share a single full default training run (module-scoped fixture), so this
module takes a few minutes end to end.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from multisiam import cli
from multisiam import checkpoint as CK
from multisiam import objectives as O
from multisiam import scenes as S
from multisiam import train as TR
from multisiam import model as M
from multisiam.align import offset_map, roi_align
from multisiam.checks import GRADCHECK_TOLERANCE, run_gradient_suite
from multisiam.metrics import adjusted_rand_index, smoothed_endpoints
from multisiam.probe import paired_probe
from multisiam.tensor import Tensor, concat, logsumexp, reduce_mean, reshape, sub
from multisiam.views import AugmentConfig, Box, NEUTRAL_PHOTO, ViewSpec, _sample_box, compute_iou, sample_view_pair


def announce(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


@pytest.fixture(scope="module")
def default_run():
    cfg = TR.TrainConfig()
    corpus = S.generate(S.SceneSpec(seed=cfg.seed, size=(cfg.out_size, cfg.out_size)),
                        cfg.corpus_images)
    start = time.perf_counter()
    state, metrics = TR.run_training(cfg, corpus)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(cfg=cfg, corpus=corpus, state=state, metrics=metrics,
                           elapsed=elapsed)


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    reports = run_gradient_suite(seeds=range(5))
    elapsed = time.perf_counter() - start
    worst = max(reports, key=lambda r: r.max_relative_error)
    assert worst.max_relative_error < GRADCHECK_TOLERANCE, \
        f"{worst.op_name} at {worst.max_relative_error}"
    assert elapsed < 60.0
    covered = {r.op_name for r in reports}
    for needed in ("conv2d", "conv2d_batched", "global_avg_pool", "global_avg_pool_batched",
                   "matmul_stacked", "select", "l2_normalize",
                   "roi_align", "roi_align_per_sample", "flip_back",
                   "flip_back_per_sample", "projector_2d", "predictor_2d",
                   "self_attention", "self_attention_residual", "loss_1d",
                   "loss_2d_cluster", "loss_2d_cluster_dense", "loss_2d_wo_kmeans",
                   "loss_moco_infonce", "full_loss_offset", "full_loss_roi_residual",
                   "full_loss_wo_kmeans_none", "full_loss_moco", "full_loss_dense_symmetrized"):
        assert needed in covered, f"missing gradcheck case {needed}"
    announce(1, f"{len(reports)} gradient reports, worst {worst.max_relative_error:.2e} "
                f"({worst.op_name}), {elapsed:.1f}s")


def _naive_bilinear(arr, roi, out_h, out_w):
    c, h, w = arr.shape
    out = np.zeros((c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            x = roi.x0 + (j + 0.5) / out_w * (roi.x1 - roi.x0)
            y = roi.y0 + (i + 0.5) / out_h * (roi.y1 - roi.y0)
            u = min(max(x * w - 0.5, 0.0), w - 1.0)
            v = min(max(y * h - 0.5, 0.0), h - 1.0)
            j0, i0 = int(np.floor(u)), int(np.floor(v))
            j1, i1 = min(j0 + 1, w - 1), min(i0 + 1, h - 1)
            fx, fy = u - j0, v - i0
            for ch in range(c):
                out[ch, i, j] = (arr[ch, i0, j0] * (1 - fy) * (1 - fx)
                                 + arr[ch, i0, j1] * (1 - fy) * fx
                                 + arr[ch, i1, j0] * fy * (1 - fx)
                                 + arr[ch, i1, j1] * fy * fx)
    return out


def test_criterion_2_geometry_oracles():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        arr = rng.random((2, rng.integers(3, 7), rng.integers(3, 7)))
        x0, y0 = rng.uniform(0.0, 0.5, 2)
        roi = Box(float(x0), float(y0), float(x0 + rng.uniform(0.2, 0.5)),
                  float(y0 + rng.uniform(0.2, 0.5)))
        oh, ow = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        got = roi_align(Tensor(arr[:, None]), [roi], oh, ow).data[:, 0]
        worst = max(worst, float(np.max(np.abs(got - _naive_bilinear(arr, roi, oh, ow)))))
    assert worst < 1e-9

    fmap = Tensor(rng.random((3, 1, 8, 8)))
    assert np.array_equal(roi_align(fmap, [Box(0, 0, 1, 1)], 8, 8).data, fmap.data)

    spec = ViewSpec(Box(3.0, 5.0, 35.0, 37.0), False, NEUTRAL_PHOTO, (8, 8))
    assert np.array_equal(offset_map(spec, spec, 8, 8), np.zeros((2, 8, 8)))
    shifted = ViewSpec(Box(8.5, 5.0, 40.5, 37.0), False, NEUTRAL_PHOTO, (8, 8))
    om = offset_map(spec, shifted, 8, 8, normalize=True)
    span_x = (8 - 1) / 8 * 32.0
    assert np.max(np.abs(om[0] - 5.5 / span_x)) < 1e-12
    assert np.max(np.abs(om[1])) < 1e-12
    announce(2, f"roi_align vs naive oracle max err {worst:.2e}; identity and "
                "offset closed forms exact")


def test_criterion_3_sampler_properties():
    cfg = AugmentConfig(iou_threshold=0.5)
    rng = np.random.default_rng(3)
    pairs = [sample_view_pair((64, 64), cfg, rng) for _ in range(10_000)]
    violations = sum(p.iou < 0.5 for p in pairs)
    assert violations == 0

    stream_rng = np.random.default_rng(33)
    ious = np.array([compute_iou(_sample_box(64, 64, cfg, stream_rng),
                                 _sample_box(64, 64, cfg, stream_rng))
                     for _ in range(5000)])
    rates = [(ious >= t).mean() for t in (0.3, 0.4, 0.5, 0.6, 0.7)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    announce(3, f"10000/10000 pairs at IoU>=0.5; acceptance rates {np.round(rates, 3)} "
                "monotone non-increasing")


def test_criterion_4_kmeans():
    rng = np.random.default_rng(4)
    for _ in range(100):
        fmap = rng.standard_normal((3, 6, 6))
        result = O.kmeans(fmap, int(rng.integers(2, 6)),
                          metric=("cosine", "euclidean")[int(rng.integers(2))],
                          rng=rng)
        hist = result.cost_history
        assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))

    values = 10.0 * np.eye(3)
    labels = np.tile(np.arange(3), 3)
    fmap = values[labels].T.reshape(3, 3, 3)
    exact = O.kmeans(fmap, 3, metric="euclidean", rng=np.random.default_rng(0))
    assert exact.cost_history[-1] == pytest.approx(0.0, abs=1e-18)
    assert adjusted_rand_index(exact.assignments.reshape(-1), labels) == 1.0

    probe = rng.standard_normal((4, 8, 8))
    pixels = probe.reshape(4, 64).T
    normalized = pixels / np.linalg.norm(pixels, axis=1, keepdims=True)
    init = normalized[[5, 21, 47]]
    mine = O.kmeans(probe, 3, metric="cosine", init=init)

    ref_centroids = init.copy()
    ref_assign = None
    for _ in range(10):
        dists = ((normalized[:, None, :] - ref_centroids[None]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        if ref_assign is not None and np.array_equal(new_assign, ref_assign):
            break
        ref_assign = new_assign
        for k in range(3):
            members = normalized[ref_assign == k]
            if members.size:
                ref_centroids[k] = members.mean(axis=0)
    assert np.array_equal(mine.assignments.reshape(-1), ref_assign)
    announce(4, "Lloyd cost monotone on 100 maps; exact recovery ARI=1 cost=0; "
                "reference agreement under shared init")


def test_criterion_5_loss_algebra():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pred = Tensor(rng.standard_normal((3, 1, 3, 3)) * 10.0 ** rng.integers(-3, 4))
        target = Tensor(rng.standard_normal((3, 1, 3, 3)) * 10.0 ** rng.integers(-3, 4))
        cluster = O.kmeans(target.data[:, 0], 3, rng=rng)
        for value in (O.loss_2d_cluster(pred, [cluster]).data.item(),
                      O.loss_2d_cluster(pred, [cluster], dense=True,
                                        target_map=target.data).data.item(),
                      O.loss_2d_wo_kmeans(pred, target.data).data.item()):
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
    assert isinstance(cluster.assignments, np.ndarray)
    assert isinstance(cluster.centroids, np.ndarray)

    l1, l2 = Tensor(0.3), Tensor(-0.9)
    assert O.loss_total(l1, l2, 1.0).item() == pytest.approx(0.3)
    assert O.loss_total(l1, l2, 0.0).item() == pytest.approx(-0.9)

    # pixel-contrastive loss against a direct softmax-cross-entropy oracle
    pixels = Tensor(rng.standard_normal((10, 4)), requires_grad=True)
    positives = rng.standard_normal((10, 4))
    negatives = rng.standard_normal((7, 4))
    pn = pixels.data / np.linalg.norm(pixels.data, axis=1, keepdims=True)
    pos_n = positives / np.linalg.norm(positives, axis=1, keepdims=True)
    neg_n = negatives / np.linalg.norm(negatives, axis=1, keepdims=True)
    from multisiam.tensor import l2_normalize, matmul, mul, reduce_sum, scale, transpose
    px = transpose(l2_normalize(transpose(pixels), axis=0))
    pos_logits = scale(reduce_sum(mul(px, Tensor(pos_n)), axis=1), 1.0 / 0.2)
    neg_logits = scale(matmul(px, Tensor(neg_n.T)), 1.0 / 0.2)
    logits = concat([reshape(pos_logits, (10, 1)), neg_logits], axis=1)
    module_loss = reduce_mean(sub(logsumexp(logits, axis=1), pos_logits))

    oracle = []
    for i in range(10):
        row = np.concatenate([[pn[i] @ pos_n[i]], pn[i] @ neg_n.T]) / 0.2
        soft = np.exp(row - row.max())
        oracle.append(-np.log(soft[0] / soft.sum()))
    assert module_loss.item() == pytest.approx(np.mean(oracle), abs=1e-9)
    assert module_loss.item() >= 0.0

    # stop-gradient assertions in every loss mode
    corpus = S.generate(S.SceneSpec(seed=1, size=(32, 32)), 6)
    for mode in ("cluster", "wo_kmeans", "moco"):
        # one step inside an accumulation window keeps the online grads in place
        cfg = TR.TrainConfig(steps=2, batch_size=2, accumulation_steps=2, out_size=32,
                             corpus_images=6, loss_mode=mode, kmeans_iters=3)
        state = TR.init_state(cfg)
        TR.train_step(state, corpus)
        assert all(p.grad is None for p in state.pair.target.values()), mode
        assert any(p.grad is not None for p in state.pair.online.values()), mode
    announce(5, "cosine losses bounded; weighted-sum degenerates; pixel InfoNCE "
                "matches cross-entropy oracle to 1e-9; stop-grads null in all modes")


def test_criterion_6_ema_and_schedules():
    pair = M.SiamesePair(online={"w": Tensor(np.array([0.0]))},
                         target={"w": Tensor(np.array([1.0]))})
    M.ema_update(pair, 1.0)
    assert pair.target["w"].data[0] == 1.0
    M.ema_update(pair, 0.0)
    assert pair.target["w"].data[0] == 0.0

    assert M.momentum_schedule(0, 300, 0.996) == pytest.approx(0.996)
    assert M.momentum_schedule(300, 300, 0.996) == pytest.approx(1.0)

    cfg = TR.TrainConfig(steps=100, batch_size=256, lr_base=1.0)
    assert TR.effective_lr(0, cfg) == pytest.approx(1.0)
    assert TR.effective_lr(100, cfg) == pytest.approx(0.0, abs=1e-15)
    half = TR.TrainConfig(steps=100, batch_size=128, lr_base=1.0)
    assert TR.effective_lr(0, half) == pytest.approx(0.5)

    corpus = S.generate(S.SceneSpec(seed=2, size=(32, 32)), 6)
    run_cfg = TR.TrainConfig(steps=5, batch_size=2, out_size=32, corpus_images=6,
                             kmeans_iters=3)
    state = TR.init_state(run_cfg)
    target0 = {k: v.data.copy() for k, v in state.pair.target.items()}
    trajectory, taus = [], []
    for _ in range(5):
        row = TR.train_step(state, corpus)
        trajectory.append({k: v.data.copy() for k, v in state.pair.online.items()})
        taus.append(row.tau)
    expected = target0
    for theta, tau in zip(trajectory, taus):
        expected = {k: tau * expected[k] + (1.0 - tau) * theta[k] for k in expected}
    for name, want in expected.items():
        assert np.allclose(state.pair.target[name].data, want, atol=1e-12)
    announce(6, "EMA endpoints, schedule endpoints, lr scaling, and 5-step EMA "
                "recurrence at 1e-12 all hold")


def test_criterion_7_default_run_non_collapse(default_run):
    assert default_run.elapsed < 600.0
    losses = [m.loss for m in default_run.metrics]
    first, last = smoothed_endpoints(losses, window=25)
    assert last < first
    fstds = [m.feature_std for m in default_run.metrics]
    assert min(fstds) > 0.1
    assert all(np.isfinite(losses))
    announce(7, f"300-step default run in {default_run.elapsed:.0f}s; smoothed loss "
                f"{first:+.4f} -> {last:+.4f}; feature_std floor {min(fstds):.3f} > 0.1")


def test_criterion_8_representation_probe(default_run):
    cfg = default_run.cfg
    held_out = S.generate(S.SceneSpec(seed=cfg.seed + TR.EVAL_SEED_OFFSET,
                                      size=(cfg.out_size, cfg.out_size)),
                          cfg.eval_images)
    report = paired_probe(default_run.state, held_out)
    assert report.ari_instance > report.ari_instance_random
    assert report.margin_instance == pytest.approx(
        report.ari_instance - report.ari_instance_random)
    announce(8, f"trained ARI-instance {report.ari_instance:+.4f} strictly exceeds "
                f"random-init {report.ari_instance_random:+.4f} "
                f"(margin {report.margin_instance:+.4f})")


VARIANTS = ([{"loss_mode": m} for m in ("cluster", "wo_kmeans", "moco")]
            + [{"alignment": a} for a in ("roi", "offset", "none")]
            + [{"normalize_offset": v} for v in (True, False)]
            + [{"dense": v} for v in (True, False)]
            # residual=auto resolves to False at the default offset alignment and
            # to True at roi alignment, so residual=False changes the model there
            + [{"residual": True}, {"residual": False},
               {"alignment": "roi", "residual": False}]
            + [{"k": k} for k in (3, 4, 5)])


@pytest.mark.parametrize("extra", VARIANTS, ids=str)
def test_criterion_9_variants_are_valid_configs(extra):
    pairs = [(key, str(value).lower()) for key, value in extra.items()]
    assert TR.config_from_pairs(pairs) == TR.TrainConfig(**extra)


def test_criterion_9_variant_coverage():
    base = dict(steps=100, batch_size=4, corpus_images=24, eval_images=8,
                kmeans_iters=6)
    corpus = S.generate(S.SceneSpec(seed=0, size=(64, 64)), base["corpus_images"])
    summaries = []
    runs = {}  # variants whose configs are equal share one run
    for extra in VARIANTS:
        cfg = TR.TrainConfig(**base, **extra)
        key = TR.config_to_text(cfg)
        if key not in runs:
            runs[key] = [m.loss for m in TR.run_training(cfg, corpus)[1]]
        losses = runs[key]
        assert all(np.isfinite(losses)), extra
        first, last = smoothed_endpoints(losses, window=15)
        assert last < first, f"{extra}: smoothed loss {first} -> {last}"
        summaries.append(f"{extra}: {first:+.3f}->{last:+.3f}")
    announce(9, f"all {len(VARIANTS)} ablation variants ({len(runs)} distinct configs) finite "
                "and decreasing")
    for line in summaries:
        print("   ", line)


def test_criterion_10_reproducibility(tmp_path):
    cfg = TR.TrainConfig(steps=6, batch_size=2, out_size=32, corpus_images=8,
                         kmeans_iters=3)
    corpus = S.generate(S.SceneSpec(seed=cfg.seed, size=(32, 32)), cfg.corpus_images)

    full_state, full_metrics = TR.run_training(cfg, corpus)

    head = TR.init_state(cfg)
    head_metrics = [TR.train_step(head, corpus) for _ in range(3)]
    CK.save_checkpoint(head, tmp_path / "head.ckpt")
    resumed = CK.load_checkpoint(tmp_path / "head.ckpt")
    tail_metrics = []
    while resumed.step < cfg.steps:
        tail_metrics.append(TR.train_step(resumed, corpus))
    assert head_metrics + tail_metrics == full_metrics
    for name, p in full_state.pair.online.items():
        assert np.array_equal(resumed.pair.online[name].data, p.data)
    for name, p in full_state.pair.target.items():
        assert np.array_equal(resumed.pair.target[name].data, p.data)

    args = ["--steps=5", "--batch_size=2", "--corpus_images=6", "--eval_images=4",
            "--out_size=32", "--kmeans_iters=3"]
    assert cli.main(["train", "--out", str(tmp_path / "a")] + args) == 0
    assert cli.main(["train", "--out", str(tmp_path / "b")] + args) == 0
    metrics_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    assert metrics_a == (tmp_path / "b" / "metrics.jsonl").read_bytes()
    rows = [json.loads(line) for line in metrics_a.decode().splitlines()]
    assert [r["step"] for r in rows] == list(range(5))
    announce(10, "checkpoint resume continues bitwise; identical seeds give "
                 "byte-identical metrics.jsonl")
