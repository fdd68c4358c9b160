"""Finite-difference verification suite over every differentiable operation.

Each case builds small random tensors (bounded away from relu kinks where the
op has them), composes the operation into a scalar, and compares backward
grads against central differences. Feature maps are [C,N,H,W] batches, as in
training: of one sample in most cases, of several in the ``*_batched`` and
``*_per_sample`` cases. The full-loss cases run the training loss itself,
``train.image_loss``, on a batch of two images whose views differ in flip
flags and boxes, on a toy network with every parameter checked: one case per
loss mode (cluster, wo_kmeans, moco) and per alignment (offset, roi, none),
with self-attention off, the dense loss and symmetrization among them.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from . import model as M
from . import objectives as O
from . import tensor as T
from .align import flip_back, roi_align
from .tensor import GradCheckReport, Tensor, finite_difference_check
from .train import TrainConfig, image_loss
from .views import Box, NEUTRAL_PHOTO, ViewSpec

__all__ = ["run_gradient_suite", "GRADCHECK_TOLERANCE"]

GRADCHECK_TOLERANCE = 1e-4

TOY = M.ModelConfig(widths=(4, 2), downsample=(True, False), proj2d_hidden=3,
                    proj2d_out=2, pred2d_hidden=3, proj1d_hidden=4, embed_dim=3,
                    pred1d_hidden=4, alignment="offset")


def _away_from_zero(rng, shape, margin=0.15):
    vals = rng.standard_normal(shape)
    return np.where(np.abs(vals) < margin, np.sign(vals) * margin + vals, vals)


def _dot_with(direction):
    d = Tensor(direction)

    def reduce(out):
        return T.reduce_sum(T.mul(out, d))

    return reduce


def _case_pointwise(rng):
    a = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
    b = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)

    def f(a_, b_):
        mixed = T.add(T.mul(a_, b_), T.sub(T.scale(a_, 1.7), T.negate(b_)))
        return T.reduce_sum(T.relu(mixed))

    return finite_difference_check(f, [a, b], name="pointwise")


def _case_conv2d(rng):
    x = Tensor(rng.standard_normal((2, 1, 6, 6)), requires_grad=True)
    w3 = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
    b3 = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    w1 = Tensor(rng.standard_normal((2, 3, 1, 1)) * 0.5, requires_grad=True)
    reduce = _dot_with(rng.standard_normal((2, 1, 3, 3)))
    # the backbone's downsampling op: stride 2, one row and column of padding
    # before and none after
    reduce_down = _dot_with(rng.standard_normal((3, 1, 3, 3)))

    def f(x_, w3_, b3_, w1_):
        mid = T.conv2d(x_, w3_, stride=1, pad=1, bias=b3_)
        down = T.conv2d(x_, w3_, stride=2, pad=(1, 0), bias=b3_)
        return T.add(reduce(T.subsample(T.conv2d(mid, w1_), 2)), reduce_down(down))

    return finite_difference_check(f, [x, w3, b3, w1], name="conv2d")


def _case_conv2d_batched(rng):
    x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w3 = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
    b3 = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    w1 = Tensor(rng.standard_normal((2, 3, 1, 1)) * 0.5, requires_grad=True)
    reduce_same = _dot_with(rng.standard_normal((2, 3, 6, 6)))
    reduce_down = _dot_with(rng.standard_normal((3, 3, 3, 3)))

    def f(x_, w3_, b3_, w1_):
        same = T.conv2d(T.conv2d(x_, w3_, stride=1, pad=1, bias=b3_), w1_)
        down = T.conv2d(x_, w3_, stride=2, pad=(1, 0), bias=b3_)
        return T.add(reduce_same(same), reduce_down(down))

    return finite_difference_check(f, [x, w3, b3, w1], name="conv2d_batched")


def _case_pool(rng, samples, name):
    x = Tensor(rng.standard_normal((3, samples, 4, 5)), requires_grad=True)
    reduce = _dot_with(rng.standard_normal((3, samples, 1, 1)))
    return finite_difference_check(lambda x_: reduce(T.global_avg_pool(x_)), [x], name=name)


def _case_l2_normalize(rng):
    v = Tensor(_away_from_zero(rng, (5,)), requires_grad=True)
    m = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
    rv = _dot_with(rng.standard_normal(5))
    rm = _dot_with(rng.standard_normal((3, 2, 2)))

    def f(v_, m_):
        return T.add(rv(T.l2_normalize(v_, axis=0)), rm(T.l2_normalize(m_, axis=0)))

    return finite_difference_check(f, [v, m], name="l2_normalize")


def _case_structured(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    reduce = _dot_with(rng.standard_normal((3, 6)))

    def f(a_, b_):
        prod = T.matmul(a_, b_)
        both = T.concat([prod, T.transpose(prod)], axis=1)
        return reduce(T.reshape(both, (3, 6)))

    return finite_difference_check(f, [a, b], name="matmul_concat_reshape")


def _case_matmul_stacked(rng):
    a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2, 3)), requires_grad=True)
    reduce = _dot_with(rng.standard_normal((3, 2, 3)))

    def f(a_, b_):
        return reduce(T.transpose(T.matmul(a_, T.transpose(b_, (1, 0, 2))), (1, 0, 2)))

    return finite_difference_check(f, [a, b], name="matmul_stacked")


def _case_select(rng):
    x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    reduce_a = _dot_with(rng.standard_normal((2, 4)))
    reduce_b = _dot_with(rng.standard_normal((3, 4)))

    def f(x_):
        return T.add(reduce_a(T.select(x_, 2)), reduce_b(T.select(x_, 1, axis=1)))

    return finite_difference_check(f, [x], name="select")


def _case_logsumexp(rng):
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    reduce = _dot_with(rng.standard_normal(4))
    return finite_difference_check(lambda x_: reduce(T.logsumexp(x_, axis=1)), [x],
                                   name="logsumexp")


def _case_flip_back(rng, flags, name):
    x = Tensor(rng.standard_normal((2, len(flags), 3, 4)), requires_grad=True)
    reduce = _dot_with(rng.standard_normal((2, len(flags), 3, 4)))
    return finite_difference_check(lambda x_: reduce(flip_back(x_, flags)), [x], name=name)


def _random_roi(rng):
    x0, y0 = rng.uniform(0.02, 0.4, 2)
    return Box(float(x0), float(y0), float(x0 + rng.uniform(0.3, 0.55)),
               float(y0 + rng.uniform(0.3, 0.55)))


def _case_roi_align(rng, samples, name):
    x = Tensor(rng.standard_normal((2, samples, 5, 5)), requires_grad=True)
    rois = [_random_roi(rng) for _ in range(samples)]
    reduce = _dot_with(rng.standard_normal((2, samples, 3, 3)))
    return finite_difference_check(lambda x_: reduce(roi_align(x_, rois, 3, 3)), [x], name=name)


def _toy_pair(rng, cfg=TOY):
    pair = M.init_siamese_pair(cfg, rng)
    # keep relu pre-activations away from exact kinks and dead corners:
    # zero-initialized biases would sit exactly at the relu breakpoint
    for name, p in pair.online.items():
        if name.endswith(".b"):
            p.data += rng.uniform(0.05, 0.2, size=p.shape)
        else:
            p.data += rng.normal(0.0, 0.02, size=p.shape)
        pair.target[name].data = p.data + rng.normal(0.0, 0.05, size=p.shape)
    return pair


def _case_projector(rng):
    pair = _toy_pair(rng)
    fmap = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
    reduce = _dot_with(rng.standard_normal((2, 1, 3, 3)))
    inputs = [fmap] + [pair.online[k] for k in sorted(pair.online) if k.startswith("proj2d")]

    def f(fmap_, *_params):
        return reduce(M.project_2d(pair.online, fmap_))

    return finite_difference_check(f, inputs, name="projector_2d")


def _case_predictor(rng):
    pair = _toy_pair(rng)
    rmap = Tensor(rng.standard_normal((4, 1, 3, 3)), requires_grad=True)  # 2 + offset channels
    reduce = _dot_with(rng.standard_normal((2, 1, 3, 3)))
    inputs = [rmap] + [pair.online[k] for k in sorted(pair.online) if k.startswith("pred2d")]

    def f(rmap_, *_params):
        return reduce(M.predict_local(pair.online, rmap_))

    return finite_difference_check(f, inputs, name="predictor_2d")


def _case_heads_1d(rng):
    pair = _toy_pair(rng)
    fmap = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
    reduce = _dot_with(rng.standard_normal((3, 1)))
    heads = [k for k in sorted(pair.online) if k.startswith(("proj1d", "pred1d"))]
    inputs = [fmap] + [pair.online[k] for k in heads]

    def f(fmap_, *_params):
        q = M.project_predict_1d(pair.online, fmap_, with_predictor=True)
        z = M.project_predict_1d(pair.online, fmap_, with_predictor=False)
        return T.add(reduce(q), reduce(z))

    return finite_difference_check(f, inputs, name="heads_1d")


def _case_attention(rng, residual):
    # positive-mean keys keep all pairwise similarities active, away from the
    # clamp's flat region where the true gradient is exactly zero
    amap = Tensor(rng.standard_normal((3, 1, 2, 2)) + 1.5, requires_grad=True)
    local = Tensor(rng.standard_normal((2, 1, 2, 2)), requires_grad=True)
    reduce = _dot_with(rng.standard_normal((2, 1, 2, 2)))

    def f(a_, l_):
        return reduce(M.self_attention_predict(a_, l_, residual=residual))

    name = "self_attention_residual" if residual else "self_attention"
    return finite_difference_check(f, [amap, local], name=name)


def _case_loss_1d(rng):
    q = Tensor(_away_from_zero(rng, (5,)), requires_grad=True)
    z = _away_from_zero(rng, (5,))
    return finite_difference_check(lambda q_: O.loss_1d(q_, z), [q], name="loss_1d")


def _case_loss_cluster(rng, dense):
    target = rng.standard_normal((3, 1, 3, 3))
    cluster = O.kmeans(target[:, 0], 3,
                       rng=np.random.default_rng(int(rng.integers(1 << 30))))
    pred = Tensor(rng.standard_normal((3, 1, 3, 3)), requires_grad=True)

    def f(p_):
        return T.reduce_sum(O.loss_2d_cluster(p_, [cluster], dense=dense, target_map=target))

    name = "loss_2d_cluster_dense" if dense else "loss_2d_cluster"
    return finite_difference_check(f, [pred], name=name)


def _case_loss_wo_kmeans(rng):
    target = rng.standard_normal((3, 1, 2, 3))
    pred = Tensor(rng.standard_normal((3, 1, 2, 3)), requires_grad=True)
    return finite_difference_check(lambda p_: T.reduce_sum(O.loss_2d_wo_kmeans(p_, target)),
                                   [pred], name="loss_2d_wo_kmeans")


def _overlapping_specs(rng, out=(4, 4)):
    x0, y0 = rng.uniform(0.0, 2.0, 2)
    box_a = Box(x0, y0, x0 + rng.uniform(5.0, 6.0), y0 + rng.uniform(5.0, 6.0))
    bx0, by0 = x0 + rng.uniform(0.2, 1.2), y0 + rng.uniform(0.2, 1.2)
    box_b = Box(bx0, by0, bx0 + rng.uniform(5.0, 6.0), by0 + rng.uniform(5.0, 6.0))
    spec_a = ViewSpec(box_a, bool(rng.integers(2)), NEUTRAL_PHOTO, out)
    spec_b = ViewSpec(box_b, bool(rng.integers(2)), NEUTRAL_PHOTO, out)
    return spec_a, spec_b


def _case_loss_moco(rng):
    proj = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    target = rng.standard_normal((2, 2, 4, 4))
    clusters = O.kmeans_batch(target, 2, rng=np.random.default_rng(int(rng.integers(1 << 30))))
    queue = O.NegativeQueue(8, 2)
    queue.push(rng.standard_normal((6, 2)))

    def f(proj_):
        # every evaluation starts from the same queue contents
        return T.reduce_sum(O.moco_pixel_infonce(proj_, target, clusters,
                                                 copy.deepcopy(queue), 0.2))

    return finite_difference_check(f, [proj], name="loss_moco_infonce")


def _case_full_loss(rng, name, **overrides):
    """The training loss of a batch of two images, as train_step builds it,
    on a toy network whose parameters are all checked. The two images' views
    differ in boxes and flip flags, so the per-sample flips, offsets, boxes
    and the pairing of online and target views are all exercised."""
    cfg = replace(TrainConfig(), k=2, **overrides)
    mcfg = replace(TOY, alignment=cfg.alignment)
    pair = _toy_pair(rng, mcfg)
    specs = [tuple(replace(spec, flipped=flip) for spec, flip in zip(_overlapping_specs(rng),
                                                                      flips))
             for flips in ((True, False), (False, True))]
    views = np.stack([rng.random((3, 8, 8)) for _ in range(2 * len(specs))], axis=1)
    seed = int(rng.integers(1 << 30))
    queue = None
    if cfg.loss_mode == "moco":
        queue = O.NegativeQueue(8, mcfg.proj2d_out)
        queue.push(rng.standard_normal((6, mcfg.proj2d_out)))
    params = [pair.online[k] for k in sorted(pair.online)]

    def f(*_params):
        # every evaluation replays the same k-means seeding and queue contents
        return image_loss(pair, cfg, mcfg, views, specs, np.random.default_rng(seed),
                          copy.deepcopy(queue))[0]

    return finite_difference_check(f, params, name=name)


def run_gradient_suite(seeds=range(5)) -> list[GradCheckReport]:
    """All finite-difference cases over the given seeds."""
    reports = []
    for seed in seeds:
        cases = [
            _case_pointwise,
            _case_conv2d,
            _case_conv2d_batched,
            lambda r: _case_pool(r, 1, "global_avg_pool"),
            lambda r: _case_pool(r, 2, "global_avg_pool_batched"),
            _case_l2_normalize,
            _case_structured,
            _case_matmul_stacked,
            _case_select,
            _case_logsumexp,
            lambda r: _case_flip_back(r, [True], "flip_back"),
            lambda r: _case_flip_back(r, [True, False, True], "flip_back_per_sample"),
            lambda r: _case_roi_align(r, 1, "roi_align"),
            lambda r: _case_roi_align(r, 3, "roi_align_per_sample"),
            _case_projector,
            _case_predictor,
            _case_heads_1d,
            lambda r: _case_attention(r, residual=False),
            lambda r: _case_attention(r, residual=True),
            _case_loss_1d,
            lambda r: _case_loss_cluster(r, dense=False),
            lambda r: _case_loss_cluster(r, dense=True),
            _case_loss_wo_kmeans,
            _case_loss_moco,
            lambda r: _case_full_loss(r, "full_loss_offset", symmetrize=False),
            lambda r: _case_full_loss(r, "full_loss_roi_residual", alignment="roi",
                                      symmetrize=False),
            lambda r: _case_full_loss(r, "full_loss_wo_kmeans_none", loss_mode="wo_kmeans",
                                      alignment="none", self_attention=False,
                                      symmetrize=False),
            lambda r: _case_full_loss(r, "full_loss_moco", loss_mode="moco",
                                      symmetrize=False),
            lambda r: _case_full_loss(r, "full_loss_dense_symmetrized", dense=True),
        ]
        for case in cases:
            reports.append(case(np.random.default_rng(seed * 1000 + 17)))
    return reports
