import numpy as np
import pytest

from multisiam import model as M
from multisiam import tensor as T
from multisiam.tensor import Tensor


DESK = M.ModelConfig()

TOY = M.ModelConfig(widths=(4, 2), downsample=(True, False), proj2d_hidden=3,
                    proj2d_out=2, pred2d_hidden=3, proj1d_hidden=4, embed_dim=3,
                    pred1d_hidden=4, alignment="offset")


def make_pair(cfg=DESK, seed=0):
    return M.init_siamese_pair(cfg, np.random.default_rng(seed))


def test_backbone_output_shape_and_determinism():
    pair = make_pair()
    rng = np.random.default_rng(1)
    view = rng.random((3, 64, 64))
    out = M.backbone_forward(pair.online, view, DESK)
    assert out.shape == (32, 8, 8)
    again = M.backbone_forward(pair.online, view, DESK)
    assert np.array_equal(out.data, again.data)


@pytest.mark.parametrize("seed", range(3))
def test_backbone_matches_full_resolution_conv_then_subsample(seed):
    # reference: every stage as a full-resolution conv, then every second row
    # and column of each downsampling stage's output; the same bytes expected
    pair = make_pair(seed=seed)
    view = np.random.default_rng(seed + 10).random((3, 64, 64))
    x = Tensor(view[:, None])
    for idx, down in enumerate(DESK.downsample, start=1):
        x = T.conv2d(x, pair.online[f"backbone.conv{idx}.w"], stride=1, pad=1,
                     bias=pair.online[f"backbone.conv{idx}.b"])
        if idx != len(DESK.downsample):
            x = T.relu(x)
        if down:
            x = T.subsample(x, 2)
    out = M.backbone_forward(pair.online, view, DESK)
    assert out.data.tobytes() == x.data[:, 0].tobytes()


def test_backbone_rejects_indivisible_extents():
    pair = make_pair()
    with pytest.raises(ValueError):
        M.backbone_forward(pair.online, np.zeros((3, 60, 64)), DESK)


def test_zeroed_final_conv_yields_bias_map():
    pair = make_pair()
    pair.online["backbone.conv4.w"].data[:] = 0.0
    bias = np.linspace(-1.5, 3.2, 32)  # negative entries must survive verbatim
    pair.online["backbone.conv4.b"].data[:] = bias
    view = np.random.default_rng(2).random((3, 64, 64))
    out = M.backbone_forward(pair.online, view, DESK)
    assert np.allclose(out.data, bias[:, None, None], atol=1e-12)


def test_projector_is_pointwise_equivariant():
    pair = make_pair()
    rng = np.random.default_rng(3)
    fmap = Tensor(rng.random((32, 1, 4, 4)))
    out = M.project_2d(pair.online, fmap).data
    perm = rng.permutation(16)
    shuffled = Tensor(fmap.data.reshape(32, 16)[:, perm].reshape(32, 1, 4, 4))
    out_shuffled = M.project_2d(pair.online, shuffled).data
    assert np.allclose(out.reshape(-1, 16)[:, perm], out_shuffled.reshape(-1, 16), atol=1e-12)
    assert out.shape == (32, 1, 4, 4)  # spatial extent preserved


def test_predictor_channel_contract_in_offset_mode():
    pair = make_pair()  # offset alignment: predictor expects proj2d_out + 2
    ok = Tensor(np.random.default_rng(4).random((34, 1, 8, 8)))
    assert M.predict_local(pair.online, ok).shape == (32, 1, 8, 8)
    with pytest.raises(ValueError):
        M.predict_local(pair.online, Tensor(np.zeros((32, 1, 8, 8))))


def test_roi_mode_predictor_has_no_extra_channels():
    cfg = M.ModelConfig(alignment="roi")
    pair = M.init_siamese_pair(cfg, np.random.default_rng(0))
    assert pair.online["pred2d.conv1.w"].shape[1] == cfg.proj2d_out


def test_project_predict_1d_dims_and_target_path():
    pair = make_pair()
    fmap = Tensor(np.random.default_rng(5).random((32, 1, 8, 8)))
    q = M.project_predict_1d(pair.online, fmap, with_predictor=True)
    z = M.project_predict_1d(pair.online, fmap, with_predictor=False)
    assert q.shape == (64, 1) and z.shape == (64, 1)
    assert not np.allclose(q.data, z.data)  # the predictor actually runs
    q2 = M.project_predict_1d(pair.online, fmap, with_predictor=True)
    assert np.array_equal(q.data, q2.data)


def test_attention_single_pixel_passthrough():
    rng = np.random.default_rng(6)
    amap = Tensor(rng.random((5, 1, 1, 1)))
    local = Tensor(rng.random((3, 1, 1, 1)))
    out = M.self_attention_predict(amap, local)
    assert np.allclose(out.data, local.data, atol=1e-12)


def test_attention_constant_field_scales_by_pixel_count():
    rng = np.random.default_rng(7)
    vec = rng.random(4)
    amap = Tensor(np.tile(vec[:, None, None, None], (1, 1, 3, 3)))
    local = Tensor(np.tile(rng.random(2)[:, None, None, None], (1, 1, 3, 3)))
    out = M.self_attention_predict(amap, local)
    assert np.allclose(out.data, 9.0 * local.data, atol=1e-9)


def test_attention_orthogonal_pixels_reduce_to_local():
    amap = Tensor(np.array([[[[1.0, 0.0]]], [[[0.0, 1.0]]]]))  # 2 channels, one 1x2 map
    local = Tensor(np.random.default_rng(8).random((3, 1, 1, 2)))
    out = M.self_attention_predict(amap, local)
    assert np.allclose(out.data, local.data, atol=1e-12)
    with_res = M.self_attention_predict(amap, local, residual=True)
    assert np.allclose(with_res.data, 2.0 * local.data, atol=1e-12)


@pytest.mark.parametrize("residual", [False, True])
def test_attention_gradient(residual):
    rng = np.random.default_rng(9)
    amap = Tensor(rng.standard_normal((3, 1, 2, 2)) + 1.5, requires_grad=True)
    local = Tensor(rng.standard_normal((2, 1, 2, 2)), requires_grad=True)
    d = Tensor(rng.standard_normal((2, 1, 2, 2)))
    rep = T.finite_difference_check(
        lambda a, l: T.reduce_sum(T.mul(M.self_attention_predict(a, l, residual), d)),
        [amap, local], name="self_attention_predict")
    assert rep.max_relative_error < 1e-4


def test_attention_direction_invariance_under_loss():
    from multisiam.objectives import loss_2d_wo_kmeans
    rng = np.random.default_rng(10)
    amap = Tensor(rng.random((3, 1, 2, 2)))
    local = Tensor(rng.random((3, 1, 2, 2)))
    target = rng.random((3, 1, 2, 2))
    base = loss_2d_wo_kmeans(M.self_attention_predict(amap, local), target).data.item()
    scaled = loss_2d_wo_kmeans(M.self_attention_predict(amap, T.scale(local, 7.5)),
                               target).data.item()
    assert scaled == pytest.approx(base, abs=1e-12)


def test_ema_update_endpoints_and_value():
    pair = make_pair(TOY)
    before = {k: v.data.copy() for k, v in pair.target.items()}
    for p in pair.online.values():
        p.data += 1.0

    M.ema_update(pair, 1.0)
    for name in before:
        assert np.array_equal(pair.target[name].data, before[name])

    M.ema_update(pair, 0.0)
    for name, p in pair.online.items():
        assert np.array_equal(pair.target[name].data, p.data)

    one = M.SiamesePair(online={"w": Tensor(np.zeros(1))}, target={"w": Tensor(np.ones(1))})
    M.ema_update(one, 0.996)
    assert one.target["w"].data[0] == pytest.approx(0.996)

    with pytest.raises(ValueError):
        M.ema_update(pair, 1.5)


def test_ema_affine_composition():
    pair = make_pair(TOY, seed=3)
    snapshot = {k: v.data.copy() for k, v in pair.target.items()}
    for p in pair.online.values():
        p.data += 0.5
    M.ema_update(pair, 0.9)
    once = {k: v.data.copy() for k, v in pair.target.items()}

    for k, v in pair.target.items():
        v.data = snapshot[k].copy()
    M.ema_update(pair, 0.9)
    M.ema_update(pair, 1.0)
    for k in once:
        assert np.array_equal(pair.target[k].data, once[k])


def test_momentum_schedule_endpoints_and_midpoint():
    assert M.momentum_schedule(0, 100, 0.996) == pytest.approx(0.996)
    assert M.momentum_schedule(100, 100, 0.996) == pytest.approx(1.0)
    assert M.momentum_schedule(50, 100, 0.996) == pytest.approx(0.998)
    with pytest.raises(ValueError):
        M.momentum_schedule(101, 100, 0.996)


def test_target_branch_never_requires_grad():
    pair = make_pair()
    view = Tensor(np.random.default_rng(11).random((3, 1, 64, 64)))
    fmap = M.backbone_forward(pair.target, view, DESK)
    g = M.project_2d(pair.target, fmap)
    z = M.project_predict_1d(pair.target, fmap, with_predictor=False)
    assert not fmap.requires_grad and not g.requires_grad and not z.requires_grad


def test_stop_gradient_through_full_loss():
    from multisiam.objectives import loss_1d
    pair = make_pair(TOY)
    rng = np.random.default_rng(12)
    view = Tensor(rng.random((3, 1, 8, 8)))
    q = M.project_predict_1d(pair.online, M.backbone_forward(pair.online, view, TOY), True)
    z = M.project_predict_1d(pair.target, M.backbone_forward(pair.target, view, TOY), False)
    T.backward(T.reduce_sum(loss_1d(q, z.data)))
    assert all(p.grad is None for p in pair.target.values())
    assert any(p.grad is not None for p in pair.online.values())


@pytest.mark.parametrize("size", [64, 32])
def test_batched_backbone_equals_single_view_forward(size):
    pair = make_pair()
    views = np.random.default_rng(size).random((3, 16, size, size))
    batched = M.backbone_forward(pair.online, Tensor(views), DESK)
    assert batched.shape == (32, 16, size // 8, size // 8)
    for i in range(views.shape[1]):
        single = M.backbone_forward(pair.online, views[:, i].copy(), DESK)
        assert np.array_equal(batched.data[:, i], single.data)
