import numpy as np
import pytest

from multisiam import objectives as O
from multisiam import tensor as T
from multisiam.align import (AlignmentError, align_pair, flip_back, intersection_relative,
                             offset_map, roi_align)
from multisiam.model import self_attention_predict
from multisiam.tensor import Tensor
from multisiam.views import Box, NEUTRAL_PHOTO, ViewSpec


def spec_for(box, flipped=False, out=(8, 8)):
    return ViewSpec(box, flipped, NEUTRAL_PHOTO, out)


def naive_bilinear_roi(arr, roi, out_h, out_w):
    """Straightforward per-bin bilinear pooling used as the geometry oracle."""
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


def random_roi(rng):
    x0, y0 = rng.uniform(0.0, 0.6, size=2)
    x1 = rng.uniform(x0 + 0.2, 1.0)
    y1 = rng.uniform(y0 + 0.2, 1.0)
    return Box(float(x0), float(y0), float(x1), float(y1))


def test_flip_back_identity_involution_mirror():
    rng = np.random.default_rng(0)
    m = Tensor(rng.random((3, 1, 4, 4)))
    assert flip_back(m, [False]) is m
    assert np.array_equal(flip_back(flip_back(m, [True]), [True]).data, m.data)

    row = Tensor(np.array([[[[1.0, 2.0]]]]))
    assert np.array_equal(flip_back(row, [True]).data, [[[[2.0, 1.0]]]])
    # channel sums are preserved
    assert flip_back(m, [True]).data.sum(axis=(2, 3)) == pytest.approx(m.data.sum(axis=(2, 3)))


def test_flip_back_involution_and_grad():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 1, 3, 4)), requires_grad=True)
    assert np.array_equal(flip_back(flip_back(x, [True]), [True]).data, x.data)
    d = Tensor(rng.standard_normal((2, 1, 3, 4)))
    report = T.finite_difference_check(
        lambda x_: T.reduce_sum(T.mul(flip_back(x_, [True]), d)), [x], name="flip_back")
    assert report.max_relative_error < 1e-8


@pytest.mark.parametrize("flags", [[], [False, False], [True, True]])
def test_flip_back_rejects_a_mask_that_does_not_fit_the_batch(flags):
    with pytest.raises(AlignmentError, match="flip mask"):
        flip_back(Tensor(np.zeros((2, 1, 3, 4))), flags)


def test_intersection_relative_cases():
    a = spec_for(Box(0, 0, 8, 8))
    ra, rb = intersection_relative(a, a)
    assert (ra.x0, ra.y0, ra.x1, ra.y1) == (0.0, 0.0, 1.0, 1.0)
    assert (rb.x0, rb.y0, rb.x1, rb.y1) == (0.0, 0.0, 1.0, 1.0)

    right_half = spec_for(Box(4, 0, 8, 8))
    ra, rb = intersection_relative(a, right_half)
    assert (ra.x0, ra.y0, ra.x1, ra.y1) == pytest.approx((0.5, 0.0, 1.0, 1.0))
    assert (rb.x0, rb.y0, rb.x1, rb.y1) == pytest.approx((0.0, 0.0, 1.0, 1.0))

    swapped = intersection_relative(right_half, a)
    assert swapped[0] == rb and swapped[1] == ra

    with pytest.raises(AlignmentError):
        intersection_relative(a, spec_for(Box(20, 20, 30, 30)))


def test_roi_align_full_box_identity_is_exact():
    rng = np.random.default_rng(1)
    m = Tensor(rng.random((4, 1, 6, 5)))
    out = roi_align(m, [Box(0, 0, 1, 1)], 6, 5)
    assert np.array_equal(out.data, m.data)


@pytest.mark.parametrize("roi", [Box(-0.1, 0, 1, 1), Box(0, 0, 1.1, 1), Box(0, -0.5, 1, 0.5),
                                 Box(0.5, 0.5, 1, 1.25)])
def test_roi_align_rejects_a_roi_outside_the_unit_square(roi):
    with pytest.raises(AlignmentError, match="leaves the unit square"):
        roi_align(Tensor(np.zeros((2, 1, 4, 4))), [roi], 2, 2)


def test_roi_align_constant_map():
    m = Tensor(np.full((2, 1, 5, 5), 3.25))
    rng = np.random.default_rng(2)
    for _ in range(10):
        out = roi_align(m, [random_roi(rng)], 3, 4)
        assert np.allclose(out.data, 3.25, atol=1e-12)


def test_roi_align_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.random((1, 4, 4))
        roi = random_roi(rng)
        got = roi_align(Tensor(m[:, None]), [roi], 2, 2).data[:, 0]
        want = naive_bilinear_roi(m, roi, 2, 2)
        assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_roi_align_gradient(seed):
    rng = np.random.default_rng(seed)
    m = Tensor(rng.standard_normal((2, 1, 5, 5)), requires_grad=True)
    rois = [random_roi(rng)]
    d = Tensor(rng.standard_normal((2, 1, 3, 3)))
    rep = T.finite_difference_check(
        lambda m_: T.reduce_sum(T.mul(roi_align(m_, rois, 3, 3), d)), [m], name="roi_align")
    assert rep.max_relative_error < 1e-5


@pytest.mark.parametrize("seed", range(5))
def test_roi_align_backward_is_the_adjoint_of_its_forward(seed):
    # <roi_align(x), g> = <x, grad>: the backward applies the transposed
    # weights of the forward, over a strided batch with one roi per sample
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4, 8, 8)), requires_grad=True)
    rois = [random_roi(rng) for _ in range(4)]
    g = rng.standard_normal((3, 4, 5, 6))
    out = roi_align(x, rois, 5, 6)
    T.backward(T.reduce_sum(T.mul(out, Tensor(g))))
    lhs, rhs = np.vdot(out.data, g), np.vdot(x.data, x.grad)
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_offset_map_zero_for_identical_specs():
    spec = spec_for(Box(5, 5, 37, 37))
    om = offset_map(spec, spec, 8, 8, normalize=True)
    assert np.array_equal(om, np.zeros((2, 8, 8)))


def test_offset_map_translation_closed_form():
    h = w = 8
    a = spec_for(Box(10, 12, 42, 44))
    shift = 5.0
    b = spec_for(Box(10 + shift, 12, 42 + shift, 44))
    om = offset_map(a, b, h, w, normalize=True)
    span_x = (w - 1) / w * 32.0
    assert np.max(np.abs(om[0] - shift / span_x)) < 1e-12
    assert np.max(np.abs(om[1])) < 1e-12

    raw = offset_map(a, b, h, w, normalize=False)
    assert np.max(np.abs(raw[0] - shift)) < 1e-12


def test_offset_map_raw_antisymmetry():
    rng = np.random.default_rng(4)
    for _ in range(10):
        vals = rng.uniform(0, 20, size=4)
        a = spec_for(Box(vals[0], vals[1], vals[0] + 10 + vals[2], vals[1] + 10 + vals[3]))
        b = spec_for(Box(vals[1], vals[0], vals[1] + 8 + vals[3], vals[0] + 12 + vals[2]))
        ab = offset_map(a, b, 4, 4, normalize=False)
        ba = offset_map(b, a, 4, 4, normalize=False)
        assert np.allclose(ab, -ba, atol=1e-12)


def test_offset_map_normalized_scale_invariant():
    a = spec_for(Box(2, 3, 20, 25))
    b = spec_for(Box(6, 5, 28, 29))
    base = offset_map(a, b, 6, 6, normalize=True)
    s = 3.5
    sa = spec_for(Box(2 * s, 3 * s, 20 * s, 25 * s))
    sb = spec_for(Box(6 * s, 5 * s, 28 * s, 29 * s))
    scaled = offset_map(sa, sb, 6, 6, normalize=True)
    assert np.allclose(base, scaled, atol=1e-12)


def test_align_pair_modes():
    rng = np.random.default_rng(5)
    g = Tensor(rng.random((3, 1, 8, 8)))
    gp = Tensor(rng.random((3, 1, 8, 8)))
    a = [spec_for(Box(0, 0, 32, 32))]
    b = [spec_for(Box(8, 8, 32, 32))]

    online, target = align_pair(g, gp, a, b, "none")
    assert online is g and target is gp

    online, target = align_pair(g, gp, a, a, "offset")
    assert online.shape == (5, 1, 8, 8)
    assert np.array_equal(online.data[:3], g.data)
    assert np.array_equal(online.data[3:], np.zeros((2, 1, 8, 8)))
    assert target is gp

    online, target = align_pair(g, gp, a, a, "roi")
    assert np.array_equal(online.data, g.data)
    assert np.array_equal(target.data, gp.data)

    with pytest.raises(AlignmentError):
        align_pair(g, gp, a, b, "banana")


def test_roi_mode_correspondence_through_both_views():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x0, y0 = rng.uniform(0, 10, 2)
        a = spec_for(Box(x0, y0, x0 + rng.uniform(15, 30), y0 + rng.uniform(15, 30)))
        bx0, by0 = x0 + rng.uniform(-5, 5), y0 + rng.uniform(-5, 5)
        b = spec_for(Box(bx0, by0, bx0 + rng.uniform(15, 30), by0 + rng.uniform(15, 30)))
        rel_a, rel_b = intersection_relative(a, b)
        h = w = 8
        for i, j in ((0, 0), (3, 5), (7, 7)):
            via = []
            for spec, rel in ((a, rel_a), (b, rel_b)):
                px = rel.x0 + (j + 0.5) / w * (rel.x1 - rel.x0)
                py = rel.y0 + (i + 0.5) / h * (rel.y1 - rel.y0)
                box = spec.box
                via.append((box.x0 + px * (box.x1 - box.x0), box.y0 + py * (box.y1 - box.y0)))
            assert via[0] == pytest.approx(via[1], abs=1e-9)


LONE_MAP = Tensor(np.zeros((2, 4, 4)))
LONE_SPEC = [spec_for(Box(0, 0, 16, 16), out=(4, 4))]
LONE_CLUSTER = O.kmeans(np.random.default_rng(0).standard_normal((2, 4, 4)), 2)


@pytest.mark.parametrize("call,error", [
    (lambda m: T.conv2d(m, Tensor(np.zeros((1, 2, 3, 3))), pad=1), T.ShapeError),
    (lambda m: T.global_avg_pool(m), T.ShapeError),
    (lambda m: flip_back(m, [False]), AlignmentError),
    (lambda m: flip_back(m, [True]), AlignmentError),
    (lambda m: roi_align(m, [Box(0, 0, 1, 1)], 2, 2), AlignmentError),
    (lambda m: align_pair(m, m, LONE_SPEC, LONE_SPEC, "none"), AlignmentError),
    (lambda m: align_pair(m, m, LONE_SPEC, LONE_SPEC, "offset"), AlignmentError),
    (lambda m: align_pair(m, m, LONE_SPEC, LONE_SPEC, "roi"), AlignmentError),
    (lambda m: self_attention_predict(m, m), T.ShapeError),
    (lambda m: O.loss_2d_cluster(m, [LONE_CLUSTER]), T.ShapeError),
    (lambda m: O.loss_2d_wo_kmeans(m, m.data), T.ShapeError),
    (lambda m: O.moco_pixel_infonce(m, np.zeros((2, 1, 4, 4)), [LONE_CLUSTER],
                                    O.NegativeQueue(4, 2), 0.2), T.ShapeError),
], ids=["conv2d", "global_avg_pool", "flip_back_unflipped", "flip_back_flipped", "roi_align",
        "align_pair_none", "align_pair_offset", "align_pair_roi", "self_attention_predict",
        "loss_2d_cluster", "loss_2d_wo_kmeans", "moco_pixel_infonce"])
def test_lone_map_is_rejected_with_typed_error(call, error):
    # feature maps are [C,N,H,W] batches; a lone map must be a batch of one
    with pytest.raises(error, match=r"\[C,N,H,W\]"):
        call(LONE_MAP)
    call(Tensor(LONE_MAP.data[:, None]))
