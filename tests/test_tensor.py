import numpy as np
import pytest

from multisiam import tensor as T
from multisiam.tensor import Tensor


def randt(rng, shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def test_add_and_relu_values():
    assert np.array_equal(T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])
    assert np.array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_relu_bytes_and_nan():
    # for finite inputs, signed zeros and subnormals included, the bytes are
    # those of the masked select; a NaN propagates instead of reading 0
    x = np.array([-0.0, 0.0, -5e-324, 5e-324, -1.5, 2.5, -np.inf, np.inf])
    x = np.concatenate([x, np.random.default_rng(0).standard_normal(64)])
    t = Tensor(x, requires_grad=True)
    out = T.relu(t)
    assert out.data.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    T.backward(T.reduce_sum(out))
    assert t.grad.tobytes() == (x > 0).astype(np.float64).tobytes()
    assert np.isnan(T.relu(Tensor([np.nan, -1.0])).data).tolist() == [True, False]


def test_mul_gradient_matches_partner_value():
    a = Tensor(3.0, requires_grad=True)
    b = Tensor(5.0, requires_grad=True)
    out = T.mul(a, b)
    T.backward(out)
    assert a.grad == pytest.approx(5.0)
    assert b.grad == pytest.approx(3.0)


def test_binary_shape_mismatch_names_both_shapes():
    # shapes numpy would broadcast are rejected too
    for a, b in [((3,), (4,)), ((3, 1), (3, 4)), ((4,), (3, 4))]:
        for op in (T.add, T.sub, T.mul):
            with pytest.raises(T.ShapeError) as err:
                op(Tensor(np.zeros(a)), Tensor(np.zeros(b)))
            assert str(a) in str(err.value) and str(b) in str(err.value), op


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((3, 1, 5, 5)))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = T.conv2d(x, Tensor(w))
    assert np.array_equal(out.data, x.data)


def test_conv2d_hand_convolution():
    x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, w, stride=1, pad=1)
    assert np.array_equal(out.data, [[[[10.0, 10.0], [10.0, 10.0]]]])


def test_conv2d_rejects_non_integral_output():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    w = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(T.ShapeError):
        T.conv2d(x, w, stride=2, pad=1)


# 64 and 48 output pixels, as in every downsampling stage of the 64x64 and
# 32x32 backbones. Both graphs multiply the same kernel rows with the same
# columns, so the values agree bit for bit as long as BLAS rounds a column
# the same way whatever the matrix width; OpenBLAS does so for widths that
# are a multiple of 8.
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("h,w", [(16, 16), (16, 12)])
def test_strided_conv_equals_subsampled_conv(seed, h, w):
    rng = np.random.default_rng(seed)
    arrays = (rng.standard_normal((3, 1, h, w)), rng.standard_normal((4, 3, 3, 3)),
              rng.standard_normal(4))
    direction = Tensor(rng.standard_normal((4, 1, h // 2, w // 2)))
    graphs = []
    for build in (lambda x, k, b: T.conv2d(x, k, 2, (1, 0), b),
                  lambda x, k, b: T.subsample(T.conv2d(x, k, 1, 1, b), 2)):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = build(*leaves)
        T.backward(T.reduce_sum(T.mul(out, direction)))
        graphs.append((out, leaves))
    (strided, s_leaves), (full, f_leaves) = graphs
    assert strided.shape == (4, 1, h // 2, w // 2)
    assert strided.data.tobytes() == full.data.tobytes()
    for a, b in zip(s_leaves, f_leaves):
        assert np.allclose(a.grad, b.grad, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("pad", [-1, (1, -1), (1,), (1, 0, 0), 1.0, (1.0, 0), "1", True, None])
def test_conv2d_rejects_bad_pad(pad):
    x = Tensor(np.zeros((1, 1, 4, 4)))
    w = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(T.ShapeError, match="pad must be"):
        T.conv2d(x, w, stride=1, pad=pad)


@pytest.mark.parametrize("seed", range(5))
def test_conv2d_gradient_finite_difference(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, (1, 1, 4, 4))
    w = randt(rng, (2, 1, 3, 3))
    b = randt(rng, (2,))

    report = T.finite_difference_check(
        lambda x_, w_, b_: T.reduce_sum(T.mul(T.conv2d(x_, w_, stride=1, pad=1, bias=b_),
                                              T.conv2d(x_, w_, stride=1, pad=1, bias=b_))),
        [x, w, b], name="conv2d")
    assert report.max_relative_error < 1e-6


def test_subsample_roundtrip_gradient():
    rng = np.random.default_rng(3)
    x = randt(rng, (2, 4, 4))
    out = T.subsample(x, 2)
    assert out.shape == (2, 2, 2)
    assert np.array_equal(out.data, x.data[:, ::2, ::2])
    T.backward(T.reduce_sum(out))
    expect = np.zeros((2, 4, 4))
    expect[:, ::2, ::2] = 1.0
    assert np.array_equal(x.grad, expect)


def test_global_avg_pool_values():
    const = Tensor(np.full((4, 1, 3, 3), 7.0))
    assert np.allclose(T.global_avg_pool(const).data, np.full((4, 1, 1, 1), 7.0))
    single = Tensor(np.arange(6.0).reshape(6, 1, 1, 1))
    assert T.global_avg_pool(single).shape == (6, 1, 1, 1)
    assert np.allclose(T.global_avg_pool(single).data, np.arange(6.0).reshape(6, 1, 1, 1))
    quad = Tensor([[[[1.0, 3.0], [5.0, 7.0]]]])
    assert T.global_avg_pool(quad).data[0, 0, 0, 0] == pytest.approx(4.0)


def test_l2_normalize_values_and_zero_guard():
    out = T.l2_normalize(Tensor([3.0, 4.0]))
    assert np.allclose(out.data, [0.6, 0.8])
    zero = T.l2_normalize(Tensor([0.0, 0.0]))
    assert np.array_equal(zero.data, [0.0, 0.0])
    assert np.all(np.isfinite(zero.data))


def normalize_inputs():
    """Contiguous and strided arrays, each with an all-zero slice along both
    axes 0 and -1."""
    rng = np.random.default_rng(21)
    base = rng.standard_normal((6, 5, 4))
    base[2] = 0.0
    base[:, :, 1] = 0.0
    return [base, base.transpose(2, 0, 1), base[::2, :, ::-1], base.reshape(30, 4).T]


@pytest.mark.parametrize("index", range(4), ids=["contiguous", "transposed", "sliced", "2d"])
@pytest.mark.parametrize("axis", [0, -1])
def test_unit_normalize_gives_the_bytes_and_layout_of_l2_normalize(index, axis):
    x = normalize_inputs()[index]
    got, norms = T.unit_normalize(x, axis, with_norms=True)
    taped = T.l2_normalize(Tensor(x), axis).data
    # the formula itself, with a fresh quotient array
    norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    want = x / np.maximum(norm, 1e-12)
    for out in (got, taped):
        assert out.tobytes() == want.tobytes() and out.strides == want.strides
    assert norms.tobytes() == np.maximum(norm, 1e-12).tobytes()
    assert T.unit_normalize(x, axis).tobytes() == want.tobytes()
    assert np.isfinite(got).all() and (got[x == 0.0] == 0.0).all()  # zero slices stay zero


@pytest.mark.parametrize("seed", range(5))
def test_l2_normalize_gradient(seed):
    rng = np.random.default_rng(seed)
    v = randt(rng, (6,))
    d = Tensor(rng.standard_normal(6))
    report = T.finite_difference_check(
        lambda v_: T.reduce_sum(T.mul(T.l2_normalize(v_), d)), [v], name="l2_normalize")
    assert report.max_relative_error < 1e-6


def test_backward_linear_and_quadratic():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    T.backward(T.reduce_sum(w))
    assert np.array_equal(w.grad, np.ones(3))

    T.zero_grads([w])
    T.backward(T.reduce_sum(T.mul(w, w)))
    assert np.allclose(w.grad, 2.0 * w.data)


def test_backward_rejects_non_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(t)


def test_backward_accumulates_over_reuse():
    x = Tensor(2.0, requires_grad=True)
    out = T.add(T.mul(x, x), x)  # x^2 + x
    T.backward(out)
    assert x.grad == pytest.approx(5.0)


def test_matmul_transpose_reshape_concat_gradients():
    rng = np.random.default_rng(7)
    a = randt(rng, (3, 4))
    b = randt(rng, (4, 2))

    def f(a_, b_):
        prod = T.matmul(a_, b_)
        both = T.concat([prod, T.transpose(T.matmul(T.transpose(b_), T.transpose(a_)))], axis=1)
        return T.reduce_sum(T.mul(T.reshape(both, (12,)), T.reshape(both, (12,))))

    report = T.finite_difference_check(f, [a, b], name="matmul_chain")
    assert report.max_relative_error < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_logsumexp_matches_naive_and_grad(seed):
    rng = np.random.default_rng(seed)
    x = randt(rng, (3, 5))
    out = T.logsumexp(x, axis=1)
    naive = np.log(np.exp(x.data).sum(axis=1))
    assert np.allclose(out.data, naive, atol=1e-12)
    d = Tensor(rng.standard_normal(3))
    report = T.finite_difference_check(
        lambda x_: T.reduce_sum(T.mul(T.logsumexp(x_, axis=1), d)), [x], name="logsumexp")
    assert report.max_relative_error < 1e-6


def test_reduce_mean_axis():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = T.reduce_mean(x, axis=0)
    assert np.allclose(out.data, [1.5, 2.5, 3.5])
    T.backward(T.reduce_sum(out))
    assert np.allclose(x.grad, np.full((2, 3), 0.5))


def test_finite_difference_check_identity_and_relu():
    x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
    ident = T.finite_difference_check(lambda x_: T.reduce_sum(x_), [x], name="identity")
    assert ident.max_relative_error < 1e-10

    away = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    rep = T.finite_difference_check(lambda x_: T.reduce_sum(T.relu(x_)), [away], name="relu")
    assert rep.max_relative_error < 1e-6


def test_finite_difference_check_rejects_non_finite():
    x = Tensor(np.array([1.0]), requires_grad=True)

    def exploding(x_):
        return T.reduce_sum(T.mul(x_, Tensor([np.inf])))

    with pytest.raises(ValueError):
        T.finite_difference_check(exploding, [x], name="bad")


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = randt(rng, (2, 1, 4, 4))
        w = randt(rng, (3, 2, 3, 3))
        out = T.reduce_sum(T.relu(T.conv2d(x, w, pad=1)))
        T.backward(out)
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_tape_is_freed_after_backward():
    x = Tensor(np.ones(2), requires_grad=True)
    mid = T.mul(x, x)
    out = T.reduce_sum(mid)
    T.backward(out)
    assert mid._parents == () and mid._backward_fn is None
