import numpy as np
import pytest

from multisiam import tensor as T
from multisiam.checks import GRADCHECK_TOLERANCE
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


def test_relu_gradient_at_nan_and_zeros():
    # the forward takes the mask x > 0 from the input: a NaN, -0.0 or 0.0
    # input passes no gradient
    x = np.array([np.nan, -0.0, 0.0, 1.0, -1.0, np.nan])
    t = Tensor(x, requires_grad=True)
    T.backward(T.reduce_sum(T.scale(T.relu(t), 3.0)))
    assert t.grad.tobytes() == np.array([0.0, 0.0, 0.0, 3.0, 0.0, 0.0]).tobytes()


@pytest.mark.parametrize("requires_grad", [False, True])
def test_relu_forward_builds_a_mask_only_on_the_tape(requires_grad):
    # off the tape the forward holds the 8 MiB output alone; on it, one 1 MiB
    # bool mask beside it, taken while the input is hot
    import tracemalloc

    x = Tensor(np.random.default_rng(0).standard_normal(1 << 20), requires_grad=requires_grad)
    tracemalloc.start()
    try:
        out = T.relu(x)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = (9 << 20) if requires_grad else (8 << 20)
    assert want <= held <= peak < want + (1 << 19), (held, peak)
    assert out.requires_grad == requires_grad


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


def tap_loop_conv(x, w, b, stride, pad, g):
    """conv2d's output and its (x, w, b) gradients under the upstream gradient
    ``g``, with the im2col columns filled one tap at a time and the input
    gradient scattered back one tap at a time: the oracle of the one-copy
    im2col."""
    cin, n, h, wd = x.shape
    cout, _, kh, kw = w.shape
    before, after = (pad, pad) if isinstance(pad, int) else pad
    ho = (h + before + after - kh) // stride + 1
    wo = (wd + before + after - kw) // stride + 1
    xp = np.zeros((cin, n, h + before + after, wd + before + after))
    xp[:, :, before:before + h, before:before + wd] = x
    cols = np.empty((cin, kh, kw, n, ho, wo))
    taps = [(di, dj, (slice(None), slice(None), slice(di, di + (ho - 1) * stride + 1, stride),
                      slice(dj, dj + (wo - 1) * stride + 1, stride)))
            for di in range(kh) for dj in range(kw)]
    for di, dj, window in taps:
        cols[:, di, dj] = xp[window]
    mat = cols.reshape(cin * kh * kw, n * ho * wo)
    out = w.reshape(cout, -1) @ mat
    out += b[:, None]
    gm = g.reshape(cout, -1)
    dxp = np.zeros_like(xp)
    for di, dj, window in taps:
        dxp[window] += (w[:, :, di, dj].T @ gm).reshape(cin, n, ho, wo)
    return (out.reshape(cout, n, ho, wo), dxp[:, :, before:before + h, before:before + wd],
            (gm @ mat.T).reshape(w.shape), gm.sum(axis=1))


def backbone_convs(n, size):
    """(x shape, w shape, stride, pad) of the four backbone layers on a batch
    of n size x size views."""
    return [((3, n, size, size), (16, 3, 3, 3), 2, (1, 0)),
            ((16, n, size // 2, size // 2), (32, 16, 3, 3), 2, (1, 0)),
            ((32, n, size // 4, size // 4), (32, 32, 3, 3), 2, (1, 0)),
            ((32, n, size // 8, size // 8), (32, 32, 3, 3), 1, 1)]


# the backbone on a batch of 16 64x64 views, a head's 1x1 conv, then 1x1 and
# 3x3 kernels at both strides under both pad forms; then the backbone at the
# other batch widths training runs: 8 and 4 views (a batch of 4, symmetrized
# or one-sided), 6 (a batch of 3) and the tests' 2 views of 32x32. The input
# gradient's GEMMs run on g padded to N*hq*wq columns, which at N=4, 6 or 2 is
# not a multiple of 8.
CONV_CASES = backbone_convs(16, 64) + [
    ((34, 16, 8, 8), (64, 34, 1, 1), 1, 0),
    ((4, 3, 6, 5), (5, 4, 1, 1), 1, 1),
    ((4, 3, 7, 5), (5, 4, 1, 1), 2, 0),
    ((4, 3, 6, 8), (5, 4, 3, 3), 1, (1, 0)),
    ((4, 3, 7, 5), (5, 4, 3, 3), 2, 1),
] + [case for n, size in ((8, 64), (4, 64), (6, 64), (2, 32))
     for case in backbone_convs(n, size)]


@pytest.mark.parametrize("xs,ws,stride,pad", CONV_CASES, ids=str)
def test_conv2d_one_copy_im2col_matches_the_tap_loop(xs, ws, stride, pad):
    rng = np.random.default_rng(sum(xs) + sum(ws))
    arrays = [rng.standard_normal(xs), rng.standard_normal(ws), rng.standard_normal(ws[0])]
    x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
    out = T.conv2d(x, w, stride=stride, pad=pad, bias=b)
    g = rng.standard_normal(out.shape)
    T.backward(T.reduce_sum(T.mul(out, Tensor(g))))
    want = tap_loop_conv(*arrays, stride, pad, g)
    for got, expected in zip((out.data, x.grad, w.grad, b.grad), want):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


# 3x3 at both strides under both pad forms, a 1x1 kernel (the direct GEMM, no
# im2col) with and without a bias, and a strided 1x1
FUSED_RELU_CASES = [
    ((3, 2, 8, 8), (4, 3, 3, 3), 1, 1, True),
    ((3, 2, 8, 8), (4, 3, 3, 3), 2, (1, 0), True),
    ((3, 2, 7, 7), (4, 3, 3, 3), 2, 1, True),
    ((5, 2, 4, 4), (6, 5, 1, 1), 1, 0, True),
    ((5, 2, 4, 4), (6, 5, 1, 1), 1, 0, False),
    ((5, 2, 7, 7), (6, 5, 1, 1), 2, 0, True),
]


@pytest.mark.parametrize("x_on_tape", [True, False])
@pytest.mark.parametrize("xs,ws,stride,pad,with_bias", FUSED_RELU_CASES, ids=str)
def test_conv2d_fused_relu_matches_relu_of_conv2d(xs, ws, stride, pad, with_bias, x_on_tape):
    rng = np.random.default_rng(sum(xs) + sum(ws) + stride)
    arrays = [rng.standard_normal(xs), rng.standard_normal(ws), rng.standard_normal(ws[0])]
    graphs = []
    for fused in (True, False):
        x = Tensor(arrays[0], requires_grad=x_on_tape)
        w, b = Tensor(arrays[1], requires_grad=True), Tensor(arrays[2], requires_grad=True)
        bias = b if with_bias else None
        if fused:
            out = T.conv2d(x, w, stride=stride, pad=pad, bias=bias, relu=True)
        else:
            out = T.relu(T.conv2d(x, w, stride=stride, pad=pad, bias=bias))
        g = np.random.default_rng(7).standard_normal(out.shape)
        T.backward(T.reduce_sum(T.mul(out, Tensor(g))))
        graphs.append((out.data, x.grad, w.grad, b.grad))
    (out, *grads), (want, *want_grads) = graphs
    assert (out > 0).any() and (out == 0).any()
    assert out.tobytes() == want.tobytes()
    assert (grads[0] is None) == (not x_on_tape)
    assert (grads[2] is None) == (not with_bias)
    for got, expected in zip(grads, want_grads):
        assert (got is None and expected is None) or got.tobytes() == expected.tobytes()


def test_conv2d_fused_relu_keeps_nan_and_masks_it():
    # as relu does: a NaN output stays NaN and passes no gradient
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 1, 4, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    b = Tensor(np.array([np.nan, 0.5, -0.5]), requires_grad=True)
    out = T.conv2d(x, w, pad=1, bias=b, relu=True)
    assert np.isnan(out.data[0]).all() and not np.isnan(out.data[1:]).any()
    oracle = T.relu(T.conv2d(Tensor(x.data), Tensor(w.data), pad=1, bias=Tensor(b.data)))
    assert out.data.tobytes() == oracle.data.tobytes()
    T.backward(T.reduce_sum(T.mul(out, Tensor(np.ones(out.shape)))))
    assert b.grad[0] == 0.0 and not w.grad[0].any()
    assert np.isfinite(x.grad).all()


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


def _relu_of_shared(x, y, w):
    h = T.add(x, y)
    return T.add(T.relu(h), T.mul(h, h))


def _conv2d_of_shared(x, y, w):
    h = T.sub(x, y)
    return T.add(T.conv2d(h, w, pad=1), T.relu(h))


def _conv2d_relu_of_shared(x, y, w):
    # the fused relu masks its own grad in place, after both uses added into it
    h = T.conv2d(x, w, pad=1, relu=True)
    return T.add(T.mul(h, y), h)


# graphs over leaves x, y of shape [2,1,4,4] and a 3x3 kernel w that use a
# tensor twice, so that an op's backward meets a grad that another op holds
SHARED_INPUT_GRAPHS = {
    "add": lambda x, y, w: T.add(T.add(x, x), y),
    "sub": lambda x, y, w: T.add(T.sub(x, y), T.sub(x, x)),
    "mul": lambda x, y, w: T.add(T.mul(x, x), T.mul(x, y)),
    "concat": lambda x, y, w: T.concat([x, x, y], axis=0),
    # reshape and concat hand over C-contiguous views of their own grad; a
    # view along axis 1 is not contiguous and is copied
    "reshape": lambda x, y, w: T.mul(T.reshape(T.relu(x), (2, 16)),
                                     T.reshape(T.add(x, y), (2, 16))),
    "concat_axis0": lambda x, y, w: T.relu(T.concat([T.mul(x, y), x, y], axis=0)),
    "concat_axis1": lambda x, y, w: T.relu(T.concat([T.mul(x, y), x, x], axis=1)),
    "relu": lambda x, y, w: T.add(T.relu(x), T.mul(x, y)),
    "relu_of_shared": _relu_of_shared,
    "conv2d": lambda x, y, w: T.concat(
        [T.reshape(T.conv2d(x, w, stride=2, pad=(1, 0)), (8,)),
         T.reshape(T.mul(x, y), (32,))], axis=0),
    "conv2d_of_shared": _conv2d_of_shared,
    "conv2d_relu_of_shared": _conv2d_relu_of_shared,
}


@pytest.mark.parametrize("name", sorted(SHARED_INPUT_GRAPHS))
def test_handed_over_grads_are_never_shared(name):
    # ops hand their own fresh gradients to a tensor instead of copying them;
    # the incoming gradient, which add gives to both operands, is copied
    rng = np.random.default_rng(3)
    x, y = randt(rng, (2, 1, 4, 4)), randt(rng, (2, 1, 4, 4))
    w = randt(rng, (2, 2, 3, 3))
    leaves = [x, y, w]
    graph = SHARED_INPUT_GRAPHS[name]
    shape = graph(*(Tensor(t.data) for t in leaves)).shape
    direction = Tensor(np.random.default_rng(1).standard_normal(shape))

    def f(*ts):
        return T.reduce_sum(T.mul(graph(*ts), direction))

    # the gradient check's own bound: some of these grads are small products,
    # where central differences lose digits, and an aliased grad is off by O(1)
    report = T.finite_difference_check(f, leaves, name=name)
    assert report.max_relative_error < GRADCHECK_TOLERANCE, report
    used = [t for t in leaves if t.grad is not None]
    assert x in used
    for i, a in enumerate(used):
        for b in used[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)
    # a second backward over a fresh graph adds into the same grads exactly,
    # as gradient accumulation over micro-batches does; each leaf enters it
    # through scale(t, 1.0), so it takes one sum, whose bytes are its first grad
    first = [t.grad.copy() for t in used]
    T.backward(f(*(T.scale(t, 1.0) for t in leaves)))
    for t, g in zip(used, first):
        assert t.grad.tobytes() == (g + g).tobytes()


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
