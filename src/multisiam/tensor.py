"""Dense float64 tensors with taped reverse-mode differentiation.

Every numeric building block of the training pipeline lives here: pointwise
arithmetic, 2D cross-correlation, pooling, normalization, reductions and the
backward pass itself. The tape is a per-forward DAG of closures that is freed
as soon as backward() has consumed it; no higher-order derivatives.

backward() writes each gradient once. An op hands a gradient array it has just
allocated to its operand as it is; the incoming gradient, its views and its
broadcasts are copied once, since add gives one array to both operands.

Every op takes Tensors and returns one, and converts nothing: a constant
that joins the tape is wrapped in a Tensor by its caller, and a value that
never joins it stays a plain ndarray (``unit_normalize`` normalizes those).
``add``, ``sub`` and ``mul`` take two operands of one shape: nothing broadcasts.

Feature maps are channel-major batches [C,N,H,W]; a lone map is a batch of one.

Importing this module asks glibc's allocator to keep up to 64 MiB of freed
memory at the top of the heap (``mallopt(M_TOP_PAD)``) instead of returning it
to the kernel, and to take every block under 32 MiB from that heap
(``M_MMAP_THRESHOLD``). A training step frees its whole tape at the end of
backward() and the next step allocates the same sizes again; without the pad
every step faults that memory back in. Where there is no glibc ``mallopt``
nothing changes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GradCheckReport",
    "add",
    "sub",
    "mul",
    "scale",
    "negate",
    "relu",
    "conv2d",
    "subsample",
    "global_avg_pool",
    "l2_normalize",
    "unit_normalize",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "select",
    "reduce_sum",
    "reduce_mean",
    "logsumexp",
    "backward",
    "zero_grads",
    "finite_difference_check",
]


_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3  # glibc malloc.h
_TOP_PAD_BYTES = 64 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's own ceiling for its adaptive threshold


def _keep_freed_heap() -> None:
    # The default step frees ~22 MB of tape and im2col buffers at the end of
    # backward(), glibc trims the heap top, and the next forward faults it
    # back in: 5,000-6,200 minor faults and 11-19 ms of kernel time in a
    # ~80-100 ms step. With a 64 MiB top pad a warm step takes under 30.
    # Setting the pad also freezes glibc's adaptive mmap threshold wherever
    # it stands, often at 128 KiB; then every 1 MiB array of a 4,096-pixel
    # k-means got its own mmap and 256 faults (17,000 faults, 62 ms a call
    # against 28 ms). So the threshold is pinned at glibc's own adaptive
    # ceiling, which keeps those blocks on the padded heap too.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


_keep_freed_heap()


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tensor:
    """A dense float64 array plus an optional slot in the differentiation tape.

    Tensors are immutable after creation except for grad accumulation; the
    optimizer mutates leaf ``data`` in place between tapes.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``. A first gradient is kept as it is when ``fresh``
    says no other tensor holds it: the calling op has just allocated it, or it
    is an ``_own_view`` of the op's gradient, which ``backward`` drops after
    the op's backward; anything else is copied once."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if fresh:
            t.grad = np.asarray(g)  # a 0-d product is a numpy scalar
        else:
            t.grad = np.empty_like(t.data)
            t.grad[...] = g
    else:
        t.grad += g


def _own_view(g: np.ndarray) -> bool:
    """Whether a view ``g`` of an op's own gradient may be handed over: not a
    transposed view, whose layout later sums would see, nor a broadcast."""
    return g.flags.c_contiguous and g.flags.writeable


def _check_binary_shapes(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"operand shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# pointwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes(a, b)

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes(a, b)

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, -g, fresh=True)

    return _result(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes(a, b)

    def bw(g):
        _accumulate(a, g * b.data, fresh=True)
        _accumulate(b, g * a.data, fresh=True)

    return _result(a.data * b.data, (a, b), bw)


def scale(t: Tensor, s: float) -> Tensor:
    s = float(s)

    def bw(g):
        _accumulate(t, g * s, fresh=True)

    return _result(t.data * s, (t,), bw)


def negate(t: Tensor) -> Tensor:
    return scale(t, -1.0)


def relu(t: Tensor) -> Tensor:
    """Elementwise max(x, 0); the subgradient at 0 is taken as 0. A NaN input
    stays NaN, so the non-finite loss check sees it. The forward builds the
    mask x > 0 (False at NaN and -0.0) only for an input on the tape, while
    the input is hot; the backward masks the incoming gradient in place."""
    mask = t.data > 0 if t.requires_grad else None

    def bw(g):
        np.multiply(g, mask, out=g)  # g is this node's own: backward() drops it next
        _accumulate(t, g, fresh=True)

    return _result(np.maximum(t.data, 0.0), (t,), bw)


# ---------------------------------------------------------------------------
# structured ops


def _require_maps(t: Tensor, op: str, error=ShapeError) -> None:
    if t.ndim != 4:
        raise error(f"{op} expects a [C,N,H,W] batch of maps, got shape {t.shape}")


def _pad_pair(pad) -> tuple[int, int]:
    """Normalize conv2d's ``pad`` to (before, after); both must be ints >= 0."""
    pair = (pad, pad) if isinstance(pad, (int, np.integer)) else pad
    if (not isinstance(pair, (tuple, list)) or len(pair) != 2
            or not all(isinstance(p, (int, np.integer)) and not isinstance(p, bool)
                       and p >= 0 for p in pair)):
        raise ShapeError(f"pad must be an int or a (before, after) pair of ints >= 0, got {pad!r}")
    return int(pair[0]), int(pair[1])


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int | tuple[int, int] = 0,
           bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """Cross-correlate a [C_in,N,H,W] batch with a [C_out,C_in,kh,kw] kernel.

    The batch is channel-major, so one GEMM covers every sample: the im2col
    slices copy without transposes and the [C_out, N*Ho*Wo] product reshapes
    straight into the [C_out,N,Ho,Wo] output.
    ``pad`` is an int or a (before, after) pair, applied to rows and columns
    alike: ``stride=2, pad=(1, 0)`` on an even extent computes every second
    row and column of the ``stride=1, pad=1`` output. Output extents must come
    out integral: (H + before + after - kh) divisible by stride. kh/kw are
    restricted to 1 or 3. Backward populates grads for the input, the kernel
    and the optional per-channel bias. The input gradient is summed by stride
    phase: each tap's GEMM adds into one contiguous buffer per phase, and each
    phase is written once into the fresh gradient.

    ``relu=True`` gives ``relu(conv2d(...))`` byte for byte as one node: the
    relu runs in place on the output this op has just allocated, its mask is
    built only for an output on the tape, and the backward masks its own
    gradient in place before the conv backward, so no pre-activation array
    outlives the forward.
    """
    _require_maps(x, "conv2d")
    if w.ndim != 4:
        raise ShapeError(f"conv2d expects an [O,C,kh,kw] kernel, got {w.shape}")
    cin, n, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"input channels {cin} do not match kernel channels {cin_w}")
    if kh not in (1, 3) or kw not in (1, 3):
        raise ShapeError(f"kernel extents must be 1 or 3, got {kh}x{kw}")
    before, after = _pad_pair(pad)
    if (h + before + after - kh) % stride or (wd + before + after - kw) % stride:
        raise ShapeError(
            f"non-integral output extent for input {h}x{wd}, kernel {kh}x{kw}, "
            f"stride {stride}, pad {pad}")
    ho = (h + before + after - kh) // stride + 1
    wo = (wd + before + after - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError("empty convolution output")

    direct = kh == kw == 1 and stride == 1 and not (before or after)
    if direct:
        mat = x.data.reshape(cin, n * h * wd)
    else:
        xp = np.zeros((cin, n, h + before + after, wd + before + after))
        xp[:, :, before:before + h, before:before + wd] = x.data
        # every tap's [C_in,N,Ho,Wo] window of xp as one [C_in,kh,kw,N,Ho,Wo] view,
        # which the reshape copies in one pass
        s = xp.strides
        mat = np.lib.stride_tricks.as_strided(
            xp, (cin, kh, kw, n, ho, wo), (s[0], s[2], s[3], s[1], s[2] * stride, s[3] * stride)
        ).reshape(cin * kh * kw, n * ho * wo)
        del xp  # before the GEMM allocates its output
    out = w.data.reshape(cout, -1) @ mat
    if bias is not None:
        if bias.shape != (cout,):
            raise ShapeError(f"bias shape {bias.shape} does not match {cout} output channels")
        out += bias.data[:, None]

    parents = (x, w) if bias is None else (x, w, bias)
    mask = None
    if relu:
        if any(p.requires_grad for p in parents):
            mask = out > 0  # False at NaN and -0.0, as relu's
        np.maximum(out, 0.0, out=out)

    def bw(g):
        if mask is not None:
            np.multiply(g, mask.reshape(g.shape), out=g)  # g is this node's own, as in relu
        gm = g.reshape(cout, -1)
        if w.requires_grad:
            _accumulate(w, (gm @ mat.T).reshape(w.shape), fresh=True)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gm.sum(axis=1), fresh=True)
        if not x.requires_grad:
            return
        if direct:
            _accumulate(x, (w.data.reshape(cout, cin).T @ gm).reshape(x.shape), fresh=True)
            return
        # Sum by stride phase: tap (di, dj) lands on the padded rows and columns
        # congruent to (di, dj) mod stride, shifted (di // stride, dj // stride)
        # cells within that phase. On g zero-padded to hq x wq cells a shift is
        # a flat offset, so each phase's taps add, in (di, dj) order, into one
        # contiguous buffer, which is the phase's first tap GEMM itself: a GEMM
        # sum starts from +0.0, so it is never -0.0 and equals 0.0 + itself.
        # One tap's GEMM at a time: no [C_in*kh*kw, ...] matrix.
        hq, wq = ho + (kh - 1) // stride, wo + (kw - 1) // stride
        gp = np.zeros((cout, n, hq, wq))
        gp[:, :, :ho, :wo] = g
        gp = gp.reshape(cout, -1)
        dx = np.empty(x.shape)
        for pi in range(stride):
            for pj in range(stride):
                # the unpadded rows and columns of this phase, and their first cell
                y0, x0 = (pi - before) % stride, (pj - before) % stride
                phase = dx[:, :, y0::stride, x0::stride]
                buf = None
                for di in range(pi, kh, stride):
                    for dj in range(pj, kw, stride):
                        tap = (w.data[:, :, di, dj].T @ gp).reshape(-1)
                        if buf is None:
                            buf = tap
                        else:
                            off = (di - pi) // stride * wq + (dj - pj) // stride
                            buf[off:] += tap[:-off]
                if buf is None:  # a phase no tap reaches, as under a strided 1x1 kernel
                    phase[...] = 0.0
                    continue
                k0, l0 = (y0 + before - pi) // stride, (x0 + before - pj) // stride
                phase[...] = buf.reshape(cin, n, hq, wq)[
                    :, :, k0:k0 + phase.shape[2], l0:l0 + phase.shape[3]]
        _accumulate(x, dx, fresh=True)

    return _result(out.reshape(cout, n, ho, wo), parents, bw)


def subsample(t: Tensor, stride: int) -> Tensor:
    """Keep every stride-th row and column of the last two axes, starting at 0."""
    if t.ndim < 2:
        raise ShapeError(f"subsample expects [..., H, W], got {t.shape}")

    def bw(g):
        full = np.zeros_like(t.data)
        full[..., ::stride, ::stride] = g
        _accumulate(t, full, fresh=True)

    return _result(t.data[..., ::stride, ::stride].copy(), (t,), bw)


def global_avg_pool(t: Tensor) -> Tensor:
    """Per-sample, per-channel spatial mean: [C,N,H,W] -> [C,N,1,1]."""
    _require_maps(t, "global_avg_pool")
    h, w = t.shape[-2:]

    def bw(g):
        _accumulate(t, np.broadcast_to(g, t.shape) / (h * w), fresh=True)

    return _result(t.data.mean(axis=(-2, -1), keepdims=True), (t,), bw)


_NORM_EPS = 1e-12


def unit_normalize(x: np.ndarray, axis: int, with_norms: bool = False):
    """``x`` over its norms along ``axis``, floored at 1e-12 so that zero slices
    stay zero (and, ``with_norms``, those norms, ``axis`` kept). The squares and
    the quotients share one buffer in the memory order of ``x * x``, so a strided
    ``x`` keeps the order in which its norms are summed."""
    out = x * x
    norms = np.maximum(np.sqrt(out.sum(axis=axis, keepdims=True)), _NORM_EPS)
    out = np.divide(x, norms, out=out)
    return (out, norms) if with_norms else out


def l2_normalize(t: Tensor, axis: int = 0) -> Tensor:
    """``unit_normalize`` on the tape."""
    out, denom = unit_normalize(t.data, axis, with_norms=True)

    def bw(g):
        inner = (g * t.data).sum(axis=axis, keepdims=True)
        safe = denom > _NORM_EPS
        corr = np.where(safe, inner / np.where(safe, denom ** 3, 1.0), 0.0)
        _accumulate(t, g / denom - t.data * corr, fresh=True)

    return _result(out, (t,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, or of two equal-length stacks of
    matrices ([N,m,k] @ [N,k,n])."""
    if (a.ndim != b.ndim or a.ndim not in (2, 3) or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} do not chain")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2), fresh=True)
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g, fresh=True)

    return _result(a.data @ b.data, (a, b), bw)


def transpose(t: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute the axes (``np.transpose`` semantics); a matrix by default."""
    if axes is None:
        if t.ndim != 2:
            raise ShapeError(f"transpose expects a matrix, got {t.shape}")
        axes = (1, 0)
    if sorted(axes) != list(range(t.ndim)):
        raise ShapeError(f"axes {axes} do not permute the {t.ndim} axes of {t.shape}")
    inverse = tuple(np.argsort(axes))

    def bw(g):
        _accumulate(t, g.transpose(inverse))

    return _result(t.data.transpose(axes).copy(), (t,), bw)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:

    def bw(g):
        g = g.reshape(t.shape)
        _accumulate(t, g, fresh=_own_view(g))

    return _result(t.data.reshape(shape).copy(), (t,), bw)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            part = g[tuple(idx)]
            _accumulate(p, part, fresh=_own_view(part))

    return _result(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def select(t: Tensor, index: int, axis: int = 0) -> Tensor:
    """The slice at ``index`` along ``axis``, with that axis removed."""
    if not -t.shape[axis] <= index < t.shape[axis]:
        raise ShapeError(f"index {index} out of range for axis {axis} of {t.shape}")

    def bw(g):
        full = np.zeros_like(t.data)
        np.moveaxis(full, axis, 0)[index] = g
        _accumulate(t, full, fresh=True)

    return _result(np.take(t.data, index, axis=axis), (t,), bw)


def reduce_sum(t: Tensor, axis: int | None = None) -> Tensor:
    out = t.data.sum(axis=axis)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(t, np.broadcast_to(g, t.shape))

    return _result(out, (t,), bw)


def reduce_mean(t: Tensor, axis: int | None = None) -> Tensor:
    count = t.size if axis is None else t.shape[axis]
    return scale(reduce_sum(t, axis=axis), 1.0 / count)


def logsumexp(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-sum-exp reduction along one axis."""
    mx = t.data.max(axis=axis, keepdims=True)
    ex = np.exp(t.data - mx)
    total = ex.sum(axis=axis, keepdims=True)
    out = np.squeeze(np.log(total) + mx, axis=axis)

    def bw(g):
        _accumulate(t, np.expand_dims(g, axis) * (ex / total), fresh=True)

    return _result(out, (t,), bw)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Run reverse-mode differentiation from a scalar loss.

    Populates .grad on every reachable leaf that requires grad (a tensor no
    op produced) and frees the tape as it goes: parent links, closures, and
    the grad of each intermediate result once it has been passed on.
    """
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._backward_fn is not None:
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = None
        node._parents = ()
        node._backward_fn = None


def zero_grads(tensors) -> None:
    values = tensors.values() if isinstance(tensors, dict) else tensors
    for t in values:
        t.grad = None


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckReport:
    """Outcome of comparing backward grads against central finite differences."""

    op_name: str
    max_relative_error: float


_FD_STEP = 1e-6


def finite_difference_check(f, inputs, name: str = "op") -> GradCheckReport:
    """Compare analytic grads of scalar-valued f against central differences.

    Every input with requires_grad=True is perturbed by +-1e-6, coordinate by
    coordinate. The relative error denominator is max(|analytic|, |numeric|,
    1e-8).
    """
    inputs = list(inputs)
    zero_grads(inputs)
    out = f(*inputs)
    if out.shape != ():
        raise ShapeError("finite_difference_check needs a scalar-valued function")
    if not np.isfinite(out.data):
        raise ValueError(f"{name}: non-finite forward value")
    backward(out)

    checked = [t for t in inputs if t.requires_grad]
    analytic = [np.array(t.grad) if t.grad is not None else np.zeros_like(t.data)
                for t in checked]

    max_err = 0.0
    for t, grads in zip(checked, analytic):
        flat = t.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + _FD_STEP
            hi = float(f(*inputs).data)
            flat[j] = orig - _FD_STEP
            lo = float(f(*inputs).data)
            flat[j] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError(f"{name}: non-finite value during perturbation")
            numeric = (hi - lo) / (2.0 * _FD_STEP)
            a = float(grads.reshape(-1)[j])
            max_err = max(max_err, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return GradCheckReport(op_name=name, max_relative_error=max_err)
