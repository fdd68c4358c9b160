"""Positive view pairs: IoU-constrained crop sampling and view rendering.

A view is a continuous crop box in source-image pixel coordinates plus a flip
flag and a photometric recipe. Two views form a positive pair when their boxes
overlap by the configured IoU threshold, which the sampler tries a bounded
number of times to meet; overlap is measured on the unflipped boxes since
flipping does not move content regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "PhotoParams",
    "ViewSpec",
    "ViewPair",
    "compute_iou",
    "sample_view_pair",
    "render_view",
    "resize_bilinear",
    "resize_weights",
    "bilinear_sample",
    "separable",
    "cell_centers",
]

LUMA = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class Box:
    """An axis-aligned box with x0 < x1 and y0 < y1: a crop in continuous
    source-image pixel coordinates, or (in ``align``) a region in units of
    one view's own extent."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate box {(self.x0, self.y0, self.x1, self.y1)}")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


@dataclass(frozen=True)
class PhotoParams:
    """Photometric recipe of one view; all-neutral values mean no change."""

    brightness: float = 0.0
    contrast: float = 0.0
    saturation: float = 0.0
    hue: float = 0.0
    grayscale: bool = False
    blur_sigma: float = 0.0
    solarize: bool = False


NEUTRAL_PHOTO = PhotoParams()


@dataclass(frozen=True)
class ViewSpec:
    """Full geometry + photometric recipe of one random view."""

    box: Box
    flipped: bool
    photometric: PhotoParams
    out_size: tuple[int, int]  # (H, W) pixels


@dataclass(frozen=True)
class ViewPair:
    spec_a: ViewSpec
    spec_b: ViewSpec
    iou: float


# The fixed view recipe. A crop covers a uniform fraction in [min_scale, 1]
# of the image at a log-uniform aspect ratio in [3/4, 4/3], and a pair is
# redrawn up to 100 times to meet the IoU threshold. Photometrics follow the
# usual two-view asymmetric recipe: color jitter with probability 0.8 (max
# deltas 0.4/0.4/0.2/0.1 for brightness/contrast/saturation/hue), grayscale
# 0.2, blur with sigma in [0.1, 2] with probability 1.0 for the first view
# and 0.1 for the second, solarization 0 / 0.2.
_LOG_ASPECT = (np.log(3.0 / 4.0), np.log(4.0 / 3.0))
_MAX_ATTEMPTS = 100
_JITTER_MAX = (0.4, 0.4, 0.2, 0.1)
_BLUR_PROB = (1.0, 0.1)
_SOLARIZE_PROB = (0.0, 0.2)


def compute_iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = max(0.0, min(a.x1, b.x1) - max(a.x0, b.x0))
    iy = max(0.0, min(a.y1, b.y1) - max(a.y0, b.y0))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def _sample_box(img_h: int, img_w: int, cfg, rng: np.random.Generator) -> Box:
    bw = bh = None
    for _ in range(10):
        frac = rng.uniform(cfg.min_scale, 1.0)
        aspect = float(np.exp(rng.uniform(*_LOG_ASPECT)))
        target = frac * img_w * img_h
        bw = float(np.sqrt(target * aspect))
        bh = float(np.sqrt(target / aspect))
        if bw <= img_w and bh <= img_h:
            break
    bw = min(bw, float(img_w))
    bh = min(bh, float(img_h))
    x0 = rng.uniform(0.0, img_w - bw)
    y0 = rng.uniform(0.0, img_h - bh)
    return Box(x0, y0, x0 + bw, y0 + bh)


def _sample_photo(view_index: int, rng: np.random.Generator) -> PhotoParams:
    if rng.random() < 0.8:
        deltas = [float(rng.uniform(-m, m)) for m in _JITTER_MAX]
    else:
        deltas = [0.0, 0.0, 0.0, 0.0]
    grayscale = rng.random() < 0.2
    blur_sigma = 0.0
    if rng.random() < _BLUR_PROB[view_index]:
        blur_sigma = float(rng.uniform(0.1, 2.0))
    solarize = rng.random() < _SOLARIZE_PROB[view_index]
    return PhotoParams(deltas[0], deltas[1], deltas[2], deltas[3],
                       grayscale, blur_sigma, solarize)


def sample_view_pair(image_size: tuple[int, int], cfg,
                     rng: np.random.Generator) -> ViewPair:
    """Draw two random-resized-crop views of an image of ``image_size`` (H, W).

    ``cfg`` is the run's ``TrainConfig``, of which the sampler reads three
    fields: ``iou_threshold``, ``min_scale`` and ``out_size``, the side of
    the square views. Both boxes are redrawn until they overlap by at least
    ``iou_threshold``, at most 100 times. If every draw misses, the pair with
    the best IoU seen is returned, so a pair can fall short of the threshold:
    at ``min_scale`` 0.08 none does up to 0.7, but 1.9% of pairs do at 0.8
    and 64% at 0.9. ``ViewPair.iou`` holds the IoU of the pair returned.
    """
    img_h, img_w = image_size
    best: tuple[Box, Box] | None = None
    best_iou = -1.0
    for _ in range(_MAX_ATTEMPTS):
        box_a = _sample_box(img_h, img_w, cfg, rng)
        box_b = _sample_box(img_h, img_w, cfg, rng)
        iou = compute_iou(box_a, box_b)
        if iou > best_iou:
            best, best_iou = (box_a, box_b), iou
        if iou > 0.0 and iou >= cfg.iou_threshold:
            break
    box_a, box_b = best
    specs = []
    for view_index, box in enumerate((box_a, box_b)):
        flipped = rng.random() < 0.5
        photo = _sample_photo(view_index, rng)
        specs.append(ViewSpec(box, flipped, photo, (cfg.out_size, cfg.out_size)))
    return ViewPair(specs[0], specs[1], best_iou)


# ---------------------------------------------------------------------------
# rendering


def separable(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``rows @ img @ cols.T`` for each channel of a [C,H,W] array: a [R,H]
    matrix mixes the rows and a [K,W] matrix the columns, giving [C,R,K].

    The column pass is one [C*H, W] @ [W, K] GEMM, the row pass one matmul
    over the channels; columns first is the faster order for the 8x
    upsample of eval. Every bilinear sample and the Gaussian blur run
    through here, so their rounding is that of the BLAS.
    """
    c, h, w = img.shape
    wide = img.reshape(c * h, w) @ cols.T
    return np.matmul(rows, wide.reshape(c, h, cols.shape[0]))


def _interp_weights(pos: np.ndarray, n: int) -> np.ndarray:
    """The [len(pos), n] bilinear weights at continuous positions along an
    axis of n pixels, pixel i centered at i + 0.5, clamped to the edge pixel
    centers: weight 1 - f on floor(u) and f on the next pixel, where
    u = clip(pos - 0.5, 0, n - 1) and f its fraction. A clamped position has
    f = 0, so the column past the edge that the buffer carries gets 0."""
    u = np.minimum(np.maximum(pos - 0.5, 0.0), n - 1.0)
    j0 = np.floor(u).astype(np.intp)
    f = u - j0
    out = np.zeros((len(pos), n + 1))
    j0 += np.arange(0, out.size, n + 1)  # flat index of (row, j0)
    flat = out.reshape(-1)
    flat[j0 + 1] = f
    flat[j0] = 1.0 - f
    return out[:, :n]


def bilinear_sample(img: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Sample a [C,H,W] array on the grid of continuous positions ys x xs,
    where source pixel (r, c) has its center at (c + 0.5, r + 0.5).
    Edge-clamped.

    Returns the samples and the (rows, cols) weight matrices, [len(ys), H]
    and [len(xs), W], whose ``separable`` product with the source they are;
    a caller scatters gradients back with the transposed pair.
    """
    _, h, w = img.shape
    weights = (_interp_weights(ys, h), _interp_weights(xs, w))
    return separable(img, *weights), weights


def cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """The centers of n equal cells that tile [lo, hi]: cell i sits at
    lo + (i + 0.5) / n * (hi - lo). Every grid placed over a box uses this
    rule: view crops, resizes, roi bins and the offset channels."""
    return lo + (np.arange(n) + 0.5) / n * (hi - lo)


def resize_weights(in_size: tuple[int, int], out_size: tuple[int, int]):
    """The (rows, cols) weights, [out_h, h] and [out_w, w], of a pixel-center
    bilinear resize from in_size to out_size: those of ``bilinear_sample`` at
    the cell centers of the whole image, one matrix for both axes when they
    match (a square resize)."""
    (h, w), (out_h, out_w) = in_size, out_size
    cols = _interp_weights(cell_centers(0.0, float(w), out_w), w)
    rows = cols if (h, out_h) == (w, out_w) else _interp_weights(
        cell_centers(0.0, float(h), out_h), h)
    return rows, cols


def resize_bilinear(img: np.ndarray, out_size: tuple[int, int]) -> np.ndarray:
    """Resize a [C,H,W] array to out_size by its ``resize_weights``."""
    return separable(img, *resize_weights(img.shape[1:], out_size))


def _color_jitter(img: np.ndarray, p: PhotoParams) -> np.ndarray:
    """Brightness, contrast and saturation as one affine color map (a GEMM,
    so its rounding follows the BLAS): contrast pulls toward the mean luma of
    the brightened image, a constant that saturation keeps because the luma
    weights sum to 1. Then the hue rotation of the clipped image, which keeps
    each pixel's max, min and delta = max - min: channel n in (5, 3, 1) (r, g,
    b) is max - delta * clip(min(k, 4 - k), 0, 1), where k = (n + 6 h') mod 6
    and h' is the shifted hue in turns (Smith, SIGGRAPH 1978)."""
    if (p.brightness, p.contrast, p.saturation) != (0.0, 0.0, 0.0):
        flat = img.reshape(3, -1)
        scale = (1.0 + p.brightness) * (1.0 + p.contrast)
        mix = scale * ((1.0 + p.saturation) * np.eye(3) - p.saturation * LUMA)
        offset = -p.contrast * (1.0 + p.brightness) * float(LUMA @ flat.mean(axis=1))
        img = (mix @ flat + offset).reshape(img.shape)
    if p.hue == 0.0:
        return img
    img = np.clip(img, 0.0, 1.0)
    r, g, b = img
    maxc = img.max(axis=0)
    delta = maxc - img.min(axis=0)
    dsafe = np.where(delta > 0, delta, 1.0)
    # the hue in sextants, in [-1, 5); a gray pixel (delta 0) keeps its value
    h = np.where(maxc == r, (g - b) / dsafe,
                 np.where(maxc == g, (b - r) / dsafe + 2.0, (r - g) / dsafe + 4.0))
    k = np.array([5.0, 3.0, 1.0])[:, None, None] + (h + 6.0 * p.hue)
    k -= 6.0 * np.floor(k / 6.0)  # mod 6; numpy's float % is several times slower
    return maxc - delta * np.clip(np.minimum(k, 4.0 - k), 0.0, 1.0)


def _blur_weights(n: int, sigma: float) -> np.ndarray:
    """The [n, n] banded matrix of a Gaussian blur along an axis of n pixels:
    taps within 3 sigma (at least 1), normalized to sum to 1, with the taps
    that fall past an edge added onto the edge pixel's column (edge
    clamping)."""
    radius = max(1, int(3.0 * sigma + 0.5))
    taps = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (taps / sigma) ** 2)
    kernel /= kernel.sum()
    band = np.zeros((n, n + 2 * radius))
    rows = np.arange(n)[:, None]
    band[rows, rows + np.arange(2 * radius + 1)] = kernel
    out = band[:, radius:radius + n]
    out[:, 0] += band[:, :radius].sum(axis=1)
    out[:, -1] += band[:, radius + n:].sum(axis=1)
    return out


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    _, h, w = img.shape
    cols = _blur_weights(w, sigma)
    return separable(img, cols if h == w else _blur_weights(h, sigma), cols)


def render_view(image: np.ndarray, spec: ViewSpec) -> np.ndarray:
    """Render one view of a [3,H,W] image: bilinear crop-resize, flip, then the
    photometric chain (jitter, grayscale, blur, solarize). Output values are
    clamped to [0, 1]. This path is not differentiated; image and view are
    plain arrays."""
    box, (out_h, out_w) = spec.box, spec.out_size
    out = bilinear_sample(image, cell_centers(box.x0, box.x1, out_w),
                          cell_centers(box.y0, box.y1, out_h))[0]
    if spec.flipped:
        out = out[:, :, ::-1]
    p = spec.photometric
    out = _color_jitter(out, p)
    if p.grayscale:
        luma = (LUMA[:, None, None] * out).sum(axis=0, keepdims=True)
        out = np.repeat(luma, 3, axis=0)
    if p.blur_sigma > 0.0:
        out = _gaussian_blur(out, p.blur_sigma)
    if p.solarize:
        out = np.where(out < 0.5, out, 1.0 - out)
    return np.clip(out, 0.0, 1.0)
