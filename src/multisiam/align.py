"""Pixel correspondence between two views' feature maps.

Grid cells use the pixel-center convention of ``views.cell_centers``: cell
(i, j) of an HxW grid sits at ((j + 0.5) / W, (i + 0.5) / H) of its box, so
full-box region pooling at the native resolution is exactly the identity. All alignment runs on flip-backed maps, i.e. column j
of an incoming map corresponds to column j of the unflipped crop.

Feature maps are [C,N,H,W] batches with one spec (and box) per sample; a lone
map is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _accumulate, _require_maps, _result, concat
from .views import Box, ViewSpec, bilinear_sample, cell_centers, separable

__all__ = [
    "AlignmentError",
    "flip_back",
    "intersection_relative",
    "roi_align",
    "offset_map",
    "align_pair",
    "ALIGNMENT_MODES",
]

ALIGNMENT_MODES = ("roi", "offset", "none")


class AlignmentError(ValueError):
    """Raised when alignment preconditions are violated (e.g. empty overlap)."""


def flip_back(fmap: Tensor, flipped) -> Tensor:
    """Undo horizontal flips of a [C,N,H,W] batch: mirror along the last axis
    the samples that ``flipped`` (one flag per sample) selects, a pure index
    permutation. The batch itself when nothing is flipped."""
    _require_maps(fmap, "flip_back", AlignmentError)
    flags = np.asarray(flipped, dtype=bool)
    if flags.shape != (fmap.shape[1],):
        raise AlignmentError(f"a flip mask of shape {flags.shape} does not fit {fmap.shape}")
    if not flags.any():
        return fmap

    def mirror(a):
        out = a.copy()
        out[:, flags] = a[:, flags, :, ::-1]
        return out

    def bw(g):
        _accumulate(fmap, mirror(g), fresh=True)

    return _result(mirror(fmap.data), (fmap,), bw)


def intersection_relative(spec_a: ViewSpec, spec_b: ViewSpec) -> tuple[Box, Box]:
    """The overlap of the two crop boxes, in units of each view's extent.

    Operates on the unflipped source boxes since alignment consumes
    flip-backed maps.
    """
    a, b = spec_a.box, spec_b.box
    ix0, iy0 = max(a.x0, b.x0), max(a.y0, b.y0)
    ix1, iy1 = min(a.x1, b.x1), min(a.y1, b.y1)
    if ix0 >= ix1 or iy0 >= iy1:
        raise AlignmentError("views do not overlap; the sampler contract was violated")

    def rel(box):
        return Box((ix0 - box.x0) / (box.x1 - box.x0),
                   (iy0 - box.y0) / (box.y1 - box.y0),
                   (ix1 - box.x0) / (box.x1 - box.x0),
                   (iy1 - box.y0) / (box.y1 - box.y0))

    return rel(a), rel(b)


def roi_align(fmap: Tensor, rois, out_h: int, out_w: int) -> Tensor:
    """Bilinearly sample each map of a [C,N,H,W] batch at out_h x out_w bin
    centers in its own roi, a sequence of N Boxes in units of the map's
    extent, each inside the unit square.

    One sample per bin, taken at the bin center; sample positions outside the
    pixel-center hull clamp to the edge. Differentiable w.r.t. the maps.
    """
    _require_maps(fmap, "roi_align", AlignmentError)
    c, n, h, w = fmap.shape
    if len(rois) != n:
        raise AlignmentError(f"{len(rois)} boxes for {n} samples")
    out = np.empty((c, n, out_h, out_w))
    weights = []
    for s, box in enumerate(rois):
        if not (0.0 <= box.x0 and box.x1 <= 1.0 and 0.0 <= box.y0 and box.y1 <= 1.0):
            raise AlignmentError(
                f"roi {(box.x0, box.y0, box.x1, box.y1)} leaves the unit square")
        xs = cell_centers(box.x0, box.x1, out_w)
        ys = cell_centers(box.y0, box.y1, out_h)
        out[:, s], sample_weights = bilinear_sample(fmap.data[:, s], xs * w, ys * h)
        weights.append(sample_weights)

    def bw(g):
        # the adjoint of each sample: rows.T @ g @ cols
        grad = np.empty_like(fmap.data)
        for s, (rows, cols) in enumerate(weights):
            grad[:, s] = separable(g[:, s], rows.T, cols.T)
        _accumulate(fmap, grad, fresh=True)

    return _result(out, (fmap,), bw)


def offset_map(spec_a: ViewSpec, spec_b: ViewSpec, h: int, w: int,
               normalize: bool = True) -> np.ndarray:
    """Per-cell source-coordinate differences from view a's grid to view b's,
    as a constant [2,H,W] array.

    Channel 0 holds x offsets, channel 1 y offsets. With ``normalize`` the
    differences are divided elementwise by view a's grid span (coordinate of
    cell (H-1, W-1) minus cell (0, 0)); degenerate single-row or single-column
    spans fall back to a denominator of 1. Flip flags are ignored because the
    maps being aligned are already flip-backed.
    """
    a, b = spec_a.box, spec_b.box
    dx = cell_centers(b.x0, b.x1, w) - cell_centers(a.x0, a.x1, w)
    dy = cell_centers(b.y0, b.y1, h) - cell_centers(a.y0, a.y1, h)
    dx = np.broadcast_to(dx[None, :], (h, w)).copy()
    dy = np.broadcast_to(dy[:, None], (h, w)).copy()
    if normalize:
        span_x = (w - 1) / w * (a.x1 - a.x0)
        span_y = (h - 1) / h * (a.y1 - a.y0)
        dx /= span_x if span_x != 0.0 else 1.0
        dy /= span_y if span_y != 0.0 else 1.0
    return np.stack([dx, dy])


def align_pair(online_map: Tensor, target_map: Tensor, spec_a, spec_b, mode: str,
               normalize_offset: bool = True) -> tuple[Tensor, Tensor]:
    """Restore pixel correspondence between two flip-backed [C,N,H,W] batches
    of projected maps, with a sequence of N ViewSpecs each; returns the
    (online, target) maps.

    roi: both maps pooled over the intersection region at their native
    resolution. offset: the online map gains two coordinate-offset channels,
    the target map passes through. none: passthrough of both maps.
    """
    if mode not in ALIGNMENT_MODES:
        raise AlignmentError(f"unknown alignment mode {mode!r}; expected one of {ALIGNMENT_MODES}")
    _require_maps(online_map, "align_pair", AlignmentError)
    if online_map.shape[1:] != target_map.shape[1:]:
        raise AlignmentError(
            f"spatial extents differ: {online_map.shape} vs {target_map.shape}")
    if mode == "none":
        return online_map, target_map
    pairs = list(zip(spec_a, spec_b))
    h, w = online_map.shape[-2:]
    if mode == "offset":
        offsets = [offset_map(a, b, h, w, normalize=normalize_offset) for a, b in pairs]
        return concat([online_map, Tensor(np.stack(offsets, axis=1))], axis=0), target_map
    rel_a, rel_b = zip(*(intersection_relative(a, b) for a, b in pairs))
    return roi_align(online_map, rel_a, h, w), roi_align(target_map, rel_b, h, w)
