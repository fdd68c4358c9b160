"""Pixel correspondence between two views' feature maps.

Grid cells use the pixel-center convention: cell (i, j) of an HxW grid sits at
((j + 0.5) / W, (i + 0.5) / H) of its view, so full-box region pooling at the
native resolution is exactly the identity. All alignment runs on flip-backed
maps, i.e. column j of an incoming map corresponds to column j of the
unflipped crop.

Feature maps are [C,N,H,W] batches with one spec (and box) per sample; a lone
map is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _accumulate, _coerce, _require_maps, _result, concat, flip_last
from .views import ViewSpec, bilinear_sample

__all__ = [
    "RelBox",
    "AlignedPair",
    "AlignmentError",
    "grid_coord",
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


@dataclass(frozen=True)
class RelBox:
    """A box in [0,1]^2 coordinates relative to one view's own extent."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (0.0 <= self.x0 < self.x1 <= 1.0 and 0.0 <= self.y0 < self.y1 <= 1.0):
            raise AlignmentError(f"invalid relative box {(self.x0, self.y0, self.x1, self.y1)}")


@dataclass
class AlignedPair:
    """Online/target maps with restored one-to-one pixel correspondence."""

    online: Tensor
    target: Tensor
    mode: str


def grid_coord(spec: ViewSpec, i: int, j: int, h: int, w: int) -> tuple[float, float]:
    """Source-image coordinates of grid cell (i, j) of an HxW map rendered
    from ``spec``. A horizontal flip mirrors the column index before mapping."""
    jj = (w - 1 - j) if spec.flipped else j
    return _cell_xy(spec, i, jj, h, w)


def _cell_xy(spec: ViewSpec, i, j, h: int, w: int):
    box = spec.box
    x = box.x0 + (np.asarray(j, dtype=np.float64) + 0.5) / w * (box.x1 - box.x0)
    y = box.y0 + (np.asarray(i, dtype=np.float64) + 0.5) / h * (box.y1 - box.y0)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(x), float(y)
    return x, y


def flip_back(fmap: Tensor, flipped) -> Tensor:
    """Undo horizontal flips of a [C,N,H,W] batch, one flag per sample;
    identity when nothing is flipped."""
    _require_maps(fmap, "flip_back", AlignmentError)
    flags = np.asarray(flipped, dtype=bool)
    if not flags.any():
        return fmap
    return flip_last(fmap, flags)


def intersection_relative(spec_a: ViewSpec, spec_b: ViewSpec) -> tuple[RelBox, RelBox]:
    """The overlap of the two crop boxes, expressed relative to each view.

    Operates on the unflipped source boxes since alignment consumes
    flip-backed maps.
    """
    a, b = spec_a.box, spec_b.box
    ix0, iy0 = max(a.x0, b.x0), max(a.y0, b.y0)
    ix1, iy1 = min(a.x1, b.x1), min(a.y1, b.y1)
    if ix0 >= ix1 or iy0 >= iy1:
        raise AlignmentError("views do not overlap; the sampler contract was violated")

    def rel(box):
        return RelBox((ix0 - box.x0) / (box.x1 - box.x0),
                      (iy0 - box.y0) / (box.y1 - box.y0),
                      (ix1 - box.x0) / (box.x1 - box.x0),
                      (iy1 - box.y0) / (box.y1 - box.y0))

    return rel(a), rel(b)


def roi_align(fmap: Tensor, rois, out_h: int, out_w: int) -> Tensor:
    """Bilinearly sample each map of a [C,N,H,W] batch at out_h x out_w bin
    centers in its own roi, a sequence of N RelBoxes.

    One sample per bin, taken at the bin center; sample positions outside the
    pixel-center hull clamp to the edge. Differentiable w.r.t. the maps.
    """
    fmap = _coerce(fmap)
    _require_maps(fmap, "roi_align", AlignmentError)
    c, n, h, w = fmap.shape
    if len(rois) != n:
        raise AlignmentError(f"{len(rois)} boxes for {n} samples")
    out = np.empty((c, n, out_h, out_w))
    taps = []
    for s, box in enumerate(rois):
        xs = box.x0 + (np.arange(out_w) + 0.5) / out_w * (box.x1 - box.x0)
        ys = box.y0 + (np.arange(out_h) + 0.5) / out_h * (box.y1 - box.y0)
        out[:, s], sample_taps = bilinear_sample(fmap.data[:, s], xs * w, ys * h)
        taps.append(sample_taps)

    def bw(g):
        grad = np.zeros_like(fmap.data)
        for s, sample_taps in enumerate(taps):
            for rows, cols, weights in sample_taps:
                np.add.at(grad[:, s], (slice(None), rows, cols), g[:, s] * weights)
        _accumulate(fmap, grad)

    return _result(out, (fmap,), bw)


def offset_map(spec_a: ViewSpec, spec_b: ViewSpec, h: int, w: int,
               normalize: bool = True) -> Tensor:
    """Per-cell source-coordinate differences from view a's grid to view b's.

    Channel 0 holds x offsets, channel 1 y offsets. With ``normalize`` the
    differences are divided elementwise by view a's grid span (coordinate of
    cell (H-1, W-1) minus cell (0, 0)); degenerate single-row or single-column
    spans fall back to a denominator of 1. Flip flags are ignored because the
    maps being aligned are already flip-backed.
    """
    cols = np.arange(w)
    rows = np.arange(h)
    xa, ya = _cell_xy(spec_a, rows, cols, h, w)
    xb, yb = _cell_xy(spec_b, rows, cols, h, w)
    dx = np.broadcast_to((xb - xa)[None, :], (h, w)).copy()
    dy = np.broadcast_to((yb - ya)[:, None], (h, w)).copy()
    if normalize:
        span_x = (w - 1) / w * (spec_a.box.x1 - spec_a.box.x0)
        span_y = (h - 1) / h * (spec_a.box.y1 - spec_a.box.y0)
        dx /= span_x if span_x != 0.0 else 1.0
        dy /= span_y if span_y != 0.0 else 1.0
    return Tensor(np.stack([dx, dy]))


def align_pair(online_map: Tensor, target_map: Tensor, spec_a, spec_b, mode: str,
               normalize_offset: bool = True) -> AlignedPair:
    """Restore pixel correspondence between two flip-backed [C,N,H,W] batches
    of projected maps, with a sequence of N ViewSpecs each.

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
        return AlignedPair(online_map, target_map, mode)
    pairs = list(zip(spec_a, spec_b))
    h, w = online_map.shape[-2:]
    if mode == "offset":
        offsets = [offset_map(a, b, h, w, normalize=normalize_offset).data for a, b in pairs]
        return AlignedPair(concat([online_map, Tensor(np.stack(offsets, axis=1))], axis=0),
                           target_map, mode)
    rel_a, rel_b = zip(*(intersection_relative(a, b) for a, b in pairs))
    return AlignedPair(roi_align(online_map, rel_a, h, w),
                       roi_align(target_map, rel_b, h, w), mode)
