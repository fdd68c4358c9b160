"""Deterministic synthetic multi-instance scenes with ground-truth masks.

Each image is a low-frequency noise background with a handful of colored
shapes (disks, rectangles, triangles) placed with bounded mutual overlap.
Instance ids count from 1 in placement order; class ids follow the shape kind.
The palette separates classes by hue while per-instance jitter and the noisy
background keep intensity thresholds from solving the task outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor
from .views import resize_bilinear

__all__ = [
    "SceneSpec",
    "LabeledImage",
    "CLASS_NAMES",
    "generate",
    "downsample_mask",
]

CLASS_NAMES = ("disk", "rectangle", "triangle")

_PALETTE = (
    (0.85, 0.25, 0.20),  # disk
    (0.20, 0.40, 0.85),  # rectangle
    (0.90, 0.80, 0.25),  # triangle
)

@dataclass(frozen=True)
class SceneSpec:
    """Generation recipe for one corpus; same spec, same images.

    Instances span a couple of feature-map cells at stride 8 so pooled
    features keep instance contrast; background noise stays low-frequency but
    weak enough not to rival instance-versus-background contrast.
    """

    size: tuple[int, int] = (64, 64)
    instance_range: tuple[int, int] = (2, 5)
    instance_scale: tuple[float, float] = (0.14, 0.30)
    palette: tuple = _PALETTE
    color_jitter: float = 0.08
    background_cells: int = 4
    background_range: tuple[float, float] = (0.05, 0.25)
    background_texture: float = 0.04
    lighting_gradient: tuple[float, float] = (0.4, 0.8)
    max_overlap: float = 0.3
    seed: int = 0


@dataclass
class LabeledImage:
    image: Tensor                      # [3,H,W] float in [0,1]
    instance_mask: np.ndarray          # [H,W] int, 0 = background
    class_mask: np.ndarray             # [H,W] int, 0 = background
    instance_classes: tuple[int, ...] = field(default_factory=tuple)


def _pixel_grid(h: int, w: int):
    ys, xs = np.mgrid[0:h, 0:w]
    return xs + 0.5, ys + 0.5


def _rasterize(kind: int, params, h: int, w: int) -> np.ndarray:
    xs, ys = _pixel_grid(h, w)
    if kind == 0:  # disk
        cx, cy, r = params
        return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    if kind == 1:  # rectangle
        x0, y0, x1, y1 = params
        return (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    # triangle via half-plane tests, vertices in consistent winding
    (ax, ay), (bx, by), (cx, cy) = params
    d0 = (xs - bx) * (ay - by) - (ax - bx) * (ys - by)
    d1 = (xs - cx) * (by - cy) - (bx - cx) * (ys - cy)
    d2 = (xs - ax) * (cy - ay) - (cx - ax) * (ys - ay)
    has_neg = (d0 < 0) | (d1 < 0) | (d2 < 0)
    has_pos = (d0 > 0) | (d1 > 0) | (d2 > 0)
    return ~(has_neg & has_pos)


def _sample_shape(kind: int, h: int, w: int, rng: np.random.Generator, scale):
    r = rng.uniform(*scale) * min(h, w)
    if kind == 0:
        cx = rng.uniform(r, w - r)
        cy = rng.uniform(r, h - r)
        return (cx, cy, r)
    if kind == 1:
        bw = rng.uniform(1.2 * r, 2.2 * r)
        bh = rng.uniform(1.2 * r, 2.2 * r)
        x0 = rng.uniform(0, w - bw)
        y0 = rng.uniform(0, h - bh)
        return (x0, y0, x0 + bw, y0 + bh)
    cx = rng.uniform(r, w - r)
    cy = rng.uniform(r, h - r)
    theta = rng.uniform(0, 2 * np.pi)
    verts = []
    for k in range(3):
        ang = theta + 2 * np.pi * k / 3
        verts.append((cx + r * np.cos(ang), cy + r * np.sin(ang)))
    return tuple(verts)


def _background(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    # per-image base tint plus low-frequency value noise, so scenes are
    # distinguishable yet never separable by a single intensity threshold
    h, w = spec.size
    lo, hi = spec.background_range
    tint = rng.uniform(lo, hi, size=3)
    cells = tint[:, None, None] + rng.uniform(
        -spec.background_texture, spec.background_texture,
        size=(3, spec.background_cells, spec.background_cells))
    return np.clip(resize_bilinear(cells, (h, w)), 0.0, 1.0)


def _generate_one(spec: SceneSpec, rng: np.random.Generator) -> LabeledImage:
    h, w = spec.size
    img = _background(spec, rng)
    instance_mask = np.zeros((h, w), dtype=np.int32)
    class_mask = np.zeros((h, w), dtype=np.int32)
    classes: list[int] = []

    count = int(rng.integers(spec.instance_range[0], spec.instance_range[1] + 1))
    placed = 0
    for _ in range(count):
        for _attempt in range(30):
            kind = int(rng.integers(0, len(spec.palette)))
            mask = _rasterize(kind, _sample_shape(kind, h, w, rng, spec.instance_scale), h, w)
            area = mask.sum()
            if area == 0:
                continue
            overlap = (mask & (instance_mask > 0)).sum() / area
            # the bound must also hold for what the newcomer paints over
            covered = np.bincount(instance_mask[mask], minlength=placed + 1)[1:]
            visible = np.bincount(instance_mask.reshape(-1), minlength=placed + 1)[1:]
            steals = (covered / np.maximum(visible, 1)).max() if placed else 0.0
            if overlap < spec.max_overlap and steals < spec.max_overlap:
                placed += 1
                base = np.array(spec.palette[kind])
                color = np.clip(base + rng.uniform(-spec.color_jitter, spec.color_jitter, 3),
                                0.0, 1.0)
                img[:, mask] = color[:, None]
                instance_mask[mask] = placed
                class_mask[mask] = kind + 1
                classes.append(kind + 1)
                break
        # all attempts failed: carry on with fewer instances

    # directional lighting ramp over the whole scene; clustering raw colors
    # must fight it, while crop-consistency training learns to discount it
    lo, hi = spec.lighting_gradient
    strength = rng.uniform(lo, hi)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    xs, ys = _pixel_grid(h, w)
    ramp = ((xs / w - 0.5) * np.cos(theta) + (ys / h - 0.5) * np.sin(theta))
    img = img * np.clip(1.0 + strength * 2.0 * ramp, 0.15, 1.9)

    return LabeledImage(Tensor(np.clip(img, 0.0, 1.0)), instance_mask, class_mask,
                        tuple(classes))


def generate(spec: SceneSpec, n: int) -> list[LabeledImage]:
    """Produce n labeled scenes, each from its own seed-derived stream."""
    if n < 1:
        raise ValueError("need at least one image")
    out = []
    for idx in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, idx])))
        out.append(_generate_one(spec, rng))
    return out


def downsample_mask(mask: np.ndarray, stride: int) -> np.ndarray:
    """Majority-vote downsampling to feature-map resolution; ties pick the
    lowest label id."""
    h, w = mask.shape
    if h % stride or w % stride:
        raise ValueError(f"mask extents {mask.shape} not divisible by stride {stride}")
    if stride == 1:
        return mask.copy()
    ho, wo = h // stride, w // stride
    blocks = mask.reshape(ho, stride, wo, stride).transpose(0, 2, 1, 3).reshape(ho, wo, -1)
    out = np.zeros((ho, wo), dtype=mask.dtype)
    for i in range(ho):
        for j in range(wo):
            counts = np.bincount(blocks[i, j])
            out[i, j] = counts.argmax()  # argmax breaks ties toward lower ids
    return out

