"""Deterministic synthetic multi-instance scenes with ground-truth masks.

Each image is a low-frequency noise background with a handful of colored
shapes (disks, rectangles, triangles) placed with bounded mutual overlap.
Instance ids count from 1 in placement order; class ids follow the shape kind.
The palette separates classes by hue while per-instance jitter and the noisy
background keep intensity thresholds from solving the task outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .views import resize_bilinear

__all__ = [
    "SceneSpec",
    "LabeledImage",
    "generate",
    "downsample_mask",
]

_PALETTE = (
    (0.85, 0.25, 0.20),  # disk
    (0.20, 0.40, 0.85),  # rectangle
    (0.90, 0.80, 0.25),  # triangle
)

# The fixed scene recipe. Each scene holds 2-5 instances of radius 0.14-0.30
# of the short side, so they span a couple of feature-map cells at stride 8
# and pooled features keep instance contrast. Overlap is bounded per placement:
# a newcomer covers under 30% of its own area and of each earlier instance's
# pixels visible then, so losses compound and an instance can end below 70%
# visible. Each color is its class's palette entry jittered by up to 0.08 per
# channel. The background is a per-image tint in [0.05, 0.25] plus +-0.04 of
# bilinearly upsampled 4x4 value noise: low-frequency, and weak enough not to
# rival instance-versus-background contrast. A lighting ramp of strength
# 0.4-0.8 spans the whole scene.
_MAX_OVERLAP = 0.3


@dataclass(frozen=True)
class SceneSpec:
    """Generation recipe for one corpus; same spec, same images."""

    size: tuple[int, int] = (64, 64)
    seed: int = 0


@dataclass
class LabeledImage:
    image: np.ndarray                  # [3,H,W] float in [0,1]
    instance_mask: np.ndarray          # [H,W] int, 0 = background
    class_mask: np.ndarray             # [H,W] int, 0 = background


def _pixel_grid(h: int, w: int):
    """Pixel centres as broadcastable axes: xs is [1,W], ys is [H,1]."""
    return (np.arange(w) + 0.5)[None, :], (np.arange(h) + 0.5)[:, None]


def _rasterize(kind: int, params, h: int, w: int) -> np.ndarray:
    """[H,W] bool mask of one shape; per-row and per-column terms meet only where they combine."""
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


def _sample_shape(kind: int, h: int, w: int, rng: np.random.Generator):
    r = rng.uniform(0.14, 0.30) * min(h, w)
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
    tint = rng.uniform(0.05, 0.25, size=3)
    cells = tint[:, None, None] + rng.uniform(-0.04, 0.04, size=(3, 4, 4))
    img = resize_bilinear(cells, (h, w))
    # in place: a freed resize output under each kept image left about 1.4 MB
    # of heap holes over a 128-scene corpus, all in the peak resident set
    return np.clip(img, 0.0, 1.0, out=img)


def _generate_one(spec: SceneSpec, rng: np.random.Generator) -> LabeledImage:
    h, w = spec.size
    img = _background(spec, rng)
    instance_mask = np.zeros((h, w), dtype=np.int32)
    class_mask = np.zeros((h, w), dtype=np.int32)

    count = int(rng.integers(2, 6))  # 2-5 instances
    placed = 0
    visible = np.zeros(0, dtype=np.int64)  # pixels each placed instance shows
    for _ in range(count):
        for _attempt in range(30):
            kind = int(rng.integers(0, len(_PALETTE)))
            mask = _rasterize(kind, _sample_shape(kind, h, w, rng), h, w)
            under = instance_mask[mask]
            area = under.size
            if area == 0:
                continue
            overlap = np.count_nonzero(under) / area
            # the bound must also hold for what the newcomer paints over
            covered = np.bincount(under, minlength=placed + 1)[1:]
            steals = (covered / np.maximum(visible, 1)).max() if placed else 0.0
            if overlap < _MAX_OVERLAP and steals < _MAX_OVERLAP:
                placed += 1
                visible = np.append(visible - covered, area)
                base = np.array(_PALETTE[kind])
                color = np.clip(base + rng.uniform(-0.08, 0.08, 3), 0.0, 1.0)
                img[:, mask] = color[:, None]
                instance_mask[mask] = placed
                class_mask[mask] = kind + 1
                break
        # all attempts failed: carry on with fewer instances

    # directional lighting ramp over the whole scene; clustering raw colors
    # must fight it, while crop-consistency training learns to discount it
    strength = rng.uniform(0.4, 0.8)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    xs, ys = _pixel_grid(h, w)
    ramp = ((xs / w - 0.5) * np.cos(theta) + (ys / h - 0.5) * np.sin(theta))
    img *= np.clip(1.0 + strength * 2.0 * ramp, 0.15, 1.9)

    return LabeledImage(np.clip(img, 0.0, 1.0, out=img), instance_mask, class_mask)


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
    ho, wo = h // stride, w // stride
    cell = (np.arange(h)[:, None] // stride) * wo + np.arange(w)[None, :] // stride
    labels = int(mask.max()) + 1
    # one count per (cell, label) bin; argmax breaks ties toward lower ids
    counts = np.bincount((cell * labels + mask).reshape(-1), minlength=ho * wo * labels)
    return counts.reshape(ho, wo, labels).argmax(axis=2).astype(mask.dtype)

