"""Cluster-map rendering: fixed palette, panel composition, binary PPM output."""

from __future__ import annotations

import numpy as np

__all__ = ["PALETTE", "cluster_panel", "image_panel", "compose_panels", "write_ppm"]

# eight visually distinct colors; cluster id indexes into this table
PALETTE = np.array([
    (230, 57, 70),
    (69, 123, 157),
    (247, 201, 72),
    (106, 176, 76),
    (155, 89, 182),
    (52, 73, 94),
    (243, 156, 18),
    (236, 240, 241),
], dtype=np.uint8)


def cluster_panel(assignments: np.ndarray) -> np.ndarray:
    """Map an [H,W] int label field to an [H,W,3] uint8 color panel."""
    if assignments.max() >= len(PALETTE):
        raise ValueError(f"cluster id {assignments.max()} exceeds the {len(PALETTE)}-color palette")
    return PALETTE[assignments]


def image_panel(image: np.ndarray) -> np.ndarray:
    """[3,H,W] float image in [0,1] to an [H,W,3] uint8 panel."""
    return (np.clip(np.transpose(image, (1, 2, 0)), 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def compose_panels(panels: list[np.ndarray]) -> np.ndarray:
    heights = {p.shape[0] for p in panels}
    if len(heights) != 1:
        raise ValueError("panels differ in height")
    return np.concatenate(panels, axis=1)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write an [H,W,3] uint8 array as a binary (P6) PPM file."""
    h, w, c = pixels.shape
    if c != 3 or pixels.dtype != np.uint8:
        raise ValueError("write_ppm expects [H,W,3] uint8 pixels")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

