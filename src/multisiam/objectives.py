"""Cluster targets and every training loss.

K-means runs on the aligned target map and is always a stop-gradient target:
its inputs carry no tape and its outputs are plain constants. The cosine
losses stay in [-1, 1]; the pixel-contrastive loss is a softmax cross-entropy
and is non-negative.

Each loss takes a single sample ([E] vectors, [C,H,W] maps) and returns a
scalar, or a batch ([E,N], [C,N,H,W]) and returns the N per-sample losses.
K-means is intra-image and runs on one sample at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import intersection_relative, roi_align
from .model import self_attention_predict
from .tensor import (Tensor, concat, detach, l2_normalize, logsumexp, matmul, mul,
                     negate, reduce_mean, reduce_sum, reshape, scale, select, sub,
                     transpose)

__all__ = [
    "ClusterResult",
    "ClusteringError",
    "NegativeQueue",
    "kmeans",
    "loss_1d",
    "loss_2d_cluster",
    "loss_2d_wo_kmeans",
    "loss_total",
    "moco_pixel_infonce",
    "LOSS_MODES",
]

LOSS_MODES = ("cluster", "wo_kmeans", "moco")


class ClusteringError(RuntimeError):
    """Raised when a Lloyd iteration raises the clustering cost, which exact
    arithmetic rules out."""


@dataclass
class ClusterResult:
    """Per-pixel cluster targets over an HxW grid."""

    centroids: Tensor          # [K, C], constants
    assignments: np.ndarray    # [H, W] int
    centroid_map: Tensor       # [C, H, W], centroid_map[:, i, j] == centroids[assignments[i, j]]
    cost: float                # within-cluster sum of squared distances (working space)
    cost_history: tuple[float, ...]


def _normalize_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return x / np.maximum(norms, eps)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    first = int(rng.integers(n))
    centroids = [points[first]]
    d2 = ((points - points[first]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids.append(points[pick])
        d2 = np.minimum(d2, ((points - points[pick]) ** 2).sum(axis=1))
    return np.array(centroids)


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||x - c||^2 expanded; clamp tiny negatives from cancellation
    d2 = ((points ** 2).sum(1)[:, None] + (centroids ** 2).sum(1)[None, :]
          - 2.0 * points @ centroids.T)
    return np.maximum(d2, 0.0)


def kmeans(target_map, k: int, metric: str = "cosine", max_iter: int = 10,
           rng: np.random.Generator | None = None,
           init: np.ndarray | None = None) -> ClusterResult:
    """Lloyd clustering of the pixels of a [C,H,W] map.

    The cosine metric unit-normalizes pixels first and then runs plain
    Euclidean Lloyd steps, so centroids are means of unit vectors and are not
    re-normalized. Empty clusters are repaired by promoting the point farthest
    from its centroid. ``init`` overrides the k-means++ seeding (for oracle
    comparisons under a shared start).
    """
    data = target_map.data if isinstance(target_map, Tensor) else np.asarray(target_map)
    c, h, w = data.shape
    n = h * w
    if k < 1 or k > n:
        raise ValueError(f"cluster count {k} outside [1, {n}]")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if metric not in ("cosine", "euclidean"):
        raise ValueError(f"unknown metric {metric!r}")

    points = data.reshape(c, n).T.copy()
    if metric == "cosine":
        points = _normalize_rows(points)
    if init is not None:
        centroids = np.array(init, dtype=np.float64)
        if centroids.shape != (k, c):
            raise ValueError(f"init shape {centroids.shape} does not match ({k}, {c})")
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        centroids = _kmeanspp_init(points, k, rng)

    assignments = None
    history: list[float] = []
    for _ in range(max_iter):
        d2 = _pairwise_sq_dists(points, centroids)
        new_assign = d2.argmin(axis=1)
        # promote the globally farthest point into each empty cluster
        for _repair in range(k):
            empties = [idx for idx in range(k) if not (new_assign == idx).any()]
            if not empties:
                break
            pick = int(d2[np.arange(n), new_assign].argmax())
            centroids[empties[0]] = points[pick]
            d2 = _pairwise_sq_dists(points, centroids)
            new_assign = d2.argmin(axis=1)
            new_assign[pick] = empties[0]
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for idx in range(k):
            members = points[assignments == idx]
            if members.size:
                centroids[idx] = members.mean(axis=0)
        cost = float(((points - centroids[assignments]) ** 2).sum())
        history.append(cost)

    for prev, cur in zip(history, history[1:]):
        if cur > prev + 1e-9 * max(1.0, abs(prev)):
            raise ClusteringError(f"Lloyd cost increased: {prev} -> {cur}")

    centroid_map = centroids[assignments].T.reshape(c, h, w)
    return ClusterResult(centroids=Tensor(centroids),
                         assignments=assignments.reshape(h, w),
                         centroid_map=Tensor(centroid_map),
                         cost=history[-1],
                         cost_history=tuple(history))


# ---------------------------------------------------------------------------
# losses


def _mean_pixels(per_pixel: Tensor) -> Tensor:
    """Spatial mean of an [H,W] or [N,H,W] map: a scalar or an [N] vector."""
    *batch, h, w = per_pixel.shape
    return reduce_mean(reshape(per_pixel, tuple(batch) + (h * w,)), axis=-1)


def _cosine_map(pred_map: Tensor, const_map: Tensor) -> Tensor:
    """Per-pixel cosine between a predicted map and a constant target map."""
    return reduce_sum(mul(l2_normalize(pred_map, axis=0),
                          l2_normalize(const_map, axis=0)), axis=0)


def loss_1d(online_pred: Tensor, target_proj: Tensor) -> Tensor:
    """Negated cosine between the online prediction and the (stopped) target
    projection, per column of [E,N] inputs; lies in [-1, 1]."""
    q = l2_normalize(online_pred, axis=0)
    z = l2_normalize(detach(target_proj), axis=0)
    return negate(reduce_sum(mul(q, z), axis=0))


def _dense_target(cluster: ClusterResult, target: np.ndarray) -> np.ndarray:
    # the mean of the unit-normalized member pixels of each pixel's cluster
    c, h, w = target.shape
    flat_assign = cluster.assignments.reshape(-1)
    pix = _normalize_rows(target.reshape(c, h * w).T)
    k = cluster.centroids.shape[0]
    member_means = np.zeros((k, c))
    for idx in range(k):
        members = pix[flat_assign == idx]
        if members.size:
            member_means[idx] = members.mean(axis=0)
    return member_means[flat_assign].T.reshape(c, h, w)


def loss_2d_cluster(pred_map: Tensor, cluster, dense: bool = False,
                    target_map: Tensor | None = None) -> Tensor:
    """Mean negated cosine between predictions and their cluster targets.

    ``cluster`` is one ClusterResult for a [C,H,W] map, or a sequence with
    one per sample of a [C,N,H,W] batch. dense=False compares each pixel with
    its assigned centroid; dense=True compares with every member pixel of its
    cluster (averaged), which reduces to a dot product with the mean of the
    unit-normalized member pixels.
    """
    batched = pred_map.ndim == 4
    clusters = list(cluster) if batched else [cluster]
    if len(clusters) != (pred_map.shape[1] if batched else 1):
        raise ValueError(f"{len(clusters)} cluster results for a batch of {pred_map.shape}")
    for result in clusters:
        if pred_map.shape[-2:] != result.centroid_map.shape[1:]:
            raise ValueError(
                f"extent mismatch: {pred_map.shape} vs {result.centroid_map.shape}")
    if dense and target_map is None:
        raise ValueError("dense clustering needs the aligned target map")
    if dense:
        data = target_map.data if batched else target_map.data[:, None]
        targets = [_dense_target(r, data[:, s]) for s, r in enumerate(clusters)]
    else:
        targets = [r.centroid_map.data for r in clusters]
    const = Tensor(np.stack(targets, axis=1) if batched else targets[0])
    if not dense:
        return negate(_mean_pixels(_cosine_map(pred_map, const)))
    return negate(_mean_pixels(reduce_sum(mul(l2_normalize(pred_map, axis=0), const),
                                          axis=0)))


def loss_2d_wo_kmeans(pred_map: Tensor, target_map: Tensor) -> Tensor:
    """Mean negated per-pixel cosine against the raw aligned target map."""
    if pred_map.shape[1:] != target_map.shape[1:]:
        raise ValueError(f"extent mismatch: {pred_map.shape} vs {target_map.shape}")
    return negate(_mean_pixels(_cosine_map(pred_map, detach(target_map))))


def loss_total(l1d: Tensor, l2d: Tensor, weight: float) -> Tensor:
    """weight * image-level loss + (1 - weight) * map-level loss."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    return scale(l1d, weight) + scale(l2d, 1.0 - weight)


# ---------------------------------------------------------------------------
# pixel-contrastive variant


class NegativeQueue:
    """FIFO ring buffer of unit-normalized feature vectors."""

    def __init__(self, length: int, dim: int):
        if length < 1 or dim < 1:
            raise ValueError("queue length and dim must be positive")
        self.buffer = np.zeros((length, dim))
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def push(self, vectors: np.ndarray) -> None:
        v = _normalize_rows(np.asarray(vectors, dtype=np.float64))
        length = self.buffer.shape[0]
        if v.shape[0] >= length:
            self.buffer[:] = v[-length:]
            self.cursor = 0
            self.size = length
            return
        first = min(v.shape[0], length - self.cursor)
        self.buffer[self.cursor:self.cursor + first] = v[:first]
        if first < v.shape[0]:
            self.buffer[:v.shape[0] - first] = v[first:]
        self.cursor = (self.cursor + v.shape[0]) % length
        self.size = min(self.size + v.shape[0], length)

    def negatives(self) -> np.ndarray:
        return self.buffer[:self.size].copy()


def moco_pixel_infonce(online_feat: Tensor, target_feat: Tensor, spec_a, spec_b,
                       online_projector, target_projector, queue: NegativeQueue,
                       k: int, temperature: float = 0.2, metric: str = "cosine",
                       max_iter: int = 10, rng: np.random.Generator | None = None,
                       use_attention: bool = True, update_queue: bool = True) -> Tensor:
    """Per-pixel contrastive loss over region-aligned raw feature maps.

    Alignment happens before projection; the online projection aggregates
    local projector outputs with self-attention. The positive for each pixel
    is its cluster centroid on the target projection; negatives come from the
    queue. Afterwards the target pixels are pushed into the queue (FIFO).
    For a [C,N,H,W] batch (with N specs each) the samples are clustered,
    scored and pushed one after another, so sample s sees the queue as the
    samples before it left it.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    batched = online_feat.ndim == 4
    pairs = list(zip(spec_a, spec_b)) if batched else [(spec_a, spec_b)]
    h, w = online_feat.shape[-2:]
    rel_a, rel_b = zip(*(intersection_relative(a, b) for a, b in pairs))
    if not batched:
        rel_a, rel_b = rel_a[0], rel_b[0]
    region_on = roi_align(online_feat, rel_a, h, w)
    region_tg = roi_align(target_feat, rel_b, h, w)

    local = online_projector(region_on)
    online_proj = (self_attention_predict(region_on, local, residual=False)
                   if use_attention else local)
    target_proj = target_projector(region_tg)

    n = h * w
    dim = online_proj.shape[0]
    # [N, n, dim]: unit-normalized online pixels, sample by sample
    pixels = transpose(l2_normalize(reshape(online_proj, (dim, len(pairs), n)), axis=0),
                       (1, 2, 0))
    targets = target_proj.data if batched else target_proj.data[:, None]
    losses = []
    for s in range(len(pairs)):
        cluster = kmeans(targets[:, s], k, metric=metric, max_iter=max_iter, rng=rng)
        sample = select(pixels, s)
        positives = Tensor(_normalize_rows(cluster.centroid_map.data.reshape(dim, n).T))
        pos_logits = scale(reduce_sum(mul(sample, positives), axis=1), 1.0 / temperature)
        neg_logits = scale(matmul(sample, Tensor(queue.negatives().T)), 1.0 / temperature)
        logits = concat([reshape(pos_logits, (n, 1)), neg_logits], axis=1)
        losses.append(reduce_mean(sub(logsumexp(logits, axis=1), pos_logits)))
        if update_queue:
            queue.push(targets[:, s].reshape(dim, n).T)
    if not batched:
        return losses[0]
    return concat([reshape(loss, (1,)) for loss in losses], axis=0)
