"""Cluster targets and every training loss.

K-means runs on the aligned target map and is always a stop-gradient target:
its inputs carry no tape and its outputs are plain constants. The cosine
losses stay in [-1, 1]; the pixel-contrastive loss is a softmax cross-entropy
and is non-negative.

Each loss takes a batch ([E,N] columns, [C,N,H,W] maps) and returns the N
per-sample losses. K-means is intra-image: ``kmeans_batch`` clusters each map
of a [C,N,H,W] batch on its own, in one Lloyd loop for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import align_pair
from .model import self_attention_predict
from .tensor import (Tensor, _require_maps, concat, detach, l2_normalize, logsumexp,
                     matmul, mul, negate, reduce_mean, reduce_sum, reshape, scale, select,
                     sub, transpose)

__all__ = [
    "ClusterResult",
    "ClusteringError",
    "NegativeQueue",
    "kmeans",
    "kmeans_batch",
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
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
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


def _pairwise_sq_dists(points: np.ndarray, points_sq: np.ndarray,
                       centroids: np.ndarray) -> np.ndarray:
    """[P,n,c] points, with their [P,n] squared norms, against [P,k,c]
    centroids: [P,n,k] squared distances."""
    # ||x - c||^2 expanded; clamp tiny negatives from cancellation. Doubling
    # is exact away from subnormals, so doubling the [P,n,k] products gives
    # the bytes of doubling the points first.
    d2 = (points_sq[:, :, None] + (centroids ** 2).sum(-1)[:, None, :]
          - 2.0 * (points @ centroids.transpose(0, 2, 1)))
    return np.maximum(d2, 0.0)


def _cluster_slots(assign: np.ndarray, k: int) -> np.ndarray:
    """[P,n] assignments as rows of the flattened [P*K] cluster table."""
    return assign + (np.arange(len(assign)) * k)[:, None]


def _cluster_sizes(slots: np.ndarray, k: int) -> np.ndarray:
    """[P,K] member counts of the [P,n] cluster slots."""
    return np.bincount(slots.ravel(), minlength=len(slots) * k).reshape(-1, k)


def _cluster_sums(points: np.ndarray, slots: np.ndarray, k: int) -> np.ndarray:
    """[P,K,c] sums of the member points of each cluster.

    bincount adds each member into its bin in member order, starting from
    0.0, which is what members.sum(axis=0) does, so the means it gives are
    bit-for-bit those of one cluster at a time.
    """
    c = points.shape[-1]
    bins = slots[:, :, None] * c + np.arange(c)
    return np.bincount(bins.ravel(), weights=points.ravel(),
                       minlength=len(slots) * k * c).reshape(-1, k, c)


def _repair_empty(points: np.ndarray, points_sq: np.ndarray, centroids: np.ndarray,
                  d2: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Promote the globally farthest point into each empty cluster of one map;
    updates ``centroids`` in place and returns the new assignments."""
    n, k = d2.shape
    for _repair in range(k):
        empties = [idx for idx in range(k) if not (assign == idx).any()]
        if not empties:
            break
        pick = int(d2[np.arange(n), assign].argmax())
        centroids[empties[0]] = points[pick]
        d2 = _pairwise_sq_dists(points[None], points_sq[None], centroids[None])[0]
        assign = d2.argmin(axis=1)
        assign[pick] = empties[0]
    return assign


def kmeans_batch(maps, k: int, metric: str = "cosine", max_iter: int = 10,
                 rng: np.random.Generator | None = None,
                 init: np.ndarray | None = None) -> list[ClusterResult]:
    """Lloyd clustering of the pixels of each map of a [C,P,H,W] batch; one
    ClusterResult per map, in batch order.

    The cosine metric unit-normalizes pixels first and then runs plain
    Euclidean Lloyd steps, so centroids are means of unit vectors and are not
    re-normalized. Empty clusters are repaired by promoting the point farthest
    from its centroid. Each map is seeded by k-means++ from ``rng`` in batch
    order; ``init`` ([P,K,C]) overrides the seeding (for oracle comparisons
    under a shared start).

    All maps share one Lloyd loop and a map leaves it once its assignments
    stop changing. The arithmetic per map is that of clustering it alone:
    centroids are sums in member order divided by the count, and the cost is
    summed per map. So a map's result does not depend on its batch.
    """
    data = maps.data if isinstance(maps, Tensor) else np.asarray(maps)
    _require_maps(data, "kmeans_batch")
    c, pairs, h, w = data.shape
    n = h * w
    if k < 1 or k > n:
        raise ValueError(f"cluster count {k} outside [1, {n}]")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if metric not in ("cosine", "euclidean"):
        raise ValueError(f"unknown metric {metric!r}")

    points = data.reshape(c, pairs, n).transpose(1, 2, 0).copy()  # [P, n, c]
    if metric == "cosine":
        points = _normalize_rows(points)
    if init is not None:
        centroids = np.array(init, dtype=np.float64)
        if centroids.shape != (pairs, k, c):
            raise ValueError(f"init shape {centroids.shape} does not match ({pairs}, {k}, {c})")
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        centroids = np.stack([_kmeanspp_init(p, k, rng) for p in points])

    assignments = np.zeros((pairs, n), dtype=np.intp)
    history: list[list[float]] = [[] for _ in range(pairs)]
    # the maps still iterating: their points, the points' squared norms (the
    # same every iteration) and their working centroids
    active, pts, pts_sq, cen = np.arange(pairs), points, (points ** 2).sum(-1), centroids.copy()
    for step in range(max_iter):
        d2 = _pairwise_sq_dists(pts, pts_sq, cen)
        new_assign = d2.argmin(axis=2)
        slots = _cluster_slots(new_assign, k)
        size = _cluster_sizes(slots, k)
        empty = np.flatnonzero((size == 0).any(axis=1))
        for row in empty:
            new_assign[row] = _repair_empty(pts[row], pts_sq[row], cen[row], d2[row],
                                            new_assign[row])
            centroids[active[row]] = cen[row]  # kept even if the map converges now
        recount = empty.size > 0
        if step:
            moved = (new_assign != assignments[active]).any(axis=1)
            if not moved.all():
                active, pts, pts_sq, cen, new_assign = (
                    active[moved], pts[moved], pts_sq[moved], cen[moved], new_assign[moved])
                recount = True
            if not active.size:
                break
        if recount:
            slots = _cluster_slots(new_assign, k)
            size = _cluster_sizes(slots, k)
        assignments[active] = new_assign
        has = size > 0
        cen[has] = _cluster_sums(pts, slots, k)[has] / size[has][:, None]
        centroids[active] = cen
        diff = pts - cen.reshape(-1, c)[slots]
        costs = (diff * diff).reshape(len(active), -1).sum(axis=1)
        for pair, cost in zip(active.tolist(), costs.tolist()):
            history[pair].append(cost)

    results = []
    for pair in range(pairs):
        cost_history = history[pair]
        for prev, cur in zip(cost_history, cost_history[1:]):
            if cur > prev + 1e-9 * max(1.0, abs(prev)):
                raise ClusteringError(f"Lloyd cost increased: {prev} -> {cur}")
        cen, assign = centroids[pair], assignments[pair]
        results.append(ClusterResult(centroids=Tensor(cen),
                                     assignments=assign.reshape(h, w),
                                     centroid_map=Tensor(cen[assign].T.reshape(c, h, w)),
                                     cost=cost_history[-1],
                                     cost_history=tuple(cost_history)))
    return results


def kmeans(target_map, k: int, metric: str = "cosine", max_iter: int = 10,
           rng: np.random.Generator | None = None,
           init: np.ndarray | None = None) -> ClusterResult:
    """Lloyd clustering of the pixels of one [C,H,W] map: ``kmeans_batch`` on
    a batch of one, with ``init`` a [K,C] start."""
    data = target_map.data if isinstance(target_map, Tensor) else np.asarray(target_map)
    if data.ndim != 3:
        raise ValueError(f"kmeans expects one [C,H,W] map, got shape {data.shape}")
    if init is not None:
        init = np.asarray(init, dtype=np.float64)[None]
    return kmeans_batch(data[:, None], k, metric=metric, max_iter=max_iter, rng=rng,
                        init=init)[0]


# ---------------------------------------------------------------------------
# losses


def _mean_pixels(per_pixel: Tensor) -> Tensor:
    """Per-sample spatial mean of an [N,H,W] map: an [N] vector."""
    n, h, w = per_pixel.shape
    return reduce_mean(reshape(per_pixel, (n, h * w)), axis=-1)


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


def loss_2d_cluster(pred_map: Tensor, clusters, dense: bool = False,
                    target_map: Tensor | None = None) -> Tensor:
    """Mean negated cosine between predictions and their cluster targets.

    ``clusters`` holds one ClusterResult per sample of the [C,N,H,W] batch.
    dense=False compares each pixel with its assigned centroid; dense=True
    compares with every member pixel of its cluster (averaged), which reduces
    to a dot product with the mean of the unit-normalized member pixels.
    """
    _require_maps(pred_map, "loss_2d_cluster")
    if len(clusters) != pred_map.shape[1]:
        raise ValueError(f"{len(clusters)} cluster results for a batch of {pred_map.shape}")
    for result in clusters:
        if pred_map.shape[-2:] != result.centroid_map.shape[1:]:
            raise ValueError(
                f"extent mismatch: {pred_map.shape} vs {result.centroid_map.shape}")
    if dense and target_map is None:
        raise ValueError("dense clustering needs the aligned target map")
    if dense:
        targets = [_dense_target(r, target_map.data[:, s]) for s, r in enumerate(clusters)]
    else:
        targets = [r.centroid_map.data for r in clusters]
    const = Tensor(np.stack(targets, axis=1))
    if not dense:
        return negate(_mean_pixels(_cosine_map(pred_map, const)))
    return negate(_mean_pixels(reduce_sum(mul(l2_normalize(pred_map, axis=0), const),
                                          axis=0)))


def loss_2d_wo_kmeans(pred_map: Tensor, target_map: Tensor) -> Tensor:
    """Mean negated per-pixel cosine against the raw aligned target map."""
    _require_maps(pred_map, "loss_2d_wo_kmeans")
    _require_maps(target_map, "loss_2d_wo_kmeans")
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
    The [C,N,H,W] samples (with N specs each) are clustered together, then
    scored and pushed one after another, so sample s sees the queue as the
    samples before it left it. Returns the N per-sample losses.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    regions = align_pair(online_feat, target_feat, spec_a, spec_b, "roi")
    region_on, region_tg = regions.online, regions.target

    local = online_projector(region_on)
    online_proj = (self_attention_predict(region_on, local, residual=False)
                   if use_attention else local)
    target_proj = target_projector(region_tg)

    dim, samples, h, w = online_proj.shape
    n = h * w
    # [N, n, dim]: unit-normalized online pixels, sample by sample
    pixels = transpose(l2_normalize(reshape(online_proj, (dim, samples, n)), axis=0),
                       (1, 2, 0))
    targets = target_proj.data
    clusters = kmeans_batch(targets, k, metric=metric, max_iter=max_iter, rng=rng)
    losses = []
    for s, cluster in enumerate(clusters):
        sample = select(pixels, s)
        positives = Tensor(_normalize_rows(cluster.centroid_map.data.reshape(dim, n).T))
        pos_logits = scale(reduce_sum(mul(sample, positives), axis=1), 1.0 / temperature)
        neg_logits = scale(matmul(sample, Tensor(queue.negatives().T)), 1.0 / temperature)
        logits = concat([reshape(pos_logits, (n, 1)), neg_logits], axis=1)
        losses.append(reduce_mean(sub(logsumexp(logits, axis=1), pos_logits)))
        if update_queue:
            queue.push(targets[:, s].reshape(dim, n).T)
    return concat([reshape(loss, (1,)) for loss in losses], axis=0)
