"""Cluster targets and every training loss.

K-means runs on the aligned target map and is always a stop-gradient target:
it takes and returns plain arrays, which never join the tape. The cosine
losses stay in [-1, 1]; the pixel-contrastive loss is a softmax cross-entropy
and is non-negative.

Each loss takes a batch ([E,N] columns, [C,N,H,W] maps) and returns the N
per-sample losses. K-means is intra-image: ``kmeans_batch`` clusters each map
of a [C,N,H,W] batch on its own, in one Lloyd loop for the whole batch.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, _require_maps, add, concat, l2_normalize, logsumexp, matmul, mul,
                     negate, reduce_mean, reduce_sum, reshape, scale, select, sub, transpose,
                     unit_normalize)
from .views import resize_weights, separable

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
    """The clusters of the pixels of an HxW grid."""

    centroids: np.ndarray      # [K, C]
    assignments: np.ndarray    # [H, W] int
    cost_history: tuple[float, ...]  # per Lloyd update, the within-cluster sum of squared
                                     # distances (working space), in the clamped
                                     # ||x||^2 + ||c||^2 - 2 x.c form of assignment


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, 2007) of [n,c] points: the
    first centroid uniformly, each next one with probability proportional to
    a point's squared distance to its nearest centroid so far. One buffer
    serves every subtract-and-square pass, and no pass follows the last
    pick, which nothing reads."""
    n = points.shape[0]
    centroids = [points[int(rng.integers(n))]]
    diff = np.empty_like(points)
    d2 = None
    for _ in range(1, k):
        np.subtract(points, centroids[-1], out=diff)
        sq = np.multiply(diff, diff, out=diff).sum(axis=1)
        d2 = sq if d2 is None else np.minimum(d2, sq, out=d2)
        total = d2.sum()
        if not total > 0.0:  # also NaN, which the non-finite loss check reports
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids.append(points[pick])
    return np.array(centroids)


def _pairwise_sq_dists(points: np.ndarray, points_sq: np.ndarray, centroids: np.ndarray,
                       products: np.ndarray | None = None) -> np.ndarray:
    """[P,n,c] points, with their [P,1,n] squared norms, against [P,k,c]
    centroids: [P,k,n] squared distances, k-major, or with the [P,k,n] x.c
    ``products`` when they are taken another way (``_Upsampled``).

    Each distance is ``(||x||^2 + ||c||^2) - 2 x.c``, clamped at zero against
    cancellation. The x.c products are one GEMM per map of its [k,c]
    centroids with the transposed view of its [n,c] points. On OpenBLAS
    0.3.31 that gives the bytes of the [n,c] @ [c,k] GEMM, where a contiguous
    [c,n] copy of the points does not. The norms then broadcast along the n
    points of a row, not along rows of k entries. Doubling is exact away from
    subnormals, so doubling the products gives the bytes of doubling the
    points first.
    """
    prod = centroids @ points.transpose(0, 2, 1) if products is None else products
    prod *= 2.0
    d2 = np.add(points_sq, (centroids * centroids).sum(-1, keepdims=True))
    d2 -= prod
    return np.maximum(d2, 0.0, out=d2)


def _nearest(d2: np.ndarray) -> np.ndarray:
    """Each point's cluster under finite [..., k, n] squared distances: the
    first of equal minima, as ``np.argmin(axis=-2)`` picks. A point's index
    counts the leading rows that miss its minimum. The minimum over k and
    the row comparisons stream along n, where ``argmin`` walks rows of k
    entries."""
    low = np.minimum.reduce(d2, axis=-2)
    missed = d2[..., 0, :] != low
    assign = missed.astype(np.intp)
    for idx in range(1, d2.shape[-2] - 1):
        missed &= d2[..., idx, :] != low
        assign += missed
    return assign


def _membership(assign: np.ndarray, k: int) -> np.ndarray:
    """[..., k, n] one-hot float membership of [..., n] assignments. Its sum
    over n counts each cluster's members exactly, and its product with the
    [..., n, c] points sums each cluster's members, zero for an empty one.

    That product is one GEMM per map. The BLAS picks the order in which a
    GEMM adds, so the last bits of a sum follow the BLAS build and can differ
    from adding the members one by one. A stacked matmul runs one GEMM per
    map, so a map's sums do not depend on the other maps of its batch.
    """
    return (assign[..., None, :] == np.arange(k)[:, None]).astype(np.float64)


def _repair_empty(points: np.ndarray, points_sq: np.ndarray, centroids: np.ndarray,
                  d2: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Promote the globally farthest point into each empty cluster of one map,
    given its [k,n] distances; updates ``centroids`` in place and returns the
    new assignments."""
    k, n = d2.shape
    for _repair in range(k):
        empties = [idx for idx in range(k) if not (assign == idx).any()]
        if not empties:
            break
        pick = int(d2[assign, np.arange(n)].argmax())
        centroids[empties[0]] = points[pick]
        d2 = _pairwise_sq_dists(points[None], points_sq[None], centroids[None])[0]
        assign = _nearest(d2)
        assign[pick] = empties[0]
    return assign


def _record_costs(history: list[list[float]], active: np.ndarray, d2: np.ndarray,
                  cells: np.ndarray) -> None:
    """Append to each active map's history its cost: the sum of its [k,n]
    squared distances ``d2`` at its [n] ``cells``, the flat indices into
    ``d2`` of its points' clusters."""
    costs = d2.take(cells).sum(axis=1)
    for pair, cost in zip(active.tolist(), costs.tolist()):
        history[pair].append(cost)


class _Upsampled:
    """A [C,P,h,w] batch at the pixels of its ``resize_bilinear`` upsamples u to
    ``size``. ``points`` is [P,n,C], channel-major in memory so that passes
    over its rows stream along n, and u / ||u|| under the cosine metric.
    ``products`` (x.c) and ``sums`` (of members) for the maps ``active`` run
    on the h*w feature pixels f: the upsample of the [k,h,w] products f.c, and
    the adjoint upsample of the membership times f, both over ||u|| if cosine."""

    def __init__(self, maps: np.ndarray, size: tuple[int, int], cosine: bool):
        c, pairs, h, w = maps.shape
        self.grid, self.size = (h, w), size
        self.rows, self.cols = resize_weights((h, w), size)
        self.feats = maps.transpose(1, 0, 2, 3).reshape(pairs, c, h * w)  # [P, C, h*w]
        up = separable(self.feats.reshape(pairs * c, h, w), self.rows, self.cols)
        self.points, self.norms = up.reshape(pairs, c, -1).transpose(0, 2, 1), None
        if cosine:
            self.points, norms = unit_normalize(self.points, -1, with_norms=True)
            self.norms = norms.transpose(0, 2, 1)  # [P, 1, n]

    def products(self, centroids: np.ndarray, active: np.ndarray) -> np.ndarray:
        fc = (centroids @ self.feats[active]).reshape(-1, *self.grid)
        prod = separable(fc, self.rows, self.cols).reshape(*centroids.shape[:2], -1)
        return prod if self.norms is None else np.divide(prod, self.norms[active], out=prod)

    def sums(self, member: np.ndarray, active: np.ndarray) -> np.ndarray:
        member = member if self.norms is None else member / self.norms[active]
        back = separable(member.reshape(-1, *self.size), self.rows.T, self.cols.T)
        return back.reshape(*member.shape[:2], -1) @ self.feats[active].transpose(0, 2, 1)


def kmeans_batch(maps: np.ndarray, k: int, metric: str = "cosine", max_iter: int = 10,
                 rng: np.random.Generator | None = None, init: np.ndarray | None = None,
                 size: tuple[int, int] | None = None) -> list[ClusterResult]:
    """Lloyd clustering of the pixels of each map of a [C,P,H,W] batch; one
    ClusterResult per map, in batch order.

    The cosine metric unit-normalizes pixels first and then runs plain
    Euclidean Lloyd steps, so centroids are means of unit vectors and are not
    re-normalized. Empty clusters are repaired by promoting the point farthest
    from its centroid. Each map is seeded by k-means++ from ``rng`` in batch
    order; ``init`` ([P,K,C]) overrides the seeding (for oracle comparisons
    under a shared start). With ``size`` = (H, W), each map is clustered at
    the pixels of its bilinear upsample to [H,W] (``_Upsampled``).

    All maps share one Lloyd loop and a map leaves it once its assignments
    stop changing. The arithmetic per map is that of clustering it alone:
    centroids are member sums, from one GEMM per map, divided by the count,
    and the cost is summed per map. So a map's result does not depend on its
    batch. The GEMM's rounding follows the BLAS, so centroids and costs can
    differ in the last bits from means taken one cluster at a time.

    Distances are k-major, [P,K,n] (see ``_pairwise_sq_dists``), and a point
    joins the first of its equally near centroids, as ``np.argmin`` would
    pick. An update's cost is read off the next iteration's distance matrix,
    at the assignments the centroids were just computed from; only a map
    that runs out of ``max_iter`` needs one more distance matrix. Nothing
    else reads the cost, so it moves no assignment or centroid.
    """
    _require_maps(maps, "kmeans_batch")
    c, pairs, h, w = maps.shape
    h, w = (h, w) if size is None else map(operator.index, size)  # the grid clustered
    if min(h, w) < 1:
        raise ValueError(f"cannot cluster an empty grid of {h}x{w} pixels")
    n = h * w
    if k < 1 or k > n:
        raise ValueError(f"cluster count {k} outside [1, {n}]")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if metric not in ("cosine", "euclidean"):
        raise ValueError(f"unknown metric {metric!r}")

    basis = None if size is None else _Upsampled(maps, (h, w), metric == "cosine")
    points = (maps.reshape(c, pairs, n).transpose(1, 2, 0).copy() if basis is None
              else basis.points)  # [P, n, c]
    if metric == "cosine" and basis is None:  # an upsample is normalized already
        points = unit_normalize(points, -1)
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
    # each point's flat index at cluster 0 of a [P,k,n] distance matrix; the
    # active maps are packed, so the first len(active) rows serve them
    offsets = np.arange(pairs)[:, None] * (k * n) + np.arange(n)
    # the maps still iterating: their points, the points' [1,n] squared norms
    # (the same every iteration), their working centroids and their
    # assignments; a map's centroids and assignments are written back when
    # it leaves
    active, pts, pts_sq, cen = (np.arange(pairs), points, (points ** 2).sum(-1)[:, None, :],
                                centroids.copy())
    assign = None
    for step in range(max_iter):
        d2 = _pairwise_sq_dists(pts, pts_sq, cen, basis and basis.products(cen, active))
        if step:  # the last update's cost, before a repair moves a centroid
            _record_costs(history, active, d2, assign * n + offsets[:len(active)])
        new_assign = _nearest(d2)
        member = _membership(new_assign, k)
        counts = member.sum(axis=2)
        if not counts.all():
            for row in np.flatnonzero((counts == 0).any(axis=1)):
                new_assign[row] = _repair_empty(pts[row], pts_sq[row], cen[row], d2[row],
                                                new_assign[row])
                member[row] = _membership(new_assign[row], k)
                counts[row] = member[row].sum(axis=1)
        if step:
            moved = (new_assign != assign).any(axis=1)
            if not moved.all():
                # a converged map keeps its last update, and a repair made now
                left = active[~moved]
                assignments[left], centroids[left] = assign[~moved], cen[~moved]
                active, pts, pts_sq, cen, new_assign, member, counts = (
                    active[moved], pts[moved], pts_sq[moved], cen[moved], new_assign[moved],
                    member[moved], counts[moved])
        assign = new_assign
        if not active.size:
            break
        # an empty cluster keeps its centroid
        sums = member @ pts if basis is None else basis.sums(member, active)
        np.divide(sums, counts[:, :, None], out=cen, where=counts[:, :, None] > 0)
    else:  # out of iterations: the last update's cost needs its own distances
        d2 = _pairwise_sq_dists(pts, pts_sq, cen, basis and basis.products(cen, active))
        _record_costs(history, active, d2, assign * n + offsets[:len(active)])
    assignments[active], centroids[active] = assign, cen

    results = []
    for pair in range(pairs):
        cost_history = history[pair]
        for prev, cur in zip(cost_history, cost_history[1:]):
            if cur > prev + 1e-9 * max(1.0, abs(prev)):
                raise ClusteringError(f"Lloyd cost increased: {prev} -> {cur}")
        results.append(ClusterResult(centroids[pair], assignments[pair].reshape(h, w),
                                     tuple(cost_history)))
    return results


def kmeans(target_map: np.ndarray, k: int, metric: str = "cosine", max_iter: int = 10,
           rng: np.random.Generator | None = None, init: np.ndarray | None = None,
           size: tuple[int, int] | None = None) -> ClusterResult:
    """Lloyd clustering of one [C,H,W] map's pixels, or its upsample's at ``size``:
    ``kmeans_batch`` on a batch of one, with ``init`` a [K,C] start."""
    if target_map.ndim != 3:
        raise ValueError(f"kmeans expects one [C,H,W] map, got shape {target_map.shape}")
    if init is not None:
        init = np.asarray(init, dtype=np.float64)[None]
    return kmeans_batch(target_map[:, None], k, metric=metric, max_iter=max_iter, rng=rng,
                        init=init, size=size)[0]


# ---------------------------------------------------------------------------
# losses


def _cluster_targets(clusters, target_map: np.ndarray | None = None) -> np.ndarray:
    """[N,n,C] per-pixel targets of one ClusterResult per sample: each pixel's
    centroid or, given the constant [C,N,H,W] ``target_map`` the clusters were
    built on, the mean of the unit-normalized member pixels of its cluster."""
    assign = np.stack([r.assignments.reshape(-1) for r in clusters])  # [N, n]
    if target_map is None:
        table = np.stack([r.centroids for r in clusters])
    else:
        c, samples, h, w = target_map.shape
        pix = unit_normalize(target_map.reshape(c, samples, h * w).transpose(1, 2, 0), -1)
        member = _membership(assign, clusters[0].centroids.shape[0])
        # an empty cluster is no pixel's target; its zero sum stays zero
        table = (member @ pix) / np.maximum(member.sum(axis=2), 1.0)[:, :, None]
    return table[np.arange(len(clusters))[:, None], assign]


def _pixel_cosine_loss(pred_map: Tensor, target: np.ndarray) -> Tensor:
    """Per-sample mean over the pixels of -<unit(pred), target>, against a
    constant [C,N,H,W] ``target``: unit pixels make it a negated cosine."""
    per_pixel = reduce_sum(mul(l2_normalize(pred_map, axis=0), Tensor(target)), axis=0)
    return negate(reduce_mean(reshape(per_pixel, (pred_map.shape[1], -1)), axis=-1))


def loss_1d(online_pred: Tensor, target_proj: np.ndarray) -> Tensor:
    """Negated cosine between the online prediction and the constant target
    projection, per column of [E,N] inputs; lies in [-1, 1]."""
    q = l2_normalize(online_pred, axis=0)
    return negate(reduce_sum(mul(q, Tensor(unit_normalize(target_proj, 0))), axis=0))


def loss_2d_cluster(pred_map: Tensor, clusters, dense: bool = False,
                    target_map: np.ndarray | None = None) -> Tensor:
    """Mean negated cosine between predictions and their cluster targets.

    ``clusters`` holds one ClusterResult per sample of the [C,N,H,W] batch.
    dense=False compares each pixel with its assigned centroid; dense=True
    compares with every member pixel of its cluster (averaged), which reduces
    to a dot product with the mean of the unit-normalized member pixels of
    ``target_map``, the constant [C,N,H,W] array the clusters were built on.
    """
    _require_maps(pred_map, "loss_2d_cluster")
    _, samples, h, w = pred_map.shape
    if len(clusters) != samples:
        raise ValueError(f"{len(clusters)} cluster results for a batch of {pred_map.shape}")
    for result in clusters:
        if result.assignments.shape != (h, w):
            raise ValueError(f"extent mismatch: {pred_map.shape} vs {result.assignments.shape}")
    if dense and target_map is None:
        raise ValueError("dense clustering needs the aligned target map")
    rows = _cluster_targets(clusters, target_map if dense else None)
    target = rows.transpose(2, 0, 1).reshape(-1, samples, h, w)
    if not dense:  # unit centroids; the C-contiguous copy fixes the order the norms sum in
        target = unit_normalize(np.ascontiguousarray(target), 0)
    return _pixel_cosine_loss(pred_map, target)


def loss_2d_wo_kmeans(pred_map: Tensor, target_map: np.ndarray) -> Tensor:
    """Mean negated per-pixel cosine against the raw aligned target map, a
    constant [C,N,H,W] array."""
    _require_maps(pred_map, "loss_2d_wo_kmeans")
    _require_maps(target_map, "loss_2d_wo_kmeans")
    if pred_map.shape[1:] != target_map.shape[1:]:
        raise ValueError(f"extent mismatch: {pred_map.shape} vs {target_map.shape}")
    return _pixel_cosine_loss(pred_map, unit_normalize(target_map, 0))


def loss_total(l1d: Tensor, l2d: Tensor, weight: float) -> Tensor:
    """weight * image-level loss + (1 - weight) * map-level loss."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    return add(scale(l1d, weight), scale(l2d, 1.0 - weight))


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

    def push(self, vectors: np.ndarray) -> None:
        v = unit_normalize(np.asarray(vectors, dtype=np.float64), -1)
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


def moco_pixel_infonce(online_proj: Tensor, target_proj: np.ndarray, clusters,
                       queue: NegativeQueue, temperature: float) -> Tensor:
    """Per-pixel contrastive loss of a [C,N,H,W] online projection against
    its aligned, constant target projection ``target_proj``.

    The positive for each pixel is its cluster centroid (one ClusterResult
    per sample, clustered on ``target_proj``); negatives come from the queue.
    The samples are scored and their target pixels pushed into the queue
    (FIFO) one after another, so sample s sees the queue as the samples
    before it left it. Returns the N per-sample losses.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    _require_maps(online_proj, "moco_pixel_infonce")
    dim, samples, h, w = online_proj.shape
    n = h * w
    # [N, n, dim]: unit-normalized online pixels, sample by sample
    pixels = transpose(l2_normalize(reshape(online_proj, (dim, samples, n)), axis=0),
                       (1, 2, 0))
    losses = []
    for s, positives in enumerate(unit_normalize(_cluster_targets(clusters), -1)):
        sample = select(pixels, s)
        pos_logits = scale(reduce_sum(mul(sample, Tensor(positives)), axis=1), 1.0 / temperature)
        neg_logits = scale(matmul(sample, Tensor(queue.negatives().T)), 1.0 / temperature)
        logits = concat([reshape(pos_logits, (n, 1)), neg_logits], axis=1)
        losses.append(reduce_mean(sub(logsumexp(logits, axis=1), pos_logits)))
        queue.push(target_proj[:, s].reshape(dim, n).T)
    return concat([reshape(loss, (1,)) for loss in losses], axis=0)
