"""Cluster targets and every training loss.

K-means runs on the aligned target map and is always a stop-gradient target:
it takes and returns plain arrays, which never join the tape. The cosine
losses stay in [-1, 1]; the pixel-contrastive loss is a softmax cross-entropy
and is non-negative.

Each loss takes a batch ([E,N] columns, [C,N,H,W] maps) and returns the N
per-sample losses. K-means is intra-image: ``kmeans_batch`` clusters each map
of a [C,N,H,W] batch on its own, in one Lloyd loop for the whole batch, over
one point basis that holds the maps still iterating: a map's own pixels
(``_Points``) or, at a size, its bilinear upsample (``_Upsampled``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .tensor import (_NORM_EPS, Tensor, _require_maps, add, concat, l2_normalize, logsumexp,
                     matmul, mul, negate, reduce_mean, reduce_sum, reshape, scale, select, sub,
                     transpose, unit_normalize)
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
    arithmetic rules out, or when k-means++ seeding's D² sums to infinity,
    which leaves it no distribution to draw from."""


@dataclass
class ClusterResult:
    """The clusters of the pixels of an HxW grid."""

    centroids: np.ndarray      # [K, C]
    assignments: np.ndarray    # [H, W] int
    cost_history: tuple[float, ...]  # per Lloyd update, the within-cluster sum of squared
                                     # distances (working space), in the clamped
                                     # ||x||^2 + ||c||^2 - 2 x.c form of assignment


def _kmeanspp_init(row, dists, n: int, k: int, rng: np.random.Generator) -> list[int]:
    """The k indices that k-means++ (Arthur & Vassilvitskii, 2007) picks of one
    map's n points: the first uniformly, each next one with probability
    proportional to D², a point's squared distance to its nearest pick so far.
    Point i is ``row(i)``; ``dists(c)`` gives the [k,n] distances to [k,c]
    centroids as Lloyd's assignment takes them (``_pairwise_sq_dists``), so D²
    rounds as they do. No D² follows the last pick, which nothing reads. A
    pick is the inverse-CDF draw of ``rng.choice(n, p=D²/total)`` without its
    per-call checks of ``p``; an infinite total raises ClusteringError."""
    picks = [int(rng.integers(n))]
    d2 = None
    for _ in range(1, k):
        sq = dists(row(picks[-1])[None])[0]
        d2 = sq if d2 is None else np.minimum(d2, sq, out=d2)
        total = d2.sum()
        if not total > 0.0:  # also NaN, which the non-finite loss check reports
            picks.append(int(rng.integers(n)))
            continue
        if total == np.inf:
            raise ClusteringError("k-means++ D² sums to infinity; the points are too far apart "
                                  "to square their distances")
        cdf = np.cumsum(d2 / total)
        cdf /= cdf[-1]
        picks.append(int(cdf.searchsorted(rng.random(), side="right")))
    return picks


def _pairwise_sq_dists(points_sq: np.ndarray, centroids: np.ndarray, products) -> np.ndarray:
    """[P,k,n] squared distances, k-major, of points with [P,1,n] squared
    norms ``points_sq`` to [P,k,c] centroids; ``products`` maps [P,k,c]
    centroids to their [P,k,n] x.c products (a basis's ``products``).

    Each distance is ``(||x||^2 + ||c||^2) - 2 x.c``, clamped at zero against
    cancellation. The doubling lives in a [P,k,c] copy of the centroids:
    doubling is exact away from overflow and subnormals, so (2c).x has the
    bytes of 2(c.x) without a pass over the [P,k,n] products. The norms then
    broadcast along the n points of a row, not along rows of k entries.
    """
    prod = products(centroids * 2.0)
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


def _repair_empty(row, dists, centroids: np.ndarray, d2: np.ndarray,
                  assign: np.ndarray) -> np.ndarray:
    """Promote the globally farthest point into each empty cluster of one map,
    given its [k,n] distances, with ``row`` and ``dists`` as in seeding;
    updates ``centroids`` in place and returns the new assignments."""
    k, n = d2.shape
    for _repair in range(k):
        empties = [idx for idx in range(k) if not (assign == idx).any()]
        if not empties:
            break
        pick = int(d2[assign, np.arange(n)].argmax())
        centroids[empties[0]] = row(pick)
        d2 = dists(centroids)
        assign = _nearest(d2)
        assign[pick] = empties[0]
    return assign


class _Points:
    """The pixels of a [C,P,h,w] batch as [P,n,C] points x, unit (floored) under
    cosine; it holds the maps still iterating, and ``keep`` packs them.
    ``pts_sq`` is the [P,1,n] ||x||^2. The x.c ``products`` take one GEMM per
    map with the transposed view of its points: on OpenBLAS 0.3.31 the bytes
    of the [n,C] @ [C,k] GEMM, which a contiguous [C,n] copy does not give."""

    def __init__(self, maps: np.ndarray, cosine: bool):
        c, pairs, h, w = maps.shape
        pts = maps.reshape(c, pairs, h * w).transpose(1, 2, 0).copy()
        self.pts = unit_normalize(pts, -1) if cosine else pts
        self.pts_sq = (self.pts ** 2).sum(-1)[:, None, :]

    def row(self, slot: int, idx: int) -> np.ndarray:
        return self.pts[slot, idx]

    def products(self, twice: np.ndarray, slots=slice(None)) -> np.ndarray:
        return twice @ self.pts[slots].transpose(0, 2, 1)

    def sums(self, member: np.ndarray) -> np.ndarray:
        return member @ self.pts

    def keep(self, moved: np.ndarray) -> None:
        self.pts, self.pts_sq = self.pts[moved], self.pts_sq[moved]


class _Upsampled:
    """A [C,P,h,w] batch at the points x of its ``resize_bilinear`` upsamples u
    to ``size``, never built as [P,n,C]: x is u, or u / ||u|| (floored at 1e-12)
    under cosine. It has the members of ``_Points`` and holds the maps still
    iterating. ``pts_sq`` is the [P,1,n] ||x||^2, and ``row`` builds one
    point. The x.c ``products`` and member ``sums`` run on the feature pixels
    f: the upsample of the [k,h,w] f.c and the adjoint upsample of the
    membership times f, both over ||u|| if cosine (``sums`` multiplies its
    0/1 membership by a 1 / ||u|| taken once: the same bytes).

    ||u||^2, clamped at 0, is each map's [h*w,h*w] Gram matrix of f, one GEMM
    per map, with the resize weights on both sides: over one column index in
    one 2D GEMM for the batch, which the Gram matrix's exact symmetry allows,
    over one row index in one GEMM per map and feature row, and over the other
    two as sums over an outer axis. A row of resize weights has at most two
    nonzero taps, so any order of those sums gives the bytes of ``.sum(-1)``.
    On OpenBLAS 0.3.31 the GEMMs give the bytes of stacked matmuls over tiny
    blocks at the grids the tests cover (extents 1 to 16, upsampled 8x or to
    13x22); some other shapes round differently in the last bit."""

    def __init__(self, maps: np.ndarray, size: tuple[int, int], cosine: bool):
        c, pairs, h, w = maps.shape
        self.grid, self.size = (h, w), size
        self.rows, self.cols = resize_weights((h, w), size)
        feats = maps.transpose(1, 0, 2, 3).reshape(pairs, c, h * w)  # [P, C, h*w]
        gram = feats.transpose(0, 2, 1) @ feats  # [P, (a,b), (a',b')], symmetric
        self.feats = np.ascontiguousarray(feats)  # each map's GEMMs read a contiguous [C, h*w]
        # ||u||^2 at (i, j): sum of rows[i,a] rows[i,a'] cols[j,b] cols[j,b'] gram[a,b,a',b'];
        # the GEMM over b reads gram[a',b',a,b], its rows in (P, a', b', a) order
        over_b = (gram.reshape(-1, w) @ self.cols.T).reshape(pairs * h, w, h, size[1])
        over_b *= self.cols.T[:, None, :]
        half = over_b.sum(axis=1)  # [P*h, h, W]: (P, a'), a, j
        del over_b
        over_a = (self.rows @ half).reshape(pairs, h, *size)  # [P, a', H, W]
        over_a *= self.rows.T[:, :, None]
        sq = np.maximum(over_a.sum(axis=1), 0.0).reshape(pairs, 1, -1)
        self.norms = np.maximum(np.sqrt(sq), _NORM_EPS) if cosine else None
        self.pts_sq = sq if self.norms is None else sq / (self.norms * self.norms)
        self.inv_norms = None if self.norms is None else 1.0 / self.norms

    def row(self, slot: int, idx: int) -> np.ndarray:
        i, j = divmod(idx, self.size[1])
        point = (self.feats[slot].reshape(-1, *self.grid) @ self.cols[j]) @ self.rows[i]
        return point if self.norms is None else point / self.norms[slot, 0, idx]

    def products(self, twice: np.ndarray, slots=slice(None)) -> np.ndarray:
        fc = (twice @ self.feats[slots]).reshape(-1, *self.grid)
        prod = separable(fc, self.rows, self.cols).reshape(*twice.shape[:2], -1)
        return prod if self.norms is None else np.divide(prod, self.norms[slots], out=prod)

    def sums(self, member: np.ndarray) -> np.ndarray:
        member = member if self.norms is None else member * self.inv_norms
        back = separable(member.reshape(-1, *self.size), self.rows.T, self.cols.T)
        return back.reshape(*member.shape[:2], -1) @ self.feats.transpose(0, 2, 1)

    def keep(self, moved: np.ndarray) -> None:
        self.feats, self.pts_sq = self.feats[moved], self.pts_sq[moved]
        if self.norms is not None:
            self.norms, self.inv_norms = self.norms[moved], self.inv_norms[moved]


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
    the pixels of its bilinear upsample to [H,W], which is never built.

    Seeding, Lloyd, repair and the last cost run through one point basis,
    ``_Points`` (the map's own pixels) or ``_Upsampled``, which holds the maps
    still iterating; nothing past its construction asks which one it is.

    All maps share one Lloyd loop and a map leaves it once its assignments
    stop changing. The arithmetic per map is that of clustering it alone:
    centroids are member sums, from one GEMM per map, divided by the count,
    and the cost is summed per map. So a map's result does not depend on its
    batch. The GEMM's rounding follows the BLAS, so centroids and costs can
    differ in the last bits from means taken one cluster at a time.

    Seeding, assignment and repair take every distance from
    ``_pairwise_sq_dists``. Distances are k-major, [P,K,n], and a point joins
    the first of its equally near centroids, as ``np.argmin`` would pick. An
    update's cost is read off the next iteration's distance matrix, at the
    assignments the centroids were just computed from; only a map that runs
    out of ``max_iter`` needs one more distance matrix. Nothing else reads
    the cost, so it moves no assignment or centroid.
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

    cosine = metric == "cosine"
    basis = _Points(maps, cosine) if size is None else _Upsampled(maps, (h, w), cosine)

    def dists(slot: int, cen: np.ndarray) -> np.ndarray:  # one packed map's [k,n]
        one = slice(slot, slot + 1)
        return _pairwise_sq_dists(basis.pts_sq[one], cen[None],
                                  partial(basis.products, slots=one))[0]

    if init is not None:
        centroids = np.array(init, dtype=np.float64)
        if centroids.shape != (pairs, k, c):
            raise ValueError(f"init shape {centroids.shape} does not match ({pairs}, {k}, {c})")
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        centroids = np.array([[basis.row(pair, idx) for idx in _kmeanspp_init(
            partial(basis.row, pair), partial(dists, pair), n, k, rng)] for pair in range(pairs)])

    assignments = np.zeros((pairs, n), dtype=np.intp)
    history: list[list[float]] = [[] for _ in range(pairs)]
    # the maps still iterating, packed: their batch indices, working centroids
    # and assignments (written back as a map leaves) and the basis; offsets are
    # each point's flat index at cluster 0 of the packed [P,k,n] distances
    active, cen, assign = np.arange(pairs), centroids.copy(), None
    offsets = np.arange(pairs)[:, None] * (k * n) + np.arange(n)
    for step in range(max_iter + 1):
        d2 = _pairwise_sq_dists(basis.pts_sq, cen, basis.products)
        if step:  # the last update's cost, before a repair moves a centroid
            costs = d2.take(assign * n + offsets[:len(active)]).sum(axis=1)
            for pair, cost in zip(active.tolist(), costs.tolist()):
                history[pair].append(cost)
        if step == max_iter:  # out of iterations: these distances were for the cost
            break
        new_assign = _nearest(d2)
        member = _membership(new_assign, k)
        counts = member.sum(axis=2)
        if not counts.all():
            for slot in np.flatnonzero((counts == 0).any(axis=1)).tolist():
                new_assign[slot] = _repair_empty(partial(basis.row, slot), partial(dists, slot),
                                                 cen[slot], d2[slot], new_assign[slot])
                member[slot] = _membership(new_assign[slot], k)
                counts[slot] = member[slot].sum(axis=1)
        if step:
            moved = (new_assign != assign).any(axis=1)
            if not moved.all():
                # a converged map keeps its last update, and a repair made now
                left = active[~moved]
                assignments[left], centroids[left] = assign[~moved], cen[~moved]
                basis.keep(moved)
                active, cen, new_assign, member, counts = (
                    active[moved], cen[moved], new_assign[moved], member[moved], counts[moved])
        assign = new_assign
        if not active.size:
            break
        # an empty cluster keeps its centroid
        np.divide(basis.sums(member), counts[:, :, None], out=cen, where=counts[:, :, None] > 0)
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
