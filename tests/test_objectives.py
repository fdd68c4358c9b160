import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multisiam import objectives as O
from multisiam import tensor as T
from multisiam.metrics import adjusted_rand_index
from multisiam.tensor import Tensor
from multisiam.views import resize_bilinear, resize_weights


def reference_lloyd(points, init, max_iter=10):
    """Straightforward textbook Lloyd loop used as the clustering oracle."""
    centroids = np.array(init, dtype=float)
    assign = None
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(centroids.shape[0]):
            members = points[assign == k]
            if members.size:
                centroids[k] = members.mean(axis=0)
    return assign, centroids


def separated_map(k, h, w, rng, spread=20.0):
    values = spread * np.eye(k) + rng.normal(0, 0.01, (k, k))
    labels = rng.integers(0, k, size=h * w)
    labels[:k] = np.arange(k)  # every value present
    rng.shuffle(labels)
    pixels = values[labels]
    return pixels.T.reshape(k, h, w), labels.reshape(h, w)


def test_kmeans_exact_recovery_euclidean():
    rng = np.random.default_rng(0)
    values = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
    pixels = values[labels]
    fmap = pixels.T.reshape(2, 3, 3)
    result = O.kmeans(fmap, 3, metric="euclidean", rng=rng)
    assert result.cost_history[-1] == pytest.approx(0.0, abs=1e-18)
    assert adjusted_rand_index(result.assignments.reshape(-1), labels) == pytest.approx(1.0)
    got = sorted(map(tuple, result.centroids.tolist()))
    assert got == sorted(map(tuple, values.tolist()))


def test_kmeans_exact_recovery_cosine():
    rng = np.random.default_rng(1)
    fmap, labels = separated_map(3, 4, 4, rng)
    result = O.kmeans(fmap, 3, metric="cosine", rng=rng)
    assert result.cost_history[-1] == pytest.approx(0.0, abs=1e-6)
    assert adjusted_rand_index(result.assignments.reshape(-1), labels.reshape(-1)) == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_cost_monotone(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        fmap = rng.standard_normal((4, 8, 8))
        result = O.kmeans(fmap, 3, metric="cosine", max_iter=10, rng=rng)
        hist = result.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_kmeans_matches_reference_under_shared_init():
    rng = np.random.default_rng(2)
    fmap = rng.standard_normal((4, 8, 8))
    pixels = fmap.reshape(4, 64).T
    normalized = pixels / np.linalg.norm(pixels, axis=1, keepdims=True)
    init = normalized[[3, 17, 42]]

    result = O.kmeans(fmap, 3, metric="cosine", max_iter=10, init=init)
    ref_assign, ref_centroids = reference_lloyd(normalized, init, max_iter=10)
    assert np.array_equal(result.assignments.reshape(-1), ref_assign)
    assert np.allclose(result.centroids, ref_centroids, atol=1e-12)


def test_kmeans_centroid_map_consistency():
    # each pixel's target row, without dense targets, is its centroid
    rng = np.random.default_rng(3)
    fmap = rng.standard_normal((3, 4, 4))
    result = O.kmeans(fmap, 4, rng=rng)
    rows = O._cluster_targets([result])[0]
    for i in range(4):
        for j in range(4):
            assert np.array_equal(rows[4 * i + j], result.centroids[result.assignments[i, j]])
    assert isinstance(rows, np.ndarray)


def test_kmeans_repairs_empty_clusters():
    # two far groups, three clusters seeded with duplicates: one goes empty
    pixels = np.array([[0.0, 0.0]] * 4 + [[10.0, 0.0]] * 4)
    fmap = pixels.T.reshape(2, 2, 4)
    init = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    result = O.kmeans(fmap, 3, metric="euclidean", init=init, max_iter=10)
    present = np.unique(result.assignments)
    assert len(present) >= 2  # the far group was promoted out of emptiness
    assert result.cost_history[-1] == pytest.approx(0.0, abs=1e-18)


def test_kmeans_rejects_oversized_k():
    with pytest.raises(ValueError):
        O.kmeans(np.zeros((2, 2, 2)), 5)


def textbook_picks(points, k, rng):
    """The indices k-means++ seeding (Arthur & Vassilvitskii, 2007) picks of
    [n,c] points, with D² = ((x - c) ** 2).sum() in fresh arrays for every
    pass: the oracle of ``_kmeanspp_init``, draw for draw."""
    n = points.shape[0]
    picks = [int(rng.integers(n))]
    d2 = ((points - points[picks[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            picks.append(int(rng.integers(n)))
        else:
            picks.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, ((points - points[picks[-1]]) ** 2).sum(axis=1))
    return picks


def textbook_kmeanspp(points, k, rng):
    return points[textbook_picks(points, k, rng)]


def loop_kmeans(fmap, k, metric="cosine", max_iter=10, rng=None, init=None):
    """The one-map-at-a-time Lloyd loop, step for step: the oracle of
    kmeans_batch, byte-exact at the model's shapes. Returns centroids,
    assignments, each pixel's centroid ([n,C] rows) and costs."""
    c, h, w = fmap.shape
    n = h * w
    points = fmap.reshape(c, n).T.copy()
    if metric == "cosine":
        points = points / np.maximum(np.sqrt((points * points).sum(axis=1, keepdims=True)),
                                     1e-12)
    if init is not None:
        centroids = np.array(init, dtype=np.float64)
    else:
        centroids = textbook_kmeanspp(points, k, rng)

    def dists():
        return np.maximum((points ** 2).sum(1)[:, None] + (centroids ** 2).sum(1)[None, :]
                          - 2.0 * points @ centroids.T, 0.0)

    assign, history = None, []
    for _ in range(max_iter):
        d2 = dists()
        new_assign = d2.argmin(axis=1)
        for _repair in range(k):
            empties = [idx for idx in range(k) if not (new_assign == idx).any()]
            if not empties:
                break
            pick = int(d2[np.arange(n), new_assign].argmax())
            centroids[empties[0]] = points[pick]
            d2 = dists()
            new_assign = d2.argmin(axis=1)
            new_assign[pick] = empties[0]
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for idx in range(k):
            members = points[assign == idx]
            if members.size:
                centroids[idx] = members.mean(axis=0)
        history.append(float(dists()[np.arange(n), assign].sum()))
    return centroids, assign.reshape(h, w), centroids[assign], history


def assert_same_bytes(result, want):
    centroids, assign, targets, history = want
    assert result.centroids.tobytes() == centroids.tobytes()
    assert np.array_equal(result.assignments, assign)
    assert O._cluster_targets([result])[0].tobytes() == targets.tobytes()
    assert result.cost_history == tuple(history)


def as_oracle_tuple(result):
    """A ClusterResult in ``loop_kmeans``'s (centroids, assignments, targets, costs) form."""
    return (result.centroids, result.assignments, O._cluster_targets([result])[0],
            list(result.cost_history))


def assert_near_loop(result, want, atol, cost_rtol):
    """Assignments and iteration count exactly; centroids to ``atol`` and costs
    to ``cost_rtol``. The centroid sums are GEMMs, and the BLAS picks their
    order of addition, where ``members.mean`` adds one member after another."""
    centroids, assign, targets, history = want
    assert np.array_equal(result.assignments, assign)
    assert len(result.cost_history) == len(history)
    np.testing.assert_allclose(result.centroids, centroids, rtol=0.0, atol=atol)
    np.testing.assert_allclose(O._cluster_targets([result])[0], targets, rtol=0.0, atol=atol)
    np.testing.assert_allclose(result.cost_history, history, rtol=cost_rtol, atol=0.0)


def mixed_maps(rng, c=6, pairs=7, h=6, w=5):
    # pixels near a few random modes, with a per-map noise level, so maps
    # converge after different numbers of Lloyd steps
    maps = np.empty((c, pairs, h, w))
    for p in range(pairs):
        modes = rng.standard_normal((4, c))
        labels = rng.integers(0, 4, h * w)
        noise = rng.normal(0.0, 0.2 + 0.3 * p, (h * w, c))
        maps[:, p] = (modes[labels] + noise).T.reshape(c, h, w)
    return maps


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_kmeans_batch_matches_one_map_at_a_time(metric, k):
    maps = mixed_maps(np.random.default_rng(20 + k))
    results = O.kmeans_batch(maps, k, metric=metric, max_iter=10,
                             rng=np.random.default_rng(k))
    assert len(results) == maps.shape[1]
    loop_rng, single_rng = np.random.default_rng(k), np.random.default_rng(k)
    for p, result in enumerate(results):
        # byte for byte the map clustered alone
        alone = O.kmeans(maps[:, p], k, metric=metric, rng=single_rng)
        assert_same_bytes(result, as_oracle_tuple(alone))
        want = loop_kmeans(maps[:, p], k, metric, 10, rng=loop_rng)
        if k > 1:
            assert_same_bytes(result, want)
        else:
            # the one mean is a GEMM over all 30 pixels, added in the BLAS's
            # order: it moves by up to 3.3e-16, its costs by up to 2.9e-16 relative
            assert_near_loop(result, want, atol=4e-16, cost_rtol=3e-16)
    if k > 1:
        assert len({len(r.cost_history) for r in results}) > 1


@pytest.mark.parametrize("shape", [(32, 16, 8, 8), (32, 1, 64, 64)], ids=["train", "eval"])
def test_kmeans_batch_matches_one_map_at_a_time_at_model_shapes(shape):
    # the training step's 16 aligned 8x8 maps and the probe's 4096-pixel map
    maps = np.maximum(np.random.default_rng(4).standard_normal(shape), 0.0)
    results = O.kmeans_batch(maps, 3, rng=np.random.default_rng(9))
    loop_rng = np.random.default_rng(9)
    for p, result in enumerate(results):
        assert_same_bytes(result, loop_kmeans(maps[:, p], 3, rng=loop_rng))


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("shape", [(32, 16, 8, 8), (32, 1, 64, 64)], ids=["train", "eval"])
def test_kmeans_batch_breaks_exact_ties_as_argmin(shape, metric):
    # integer-valued pixels at corners of a 4-cube: many duplicate pixels and
    # points exactly as far from two centroids; the first of equal minima wins
    c, pairs, h, w = shape
    rng = np.random.default_rng(31)
    maps = np.zeros(shape)
    maps[:4] = rng.integers(0, 2, (4, pairs, h, w))
    maps[4] = 1.0  # no all-zero pixel, so cosine normalization divides by a norm
    results = O.kmeans_batch(maps, 3, metric=metric, rng=np.random.default_rng(13))
    loop_rng, seed_rng = np.random.default_rng(13), np.random.default_rng(13)
    ties = 0
    for p, result in enumerate(results):
        assert_same_bytes(result, loop_kmeans(maps[:, p], 3, metric, rng=loop_rng))
        points = maps[:, p].reshape(c, -1).T
        if metric == "cosine":
            points = points / np.linalg.norm(points, axis=1, keepdims=True)
        seeds = textbook_kmeanspp(points, 3, seed_rng)
        d2 = np.maximum((points ** 2).sum(1)[:, None] + (seeds ** 2).sum(1)[None, :]
                        - 2.0 * points @ seeds.T, 0.0)
        ties += int(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties > 0  # the first assignment already meets exact ties


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("shape", [(32, 16, 8, 8), (32, 1, 64, 64)], ids=["train", "eval"])
def test_kmeans_cost_is_the_direct_within_cluster_sum(shape, metric):
    # the cost is read off the distance matrix; it is still the sum of squared
    # distances from each point to its returned centroid
    maps = np.maximum(np.random.default_rng(6).standard_normal(shape), 0.0)
    results = O.kmeans_batch(maps, 3, metric=metric, rng=np.random.default_rng(10))
    c = shape[0]
    for p, result in enumerate(results):
        points = maps[:, p].reshape(c, -1).T
        if metric == "cosine":
            points = points / np.linalg.norm(points, axis=1, keepdims=True)
        assign = result.assignments.reshape(-1)
        direct = float(((points - result.centroids[assign]) ** 2).sum())
        assert result.cost_history[-1] == pytest.approx(direct, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("max_iter", [1, 2])
def test_kmeans_batch_out_of_iterations_matches_one_map_at_a_time(max_iter, metric):
    # maps that run out of iterations take their last cost from one more
    # distance matrix
    maps = mixed_maps(np.random.default_rng(7))
    results = O.kmeans_batch(maps, 3, metric=metric, max_iter=max_iter,
                             rng=np.random.default_rng(8))
    loop_rng = np.random.default_rng(8)
    for p, result in enumerate(results):
        assert_same_bytes(result, loop_kmeans(maps[:, p], 3, metric, max_iter, rng=loop_rng))
    assert any(len(r.cost_history) == max_iter for r in results)


def test_kmeans_batch_repairs_empty_clusters_per_map():
    # map 0: two far groups seeded with duplicate centroids, so a cluster
    # empties and is repaired; map 1 needs no repair
    maps = mixed_maps(np.random.default_rng(5), c=2, pairs=2, h=2, w=4)
    maps[:, 0] = np.array([[0.0, 0.0]] * 4 + [[10.0, 0.0]] * 4).T.reshape(2, 2, 4)
    init = np.stack([np.zeros((3, 2)), maps[:, 1].reshape(2, -1).T[[0, 3, 6]]])
    results = O.kmeans_batch(maps, 3, metric="euclidean", init=init)
    for p, result in enumerate(results):
        assert_same_bytes(result, loop_kmeans(maps[:, p], 3, "euclidean", init=init[p]))
    assert len(np.unique(results[0].assignments)) >= 2
    assert results[0].cost_history[-1] == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("seed,size", [(4, None), (431, (4, 4))])
def test_kmeans_batch_repairs_at_a_packed_slot(monkeypatch, seed, size):
    # map 1 empties a cluster after maps 0 and 2 have left the loop, so its
    # repair runs at packed slot 0, not at its batch index
    rng = np.random.default_rng(seed)
    maps = rng.integers(0, 12, (1, 3, 2, 2)).astype(float)
    init = rng.uniform(0, 12, (3, 3, 1))
    packed = []  # how many maps were still iterating at each repair
    real = O._repair_empty

    def counted(row, dists, centroids, d2, assign):
        packed.append(d2.base.shape[0])  # d2 is one map's row of the packed [A,k,n] matrix
        return real(row, dists, centroids, d2, assign)

    monkeypatch.setattr(O, "_repair_empty", counted)
    results = O.kmeans_batch(maps, 3, metric="euclidean", init=init, size=size)
    assert packed[-1] == 1
    for p, result in enumerate(results):
        alone = O.kmeans(maps[:, p], 3, metric="euclidean", init=init[p], size=size)
        assert result.centroids.tobytes() == alone.centroids.tobytes()
        assert np.array_equal(result.assignments, alone.assignments)
        assert result.cost_history == alone.cost_history


# (map shape, size): the eval upsample, a non-square one, and the map's own size
UPSAMPLES = [((32, 8, 8), (64, 64)), ((6, 5, 7), (24, 40)), ((32, 8, 8), (8, 8))]


def upsample_maps(shape, seed, count):
    # relu-like maps as the backbone gives, with a floor so no pixel is all zero
    rng = np.random.default_rng(seed)
    return [np.maximum(rng.standard_normal(shape), 0.0) + 0.01 for _ in range(count)]


def unit_pixels(fmap, metric):
    points = fmap.reshape(fmap.shape[0], -1).T
    if metric == "cosine":
        points = points / np.linalg.norm(points, axis=1, keepdims=True)
    return points


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("shape,size", UPSAMPLES, ids=["64x64", "24x40", "own-size"])
def test_kmeans_at_size_matches_clustering_the_resize(shape, size, metric):
    # the products and member sums taken on the map's own pixels: the same
    # assignments and iterations as clustering the explicit resize, under a
    # shared rng (k-means++ seeding) and under a shared init
    for seed, fmap in enumerate(upsample_maps(shape, 40, 6)):
        resized = resize_bilinear(fmap, size)
        init = unit_pixels(resized, metric)[[5, 300 % resized[0].size, 17]]
        for kwargs in ({"init": init}, {}):
            got = O.kmeans(fmap, 3, metric=metric, size=size,
                           rng=np.random.default_rng(seed), **kwargs)
            want = O.kmeans(resized, 3, metric=metric, rng=np.random.default_rng(seed),
                            **kwargs)
            assert got.assignments.shape == size
            assert O._cluster_targets([got]).shape == (1, resized[0].size, resized.shape[0])
            assert_near_loop(got, as_oracle_tuple(want), atol=1e-14, cost_rtol=1e-13)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("shape,size", UPSAMPLES[:2], ids=["64x64", "24x40"])
def test_kmeans_at_size_repairs_as_clustering_the_resize(shape, size, metric):
    # a duplicated seed leaves its second copy empty, which the repair fills
    for fmap in upsample_maps(shape, 41, 3):
        resized = resize_bilinear(fmap, size)
        init = unit_pixels(resized, metric)[[9, 9, 200]]
        got = O.kmeans(fmap, 3, metric=metric, size=size, init=init)
        want = O.kmeans(resized, 3, metric=metric, init=init)
        assert_near_loop(got, as_oracle_tuple(want), atol=1e-14, cost_rtol=1e-13)
        assert len(np.unique(got.assignments)) == 3


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_kmeans_batch_at_size_matches_one_map_at_a_time(metric):
    # maps leave the shared loop at different iterations
    maps = mixed_maps(np.random.default_rng(42))
    results = O.kmeans_batch(maps, 3, metric=metric, size=(13, 22),
                             rng=np.random.default_rng(3))
    single_rng = np.random.default_rng(3)
    for p, result in enumerate(results):
        alone = O.kmeans(maps[:, p], 3, metric=metric, size=(13, 22), rng=single_rng)
        assert_same_bytes(result, as_oracle_tuple(alone))
    assert len({len(r.cost_history) for r in results}) > 1


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("shape,size", [((32, 16, 8, 8), None), ((32, 1, 8, 8), (64, 64))],
                         ids=["train", "eval"])
def test_kmeanspp_picks_the_textbook_pixels(monkeypatch, shape, size, metric):
    # seeding's D² is the clamped ||x||^2 + ||c||^2 - 2 x.c of assignment, taken
    # in the feature basis at a size; it picks the pixels the textbook
    # ((x - c) ** 2).sum() picks, seed for seed
    picks, real = [], O._kmeanspp_init
    monkeypatch.setattr(O, "_kmeanspp_init", lambda *args: picks.append(real(*args)) or picks[-1])
    for seed in range(50):
        maps = np.maximum(np.random.default_rng(seed).standard_normal(shape), 0.0)
        picks.clear()
        O.kmeans_batch(maps, 3, metric=metric, max_iter=1, rng=np.random.default_rng(seed),
                       size=size)
        assert len(picks) == shape[1]
        oracle_rng = np.random.default_rng(seed)
        for p, got in enumerate(picks):
            fmap = maps[:, p] if size is None else resize_bilinear(maps[:, p], size)
            assert got == textbook_picks(unit_pixels(fmap, metric), 3, oracle_rng), (seed, p)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_kmeans_at_size_holds_less_than_its_upsample(metric):
    # the eval's 4,096-point clustering never holds a [4096, 32] float64 array
    import tracemalloc

    fmap = upsample_maps((32, 8, 8), 44, 1)[0]
    tracemalloc.start()
    try:
        O.kmeans(fmap, 3, metric=metric, size=(64, 64), rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 32 * 8, peak


def stacked_upsample_sq(maps, size):
    """[P,1,n] squared norms of the upsamples of a [C,P,h,w] batch by the
    stacked-matmul formula: each axis a matmul over tiny blocks of the Gram
    matrix, then ``.sum(-1)``. The byte oracle of ``_Upsampled``."""
    c, pairs, h, w = maps.shape
    rows, cols = resize_weights((h, w), size)
    feats = maps.transpose(1, 0, 2, 3).reshape(pairs, c, h * w)
    gram = (feats.transpose(0, 2, 1) @ feats).reshape(pairs, h, w, h, w)
    half = ((cols @ gram.transpose(0, 1, 3, 2, 4)) * cols).sum(-1)  # [P,h,h,W]
    sq = ((rows @ half.transpose(0, 3, 1, 2)) * rows).sum(-1)  # [P,W,H]
    return np.maximum(sq.transpose(0, 2, 1).reshape(pairs, 1, -1), 0.0)


@pytest.mark.parametrize("pairs", [1, 3])
@pytest.mark.parametrize("grid", [(1, 1), (2, 2), (4, 4), (5, 7), (8, 8), (16, 16)], ids=str)
def test_upsampled_norms_match_the_stacked_matmul_bytes(grid, pairs):
    # signed features and relu-like ones with an all-zero row, each at 8x and
    # at an odd size, under both metrics
    rng = np.random.default_rng(sum(grid) * 10 + pairs)
    h, w = grid
    signed = rng.standard_normal((6, pairs, h, w))
    relu = np.maximum(rng.standard_normal((6, pairs, h, w)), 0.0)
    relu[:, :, 0] = 0.0
    for maps in (signed, relu):
        for size in ((8 * h, 8 * w), (13, 22)):
            sq = stacked_upsample_sq(maps, size)
            assert O._Upsampled(maps, size, cosine=False).pts_sq.tobytes() == sq.tobytes()
            basis = O._Upsampled(maps, size, cosine=True)
            norms = np.maximum(np.sqrt(sq), T._NORM_EPS)
            assert basis.norms.tobytes() == norms.tobytes()
            assert basis.pts_sq.tobytes() == (sq / (norms * norms)).tobytes()


def _seeded_draw(d2, seed):
    """Second pick of k-means++ seeding over points whose D² to the first pick is ``d2``."""
    rng = np.random.default_rng(seed)
    picks = O._kmeanspp_init(lambda idx: np.zeros(1), lambda cen: d2[None].copy(), len(d2), 2, rng)
    return picks[1], rng


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(0.0, 1.0)),
                min_size=1, max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_kmeanspp_draw_is_the_choice_draw(values, seed):
    d2 = np.array(values)
    assume(0.0 < d2.sum() < np.inf)
    pick, rng = _seeded_draw(d2, seed)
    assert d2[pick] > 0.0
    oracle = np.random.default_rng(seed)
    oracle.integers(len(d2))
    assert pick == int(oracle.choice(len(d2), p=d2 / d2.sum()))
    assert rng.random() == oracle.random()  # both took one double off the stream


def test_kmeanspp_draw_stays_uniform_on_a_nan_total():
    d2 = np.array([1.0, np.nan, 2.0, 0.0])
    for seed in range(5):
        pick, _ = _seeded_draw(d2, seed)
        oracle = np.random.default_rng(seed)
        oracle.integers(4)
        assert pick == int(oracle.integers(4))


@pytest.mark.parametrize("seed", range(5))
def test_kmeanspp_raises_a_typed_error_on_an_infinite_total(seed):
    fmap = np.random.default_rng(seed).random((2, 4, 4))
    fmap[0, 1, 2] = 1e200  # its squared distance to any other pixel overflows
    with pytest.raises(O.ClusteringError, match="infinity"), np.errstate(over="ignore"):
        O.kmeans(fmap, 3, metric="euclidean", rng=np.random.default_rng(seed))


def test_infinite_kmeanspp_total_exits_runtime(tmp_path, monkeypatch, capsys):
    from multisiam import cli
    from multisiam import train as TR

    def far_apart(maps, *args, **kwargs):
        maps = maps.copy()
        maps[0, :, 0, 0] = 1e200
        return O.kmeans_batch(maps, *args, **kwargs)

    monkeypatch.setattr(TR, "kmeans_batch", far_apart)
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train", "--out", str(tmp_path / "run"), "--steps=1", "--batch_size=1",
                         "--out_size=32", "--corpus_images=2", "--kmeans_metric=euclidean"])
    assert code == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: k-means++ D² sums to infinity")


@pytest.mark.parametrize("size,error", [((0, 8), ValueError), ((8,), ValueError),
                                        ((8, 8, 8), ValueError), ((-2, -3), ValueError),
                                        ((8.0, 8), TypeError)])
def test_kmeans_rejects_a_size_that_is_not_a_grid(size, error):
    with pytest.raises(error):
        O.kmeans(np.ones((2, 4, 4)), 2, size=size)


def test_kmeans_batch_rejects_a_lone_map():
    with pytest.raises(T.ShapeError, match=r"\[C,N,H,W\]"):
        O.kmeans_batch(np.zeros((2, 4, 4)), 2)


# (c, pairs, h, w, k): one cluster, eight clusters on 4,096 points, and odd
# channel counts, away from the model's k=3, c=32
SUM_SHAPES = [(6, 5, 6, 5, 1), (32, 2, 64, 64, 8), (33, 4, 8, 8, 3), (7, 3, 5, 7, 4)]


def test_cluster_sums_leave_an_empty_cluster_at_zero():
    points = np.random.default_rng(0).standard_normal((2, 6, 5))
    assign = np.array([[0, 0, 2, 2, 0, 2], [1, 1, 1, 1, 1, 1]])
    sums = O._membership(assign, 3) @ points
    assert np.all(sums[0, 1] == 0.0) and np.all(sums[1, [0, 2]] == 0.0)
    assert np.array_equal(sums[1, 1], points[1].sum(axis=0))


@pytest.mark.parametrize("shape", SUM_SHAPES, ids=str)
def test_cluster_sums_match_member_order_sums(shape):
    c, pairs, h, w, k = shape
    rng = np.random.default_rng(sum(shape))
    points = rng.standard_normal((pairs, h * w, c))
    assign = rng.integers(0, k, (pairs, h * w))
    sums = O._membership(assign, k) @ points
    eps = np.finfo(np.float64).eps
    for p in range(pairs):
        for idx in range(k):
            members = points[p][assign[p] == idx]
            total = np.zeros(c)
            for x in members:
                total += x
            # 1.63 eps of the members' absolute sum at most, over 40 seeds of
            # these shapes; a bound of every BLAS would be (members - 1) eps
            assert np.all(np.abs(sums[p, idx] - total)
                          <= 2.0 * eps * np.abs(members).sum(axis=0))


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("shape", SUM_SHAPES, ids=str)
def test_kmeans_batch_and_dense_targets_do_not_depend_on_the_batch(shape, metric):
    c, pairs, h, w, k = shape
    rng = np.random.default_rng(sum(shape))
    maps = rng.standard_normal((c, pairs, h, w))
    init = np.stack([maps[:, p].reshape(c, -1).T[rng.choice(h * w, k, replace=False)]
                     for p in range(pairs)])
    results = O.kmeans_batch(maps, k, metric=metric, init=init)
    dense = O._cluster_targets(results, maps)
    flipped = O.kmeans_batch(maps[:, ::-1], k, metric=metric, init=init[::-1])[::-1]
    assert O._cluster_targets(flipped[::-1], maps[:, ::-1]).tobytes() == \
        dense[::-1].tobytes()
    for p, result in enumerate(results):
        assert_same_bytes(flipped[p], as_oracle_tuple(result))
        alone = O.kmeans_batch(maps[:, p:p + 1], k, metric=metric, init=init[p:p + 1])
        assert_same_bytes(alone[0], as_oracle_tuple(result))
        assert O._cluster_targets(alone, maps[:, p:p + 1]).tobytes() == dense[p:p + 1].tobytes()


def test_loss_1d_values():
    q = np.array([1.0, 2.0, -0.5])
    assert O.loss_1d(Tensor(q), q).item() == pytest.approx(-1.0, abs=1e-12)
    assert O.loss_1d(Tensor(q), -q).item() == pytest.approx(1.0, abs=1e-12)
    got = O.loss_1d(Tensor([1.0, 0.0]), np.array([1.0, 1.0])).item()
    assert got == pytest.approx(-np.sqrt(2.0) / 2.0, abs=1e-9)


def test_loss_1d_stops_target_gradient():
    # the target is a constant array: the gradient is that of -q.z/|q||z| in q alone
    q = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    z = np.array([2.0, 1.0])
    T.backward(O.loss_1d(q, z))
    q_hat, z_hat = q.data / np.linalg.norm(q.data), z / np.linalg.norm(z)
    want = -(z_hat - (q_hat @ z_hat) * q_hat) / np.linalg.norm(q.data)
    np.testing.assert_allclose(q.grad, want, rtol=0.0, atol=1e-15)
    assert z.tolist() == [2.0, 1.0]


def test_loss_2d_cluster_perfect_prediction():
    rng = np.random.default_rng(4)
    fmap = rng.standard_normal((3, 4, 4))
    cluster = O.kmeans(fmap, 3, rng=rng)
    rows = O._cluster_targets([cluster])[0]
    loss = O.loss_2d_cluster(Tensor(rows.T.reshape(3, 1, 4, 4)), [cluster])
    assert loss.data.item() == pytest.approx(-1.0, abs=1e-9)


def test_loss_2d_cluster_single_cluster_is_mean_cosine():
    rng = np.random.default_rng(5)
    target = Tensor(rng.standard_normal((3, 1, 2, 2)))
    pred = Tensor(rng.standard_normal((3, 1, 2, 2)))
    cluster = O.kmeans(target.data[:, 0], 1, rng=rng)
    got = O.loss_2d_cluster(pred, [cluster]).data.item()

    pixels = target.data.reshape(3, 4).T
    centroid = (pixels / np.linalg.norm(pixels, axis=1, keepdims=True)).mean(axis=0)
    cosines = []
    for px in pred.data.reshape(3, 4).T:
        cosines.append(px @ centroid / (np.linalg.norm(px) * np.linalg.norm(centroid)))
    assert got == pytest.approx(-np.mean(cosines), abs=1e-12)


def test_loss_2d_cluster_dense_collapses_for_uniform_cluster():
    vec = np.array([0.3, -0.7, 1.1])
    target = Tensor(np.tile(vec[:, None, None, None], (1, 1, 2, 2)))
    pred = Tensor(np.random.default_rng(6).standard_normal((3, 1, 2, 2)))
    cluster = O.kmeans(target.data[:, 0], 1, rng=np.random.default_rng(0))
    plain = O.loss_2d_cluster(pred, [cluster], dense=False).data.item()
    dense = O.loss_2d_cluster(pred, [cluster], dense=True, target_map=target.data).data.item()
    assert dense == pytest.approx(plain, abs=1e-12)


def test_loss_2d_cluster_dense_matches_per_member_average():
    rng = np.random.default_rng(7)
    target = Tensor(rng.standard_normal((3, 1, 2, 3)))
    pred = Tensor(rng.standard_normal((3, 1, 2, 3)))
    cluster = O.kmeans(target.data[:, 0], 2, rng=rng)
    got = O.loss_2d_cluster(pred, [cluster], dense=True, target_map=target.data).data.item()

    tp = target.data.reshape(3, 6).T
    pp = pred.data.reshape(3, 6).T
    assign = cluster.assignments.reshape(-1)
    per_pixel = []
    for i in range(6):
        members = np.flatnonzero(assign == assign[i])
        cos = [pp[i] @ tp[m] / (np.linalg.norm(pp[i]) * np.linalg.norm(tp[m]))
               for m in members]
        per_pixel.append(-np.mean(cos))
    assert got == pytest.approx(np.mean(per_pixel), abs=1e-12)


def loop_dense_target(cluster, target):
    """One sample's [n,C] dense targets, cluster by cluster: the reference for
    the batched ``_cluster_targets``."""
    c, h, w = target.shape
    flat_assign = cluster.assignments.reshape(-1)
    pix = T.unit_normalize(target.reshape(c, h * w).T, -1)
    k = cluster.centroids.shape[0]
    member_means = np.zeros((k, c))
    for idx in range(k):
        members = pix[flat_assign == idx]
        if members.size:
            member_means[idx] = members.mean(axis=0)
    return member_means[flat_assign]


@pytest.mark.parametrize("shape", [(5, 3, 4, 3), (32, 4, 8, 8)])
def test_dense_targets_match_one_cluster_at_a_time(shape):
    rng = np.random.default_rng(12)
    target = rng.standard_normal(shape)
    clusters = O.kmeans_batch(target, 3, rng=rng)
    # a hand-built result whose cluster 1 has no member
    c, _, h, w = shape
    assign = rng.choice([0, 2], size=(h, w))
    clusters[-1] = O.ClusterResult(centroids=np.zeros((3, c)), assignments=assign,
                                   cost_history=(0.0,))
    got = O._cluster_targets(clusters, target)
    # byte for byte each sample on its own
    for s in range(shape[1]):
        alone = O._cluster_targets(clusters[s:s + 1], target[:, s:s + 1])
        assert alone.tobytes() == got[s:s + 1].tobytes()
    want = np.stack([loop_dense_target(r, target[:, s]) for s, r in enumerate(clusters)])
    assert got.shape == want.shape
    if shape == (5, 3, 4, 3):
        assert got.tobytes() == want.tobytes()
    else:
        # the cluster-by-cluster means move by up to 8.3e-17 at this shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-16)


def test_loss_2d_wo_kmeans_values_and_oracle():
    rng = np.random.default_rng(8)
    target = rng.standard_normal((3, 1, 2, 2))
    assert O.loss_2d_wo_kmeans(Tensor(target), target).data.item() == pytest.approx(-1.0,
                                                                                    abs=1e-12)

    single_p = Tensor(rng.standard_normal((4, 1, 1, 1)))
    single_t = rng.standard_normal((4, 1, 1, 1))
    want = O.loss_1d(Tensor(single_p.data.reshape(-1)), single_t.reshape(-1)).item()
    assert O.loss_2d_wo_kmeans(single_p, single_t).data.item() == pytest.approx(want, abs=1e-12)

    pred = Tensor(rng.standard_normal((3, 1, 2, 2)))
    cosines = []
    for i in range(2):
        for j in range(2):
            a, b = pred.data[:, 0, i, j], target[:, 0, i, j]
            cosines.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert O.loss_2d_wo_kmeans(pred, target).data.item() == pytest.approx(-np.mean(cosines),
                                                                          abs=1e-12)


def test_loss_2d_wo_kmeans_stops_target_gradient():
    # the target is a constant array: each pixel's gradient is loss_1d's in
    # that pixel's prediction alone, over the 4 pixels of the mean
    pred = Tensor(np.random.default_rng(9).random((2, 1, 2, 2)), requires_grad=True)
    target = np.random.default_rng(10).random((2, 1, 2, 2))
    T.backward(T.reduce_sum(O.loss_2d_wo_kmeans(pred, target)))
    for i in range(2):
        for j in range(2):
            q = Tensor(pred.data[:, 0, i, j].copy(), requires_grad=True)
            T.backward(O.loss_1d(q, target[:, 0, i, j]))
            np.testing.assert_allclose(pred.grad[:, 0, i, j], q.grad / 4.0, rtol=1e-12,
                                       atol=1e-15)


def test_kmeans_per_pixel_clusters_match_wo_kmeans():
    rng = np.random.default_rng(11)
    target = rng.standard_normal((3, 1, 2, 2))
    pred = Tensor(rng.standard_normal((3, 1, 2, 2)))
    cluster = O.kmeans(target[:, 0], 4, metric="cosine", rng=rng)
    assert len(np.unique(cluster.assignments)) == 4
    via_cluster = O.loss_2d_cluster(pred, [cluster]).data.item()
    direct = O.loss_2d_wo_kmeans(pred, target).data.item()
    assert via_cluster == pytest.approx(direct, abs=1e-9)


def test_loss_total_degenerates():
    l1 = Tensor(0.25)
    l2 = Tensor(-0.75)
    assert O.loss_total(l1, l2, 1.0).item() == pytest.approx(0.25)
    assert O.loss_total(l1, l2, 0.0).item() == pytest.approx(-0.75)
    assert O.loss_total(l1, l2, 0.5).item() == pytest.approx(-0.25)
    with pytest.raises(ValueError):
        O.loss_total(l1, l2, 1.5)


@pytest.mark.parametrize("seed", range(3))
def test_cosine_losses_bounded(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        pred = Tensor(rng.standard_normal((3, 1, 3, 3)) * 10.0 ** rng.integers(-3, 4))
        target = rng.standard_normal((3, 1, 3, 3)) * 10.0 ** rng.integers(-3, 4)
        cluster = O.kmeans(target[:, 0], 3, rng=rng)
        for value in (O.loss_2d_cluster(pred, [cluster]).data.item(),
                      O.loss_2d_cluster(pred, [cluster], dense=True,
                                        target_map=target).data.item(),
                      O.loss_2d_wo_kmeans(pred, target).data.item()):
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_queue_fifo_normalization_eviction():
    q = O.NegativeQueue(4, 2)
    assert q.negatives().shape == (0, 2)
    q.push(np.array([[3.0, 4.0]]))
    assert np.allclose(q.negatives(), [[0.6, 0.8]])
    q.push(np.eye(2))
    assert q.size == 3
    q.push(np.array([[0.0, 2.0], [2.0, 0.0]]))  # wraps: evicts the oldest
    assert q.size == 4
    flat = q.negatives()
    assert np.allclose(np.linalg.norm(flat, axis=1), 1.0)
    # the very first entry has been overwritten by the wrap-around
    assert not any(np.allclose(row, [0.6, 0.8]) for row in flat)


def moco_setup(seed=0, queue_entries=0, samples=1, queue_length=16):
    """A [4,N,4,4] online projection, a constant target projection, the
    target's clusters and a negative queue."""
    rng = np.random.default_rng(seed)
    online = Tensor(rng.standard_normal((4, samples, 4, 4)))
    target = rng.standard_normal((4, samples, 4, 4))
    clusters = O.kmeans_batch(target, 3, rng=rng)
    queue = O.NegativeQueue(queue_length, 4)
    if queue_entries:
        queue.push(np.random.default_rng(99).standard_normal((queue_entries, 4)))
    return online, target, clusters, queue


def test_moco_empty_queue_gives_zero_loss():
    online, target, clusters, queue = moco_setup()
    loss = O.moco_pixel_infonce(online, target, clusters, queue, 0.2)
    assert loss.data.item() == pytest.approx(0.0, abs=1e-12)
    assert queue.size == 16  # 16 target pixels pushed afterwards


def test_moco_single_matching_negative_gives_ln2():
    # direct check of the two-way softmax arithmetic on the logits path
    pos = Tensor(np.array([1.3]))
    logits = T.concat([T.reshape(pos, (1, 1)), T.reshape(Tensor(np.array([1.3])), (1, 1))], axis=1)
    loss = T.reduce_mean(T.sub(T.logsumexp(logits, axis=1), pos))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_moco_matches_softmax_cross_entropy_oracle():
    online, target, clusters, queue = moco_setup(seed=1, queue_entries=7, samples=2)
    negatives = [queue.negatives()]
    oracle_queue = copy.deepcopy(queue)
    oracle_queue.push(target[:, 0].reshape(4, 16).T)
    negatives.append(oracle_queue.negatives())
    loss = O.moco_pixel_infonce(online, target, clusters, queue, 0.2)

    # oracle: rebuild logits with plain numpy and take mean -log softmax[0];
    # sample 1 sees the queue after sample 0's target pixels were pushed
    for s in range(2):
        g = online.data[:, s].reshape(4, 16).T
        g = g / np.linalg.norm(g, axis=1, keepdims=True)
        pos = clusters[s].centroids[clusters[s].assignments.reshape(-1)]
        pos = pos / np.linalg.norm(pos, axis=1, keepdims=True)
        per_pixel = []
        for i in range(16):
            logits = np.concatenate([[g[i] @ pos[i]], g[i] @ negatives[s].T]) / 0.2
            soft = np.exp(logits - logits.max())
            soft /= soft.sum()
            per_pixel.append(-np.log(soft[0]))
        assert loss.data[s] == pytest.approx(np.mean(per_pixel), abs=1e-9)
        assert loss.data[s] >= 0.0


def test_moco_gradients_reach_online_only():
    _, target, clusters, queue = moco_setup(seed=2, queue_entries=5, samples=2,
                                            queue_length=64)
    online = Tensor(np.random.default_rng(3).standard_normal((4, 2, 4, 4)), requires_grad=True)
    before = queue.negatives()
    loss = O.moco_pixel_infonce(online, target, clusters, queue, 0.2)
    T.backward(T.reduce_sum(loss))
    assert online.grad is not None and np.abs(online.grad).sum() > 0.0
    # the caller's queue received the target pixels, unit-normalized, in sample order
    pushed = np.concatenate([target[:, s].reshape(4, 16).T for s in range(2)])
    pushed = pushed / np.linalg.norm(pushed, axis=1, keepdims=True)
    assert np.allclose(queue.negatives(), np.concatenate([before, pushed]), rtol=0, atol=1e-15)


_COST_RISE_SCRIPT = """
import numpy as np
from multisiam import objectives as O

real = O._pairwise_sq_dists
calls = [0]


def every_other_call_by_parity(points_sq, centroids, products):
    # odd calls are honest; even calls assign point i of each map to cluster i mod k
    calls[0] += 1
    if calls[0] % 2:
        return real(points_sq, centroids, products)
    n, k = points_sq.shape[-1], centroids.shape[1]
    d2 = np.ones((len(points_sq), k, n))  # k-major, as the real distances
    d2[:, np.arange(n) % k, np.arange(n)] = 0.0
    return d2


O._pairwise_sq_dists = every_other_call_by_parity
# two tight groups of eight, one after the other: the parity split mixes them
points = np.repeat(np.array([[5.0, 0.0], [0.0, 5.0]]), 8, axis=0)
points = points + np.random.default_rng(0).normal(0.0, 0.01, points.shape)
fmap = points.T.reshape(2, 4, 4)
# the map's own pixels, and its 8x8 upsample with the products in the feature basis
for size in (None, (8, 8)):
    calls[0] = 0
    try:
        O.kmeans(fmap, 2, metric="euclidean", init=[[5.0, 0.0], [0.0, 5.0]], size=size)
    except O.ClusteringError as err:
        print("raised", err)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_kmeans_cost_increase_raises_typed_error(flags):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(O.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, *flags, "-c", _COST_RISE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2, done.stdout
    assert all(line.startswith("raised Lloyd cost increased") for line in lines), done.stdout


def test_kmeans_cost_increase_exits_runtime(tmp_path, monkeypatch):
    from multisiam import cli
    from multisiam import train as TR

    def rising(*args, **kwargs):
        raise O.ClusteringError("Lloyd cost increased: 1.0 -> 2.0")

    monkeypatch.setattr(TR, "kmeans_batch", rising)
    assert cli.main(["train", "--out", str(tmp_path / "run"), "--steps=1", "--batch_size=1",
                     "--out_size=32", "--corpus_images=2"]) == 2
