import numpy as np
import pytest

from multisiam import model as M
from multisiam import objectives as O
from multisiam import tensor as T
from multisiam.metrics import adjusted_rand_index
from multisiam.tensor import Tensor
from multisiam.views import Box, NEUTRAL_PHOTO, ViewSpec


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
    return Tensor(pixels.T.reshape(k, h, w)), labels.reshape(h, w)


def test_kmeans_exact_recovery_euclidean():
    rng = np.random.default_rng(0)
    values = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
    pixels = values[labels]
    fmap = Tensor(pixels.T.reshape(2, 3, 3))
    result = O.kmeans(fmap, 3, metric="euclidean", rng=rng)
    assert result.cost == pytest.approx(0.0, abs=1e-18)
    assert adjusted_rand_index(result.assignments.reshape(-1), labels) == pytest.approx(1.0)
    got = sorted(map(tuple, result.centroids.data.tolist()))
    assert got == sorted(map(tuple, values.tolist()))


def test_kmeans_exact_recovery_cosine():
    rng = np.random.default_rng(1)
    fmap, labels = separated_map(3, 4, 4, rng)
    result = O.kmeans(fmap, 3, metric="cosine", rng=rng)
    assert result.cost == pytest.approx(0.0, abs=1e-6)
    assert adjusted_rand_index(result.assignments.reshape(-1), labels.reshape(-1)) == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_cost_monotone(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        fmap = Tensor(rng.standard_normal((4, 8, 8)))
        result = O.kmeans(fmap, 3, metric="cosine", max_iter=10, rng=rng)
        hist = result.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert result.cost == hist[-1]


def test_kmeans_matches_reference_under_shared_init():
    rng = np.random.default_rng(2)
    fmap = Tensor(rng.standard_normal((4, 8, 8)))
    pixels = fmap.data.reshape(4, 64).T
    normalized = pixels / np.linalg.norm(pixels, axis=1, keepdims=True)
    init = normalized[[3, 17, 42]]

    result = O.kmeans(fmap, 3, metric="cosine", max_iter=10, init=init)
    ref_assign, ref_centroids = reference_lloyd(normalized, init, max_iter=10)
    assert np.array_equal(result.assignments.reshape(-1), ref_assign)
    assert np.allclose(result.centroids.data, ref_centroids, atol=1e-12)


def test_kmeans_centroid_map_consistency():
    rng = np.random.default_rng(3)
    fmap = Tensor(rng.standard_normal((3, 4, 4)))
    result = O.kmeans(fmap, 4, rng=rng)
    for i in range(4):
        for j in range(4):
            assert np.array_equal(result.centroid_map.data[:, i, j],
                                  result.centroids.data[result.assignments[i, j]])
    assert not result.centroid_map.requires_grad


def test_kmeans_repairs_empty_clusters():
    # two far groups, three clusters seeded with duplicates: one goes empty
    pixels = np.array([[0.0, 0.0]] * 4 + [[10.0, 0.0]] * 4)
    fmap = Tensor(pixels.T.reshape(2, 2, 4))
    init = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    result = O.kmeans(fmap, 3, metric="euclidean", init=init, max_iter=10)
    present = np.unique(result.assignments)
    assert len(present) >= 2  # the far group was promoted out of emptiness
    assert result.cost == pytest.approx(0.0, abs=1e-18)


def test_kmeans_rejects_oversized_k():
    with pytest.raises(ValueError):
        O.kmeans(Tensor(np.zeros((2, 2, 2))), 5)


def test_loss_1d_values():
    q = Tensor(np.array([1.0, 2.0, -0.5]))
    assert O.loss_1d(q, q).item() == pytest.approx(-1.0, abs=1e-12)
    assert O.loss_1d(q, T.negate(q)).item() == pytest.approx(1.0, abs=1e-12)
    got = O.loss_1d(Tensor([1.0, 0.0]), Tensor([1.0, 1.0])).item()
    assert got == pytest.approx(-np.sqrt(2.0) / 2.0, abs=1e-9)


def test_loss_1d_stops_target_gradient():
    q = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    z = Tensor(np.array([2.0, 1.0]), requires_grad=True)
    T.backward(O.loss_1d(q, z))
    assert q.grad is not None
    assert z.grad is None


def test_loss_2d_cluster_perfect_prediction():
    rng = np.random.default_rng(4)
    fmap = Tensor(rng.standard_normal((3, 4, 4)))
    cluster = O.kmeans(fmap, 3, rng=rng)
    loss = O.loss_2d_cluster(cluster.centroid_map, cluster)
    assert loss.item() == pytest.approx(-1.0, abs=1e-9)


def test_loss_2d_cluster_single_cluster_is_mean_cosine():
    rng = np.random.default_rng(5)
    target = Tensor(rng.standard_normal((3, 2, 2)))
    pred = Tensor(rng.standard_normal((3, 2, 2)))
    cluster = O.kmeans(target, 1, rng=rng)
    got = O.loss_2d_cluster(pred, cluster).item()

    pixels = target.data.reshape(3, 4).T
    centroid = (pixels / np.linalg.norm(pixels, axis=1, keepdims=True)).mean(axis=0)
    cosines = []
    for px in pred.data.reshape(3, 4).T:
        cosines.append(px @ centroid / (np.linalg.norm(px) * np.linalg.norm(centroid)))
    assert got == pytest.approx(-np.mean(cosines), abs=1e-12)


def test_loss_2d_cluster_dense_collapses_for_uniform_cluster():
    vec = np.array([0.3, -0.7, 1.1])
    target = Tensor(np.tile(vec[:, None, None], (1, 2, 2)))
    pred = Tensor(np.random.default_rng(6).standard_normal((3, 2, 2)))
    cluster = O.kmeans(target, 1, rng=np.random.default_rng(0))
    plain = O.loss_2d_cluster(pred, cluster, dense=False).item()
    dense = O.loss_2d_cluster(pred, cluster, dense=True, target_map=target).item()
    assert dense == pytest.approx(plain, abs=1e-12)


def test_loss_2d_cluster_dense_matches_per_member_average():
    rng = np.random.default_rng(7)
    target = Tensor(rng.standard_normal((3, 2, 3)))
    pred = Tensor(rng.standard_normal((3, 2, 3)))
    cluster = O.kmeans(target, 2, rng=rng)
    got = O.loss_2d_cluster(pred, cluster, dense=True, target_map=target).item()

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


def test_loss_2d_wo_kmeans_values_and_oracle():
    rng = np.random.default_rng(8)
    target = Tensor(rng.standard_normal((3, 2, 2)))
    assert O.loss_2d_wo_kmeans(target, target).item() == pytest.approx(-1.0, abs=1e-12)

    single_p = Tensor(rng.standard_normal((4, 1, 1)))
    single_t = Tensor(rng.standard_normal((4, 1, 1)))
    want = O.loss_1d(Tensor(single_p.data.reshape(-1)), Tensor(single_t.data.reshape(-1))).item()
    assert O.loss_2d_wo_kmeans(single_p, single_t).item() == pytest.approx(want, abs=1e-12)

    pred = Tensor(rng.standard_normal((3, 2, 2)))
    cosines = []
    for i in range(2):
        for j in range(2):
            a, b = pred.data[:, i, j], target.data[:, i, j]
            cosines.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert O.loss_2d_wo_kmeans(pred, target).item() == pytest.approx(-np.mean(cosines), abs=1e-12)


def test_loss_2d_wo_kmeans_stops_target_gradient():
    pred = Tensor(np.random.default_rng(9).random((2, 2, 2)), requires_grad=True)
    target = Tensor(np.random.default_rng(10).random((2, 2, 2)), requires_grad=True)
    T.backward(O.loss_2d_wo_kmeans(pred, target))
    assert pred.grad is not None
    assert target.grad is None


def test_kmeans_per_pixel_clusters_match_wo_kmeans():
    rng = np.random.default_rng(11)
    target = Tensor(rng.standard_normal((3, 2, 2)))
    pred = Tensor(rng.standard_normal((3, 2, 2)))
    cluster = O.kmeans(target, 4, metric="cosine", rng=rng)
    assert len(np.unique(cluster.assignments)) == 4
    via_cluster = O.loss_2d_cluster(pred, cluster).item()
    direct = O.loss_2d_wo_kmeans(pred, target).item()
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
        pred = Tensor(rng.standard_normal((3, 3, 3)) * 10.0 ** rng.integers(-3, 4))
        target = Tensor(rng.standard_normal((3, 3, 3)) * 10.0 ** rng.integers(-3, 4))
        cluster = O.kmeans(target, 3, rng=rng)
        for value in (O.loss_2d_cluster(pred, cluster).item(),
                      O.loss_2d_cluster(pred, cluster, dense=True, target_map=target).item(),
                      O.loss_2d_wo_kmeans(pred, target).item()):
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_queue_fifo_normalization_eviction():
    q = O.NegativeQueue(4, 2)
    assert q.negatives().shape == (0, 2)
    q.push(np.array([[3.0, 4.0]]))
    assert np.allclose(q.negatives(), [[0.6, 0.8]])
    q.push(np.eye(2))
    assert len(q) == 3
    q.push(np.array([[0.0, 2.0], [2.0, 0.0]]))  # wraps: evicts the oldest
    assert len(q) == 4
    flat = q.negatives()
    assert np.allclose(np.linalg.norm(flat, axis=1), 1.0)
    # the very first entry has been overwritten by the wrap-around
    assert not any(np.allclose(row, [0.6, 0.8]) for row in flat)


def moco_setup(seed=0, queue_entries=0):
    cfg = M.ModelConfig(widths=(4, 6), downsample=(True, False), proj2d_hidden=5,
                        proj2d_out=4, pred2d_hidden=5, proj1d_hidden=4, embed_dim=3,
                        pred1d_hidden=4, alignment="roi")
    rng = np.random.default_rng(seed)
    pair = M.init_siamese_pair(cfg, rng)
    f_on = Tensor(rng.standard_normal((6, 4, 4)), requires_grad=False)
    f_tg = Tensor(rng.standard_normal((6, 4, 4)))
    spec_a = ViewSpec(Box(0, 0, 32, 32), False, NEUTRAL_PHOTO, (8, 8))
    spec_b = ViewSpec(Box(8, 4, 32, 30), False, NEUTRAL_PHOTO, (8, 8))
    queue = O.NegativeQueue(16, 4)
    if queue_entries:
        queue.push(np.random.default_rng(99).standard_normal((queue_entries, 4)))
    online = lambda r: M.project_2d(pair.online, r)
    target = lambda r: M.project_2d(pair.target, r)
    return pair, f_on, f_tg, spec_a, spec_b, queue, online, target


def test_moco_empty_queue_gives_zero_loss():
    _, f_on, f_tg, sa, sb, queue, online, target = moco_setup()
    loss = O.moco_pixel_infonce(f_on, f_tg, sa, sb, online, target, queue, k=3,
                                rng=np.random.default_rng(0))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)
    assert len(queue) == 16  # 16 target pixels pushed afterwards


def test_moco_single_matching_negative_gives_ln2():
    # direct check of the two-way softmax arithmetic on the logits path
    pos = Tensor(np.array([1.3]))
    logits = T.concat([T.reshape(pos, (1, 1)), T.reshape(Tensor(np.array([1.3])), (1, 1))], axis=1)
    loss = T.reduce_mean(T.sub(T.logsumexp(logits, axis=1), pos))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_moco_matches_softmax_cross_entropy_oracle():
    pair, f_on, f_tg, sa, sb, queue, online, target = moco_setup(seed=1, queue_entries=7)
    rng_loss = np.random.default_rng(5)
    loss = O.moco_pixel_infonce(f_on, f_tg, sa, sb, online, target, queue, k=3,
                                temperature=0.2, rng=rng_loss, update_queue=False)

    # oracle: rebuild logits with plain numpy and take mean -log softmax[0]
    from multisiam.align import intersection_relative, roi_align
    rel_a, rel_b = intersection_relative(sa, sb)
    region_on = roi_align(f_on, rel_a, 4, 4)
    region_tg = roi_align(f_tg, rel_b, 4, 4)
    proj = M.self_attention_predict(region_on, online(region_on), residual=False)
    tgt = target(region_tg)
    cluster = O.kmeans(tgt, 3, rng=np.random.default_rng(5))
    g = proj.data.reshape(4, 16).T
    g = g / np.linalg.norm(g, axis=1, keepdims=True)
    pos = cluster.centroid_map.data.reshape(4, 16).T
    pos = pos / np.linalg.norm(pos, axis=1, keepdims=True)
    negs = queue.negatives()
    per_pixel = []
    for i in range(16):
        logits = np.concatenate([[g[i] @ pos[i]], g[i] @ negs.T]) / 0.2
        soft = np.exp(logits - logits.max())
        soft /= soft.sum()
        per_pixel.append(-np.log(soft[0]))
    assert loss.item() == pytest.approx(np.mean(per_pixel), abs=1e-9)
    assert loss.item() >= 0.0


def test_moco_gradients_reach_online_only():
    pair, _, f_tg, sa, sb, queue, online, target = moco_setup(seed=2, queue_entries=5)
    f_on = Tensor(np.random.default_rng(3).standard_normal((6, 4, 4)), requires_grad=True)
    before = queue.negatives().copy()
    loss = O.moco_pixel_infonce(f_on, f_tg, sa, sb, online, target, queue, k=3,
                                rng=np.random.default_rng(1), update_queue=False)
    T.backward(loss)
    assert f_on.grad is not None
    assert all(p.grad is None for p in pair.target.values())
    assert np.array_equal(queue.negatives(), before)


_COST_RISE_SCRIPT = """
import numpy as np
from multisiam import objectives as O

real = O._pairwise_sq_dists
calls = [0]


def every_other_call_by_parity(points, centroids):
    # odd calls are honest; even calls assign point i to cluster i mod k
    calls[0] += 1
    if calls[0] % 2:
        return real(points, centroids)
    d2 = np.ones((len(points), len(centroids)))
    d2[np.arange(len(points)), np.arange(len(points)) % len(centroids)] = 0.0
    return d2


O._pairwise_sq_dists = every_other_call_by_parity
# two tight groups of eight, one after the other: the parity split mixes them
points = np.repeat(np.array([[5.0, 0.0], [0.0, 5.0]]), 8, axis=0)
points = points + np.random.default_rng(0).normal(0.0, 0.01, points.shape)
fmap = points.T.reshape(2, 4, 4)
try:
    O.kmeans(fmap, 2, metric="euclidean", init=[[5.0, 0.0], [0.0, 5.0]])
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
    assert done.stdout.startswith("raised Lloyd cost increased"), done.stdout


def test_kmeans_cost_increase_exits_runtime(tmp_path, monkeypatch):
    from multisiam import cli
    from multisiam import train as TR

    def rising(*args, **kwargs):
        raise O.ClusteringError("Lloyd cost increased: 1.0 -> 2.0")

    monkeypatch.setattr(TR, "kmeans", rising)
    assert cli.main(["train", "--out", str(tmp_path / "run"), "--steps=1", "--batch_size=1",
                     "--out_size=32", "--corpus_images=2"]) == 2
