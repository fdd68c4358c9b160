import time

import numpy as np
import pytest

from multisiam import scenes as S


def test_corpus_deterministic_per_seed():
    spec = S.SceneSpec(seed=5)
    a = S.generate(spec, 4)
    b = S.generate(spec, 4)
    for x, y in zip(a, b):
        assert np.array_equal(x.image, y.image)
        assert np.array_equal(x.instance_mask, y.instance_mask)
        assert np.array_equal(x.class_mask, y.class_mask)
    other = S.generate(S.SceneSpec(seed=6), 4)
    assert not np.array_equal(a[0].image, other[0].image)


def test_instance_count_and_mask_consistency():
    corpus = S.generate(S.SceneSpec(seed=1), 16)
    for item in corpus:
        n = item.instance_mask.max()
        assert 2 <= n <= 5
        assert set(np.unique(item.instance_mask)) <= set(range(n + 1))
        # instance and class supports coincide
        assert np.array_equal(item.instance_mask > 0, item.class_mask > 0)
        # every visible instance carries one class, a shape kind 1-3
        for inst_id in np.unique(item.instance_mask[item.instance_mask > 0]):
            classes = np.unique(item.class_mask[item.instance_mask == inst_id])
            assert len(classes) == 1 and 1 <= classes[0] <= 3
        assert item.image.min() >= 0.0 and item.image.max() <= 1.0


def test_instance_overlap_bounded():
    corpus = S.generate(S.SceneSpec(seed=2), 24)
    for item in corpus:
        # every instance keeps at least 70% of its pixels visible
        for inst_id in range(1, item.instance_mask.max() + 1):
            visible = (item.instance_mask == inst_id).sum()
            assert visible > 0


def test_disk_area_matches_formula():
    # rasterized disk area within 2% of pi r^2 at 256x256
    r = 30.0
    mask = S._rasterize(0, (128.0, 128.0, r), 256, 256)
    assert mask.sum() == pytest.approx(np.pi * r * r, rel=0.02)


def test_downsample_mask_rules():
    mask = np.arange(16).reshape(4, 4)
    assert np.array_equal(S.downsample_mask(mask, 1), mask)

    uniform = np.full((4, 4), 3)
    assert np.array_equal(S.downsample_mask(uniform, 2), np.full((2, 2), 3))

    block = np.array([[1, 1], [2, 0]])
    assert S.downsample_mask(block, 2)[0, 0] == 1

    tie = np.array([[2, 2], [1, 1]])
    assert S.downsample_mask(tie, 2)[0, 0] == 1  # ties pick the lowest label

    with pytest.raises(ValueError):
        S.downsample_mask(np.zeros((5, 4), dtype=int), 2)


def _downsample_mask_loop(mask, stride):
    # the reference: a majority vote per cell, one bincount each
    ho, wo = mask.shape[0] // stride, mask.shape[1] // stride
    blocks = mask.reshape(ho, stride, wo, stride).transpose(0, 2, 1, 3).reshape(ho, wo, -1)
    out = np.zeros((ho, wo), dtype=mask.dtype)
    for i in range(ho):
        for j in range(wo):
            out[i, j] = np.bincount(blocks[i, j]).argmax()
    return out


@pytest.mark.parametrize("stride", [1, 2, 8])
@pytest.mark.parametrize("seed", range(3))
def test_downsample_mask_matches_per_cell_loop(stride, seed):
    rng = np.random.default_rng(seed)
    for labels, dtype in ((2, np.int32), (4, np.int64), (7, np.int32)):
        # few labels over small cells give many tied votes
        mask = rng.integers(0, labels, size=(32, 24)).astype(dtype)
        got = S.downsample_mask(mask, stride)
        want = _downsample_mask_loop(mask, stride)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    scene = S.generate(S.SceneSpec(seed=seed), 1)[0]
    for mask in (scene.instance_mask, scene.class_mask):
        got = S.downsample_mask(mask, stride)
        assert got.dtype == mask.dtype
        assert np.array_equal(got, _downsample_mask_loop(mask, stride))


def test_corpus_generation_speed():
    start = time.perf_counter()
    S.generate(S.SceneSpec(seed=9), 512)
    assert time.perf_counter() - start < 5.0
