import time

import numpy as np
import pytest

from multisiam import scenes as S


def test_corpus_deterministic_per_seed():
    spec = S.SceneSpec(seed=5)
    a = S.generate(spec, 4)
    b = S.generate(spec, 4)
    for x, y in zip(a, b):
        assert np.array_equal(x.image.data, y.image.data)
        assert np.array_equal(x.instance_mask, y.instance_mask)
        assert np.array_equal(x.class_mask, y.class_mask)
    other = S.generate(S.SceneSpec(seed=6), 4)
    assert not np.array_equal(a[0].image.data, other[0].image.data)


def test_instance_count_and_mask_consistency():
    corpus = S.generate(S.SceneSpec(seed=1), 16)
    for item in corpus:
        n = item.instance_mask.max()
        assert 2 <= n <= 5
        assert set(np.unique(item.instance_mask)) <= set(range(n + 1))
        # instance and class supports coincide
        assert np.array_equal(item.instance_mask > 0, item.class_mask > 0)
        # class mask follows the instance -> class table
        for inst_id, cls in enumerate(item.instance_classes, start=1):
            sel = item.instance_mask == inst_id
            if sel.any():
                assert np.all(item.class_mask[sel] == cls)
        assert item.image.data.min() >= 0.0 and item.image.data.max() <= 1.0


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


def test_corpus_generation_speed():
    start = time.perf_counter()
    S.generate(S.SceneSpec(seed=9), 512)
    assert time.perf_counter() - start < 5.0
