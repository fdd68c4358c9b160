"""Representation probes: intra-image clustering agreement with ground truth.

The probe freezes a backbone, clusters each held-out image's feature map, and
scores the partition against the downsampled instance and class masks with the
adjusted Rand index. Comparing a trained backbone against its own random
initialization on the same corpus and seeds gives a paired readout of what
training added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import CheckpointError
from .metrics import adjusted_rand_index, embedding_spread
from .model import ModelConfig, backbone_forward
from .objectives import kmeans
from .scenes import LabeledImage, downsample_mask
from .tensor import Tensor
from .train import PURPOSE_EVAL, TrainState, init_state, rng_stream

__all__ = ["ProbeReport", "probe_image", "probe_backbone", "paired_probe",
           "paired_clusters", "full_resolution_clusters"]


@dataclass
class ProbeReport:
    """Clustering agreement of a trained backbone, with its random-init twin."""

    ari_instance: float
    ari_class: float
    feature_std: float
    ari_instance_random: float
    ari_class_random: float
    margin_instance: float
    margin_class: float


def probe_image(features, instance_small: np.ndarray, class_small: np.ndarray,
                k: int, metric: str, max_iter: int, rng) -> tuple[float, float, np.ndarray]:
    """Cluster one [C,H,W] feature map Tensor and score it against both mask
    labelings."""
    cluster = kmeans(features.data, k, metric=metric, max_iter=max_iter, rng=rng)
    flat = cluster.assignments.reshape(-1)
    return (adjusted_rand_index(flat, instance_small.reshape(-1)),
            adjusted_rand_index(flat, class_small.reshape(-1)),
            cluster.assignments)


def _eval_rng(seed: int, idx: int) -> np.random.Generator:
    """Held-out image ``idx``'s clustering seed, the same for both backbones."""
    return rng_stream(seed, PURPOSE_EVAL, idx)


def _trained_and_random(state: TrainState, probe) -> list:
    """``probe(params)`` of the trained online backbone, then of its random-init
    twin, the one of a fresh ``init_state`` of the run's config. Both are
    passed detached, so the probe builds no tape. Finite weights can still
    overflow the features (a conv1 of 1e300 does), which then score nothing:
    arithmetic that overflows or turns invalid stops the probe with a
    CheckpointError."""
    twin = init_state(state.config).pair.online
    results = []
    for which, params in (("trained", state.pair.online), ("random-init", twin)):
        try:
            with np.errstate(over="raise", invalid="raise"):
                results.append(probe({name: Tensor(p.data) for name, p in params.items()}))
        except FloatingPointError as err:
            raise CheckpointError(f"the {which} weights overflow the probe ({err})") from None
    return results


def probe_backbone(params, mcfg: ModelConfig, corpus: list[LabeledImage], k: int,
                   metric: str, max_iter: int, seed: int):
    """Per-image cluster ARIs plus the pooled-embedding spread of a backbone."""
    stride = mcfg.total_stride
    ari_inst, ari_cls, pooled = [], [], []
    for idx, scene in enumerate(corpus):
        fmap = backbone_forward(params, scene.image, mcfg)
        inst_small = downsample_mask(scene.instance_mask, stride)
        cls_small = downsample_mask(scene.class_mask, stride)
        ai, ac, _ = probe_image(fmap, inst_small, cls_small, k, metric, max_iter,
                                _eval_rng(seed, idx))
        ari_inst.append(ai)
        ari_cls.append(ac)
        pooled.append(fmap.data.mean(axis=(1, 2)))
    spread = embedding_spread(np.array(pooled))
    return float(np.mean(ari_inst)), float(np.mean(ari_cls)), spread


def paired_probe(state: TrainState, corpus: list[LabeledImage]) -> ProbeReport:
    """Score the trained online backbone against a random-init twin built from
    the same seed, on the same corpus with the same per-image clustering seeds."""
    cfg = state.config
    trained, control = _trained_and_random(state, lambda params: probe_backbone(
        params, state.model_config, corpus, cfg.k, cfg.kmeans_metric, cfg.kmeans_iters,
        cfg.seed))
    return ProbeReport(
        ari_instance=trained[0], ari_class=trained[1],
        feature_std=trained[2],
        ari_instance_random=control[0], ari_class_random=control[1],
        margin_instance=trained[0] - control[0],
        margin_class=trained[1] - control[1])


def paired_clusters(state: TrainState, corpus: list[LabeledImage]) -> list:
    """Per held-out image, the (random-init, trained) full-resolution cluster
    maps, with the same per-image clustering seeds as ``paired_probe``."""
    cfg = state.config
    trained, control = _trained_and_random(state, lambda params: [
        full_resolution_clusters(params, state.model_config, scene, cfg.k, cfg.kmeans_metric,
                                 cfg.kmeans_iters, _eval_rng(cfg.seed, idx))
        for idx, scene in enumerate(corpus)])
    return list(zip(control, trained))


def full_resolution_clusters(params, mcfg: ModelConfig, scene: LabeledImage, k: int,
                             metric: str, max_iter: int, rng) -> np.ndarray:
    """Cluster the bilinear upsample of a feature map at mask resolution."""
    fmap = backbone_forward(params, scene.image, mcfg).data
    return kmeans(fmap, k, metric=metric, max_iter=max_iter, rng=rng,
                  size=scene.instance_mask.shape).assignments
