"""The Siamese model: backbone, 1D/2D heads, attention prediction, EMA.

The online and target networks share one architecture; target parameters are
plain data (requires_grad False) refreshed by exponential moving average, so
the stop-gradient boundary is structural: nothing downstream of the target can
ever join the tape.

Desk-scale backbone: four 3x3 conv stages, a relu after each of the first
three, and no normalization layers. Each of the first three stages
downsamples with a stride-2 conv padded by one row and column before and none
after, ``pad=(1, 0)``: on even extents that computes every second row and
column of the ``pad=1`` stride-1 conv, and no other pixel, while keeping the
output extent integral.

Every projector and predictor is one kind of head: two 1x1 convs with a relu
between them. The 2D heads run it on feature maps; the 1D heads run it on the
pooled [C,N,1,1] maps, where a 1x1 conv is a fully connected layer, and give
[E,N] columns.

Each of these relus, the backbone's and the heads', runs inside the conv
before it (``conv2d(..., relu=True)``), so no pre-activation map is kept.

Feature maps are channel-major [C,N,H,W] batches; only backbone_forward also
takes a lone [3,H,W] view, a plain array, which it runs as a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, _require_maps, add, conv2d, global_avg_pool, l2_normalize,
                     matmul, mul, relu, reshape, select, transpose)

__all__ = [
    "ModelConfig",
    "SiamesePair",
    "init_params",
    "init_siamese_pair",
    "backbone_forward",
    "project_2d",
    "predict_local",
    "project_predict_1d",
    "self_attention_predict",
    "ema_update",
    "momentum_schedule",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults are the 64x64 desk configuration."""

    widths: tuple[int, ...] = (16, 32, 32, 32)
    downsample: tuple[bool, ...] = (True, True, True, False)
    proj2d_hidden: int = 64
    proj2d_out: int = 32
    pred2d_hidden: int = 64
    proj1d_hidden: int = 128
    embed_dim: int = 64
    pred1d_hidden: int = 128
    alignment: str = "offset"

    @property
    def total_stride(self) -> int:
        return int(np.prod([2 if d else 1 for d in self.downsample]))

    @property
    def feature_channels(self) -> int:
        return self.widths[-1]

    @property
    def pred2d_in(self) -> int:
        # offset alignment appends two coordinate channels to the online map
        return self.proj2d_out + (2 if self.alignment == "offset" else 0)


@dataclass
class SiamesePair:
    """Online (trainable) and target (EMA shadow) parameter sets."""

    online: dict[str, Tensor]
    target: dict[str, Tensor]


def _conv_param(rng, cout, cin, k, centered=False):
    std = math.sqrt(2.0 / (cin * k * k))
    w = rng.normal(0.0, std, size=(cout, cin, k, k))
    if centered:
        # zero-sum kernels respond to local contrast, not to the shared
        # luminance offset that would otherwise pin all feature directions
        # into one cone and trivialize intra-image clustering targets
        w -= w.mean(axis=(1, 2, 3), keepdims=True)
    return w


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """He-normal weights, zero biases; one flat name -> Tensor map."""
    params: dict[str, np.ndarray] = {}
    cin = 3  # RGB
    for idx, width in enumerate(cfg.widths, start=1):
        params[f"backbone.conv{idx}.w"] = _conv_param(rng, width, cin, 3, centered=True)
        params[f"backbone.conv{idx}.b"] = np.zeros(width)
        cin = width

    def mlp(prefix, din, hidden, dout):
        params[f"{prefix}.conv1.w"] = _conv_param(rng, hidden, din, 1)
        params[f"{prefix}.conv1.b"] = np.zeros(hidden)
        params[f"{prefix}.conv2.w"] = _conv_param(rng, dout, hidden, 1)
        params[f"{prefix}.conv2.b"] = np.zeros(dout)

    mlp("proj2d", cfg.feature_channels, cfg.proj2d_hidden, cfg.proj2d_out)
    mlp("pred2d", cfg.pred2d_in, cfg.pred2d_hidden, cfg.proj2d_out)
    mlp("proj1d", cfg.feature_channels, cfg.proj1d_hidden, cfg.embed_dim)
    mlp("pred1d", cfg.embed_dim, cfg.pred1d_hidden, cfg.embed_dim)
    return {name: Tensor(value, requires_grad=True) for name, value in params.items()}


def init_siamese_pair(cfg: ModelConfig, rng: np.random.Generator) -> SiamesePair:
    online = init_params(cfg, rng)
    target = {name: Tensor(p.data.copy()) for name, p in online.items()}
    return SiamesePair(online=online, target=target)


def backbone_forward(params: dict[str, Tensor], view: Tensor | np.ndarray,
                     cfg: ModelConfig) -> Tensor:
    """Encode a [3,N,H,W] Tensor batch of views into [C, N, H/S, W/S] feature
    maps, or one [3,H,W] array view, as a batch of one, into a [C, H/S, W/S]
    map.

    Every stage but the last ends in a relu, fused into its conv; the final
    stage stays linear so feature directions are not pinned to the positive
    orthant (a zeroed final kernel maps everything to its bias exactly).
    """
    s = cfg.total_stride
    h, w = view.shape[-2:]
    if h % s or w % s:
        raise ValueError(f"view extents {h}x{w} not divisible by total stride {s}")
    lone = view.ndim == 3
    x = Tensor(view[:, None]) if lone else view
    last = len(cfg.downsample)
    for idx, down in enumerate(cfg.downsample, start=1):
        x = conv2d(x, params[f"backbone.conv{idx}.w"], stride=2 if down else 1,
                   pad=(1, 0) if down else 1, bias=params[f"backbone.conv{idx}.b"],
                   relu=idx != last)
    return select(x, 0, axis=1) if lone else x


def _mlp_forward(params, prefix, fmap):
    hidden = conv2d(fmap, params[f"{prefix}.conv1.w"], bias=params[f"{prefix}.conv1.b"],
                    relu=True)
    return conv2d(hidden, params[f"{prefix}.conv2.w"], bias=params[f"{prefix}.conv2.b"])


def project_2d(params: dict[str, Tensor], fmap: Tensor) -> Tensor:
    """Two-layer 1x1-conv projector; spatial extent is preserved."""
    return _mlp_forward(params, "proj2d", fmap)


def predict_local(params: dict[str, Tensor], aligned_map: Tensor) -> Tensor:
    """Per-pixel predictor (1x1 convs) over an aligned online map."""
    expected = params["pred2d.conv1.w"].shape[1]
    if aligned_map.shape[0] != expected:
        raise ValueError(
            f"predictor expects {expected} input channels, got {aligned_map.shape[0]}")
    return _mlp_forward(params, "pred2d", aligned_map)


def project_predict_1d(params: dict[str, Tensor], fmap: Tensor,
                       with_predictor: bool) -> Tensor:
    """Pool the feature maps, project them, and (online branch only) predict:
    [C,N,H,W] -> [E,N]."""
    z = _mlp_forward(params, "proj1d", global_avg_pool(fmap))
    if with_predictor:
        z = _mlp_forward(params, "pred1d", z)
    return reshape(z, z.shape[:2])


def self_attention_predict(aligned_map: Tensor, local_pred: Tensor,
                           residual: bool = False) -> Tensor:
    """Aggregate local predictions weighted by squared clamped cosine
    similarity between aligned-map pixels of the same sample; no softmax
    normalization. Both maps are [C,N,H,W] batches.

    Optionally adds the local prediction back as a residual connection.
    """
    _require_maps(aligned_map, "self_attention_predict")
    _require_maps(local_pred, "self_attention_predict")
    if aligned_map.shape[1:] != local_pred.shape[1:]:
        raise ValueError(
            f"spatial extents differ: {aligned_map.shape} vs {local_pred.shape}")
    c, samples, h, w = aligned_map.shape
    d, n = local_pred.shape[0], h * w
    keys = l2_normalize(reshape(aligned_map, (c, samples, n)), axis=0)
    sim = relu(matmul(transpose(keys, (1, 2, 0)), transpose(keys, (1, 0, 2))))
    sim = mul(sim, sim)  # [N, n, n], symmetric per sample
    values = transpose(reshape(local_pred, (d, samples, n)), (1, 0, 2))
    out = matmul(values, sim)
    if residual:
        out = add(out, values)
    return reshape(transpose(out, (1, 0, 2)), local_pred.shape)


def ema_update(pair: SiamesePair, tau: float) -> None:
    """xi <- tau * xi + (1 - tau) * theta for every target parameter."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    for name, online in pair.online.items():
        target = pair.target[name]
        target.data = tau * target.data + (1.0 - tau) * online.data


def momentum_schedule(step: int, total_steps: int, tau_base: float) -> float:
    """Cosine ramp from tau_base at step 0 to exactly 1.0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return 1.0 - (1.0 - tau_base) * (math.cos(math.pi * step / total_steps) + 1.0) / 2.0
