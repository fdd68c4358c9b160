"""The optimization loop: config, schedules, one step, and full runs.

Reproducibility discipline: one master seed derives independent generator
streams keyed by (seed, purpose, step), so a run resumed from a checkpoint
replays exactly the same randomness as an uninterrupted one. Checkpoints are
taken at accumulation boundaries, which save and load both enforce: mid-window
grads are not serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import optim
from .align import ALIGNMENT_MODES, align_pair, flip_back
from .metrics import embedding_spread
from .model import (ModelConfig, SiamesePair, backbone_forward, ema_update,
                    init_siamese_pair, momentum_schedule, predict_local, project_2d,
                    project_predict_1d, self_attention_predict)
from .objectives import (LOSS_MODES, NegativeQueue, kmeans_batch, loss_1d,
                         loss_2d_cluster, loss_2d_wo_kmeans, loss_total, moco_pixel_infonce)
from .tensor import Tensor, backward, reduce_mean, zero_grads
from .views import AugmentConfig, render_view, sample_view_pair

__all__ = [
    "TrainConfig",
    "TrainState",
    "StepMetrics",
    "ConfigError",
    "TrainingError",
    "rng_stream",
    "PURPOSE_PARAMS",
    "PURPOSE_SAMPLER",
    "PURPOSE_KMEANS",
    "PURPOSE_EVAL",
    "effective_lr",
    "model_config_for",
    "augment_config_for",
    "init_state",
    "image_loss",
    "train_step",
    "run_training",
    "config_to_text",
    "config_from_pairs",
    "config_from_text",
    "pairs_from_text",
    "config_as_dict",
]

PURPOSE_PARAMS = 0
PURPOSE_SAMPLER = 1
PURPOSE_KMEANS = 2
PURPOSE_EVAL = 3

# held-out evaluation scenes come from a shifted corpus seed
EVAL_SEED_OFFSET = 7777


class ConfigError(ValueError):
    """Raised for unknown keys, type mismatches, or out-of-range values."""


class TrainingError(RuntimeError):
    """Raised when a run cannot continue: a non-finite loss, or a non-finite
    parameter after an optimizer update."""


def rng_stream(seed: int, purpose: int, step: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, purpose, step])))


@dataclass
class TrainConfig:
    """Every knob of a training run; defaults are the desk-scale recipe."""

    steps: int = 300
    batch_size: int = 8
    accumulation_steps: int = 1
    lr_base: float = 0.3
    weight_decay: float = 1e-5
    momentum: float = 0.9
    trust_coeff: float = 0.001
    optimizer: str = "sgd"
    lambda_weight: float = 0.5
    loss_mode: str = "cluster"
    alignment: str = "offset"
    normalize_offset: bool = True
    self_attention: bool = True
    residual: bool | None = None  # None resolves per alignment mode
    dense: bool = False
    k: int = 3
    kmeans_metric: str = "cosine"
    kmeans_iters: int = 10
    iou_threshold: float = 0.5
    min_scale: float = 0.08
    tau_base: float = 0.996
    temperature: float = 0.2
    queue_length: int = 1024
    symmetrize: bool = True
    seed: int = 0
    out_size: int = 64
    corpus_images: int = 128
    eval_images: int = 32

    @property
    def resolved_residual(self) -> bool:
        # residual connections pair well with region pooling but hurt with
        # long-range offsets, so the default follows the alignment mode
        if self.residual is not None:
            return self.residual
        return self.alignment == "roi"


@dataclass
class StepMetrics:
    step: int
    loss: float
    l1d: float
    l2d: float
    lr: float
    tau: float
    feature_std: float


@dataclass
class TrainState:
    config: TrainConfig
    pair: SiamesePair
    opt_buffers: dict[str, np.ndarray]
    queue: NegativeQueue | None
    step: int = 0

    @property
    def model_config(self) -> ModelConfig:
        return model_config_for(self.config)


# ---------------------------------------------------------------------------
# config parsing / serialization (key=value lines)

_CONFIG_KEY_TO_FIELD = {"lambda": "lambda_weight"}
_FIELD_TO_CONFIG_KEY = {v: k for k, v in _CONFIG_KEY_TO_FIELD.items()}

_CHOICES = {
    "optimizer": ("sgd", "lars"),
    "loss_mode": LOSS_MODES,
    "alignment": ALIGNMENT_MODES,
    "kmeans_metric": ("cosine", "euclidean"),
}

_BOOL_WORDS = {"true": True, "1": True, "on": True, "yes": True,
               "false": False, "0": False, "off": False, "no": False}


def _parse_value(key: str, field_name: str, kind, raw: str):
    raw = raw.strip()
    if field_name == "residual":
        if raw.lower() == "auto":
            return None
        kind = bool
    try:
        if kind is bool:
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError
            return _BOOL_WORDS[word]
        if kind is str:
            return raw
        # int() and float() also take non-ASCII digits and '_' separators
        if not raw.isascii() or "_" in raw:
            raise ValueError
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {getattr(kind, '__name__', kind)}") from None


def _validate(cfg: TrainConfig, origin: dict[str, str | None] | None = None) -> TrainConfig:
    """``cfg`` if its values are valid together. ``origin`` names where a
    field's value was read; an error starts with the first such name among
    ``key`` and the ``also`` fields its rule reads."""
    origin = origin or {}

    def need(cond, key, why, also=()):
        if not cond:
            read = [_CONFIG_KEY_TO_FIELD.get(k, k) for k in (key, *also)]
            where = next((origin[f] for f in read if origin.get(f)), None)
            raise ConfigError(f"{where + ': ' if where else ''}{key}: {why}")

    for f in fields(TrainConfig):
        if f.type == "float":
            need(math.isfinite(getattr(cfg, f.name)), _FIELD_TO_CONFIG_KEY.get(f.name, f.name),
                 "must be finite")
    need(cfg.steps >= 1, "steps", "must be at least 1")
    need(cfg.batch_size >= 1, "batch_size", "must be at least 1")
    need(cfg.accumulation_steps >= 1, "accumulation_steps", "must be at least 1")
    need(cfg.steps % cfg.accumulation_steps == 0, "accumulation_steps",
         f"must divide steps={cfg.steps}: a partial last window would never reach "
         "the optimizer", also=("steps",))
    need(cfg.lr_base > 0.0, "lr_base", "must be positive")
    # effective_lr doubles the batch-scaled rate before it halves it
    need(math.isfinite(2.0 * _batch_scaled_lr(cfg)), "lr_base",
         f"scaled by batch_size/256 (batch_size={cfg.batch_size}) the learning rate "
         "overflows", also=("batch_size",))
    need(cfg.weight_decay >= 0.0, "weight_decay", "must be non-negative")
    need(0.0 <= cfg.momentum < 1.0, "momentum", "must lie in [0, 1)")
    need(cfg.trust_coeff > 0.0, "trust_coeff", "must be positive")
    need(0.0 <= cfg.lambda_weight <= 1.0, "lambda", "must lie in [0, 1]")
    need(0.0 <= cfg.iou_threshold < 1.0, "iou_threshold", "must lie in [0, 1)")
    need(0.0 < cfg.min_scale <= 1.0, "min_scale", "must lie in (0, 1]")
    need(0.0 <= cfg.tau_base <= 1.0, "tau_base", "must lie in [0, 1]")
    need(cfg.temperature > 0.0, "temperature", "must be positive")
    need(cfg.k >= 1, "k", "must be at least 1")
    need(cfg.kmeans_iters >= 1, "kmeans_iters", "must be at least 1")
    need(cfg.queue_length >= 1, "queue_length", "must be at least 1")
    need(cfg.seed >= 0, "seed", "must be non-negative")
    stride = model_config_for(cfg).total_stride
    need(cfg.out_size >= stride and cfg.out_size % stride == 0, "out_size",
         f"must be a positive multiple of the backbone stride {stride}")
    need(cfg.corpus_images >= 1, "corpus_images", "must be at least 1")
    need(cfg.eval_images >= 1, "eval_images", "must be at least 1")
    for field_name, allowed in _CHOICES.items():
        value = getattr(cfg, field_name)
        need(value in allowed, field_name, f"{value!r} is not one of {list(allowed)}")
    # a key that one mode alone reads would be dropped, set in another
    for key, rule in (("dense", "loss_mode=cluster"), ("temperature", "loss_mode=moco"),
                      ("queue_length", "loss_mode=moco"), ("trust_coeff", "optimizer=lars")):
        mode_key, mode = rule.split("=")
        need(getattr(cfg, key) == getattr(TrainConfig, key) or getattr(cfg, mode_key) == mode,
             key, f"only {rule} reads it, not {mode_key}={getattr(cfg, mode_key)}",
             also=(mode_key,))
    # loss_mode=moco aligns by roi and attends without a residual, whatever these say
    need(cfg.residual is None or (cfg.self_attention and cfg.loss_mode != "moco"), "residual",
         f"self_attention={str(cfg.self_attention).lower()} with loss_mode={cfg.loss_mode} "
         "has no residual to set; leave it auto", also=("self_attention", "loss_mode"))
    need(cfg.alignment == TrainConfig.alignment or cfg.loss_mode != "moco", "alignment",
         f"loss_mode=moco aligns by roi whatever this says; leave it {TrainConfig.alignment}",
         also=("loss_mode",))
    need(cfg.normalize_offset or (cfg.alignment == "offset" and cfg.loss_mode != "moco"),
         "normalize_offset", f"alignment={cfg.alignment} with loss_mode={cfg.loss_mode} "
         "has no offsets to normalize", also=("alignment", "loss_mode"))
    feature_pixels = (cfg.out_size // stride) ** 2
    need(cfg.k <= feature_pixels, "k",
         f"must not exceed the {feature_pixels} feature-map pixels at out_size={cfg.out_size}",
         also=("out_size",))
    return cfg


def config_from_pairs(pairs) -> TrainConfig:
    """Resolve (key, raw-string) pairs on top of the defaults, a later pair of
    a key winning, and validate the result once.

    A pair may carry a third item, the name of where it was read, such as a
    config file's path. An error about a key whose value came from there
    starts with that name.
    """
    cfg = TrainConfig()
    by_field = {f.name: f for f in fields(TrainConfig)}
    origin: dict[str, str | None] = {}
    for key, raw, *where in pairs:
        prefix = f"{where[0]}: " if where else ""
        key = key.strip()
        field_name = _CONFIG_KEY_TO_FIELD.get(key, key)
        # a field whose config key differs is known only by that key
        if field_name not in by_field or key in _FIELD_TO_CONFIG_KEY:
            raise ConfigError(f"{prefix}unknown config key {key!r}")
        spec = by_field[field_name]
        kind = {"int": int, "float": float, "bool": bool, "str": str}.get(spec.type, spec.type)
        try:
            setattr(cfg, field_name, _parse_value(key, field_name, kind, raw))
        except ConfigError as err:
            raise ConfigError(f"{prefix}{err}") from None
        origin[field_name] = where[0] if where else None
    return _validate(cfg, origin)


def pairs_from_text(text: str) -> list[tuple[str, str]]:
    """The (key, raw-string) pairs of '#'-commented key=value lines."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        pairs.append((key, raw))
    return pairs


def config_from_text(text: str) -> TrainConfig:
    """Parse and validate '#'-commented key=value lines."""
    return config_from_pairs(pairs_from_text(text))


def config_as_dict(cfg: TrainConfig) -> dict:
    out = {}
    for f in fields(TrainConfig):
        key = _FIELD_TO_CONFIG_KEY.get(f.name, f.name)
        value = getattr(cfg, f.name)
        out[key] = "auto" if value is None else value
    return dict(sorted(out.items()))


def config_to_text(cfg: TrainConfig) -> str:
    lines = []
    for key, value in config_as_dict(cfg).items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# schedules


def _batch_scaled_lr(cfg: TrainConfig) -> float:
    return cfg.lr_base * cfg.batch_size / 256.0


def effective_lr(step: int, cfg: TrainConfig) -> float:
    """Linearly batch-scaled base rate under a cosine decay to zero."""
    if step > cfg.steps:
        raise ValueError(f"step {step} beyond configured {cfg.steps}")
    return _batch_scaled_lr(cfg) * (math.cos(math.pi * step / cfg.steps) + 1.0) / 2.0


# ---------------------------------------------------------------------------
# state construction


def model_config_for(cfg: TrainConfig) -> ModelConfig:
    return ModelConfig(alignment=cfg.alignment)


def augment_config_for(cfg: TrainConfig) -> AugmentConfig:
    return AugmentConfig(iou_threshold=cfg.iou_threshold, min_scale=cfg.min_scale,
                         out_size=(cfg.out_size, cfg.out_size))


def init_state(cfg: TrainConfig) -> TrainState:
    _validate(cfg)
    mcfg = model_config_for(cfg)
    pair = init_siamese_pair(mcfg, rng_stream(cfg.seed, PURPOSE_PARAMS))
    queue = NegativeQueue(cfg.queue_length, mcfg.proj2d_out) if cfg.loss_mode == "moco" else None
    return TrainState(config=cfg, pair=pair, opt_buffers={}, queue=queue, step=0)


# ---------------------------------------------------------------------------
# one training step


def image_loss(pair: SiamesePair, cfg: TrainConfig, mcfg: ModelConfig, views, specs,
               krng: np.random.Generator, queue: NegativeQueue | None):
    """The training loss of B images, each a pair of rendered views: the mean
    over images and view orderings (both when symmetrized).

    ``views[b]`` and ``specs[b]`` hold image b's two [3,H,W] views and their
    specs. Each branch encodes all its views as one batch, and the heads,
    alignment and losses run over the B x orderings (online view, target
    view) pairs, image-major. Only the k-means seeding, and the queue-ordered
    MoCo loss, go pair by pair, in that order: ``krng`` draws each pair's
    seeding and a MoCo ``queue`` receives the target pixels.

    Returns the loss tensor, the per-pair l1d and l2d values, and the pooled
    online feature rows that ``feature_std`` is computed from.
    """
    orders = ((0, 1), (1, 0)) if cfg.symmetrize else ((0, 1),)
    pairs = [(b, on, tg) for b in range(len(views)) for on, tg in orders]
    on_specs = [specs[b][on] for b, on, _ in pairs]
    tg_specs = [specs[b][tg] for b, _, tg in pairs]
    on_flips = [s.flipped for s in on_specs]
    tg_flips = [s.flipped for s in tg_specs]

    def batch(which):
        return Tensor(np.stack([views[b][v] for b, v in which], axis=1))

    f_on = backbone_forward(pair.online, batch([(b, on) for b, on, _ in pairs]), mcfg)
    f_tg = backbone_forward(pair.target, batch([(b, tg) for b, _, tg in pairs]), mcfg)
    l1 = loss_1d(project_predict_1d(pair.online, f_on, with_predictor=True),
                 project_predict_1d(pair.target, f_tg, with_predictor=False).data)
    if cfg.loss_mode == "moco":
        # region alignment of the raw maps happens before projection
        keys, regions = align_pair(flip_back(f_on, on_flips), flip_back(f_tg, tg_flips),
                                   on_specs, tg_specs, "roi")
        residual = False
        pred = project_2d(pair.online, keys)
        target = project_2d(pair.target, regions).data
    else:
        keys, target_map = align_pair(flip_back(project_2d(pair.online, f_on), on_flips),
                                      flip_back(project_2d(pair.target, f_tg), tg_flips),
                                      on_specs, tg_specs, cfg.alignment,
                                      normalize_offset=cfg.normalize_offset)
        residual, target = cfg.resolved_residual, target_map.data
        pred = predict_local(pair.online, keys)
    if cfg.self_attention:
        pred = self_attention_predict(keys, pred, residual=residual)
    if cfg.loss_mode == "wo_kmeans":
        l2 = loss_2d_wo_kmeans(pred, target)
    else:
        clusters = kmeans_batch(target, cfg.k, metric=cfg.kmeans_metric,
                                max_iter=cfg.kmeans_iters, rng=krng)
        if cfg.loss_mode == "moco":
            l2 = moco_pixel_infonce(pred, target, clusters, queue, cfg.temperature)
        else:
            l2 = loss_2d_cluster(pred, clusters, dense=cfg.dense, target_map=target)
    loss = reduce_mean(loss_total(l1, l2, cfg.lambda_weight))
    # one pooled row per online view, image-major
    pooled_rows = list(f_on.data.mean(axis=(2, 3)).T)
    return loss, l1.data.tolist(), l2.data.tolist(), pooled_rows


def train_step(state: TrainState, corpus) -> StepMetrics:
    """Run one micro-step: sample, render, forward, losses, backward; on an
    accumulation boundary also the optimizer step and the EMA update."""
    cfg = state.config
    pair = state.pair
    step = state.step
    if step >= cfg.steps:
        raise TrainingError(f"run already finished ({step} >= {cfg.steps})")

    sampler_rng = rng_stream(cfg.seed, PURPOSE_SAMPLER, step)
    kmeans_rng = rng_stream(cfg.seed, PURPOSE_KMEANS, step)
    aug = augment_config_for(cfg)

    indices = sampler_rng.integers(0, len(corpus), size=cfg.batch_size)
    views, specs = [], []
    for idx in indices:
        scene = corpus[int(idx)]
        view_pair = sample_view_pair(scene.instance_mask.shape, aug, sampler_rng)
        specs.append((view_pair.spec_a, view_pair.spec_b))
        views.append([render_view(scene.image, s) for s in specs[-1]])
    # an overflow surfaces as the typed non-finite checks below, not as
    # numpy warnings on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        loss, l1_values, l2_values, pooled_rows = image_loss(
            pair, cfg, state.model_config, views, specs, kmeans_rng, state.queue)
        if not np.isfinite(loss.data):
            raise TrainingError(
                f"non-finite loss at step {step}: loss={loss.data!r}, "
                f"l1d={l1_values!r}, l2d={l2_values!r}")
        backward(loss)

    lr = effective_lr(step, cfg)
    tau = momentum_schedule(step, cfg.steps, cfg.tau_base)
    if (step + 1) % cfg.accumulation_steps == 0:
        if cfg.optimizer == "lars":
            optim.lars_step(pair.online, lr, cfg.momentum, cfg.weight_decay,
                            cfg.trust_coeff, state.opt_buffers)
        else:
            optim.sgd_step(pair.online, lr, cfg.momentum, cfg.weight_decay,
                           state.opt_buffers)
        bad = next((name for name, p in pair.online.items() if not np.isfinite(p.data).all()),
                   None)
        if bad is not None:
            raise TrainingError(f"non-finite parameter {bad} after the update at step {step} "
                                f"(lr={lr!r})")
        zero_grads(pair.online)
        ema_update(pair, tau)

    feature_std = embedding_spread(np.array(pooled_rows))

    state.step += 1
    return StepMetrics(step=step, loss=loss.item(),
                       l1d=float(np.mean(l1_values)), l2d=float(np.mean(l2_values)),
                       lr=lr, tau=tau, feature_std=feature_std)


def run_training(cfg: TrainConfig, corpus, state: TrainState | None = None,
                 on_step=None) -> tuple[TrainState, list[StepMetrics]]:
    """Train from ``state`` (or scratch) until cfg.steps; returns all metrics."""
    if state is None:
        state = init_state(cfg)
    metrics = []
    while state.step < cfg.steps:
        row = train_step(state, corpus)
        metrics.append(row)
        if on_step is not None:
            on_step(row)
    return state, metrics
