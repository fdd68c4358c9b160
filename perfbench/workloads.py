"""The benchmark's four closed-loop workloads and their correctness checks.

Each workload is built from its seed alone; the program sees only the corpus,
config and checkpoint generated from it. A unit of work is one training step
(``train_*``), one held-out image (``eval_probe``) or one pass of the gradient
suite (``gradcheck``). Units run back to back: each starts when the previous
one has finished.

``unit()`` returns a plain tuple of the unit's outputs, equal for equal work,
and ``check(outputs)`` returns one entry per operation: None when it is
correct, else what is wrong.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from multisiam import checkpoint, checks, model, probe, scenes, train
from multisiam.tensor import Tensor

import layers
from spans import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 0  # the default seed: its outputs are compared with REFERENCE_PATH

# Drift allowed against the reference. On the first steps only a changed
# float summation order can move the loss, so the bound is tight; later such
# a change can compound through the updates. An ARI moves in jumps when one
# pixel changes cluster.
EARLY_STEPS = 20
EARLY_LOSS_TOL = 1e-6
LATE_LOSS_TOL = 0.1
ARI_TOL = 0.05
FEATURE_STD_FLOOR = 0.1

# criterion-9 settings of the acceptance suite
ABLATION_BASE = dict(steps=100, batch_size=4, corpus_images=24, kmeans_iters=6)
ABLATION_VARIANTS = (
    {"loss_mode": "moco"},
    {"alignment": "roi"},
    {"loss_mode": "wo_kmeans", "alignment": "none"},
    {"dense": True},
    {"optimizer": "lars", "k": 5},
    {"self_attention": False, "symmetrize": False},
)
EVAL_CKPT_STEPS = 4
CHILD_TIMEOUT_S = 120
# small shapes for the benchmark's own smoke tests
TINY = dict(batch_size=2, out_size=32, corpus_images=4, kmeans_iters=3, eval_images=2)


def load_reference(name: str):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def _corpus(cfg: train.TrainConfig, seed: int, count: int):
    return scenes.generate(scenes.SceneSpec(seed=seed, size=(cfg.out_size, cfg.out_size)),
                           count)


class TrainWorkload:
    """Round-robin ``train_step`` over one state per config."""

    unit_name = "step"
    ops_per_unit = 1

    def __init__(self, configs: list, reference=None):
        self.configs = configs
        self.round = len(configs)
        self.work_per_unit = configs[0].batch_size  # images, each rendered as two views
        self.warmup_units = 2 * self.round
        self.reference = reference

    def prepare(self, save_context=None) -> None:
        pass

    def setup(self) -> None:
        cfg = self.configs[0]
        self.corpus = _corpus(cfg, cfg.seed, cfg.corpus_images)
        self.states = [train.init_state(c) for c in self.configs]
        self.cursor = 0

    def unit(self) -> tuple:
        i = self.cursor % self.round
        self.cursor += 1
        state = self.states[i]
        if state.step == state.config.steps:  # the slice wraps to the schedule start
            state = self.states[i] = train.init_state(state.config)
        row = train.train_step(state, self.corpus)
        return (i, row.step, row.loss, row.feature_std)

    def check(self, outputs) -> list:
        return [check_train_row(outputs, self.reference)]

    def snapshot(self):
        return copy.deepcopy((self.states, self.cursor))

    def restore(self, snap) -> None:
        self.states, self.cursor = copy.deepcopy(snap)

    def close(self) -> None:
        pass


def check_train_row(row, reference) -> str | None:
    """Invariants of one step, and its loss against ``reference[variant][step]``."""
    variant, step, loss, feature_std = row
    if not math.isfinite(loss):
        return f"variant {variant} step {step}: non-finite loss {loss}"
    if not feature_std >= FEATURE_STD_FLOOR:
        return f"variant {variant} step {step}: feature_std {feature_std} below {FEATURE_STD_FLOOR}"
    if reference is not None:
        expected = reference[variant][step]
        tol = EARLY_LOSS_TOL if step < EARLY_STEPS else LATE_LOSS_TOL
        if not abs(loss - expected) <= tol:
            return (f"variant {variant} step {step}: loss {loss!r} differs from "
                    f"reference {expected!r} by more than {tol}")
    return None


def write_checkpoint(cfg: train.TrainConfig, path: Path, save_context=None) -> None:
    """Train ``EVAL_CKPT_STEPS`` steps of ``cfg`` and save the state to ``path``."""
    state = train.init_state(cfg)
    corpus = _corpus(cfg, cfg.seed, cfg.corpus_images)
    for _ in range(EVAL_CKPT_STEPS):
        train.train_step(state, corpus)
    with save_context or contextlib.nullcontext():
        checkpoint.save_checkpoint(state, path)


# run by the child process: argv is the checkpoint path, then sys.path entries
_WRITE_CHECKPOINT = """
import sys
sys.path[:0] = sys.argv[2:]
import workloads
from multisiam.train import config_from_text
workloads.write_checkpoint(config_from_text(sys.stdin.read()), sys.argv[1])
"""


class EvalWorkload:
    """Per held-out image: the probe of ``eval`` and the clusters of ``viz``,
    for the trained backbone and its random-init twin."""

    unit_name = "image"
    ops_per_unit = 1
    work_per_unit = 1
    round = 1
    warmup_units = 4

    def __init__(self, cfg: train.TrainConfig, path: Path, reference=None):
        self.cfg = cfg
        self.path = path
        self.reference = reference

    def prepare(self, save_context=None) -> None:
        """Write the checkpoint the set-up loads. A timed run writes it from a
        child process, so the training it takes stays out of this process's
        peak RSS; a traced run writes it here, to trace the save."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if save_context is not None:
            write_checkpoint(self.cfg, self.path, save_context)
            return
        subprocess.run([sys.executable, "-c", _WRITE_CHECKPOINT, str(self.path),
                        str(HERE), str(Path(train.__file__).resolve().parents[1])],
                       input=train.config_to_text(self.cfg), text=True, check=True,
                       timeout=CHILD_TIMEOUT_S)

    def setup(self) -> None:
        self.state = checkpoint.load_checkpoint(self.path)
        cfg = self.state.config
        self.held_out = _corpus(cfg, cfg.seed + train.EVAL_SEED_OFFSET, cfg.eval_images)
        self.random_params = model.init_params(
            self.state.model_config, train.rng_stream(cfg.seed, train.PURPOSE_PARAMS))
        self.cursor = 0

    def unit(self) -> tuple:
        idx = self.cursor % len(self.held_out)
        self.cursor += 1
        scene = self.held_out[idx]
        cfg, mcfg = self.state.config, self.state.model_config
        stride = mcfg.total_stride
        aris, sizes = [], []
        for params in (self.state.pair.online, self.random_params):
            # the per-image body of probe.probe_backbone, with its per-image seed
            fmap = probe.backbone_forward(params, scene.image, mcfg)
            inst = scenes.downsample_mask(scene.instance_mask, stride)
            cls = scenes.downsample_mask(scene.class_mask, stride)
            rng = train.rng_stream(cfg.seed, train.PURPOSE_EVAL, idx)
            ari_inst, ari_cls, _ = probe.probe_image(Tensor(fmap.data), inst, cls, cfg.k,
                                                     cfg.kmeans_metric, cfg.kmeans_iters, rng)
            aris += [ari_inst, ari_cls]
            full = probe.full_resolution_clusters(
                params, mcfg, scene, cfg.k, cfg.kmeans_metric, cfg.kmeans_iters,
                train.rng_stream(cfg.seed, train.PURPOSE_EVAL, idx))
            sizes.append(tuple(np.bincount(full.reshape(-1)).tolist()))
        return (idx, tuple(aris), tuple(sizes))

    def check(self, outputs) -> list:
        return [check_eval_image(outputs, self.cfg.k, self.cfg.out_size ** 2, self.reference)]

    def snapshot(self):
        return self.cursor

    def restore(self, snap) -> None:
        self.cursor = snap

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            self.path.unlink()


def check_eval_image(outputs, k: int, pixels: int, reference) -> str | None:
    """ARIs in [-1, 1], full-resolution clusters that partition the image
    into k non-empty parts, and ARIs against ``reference[idx]``."""
    idx, aris, sizes = outputs
    for ari in aris:
        if not -1.0 <= ari <= 1.0:
            return f"image {idx}: ARI {ari} outside [-1, 1]"
    for counts in sizes:
        if len(counts) != k or sum(counts) != pixels or min(counts) == 0:
            return f"image {idx}: full-resolution cluster sizes {counts} are not {k} parts"
    if reference is not None:
        for ari, expected in zip(aris, reference[idx]):
            if not abs(ari - expected) <= ARI_TOL:
                return f"image {idx}: ARI {ari!r} differs from reference {expected!r}"
    return None


# ``multisiam gradcheck`` and acceptance criterion 1 run the suite on seeds
# 0-4. Its cases keep clear of non-differentiable points only there: at
# suite seeds 22 and 28 one case misses the tolerance (a near-zero gradient
# under the 1e-8 error floor, and a k-means target that flips under
# perturbation), which is a limit of the finite-difference check.
SUITE_SEEDS = 5


class GradcheckWorkload:
    """``run_gradient_suite`` on one of its own seeds, pass after pass."""

    unit_name = "pass"
    round = 1
    warmup_units = 0  # prepare() runs the first pass
    reference = None

    def __init__(self, seed: int):
        self.seed = seed % SUITE_SEEDS

    def prepare(self, save_context=None) -> None:
        """Run one pass with a counter on finite_difference_check: every pass
        repeats the same cases, so it fixes the evaluations per pass."""
        counter = Tracer()
        with counter.installed(layers.fd_count_targets()):
            reports = checks.run_gradient_suite(seeds=[self.seed])
        self.work_per_unit = counter.counts["checks.fd_evals"]
        self.ops_per_unit = len(reports)

    def setup(self) -> None:
        pass

    def unit(self) -> tuple:
        reports = checks.run_gradient_suite(seeds=[self.seed])
        return tuple((r.op_name, r.max_relative_error) for r in reports)

    def check(self, outputs) -> list:
        problems = [None if err < checks.GRADCHECK_TOLERANCE else
                    f"{name}: relative error {err:.3e} not below {checks.GRADCHECK_TOLERANCE}"
                    for name, err in outputs]
        if len(outputs) != self.ops_per_unit:
            problems.append(f"{len(outputs)} reports, expected {self.ops_per_unit}")
        return problems

    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass

    def close(self) -> None:
        pass


WORKLOADS = ("train_default", "train_ablation", "eval_probe", "gradcheck")


def make(name: str, seed: int, work_dir: Path, tiny: bool = False,
         check_reference: bool = True):
    """Build workload ``name`` from ``seed``; ``tiny`` shrinks every shape.
    At the reference seed, full size, outputs are checked against the
    reference unless ``check_reference`` is false."""
    reference = None
    if seed == REFERENCE_SEED and not tiny and check_reference:
        reference = load_reference(name)
    size = TINY if tiny else {}
    if name == "train_default":
        cfg = train.TrainConfig(seed=seed, **size)
        return TrainWorkload([cfg], reference)
    if name == "train_ablation":
        base = dict(ABLATION_BASE, **size)
        configs = [train.TrainConfig(seed=seed, **dict(base, **v)) for v in ABLATION_VARIANTS]
        return TrainWorkload(configs, reference)
    if name == "eval_probe":
        cfg = train.TrainConfig(seed=seed, **size)
        return EvalWorkload(cfg, work_dir / f"eval_probe_{os.getpid()}.ckpt", reference)
    if name == "gradcheck":
        return GradcheckWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
