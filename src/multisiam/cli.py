"""Command-line entry point.

    multisiam train|eval|viz|gradcheck --config <path> [--key=value ...] --out <dir>

Exit codes: 0 ok, 1 usage or config error, 2 runtime failure, 3 verification
failure. The environment variable MULTISIAM_SEED overrides the config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .checks import GRADCHECK_TOLERANCE, run_gradient_suite
from .model import init_params
from .objectives import ClusteringError
from .probe import full_resolution_clusters, paired_probe
from .scenes import SceneSpec, generate
from .train import (EVAL_SEED_OFFSET, PURPOSE_EVAL, PURPOSE_PARAMS, ConfigError,
                    TrainConfig, TrainingError, config_as_dict, config_from_pairs,
                    config_from_text, rng_stream, run_training)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

COMMANDS = ("train", "eval", "viz", "gradcheck")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2)
        raise UsageError(message)


def _build_parser(command: str) -> _Parser:
    parser = _Parser(prog=f"multisiam {command}", add_help=False)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default=None)
    if command in ("eval", "viz"):
        parser.add_argument("--checkpoint", required=True)
    if command in ("eval", "viz"):
        parser.add_argument("--images", type=int, default=None)
    if command == "gradcheck":
        parser.add_argument("--seeds", type=int, default=5)
    return parser


def _split_overrides(rest: list[str]) -> list[tuple[str, str]]:
    overrides = []
    for arg in rest:
        if arg.startswith("--") and "=" in arg:
            key, raw = arg[2:].split("=", 1)
            overrides.append((key, raw))
        else:
            raise UsageError(f"unrecognized argument {arg!r} (expected --key=value)")
    return overrides


def _load_config(config_path, overrides) -> TrainConfig:
    cfg = TrainConfig()
    if config_path is not None:
        cfg = config_from_text(Path(config_path).read_text(encoding="utf-8"))
    cfg = config_from_pairs(overrides, base=cfg)
    env_seed = os.environ.get("MULTISIAM_SEED")
    if env_seed is not None:
        cfg = config_from_pairs([("seed", env_seed)], base=cfg)
    return cfg


def _out_dir(ns) -> Path:
    if ns.out is None:
        raise UsageError("--out <dir> is required")
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scene_specs(cfg: TrainConfig) -> tuple[SceneSpec, SceneSpec]:
    size = (cfg.out_size, cfg.out_size)
    return (SceneSpec(seed=cfg.seed, size=size),
            SceneSpec(seed=cfg.seed + EVAL_SEED_OFFSET, size=size))


def cmd_train(ns, overrides) -> int:
    cfg = _load_config(ns.config, overrides)
    out = _out_dir(ns)
    train_spec, _ = _scene_specs(cfg)
    corpus = generate(train_spec, cfg.corpus_images)

    metrics_path = out / "metrics.jsonl"
    checkpoint_path = out / "final.ckpt"
    with open(metrics_path, "w", encoding="utf-8") as fh:
        def on_step(row):
            fh.write(json.dumps(row.as_dict()) + "\n")

        state, metrics = run_training(cfg, corpus, on_step=on_step)
    save_checkpoint(state, checkpoint_path)

    manifest = {
        "config": config_as_dict(cfg),
        "seed": cfg.seed,
        "code_version": __version__,
        "metrics_path": metrics_path.name,
        "checkpoint_paths": [checkpoint_path.name],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")
    first, last = metrics[0], metrics[-1]
    print(f"trained {cfg.steps} steps: loss {first.loss:+.4f} -> {last.loss:+.4f}, "
          f"feature_std {last.feature_std:.4f}")
    print(f"manifest: {out / 'manifest.json'}")
    return EXIT_OK


def _eval_corpus(cfg: TrainConfig, n_images: int):
    _, eval_spec = _scene_specs(cfg)
    return generate(eval_spec, n_images)


def cmd_eval(ns, overrides) -> int:
    if overrides:
        raise UsageError("eval takes its config from the checkpoint")
    state = load_checkpoint(ns.checkpoint)
    cfg = state.config
    out = _out_dir(ns)
    corpus = _eval_corpus(cfg, ns.images if ns.images is not None else cfg.eval_images)
    report = paired_probe(state, corpus)
    (out / "probe_report.json").write_text(json.dumps(report.as_dict(), indent=2) + "\n",
                                           encoding="utf-8")
    print(f"ari_instance trained={report.ari_instance:.4f} "
          f"random={report.ari_instance_random:.4f} margin={report.margin_instance:+.4f}")
    print(f"ari_class    trained={report.ari_class:.4f} "
          f"random={report.ari_class_random:.4f} margin={report.margin_class:+.4f}")
    print(f"feature_std {report.feature_std:.4f}")
    return EXIT_OK


def cmd_viz(ns, overrides) -> int:
    from .viz import cluster_panel, compose_panels, image_panel, write_ppm

    if overrides:
        raise UsageError("viz takes its config from the checkpoint")
    state = load_checkpoint(ns.checkpoint)
    cfg = state.config
    out = _out_dir(ns)
    count = ns.images if ns.images is not None else 4
    corpus = _eval_corpus(cfg, count)
    random_params = init_params(state.model_config, rng_stream(cfg.seed, PURPOSE_PARAMS))
    for idx, scene in enumerate(corpus):
        rng_r = rng_stream(cfg.seed, PURPOSE_EVAL, idx)
        rng_t = rng_stream(cfg.seed, PURPOSE_EVAL, idx)
        random_map = full_resolution_clusters(random_params, state.model_config, scene,
                                              cfg.k, cfg.kmeans_metric, cfg.kmeans_iters,
                                              rng_r)
        trained_map = full_resolution_clusters(state.pair.online, state.model_config,
                                               scene, cfg.k, cfg.kmeans_metric,
                                               cfg.kmeans_iters, rng_t)
        panel = compose_panels([image_panel(scene.image.data),
                                cluster_panel(random_map),
                                cluster_panel(trained_map)])
        write_ppm(out / f"viz_{idx}.ppm", panel)
    print(f"wrote {count} panels (input | random-init clusters | trained clusters) to {out}")
    return EXIT_OK


def cmd_gradcheck(ns, overrides) -> int:
    if overrides:
        raise UsageError("gradcheck takes no config overrides")
    reports = run_gradient_suite(seeds=range(ns.seeds))
    worst: dict[str, float] = {}
    for rep in reports:
        worst[rep.op_name] = max(worst.get(rep.op_name, 0.0), rep.max_relative_error)
    failures = 0
    for name in sorted(worst):
        ok = worst[name] < GRADCHECK_TOLERANCE
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name:28s} max_rel_err={worst[name]:.3e}")
    if ns.out is not None:
        out = _out_dir(ns)
        (out / "gradcheck.json").write_text(json.dumps(worst, indent=2) + "\n",
                                            encoding="utf-8")
    if failures:
        print(f"{failures} operation(s) exceeded tolerance {GRADCHECK_TOLERANCE}",
              file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(worst)} operations within {GRADCHECK_TOLERANCE} over {ns.seeds} seeds")
    return EXIT_OK


_HANDLERS = {"train": cmd_train, "eval": cmd_eval, "viz": cmd_viz,
             "gradcheck": cmd_gradcheck}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if not argv or argv[0] in ("-h", "--help"):
            print(__doc__)
            return EXIT_OK if argv else EXIT_USAGE
        command = argv[0]
        if command not in COMMANDS:
            raise UsageError(f"unknown command {command!r}; expected one of {COMMANDS}")
        ns, rest = _build_parser(command).parse_known_args(argv[1:])
        overrides = _split_overrides(rest)
        return _HANDLERS[command](ns, overrides)
    except (UsageError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, ClusteringError, TrainingError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
