"""Command-line entry point.

    multisiam train|eval|viz|gradcheck --config <path> [--key=value ...] --out <dir>
    multisiam compare RUN_A RUN_B

Exit codes: 0 ok, 1 usage or config error, 2 runtime failure, 3 verification
failure. The environment variable MULTISIAM_SEED overrides the config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .checks import GRADCHECK_TOLERANCE, run_gradient_suite
from .metrics import smoothed_endpoints
from .objectives import ClusteringError
from .probe import paired_clusters, paired_probe
from .scenes import SceneSpec, generate
from .train import (EVAL_SEED_OFFSET, ConfigError, TrainConfig, TrainingError,
                    config_as_dict, config_from_pairs, pairs_from_text, run_training)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

COMMANDS = ("train", "eval", "viz", "gradcheck", "compare")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2)
        raise UsageError(message)


def _positive_int(raw: str) -> int:
    # ASCII digits only: int() also takes '\u0663' for 3 and '1_0' for 10
    value = int(raw) if raw.isascii() and raw.isdigit() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


def _build_parser(command: str) -> _Parser:
    parser = _Parser(prog=f"multisiam {command}", add_help=False)
    if command == "compare":
        parser.add_argument("run_a")
        parser.add_argument("run_b")
        return parser
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default=None)
    if command in ("eval", "viz"):
        parser.add_argument("--checkpoint", required=True)
        parser.add_argument("--images", type=_positive_int, default=None)
    if command == "gradcheck":
        parser.add_argument("--seeds", type=_positive_int, default=5)
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
    """The --config file's pairs, then the --key=value overrides, then
    MULTISIAM_SEED, resolved as one list: a later value of a key wins, and
    only the result is validated."""
    pairs = []
    if config_path is not None:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"{config_path}: not UTF-8 ({err.reason})") from None
        except OSError as err:
            raise ConfigError(f"{config_path}: {err.strerror or err}") from None
        try:
            pairs = [(key, raw, config_path) for key, raw in pairs_from_text(text)]
        except ConfigError as err:
            raise ConfigError(f"{config_path}: {err}") from None
    pairs += overrides
    env_seed = os.environ.get("MULTISIAM_SEED")
    if env_seed is not None:
        pairs.append(("seed", env_seed, "MULTISIAM_SEED"))
    return config_from_pairs(pairs)


def _numeric_stack() -> dict:
    """The numeric stack a run used: the Python, numpy and BLAS versions
    (k-means sums are BLAS GEMMs), and the commit the source checkout's HEAD
    names, None outside a git checkout. Uncommitted edits are not recorded."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        blas_name = blas_version = None
    git_dir = Path(__file__).resolve().parents[2] / ".git"
    try:
        out = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        commit = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_version": blas_version, "git_commit": commit}


def _out_dir(ns) -> Path:
    """The --out directory, checked before any work; a command creates it
    only once it has something to write."""
    if ns.out is None:
        raise UsageError("--out <dir> is required")
    out = Path(ns.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"--out {out}: {existing} is not a directory")
    return out


def _write_report(path: Path, report) -> None:
    """Write ``report`` to ``path`` as indented JSON the way ``save_checkpoint``
    writes: to a sibling temporary file that replaces ``path`` only once
    complete and fsynced, so a failed write leaves an existing report as it
    was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _scene_specs(cfg: TrainConfig) -> tuple[SceneSpec, SceneSpec]:
    size = (cfg.out_size, cfg.out_size)
    return (SceneSpec(seed=cfg.seed, size=size),
            SceneSpec(seed=cfg.seed + EVAL_SEED_OFFSET, size=size))


def cmd_train(ns, overrides) -> int:
    cfg = _load_config(ns.config, overrides)
    out = _out_dir(ns)
    train_spec, _ = _scene_specs(cfg)
    corpus = generate(train_spec, cfg.corpus_images)
    out.mkdir(parents=True, exist_ok=True)

    metrics_path = out / "metrics.jsonl"
    checkpoint_path = out / "final.ckpt"
    manifest_path = out / "manifest.json"
    manifest = {
        "config": config_as_dict(cfg),
        "seed": cfg.seed,
        "code_version": __version__,
        "metrics_path": metrics_path.name,
        "checkpoint_paths": [checkpoint_path.name],
        **_numeric_stack(),
    }
    # the metrics and the manifest go to sibling temporary files, renamed into
    # place only once the checkpoint is saved, so that a failed run leaves
    # the directory's three files as they were
    temps = [path.with_name(path.name + ".tmp") for path in (metrics_path, manifest_path)]
    try:
        with open(temps[0], "w", encoding="utf-8") as fh:
            def on_step(row):
                fh.write(json.dumps(asdict(row)) + "\n")

            state, metrics = run_training(cfg, corpus, on_step=on_step)
        temps[1].write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        save_checkpoint(state, checkpoint_path)
        os.replace(temps[0], metrics_path)
        os.replace(temps[1], manifest_path)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise
    first, last = metrics[0], metrics[-1]
    print(f"trained {cfg.steps} steps: loss {first.loss:+.4g} -> {last.loss:+.4g}, "
          f"feature_std {last.feature_std:.4f}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def _eval_corpus(cfg: TrainConfig, n_images: int):
    _, eval_spec = _scene_specs(cfg)
    return generate(eval_spec, n_images)


def cmd_eval(ns, overrides) -> int:
    if overrides:
        raise UsageError("eval takes its config from the checkpoint")
    out = _out_dir(ns)
    state = load_checkpoint(ns.checkpoint)
    cfg = state.config
    corpus = _eval_corpus(cfg, ns.images if ns.images is not None else cfg.eval_images)
    report = paired_probe(state, corpus)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out / "probe_report.json", asdict(report))
    print(f"ari_instance trained={report.ari_instance:.4f} "
          f"random={report.ari_instance_random:.4f} margin={report.margin_instance:+.4f}")
    print(f"ari_class    trained={report.ari_class:.4f} "
          f"random={report.ari_class_random:.4f} margin={report.margin_class:+.4f}")
    print(f"feature_std {report.feature_std:.4f}")
    return EXIT_OK


def cmd_viz(ns, overrides) -> int:
    from .viz import PALETTE, cluster_panel, compose_panels, image_panel, write_ppm

    if overrides:
        raise UsageError("viz takes its config from the checkpoint")
    out = _out_dir(ns)
    state = load_checkpoint(ns.checkpoint)
    cfg = state.config
    if cfg.k > len(PALETTE):
        raise UsageError(f"viz draws at most {len(PALETTE)} clusters, and the checkpoint "
                         f"has k={cfg.k}")
    count = ns.images if ns.images is not None else 4
    corpus = _eval_corpus(cfg, count)
    clusters = paired_clusters(state, corpus)
    out.mkdir(parents=True, exist_ok=True)
    for idx, (scene, (random_map, trained_map)) in enumerate(zip(corpus, clusters)):
        panel = compose_panels([image_panel(scene.image),
                                cluster_panel(random_map),
                                cluster_panel(trained_map)])
        write_ppm(out / f"viz_{idx}.ppm", panel)
    print(f"wrote {count} panels (input | random-init clusters | trained clusters) to {out}")
    return EXIT_OK


def cmd_gradcheck(ns, overrides) -> int:
    if overrides:
        raise UsageError("gradcheck takes no config overrides")
    out = _out_dir(ns) if ns.out is not None else None
    reports = run_gradient_suite(seeds=range(ns.seeds))
    worst: dict[str, float] = {}
    for rep in reports:
        worst[rep.op_name] = max(worst.get(rep.op_name, 0.0), rep.max_relative_error)
    failures = 0
    for name in sorted(worst):
        ok = worst[name] < GRADCHECK_TOLERANCE
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name:28s} max_rel_err={worst[name]:.3e}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _write_report(out / "gradcheck.json", worst)
    if failures:
        print(f"{failures} operation(s) exceeded tolerance {GRADCHECK_TOLERANCE}",
              file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(worst)} operations within {GRADCHECK_TOLERANCE} over {ns.seeds} seeds")
    return EXIT_OK


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as err:
        raise UsageError(f"{path}: {err.strerror or err}") from None


def _metric_rows(path: Path, raw: bytes, keys: list[str] | None = None) -> list[dict]:
    """The rows of a metrics.jsonl: objects of numbers that share their keys
    (``keys`` when given), the loss and feature_std among them."""
    try:
        rows = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
    except ValueError:
        rows = []
    if keys is None and rows and isinstance(rows[0], dict):
        keys = list(rows[0])
    if not rows or not {"loss", "feature_std"} <= set(keys or ()) or any(
            not isinstance(row, dict) or list(row) != keys
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row.values())
            for row in rows):
        raise UsageError(f"{path}: not the metrics of a run"
                         + (f" with the columns {keys}" if keys else ""))
    return rows


def _margins(path: Path) -> tuple[float, float]:
    try:
        report = json.loads(_read(path))
        return float(report["margin_instance"]), float(report["margin_class"])
    except (ValueError, TypeError, KeyError):
        raise UsageError(f"{path}: not a probe report") from None


def cmd_compare(ns, overrides) -> int:
    """Set two run directories side by side: whether their metrics.jsonl is
    byte-identical, the largest difference per column, the smoothed loss
    endpoints and feature_std floors, and the eval margins when both
    directories hold a probe_report.json."""
    if overrides:
        raise UsageError("compare takes two run directories and nothing else")
    runs = [Path(ns.run_a), Path(ns.run_b)]
    for run in runs:
        if not run.is_dir():
            raise UsageError(f"{run}: not a run directory")
    raws = [_read(run / "metrics.jsonl") for run in runs]
    rows_a = _metric_rows(runs[0] / "metrics.jsonl", raws[0])
    rows_b = _metric_rows(runs[1] / "metrics.jsonl", raws[1], list(rows_a[0]))
    reports = [run / "probe_report.json" for run in runs]
    margins = [_margins(path) for path in reports] if all(p.is_file() for p in reports) else None
    print(f"a: {runs[0]}\nb: {runs[1]}")
    if raws[0] == raws[1]:
        print(f"metrics.jsonl: byte-identical, {len(rows_a)} rows")
    else:
        differ = sum(ra != rb for ra, rb in zip(rows_a, rows_b))
        print(f"metrics.jsonl: differs; {len(rows_a)} and {len(rows_b)} rows, "
              f"{differ} of the first {min(len(rows_a), len(rows_b))} differ")
        for key in rows_a[0]:
            delta = max(abs(ra[key] - rb[key]) for ra, rb in zip(rows_a, rows_b))
            print(f"  max |delta| {key:12s} {delta:.3e}")
    for name, rows in zip("ab", (rows_a, rows_b)):
        first, last = smoothed_endpoints(row["loss"] for row in rows)
        floor = min(row["feature_std"] for row in rows)
        print(f"{name}: smoothed loss {first!r} -> {last!r}, feature_std floor {floor!r}")
    for name, pair in zip("ab", margins or ()):
        print(f"{name}: margin_instance {pair[0]!r}, margin_class {pair[1]!r}")
    return EXIT_OK


_HANDLERS = {"train": cmd_train, "eval": cmd_eval, "viz": cmd_viz,
             "gradcheck": cmd_gradcheck, "compare": cmd_compare}


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
