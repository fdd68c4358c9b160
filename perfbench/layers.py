"""Which functions the traced run wraps, and the per-layer metrics it reports.

Layers are the modules of ``src/multisiam``. Each public function is wrapped
at the names its callers import, so a span measures the call the program
really makes. Times are self times (span minus enclosed spans) in ms per unit
of work, except the three inclusive ones named in ``INCLUSIVE``; call counts
and work counts are per unit too, so they repeat exactly run to run.
"""

from __future__ import annotations

import os

from multisiam import (align, checkpoint, checks, metrics, model, objectives, optim, probe,
                       scenes, tensor, train, views)

from spans import HOOKS, Target

TAPE_OPS = ("conv2d", "relu", "subsample", "matmul", "l2_normalize", "roi_align",
            "reshape", "concat", "global_avg_pool")
BACKBONES = ("model.backbone", "probe.backbone")
INCLUSIVE = ("model.backbone", "probe.backbone", "tensor.backward")

# spans reported as <span>_ms and <span>.calls; tensor ops are reported per op
SPANS = ("tensor.backward", "views.render", "views.sample", "views.resize",
         "model.backbone", "model.heads", "model.attention", "model.ema", "align.align",
         "objectives.kmeans", "objectives.loss", "objectives.moco", "optim.step",
         "train.glue", "scenes.downsample", "metrics.ari", "probe.backbone", "probe.glue",
         "checks.case", "checks.glue")


def _count_tape(tracer, args, kwargs, out):
    fn = out._backward_fn
    if fn is None:
        return
    tracer.count("tape.built")

    def used(g):
        tracer.count("tape.used")
        return fn(g)

    out._backward_fn = used


def _op_hook(op):
    bwd = f"tensor.{op}.bwd"

    def hook(tracer, args, kwargs, out):
        if out._backward_fn is not None:
            out._backward_fn = tracer.timed(bwd, out._backward_fn)

    return hook


_conv_bwd = _op_hook("conv2d")
_subsample_bwd = _op_hook("subsample")


def _conv_hook(tracer, args, kwargs, out):
    _conv_bwd(tracer, args, kwargs, out)
    x, w = args[0], args[1]
    cout, cin, kh, kw = w.shape
    macs = out.size * cin * kh * kw
    tracer.count("conv2d.flops", 2 * macs)
    # input, kernel, the im2col matrix and the output, as float64
    tracer.count("conv2d.bytes", 8 * (x.size + w.size + macs // cout + out.size))
    if tracer.inside(*BACKBONES):
        tracer.count("conv2d.backbone_macs", macs)
        tracer.count("conv2d.kept_macs", macs)
        tracer.counts["conv2d.last_backbone_macs"] = macs


def _subsample_hook(tracer, args, kwargs, out):
    _subsample_bwd(tracer, args, kwargs, out)
    if tracer.inside(*BACKBONES):
        dropped = 1.0 - out.size / args[0].size
        tracer.count("conv2d.kept_macs", -tracer.counts["conv2d.last_backbone_macs"] * dropped)


def _sample_hook(tracer, args, kwargs, pair):
    aug = args[1] if len(args) > 1 else kwargs["cfg"]
    tracer.count("views.pairs")
    if pair.iou < aug.iou_threshold:
        tracer.count("views.fallbacks")


def _kmeans_hook(tracer, args, kwargs, result):
    tracer.count("kmeans.iters", len(result.cost_history))
    tracer.count("kmeans.points", result.assignments.size)


def _fd_hook(tracer, args, kwargs, report):
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    tracer.count("checks.fd_evals",
                 1 + 2 * sum(t.size for t in inputs if t.requires_grad))


def _save_hook(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("checkpoint.bytes", os.path.getsize(path))


def targets() -> list[Target]:
    ops = {"roi_align": align.roi_align}
    ops.update({op: getattr(tensor, op) for op in TAPE_OPS if op != "roi_align"})
    hooks = {"conv2d": _conv_hook, "subsample": _subsample_hook}
    out = [Target(fn, f"tensor.{op}.fwd", hooks.get(op, _op_hook(op)))
           for op, fn in ops.items()]
    out += [
        Target(tensor._result, None, _count_tape),
        Target(tensor.backward, "tensor.backward"),
        Target(views.render_view, "views.render"),
        Target(views.sample_view_pair, "views.sample", _sample_hook),
        Target(views.resize_bilinear, "views.resize"),
        Target(model.backbone_forward, "model.backbone",
               by_module=(("probe", "probe.backbone"),)),
        Target(model.project_2d, "model.heads"),
        Target(model.predict_local, "model.heads"),
        Target(model.project_predict_1d, "model.heads"),
        Target(model.self_attention_predict, "model.attention"),
        Target(model.ema_update, "model.ema"),
        Target(align.align_pair, "align.align"),
        Target(align.flip_back, "align.align"),
        Target(objectives.kmeans, "objectives.kmeans", _kmeans_hook),
        Target(objectives.loss_1d, "objectives.loss"),
        Target(objectives.loss_2d_cluster, "objectives.loss"),
        Target(objectives.loss_2d_wo_kmeans, "objectives.loss"),
        Target(objectives.loss_total, "objectives.loss"),
        Target(objectives.moco_pixel_infonce, "objectives.moco"),
        Target(optim.sgd_step, "optim.step"),
        Target(optim.lars_step, "optim.step"),
        Target(train.train_step, "train.glue"),
        Target(scenes.generate, "scenes.generate"),
        Target(scenes.downsample_mask, "scenes.downsample"),
        Target(metrics.adjusted_rand_index, "metrics.ari"),
        Target(probe.probe_image, "probe.glue"),
        Target(probe.full_resolution_clusters, "probe.glue"),
        Target(checkpoint.save_checkpoint, "checkpoint.save", _save_hook),
        Target(checkpoint.load_checkpoint, "checkpoint.load"),
        Target(checks.finite_difference_check, "checks.case", _fd_hook),
        Target(checks.run_gradient_suite, "checks.glue"),
    ]
    return out


def fd_count_targets() -> list[Target]:
    """Only the finite-difference counter, for the timed gradcheck runs'
    untimed warm-up pass."""
    return [Target(checks.finite_difference_check, None, _fd_hook)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(units: int, unit_phase, setup_phase, prepare_phase,
              traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    ``unit_phase`` traced ``units`` units of work in ``traced_s`` seconds;
    the same units ran untraced in ``untraced_s``. ``setup_phase`` traced one
    set-up and ``prepare_phase`` the once-only preparation before it.
    """
    stats, counts = unit_phase.stats, unit_phase.counts

    def ms(span, phase=unit_phase, per=units):
        s = phase.stats.get(span)
        if s is None:
            return 0.0
        return 1000.0 * (s.incl_s if span in INCLUSIVE else s.self_s) / per

    def calls(span):
        s = stats.get(span)
        return s.calls / units if s else 0.0

    out: dict[str, tuple[float, str]] = {}
    for op in TAPE_OPS:
        out[f"tensor.{op}.fwd_ms"] = (ms(f"tensor.{op}.fwd"), "ms")
        out[f"tensor.{op}.bwd_ms"] = (ms(f"tensor.{op}.bwd"), "ms")
        out[f"tensor.{op}.calls"] = (calls(f"tensor.{op}.fwd"), "count")
    built = counts.get("tape.built", 0.0)
    out["tensor.tape_nodes_per_step"] = (built / units, "count")
    out["tensor.tape_used_ratio"] = (_ratio(counts.get("tape.used", 0.0), built), "ratio")
    out["tensor.conv2d.flops"] = (counts.get("conv2d.flops", 0.0) / units, "flop")
    out["tensor.conv2d.bytes"] = (counts.get("conv2d.bytes", 0.0) / units, "B")
    out["tensor.conv2d.kept_ratio"] = (_ratio(counts.get("conv2d.kept_macs", 0.0),
                                              counts.get("conv2d.backbone_macs", 0.0)),
                                       "ratio")
    for span in SPANS:
        out[f"{span}_ms"] = (ms(span), "ms")
        out[f"{span}.calls"] = (calls(span), "count")
    out["views.fallback_ratio"] = (_ratio(counts.get("views.fallbacks", 0.0),
                                          counts.get("views.pairs", 0.0)), "ratio")
    out["objectives.kmeans_iters"] = (_ratio(counts.get("kmeans.iters", 0.0),
                                             calls("objectives.kmeans") * units), "count")
    out["objectives.kmeans_points"] = (counts.get("kmeans.points", 0.0) / units, "count")
    out["scenes.generate_ms"] = (ms("scenes.generate", setup_phase, 1), "ms")
    out["checkpoint.load_ms"] = (ms("checkpoint.load", setup_phase, 1), "ms")
    out["checkpoint.save_ms"] = (ms("checkpoint.save", prepare_phase, 1), "ms")
    out["checkpoint.bytes"] = (prepare_phase.counts.get("checkpoint.bytes", 0.0), "B")
    out["checks.fd_evals"] = (counts.get("checks.fd_evals", 0.0) / units, "count")
    out["trace.hooks_ms"] = (ms(HOOKS), "ms")
    out["trace.unattributed_ratio"] = (unattributed(unit_phase, traced_s), "ratio")
    out["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s) - 1.0, "ratio")
    out["trace.units"] = (float(units), "count")
    return out


def unattributed(phase, wall_s: float) -> float:
    """Share of ``wall_s`` that no span's self time covers."""
    return _ratio(wall_s - phase.self_seconds(), wall_s)
