"""Multisiam benchmark: closed-loop training, evaluation and gradient-check
workloads, timed, checked for correctness, and traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload runs untraced for S seconds and the
end-to-end metrics are printed; unit times are reported relative to a fixed
reference kernel run between the units (see perfbench/README.md). With
``--trace 1`` a fixed number of units runs traced, the tracer is removed, and
the same units run again untraced to give the tracing overhead; the per-layer
metrics are printed. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Exit code 0 means the run completed (whatever its verdict), 2
that the program could not be loaded, 1 a usage error.
"""

from __future__ import annotations

import os
import time

BLAS_THREADS = 1  # one thread: the step is bound by Python overhead, and steadier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (BLAS threads are pinned before numpy can load)
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
SPOT_ROUNDS = 2
TRACE_UNITS = {"train_default": 40, "train_ablation": 60, "eval_probe": 128, "gradcheck": 5}
# what the generic metrics are called on each workload
ALIASES = {
    "train_default": ("images_per_s", "step"),
    "train_ablation": ("images_per_s", "step"),
    "eval_probe": ("images_per_s", "image"),
    "gradcheck": ("fd_evals_per_s", "pass"),
}
REF_SEED = 12345
REF_WARMUP = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_UNITS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every shape (the benchmark's smoke tests)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# facts recorded with every result


def _blas_facts(np) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        name = version = None
    return {"blas": name, "blas_version": version, "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_runtime": _blas_runtime_threads()}


def _blas_runtime_threads():
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """The commit of the checkout; None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def facts(np, args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            **_blas_facts(np), "git_commit": _git_commit(), "src_lines": _src_lines()}


# ---------------------------------------------------------------------------
# running units


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, results) -> None:
        self.attempted += len(results)
        for problem in results:
            if problem is not None:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(problem)


def run_unit(workload, tally: Tally):
    """Run and check one unit; returns (seconds, outputs or None on error)."""
    start = time.perf_counter()
    try:
        outputs = workload.unit()
    except Exception as err:  # a failed operation is counted, and the run goes on
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        tally.add([f"{type(err).__name__}: {err}"] * workload.ops_per_unit)
        return elapsed, None
    elapsed = time.perf_counter() - start
    tally.add(workload.check(outputs))
    return elapsed, outputs


def run_units(workload, tally: Tally, count: int) -> tuple[float, list]:
    """Run ``count`` units; returns their summed seconds and their outputs."""
    results = [run_unit(workload, tally) for _ in range(count)]
    return sum(s for s, _ in results), [out for _, out in results]


class ReferenceKernel:
    """A fixed mix of the kinds of work a unit does: an interpreter loop,
    numpy elementwise ops and reductions on a batch of feature maps, and a
    matmul, about 6 ms on one core. It is independent of the program, so its
    time tracks only how fast the shared host runs at that moment."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(REF_SEED)
        self.np = np
        self.maps = rng.standard_normal((8, 16, 32, 32))
        self.left = rng.standard_normal((256, 288))
        self.right = rng.standard_normal((288, 256))
        for _ in range(REF_WARMUP):
            self()

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        np = self.np
        start = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += (i * i) % 7
        x = self.maps
        for _ in range(4):
            x = np.maximum(x * 0.5 + 0.1, 0.0)
            x = x - x.mean(axis=(2, 3), keepdims=True)
        for _ in range(3):
            self.left @ self.right
        return time.perf_counter() - start


def run_for(workload, tally: Tally, seconds: float, kernel) -> tuple[float, list, list]:
    """Closed loop for ``seconds``, ending on a whole round of the workload.
    ``kernel`` runs before the first unit and after every unit, so unit i is
    bracketed by reference timings i and i + 1. Returns the wall time, the
    unit times and the reference times."""
    samples, ref = [], [kernel()]
    start = time.perf_counter()
    while True:
        elapsed, _ = run_unit(workload, tally)
        samples.append(elapsed)
        ref.append(kernel())
        if time.perf_counter() - start >= seconds and len(samples) % workload.round == 0:
            return time.perf_counter() - start, samples, ref


def relative_times(samples, ref) -> list[float]:
    """Each unit's time over the mean of the two reference timings around it."""
    return [s / (0.5 * (before + after)) for s, before, after in zip(samples, ref, ref[1:])]


def spot_check(args, tally: Tally) -> None:
    """Check the first round of the reference seed against the reference, so
    that a run at any seed also checks exact outputs, not only invariants."""
    import workloads

    if args.tiny or args.seed == workloads.REFERENCE_SEED:
        return
    spot = workloads.make(args.workload, workloads.REFERENCE_SEED, WORK_DIR)
    if spot.reference is None:
        return
    try:
        spot.prepare()
        spot.setup()
        run_units(spot, tally, spot.round * SPOT_ROUNDS)
    finally:
        spot.close()


def measure_setup(workload) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def decile(values, q: int) -> float:
    """The q-th decile of ``values`` (q=5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def round_decile(values, q: int, round_len: int) -> float:
    """The q-th decile of each position in the workload's round (each
    ablation variant), averaged over the round: the decile of a mixture of
    variants would follow whichever variant lies at it."""
    return statistics.fmean(decile(values[i::round_len], q) for i in range(round_len))


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload, args, import_s: float, tally: Tally) -> tuple[dict, dict, dict]:
    from spans import assert_clean

    spot_check(args, tally)
    workload.prepare()
    setup_times = measure_setup(workload)
    run_units(workload, tally, workload.warmup_units)
    assert_clean()
    kernel = ReferenceKernel()
    wall, samples, ref = run_for(workload, tally, args.seconds, kernel)
    rel = relative_times(samples, ref)
    metrics = {
        "unit_rel_p50": (round_decile(rel, 5, workload.round), "ratio"),
        "unit_rel_p90": (round_decile(rel, 9, workload.round), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
    }
    work = workload.work_per_unit * len(samples)
    # wall-clock figures: printed, but not gated, because they move with the host
    wall_clock = {
        "work_per_s": (work / sum(samples), "1/s"),
        "unit_ms_p50": (1000.0 * round_decile(samples, 5, workload.round), "ms"),
        "unit_ms_p90": (1000.0 * round_decile(samples, 9, workload.round), "ms"),
        "ref_ms_p50": (1000.0 * statistics.median(ref), "ms"),
    }
    detail = {"units": len(samples), "unit": workload.unit_name, "wall_s": wall,
              "work": work, "import_s": import_s, "setup_runs_s": setup_times,
              "wall_clock": {name: value for name, (value, _) in wall_clock.items()}}
    return metrics, detail, wall_clock


def traced_run(workload, args, tally: Tally) -> tuple[dict, dict, dict]:
    import layers
    from spans import Tracer, assert_clean

    spot_check(args, tally)
    targets = layers.targets()
    prepare_phase, setup_phase, unit_phase = Tracer(), Tracer(), Tracer()
    workload.prepare(save_context=prepare_phase.installed(targets))
    with setup_phase.installed(targets):
        workload.setup()
    run_units(workload, tally, workload.warmup_units)
    units = 1 if args.tiny else TRACE_UNITS[args.workload]
    snap = workload.snapshot()
    with unit_phase.installed(targets):
        traced_s, traced_out = run_units(workload, tally, units)
    assert_clean()
    workload.restore(snap)
    plain_s, plain_out = run_units(workload, tally, units)
    if plain_out != traced_out:
        tally.add(["outputs of the traced units differ from the same units untraced"])
    metrics = layers.per_layer(units, unit_phase, setup_phase, prepare_phase, traced_s, plain_s)
    self_ms = {span: 1000.0 * s.self_s / units for span, s in unit_phase.stats.items()}
    detail = {"units": units, "unit": workload.unit_name, "traced_s": traced_s,
              "untraced_s": plain_s, "self_ms_per_unit": dict(sorted(self_ms.items()))}
    return metrics, detail, {}


def _print_metrics(metrics: dict, aliases: dict) -> None:
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"#   {name:34s} {value:14.6g} {unit}{alias}")


def report(args, fact, metrics, detail, wall_clock, tally: Tally) -> dict:
    throughput, noun = ALIASES[args.workload]
    aliases = {"work_per_s": throughput,
               **{f"unit_{kind}_p{q}": f"{noun}_{kind}_p{q}"
                  for kind in ("ms", "rel") for q in (50, 90)}}
    print(f"# multisiam benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'}, {detail['units']} {detail['unit']} units")
    _print_metrics(metrics, aliases)
    if wall_clock:
        print("# wall clock (not gated: it moves with the load on the host)")
        _print_metrics(wall_clock, aliases)
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    verdict = "correct" if tally.failed == 0 and tally.attempted else "INCORRECT"
    print(f"#   error_rate {error_rate:.6g} ({tally.failed} of {tally.attempted} operations "
          f"failed): {verdict}")
    for message in tally.messages:
        print(f"#   failure: {message}")
    print(json.dumps({"facts": fact, "detail": detail, "error_rate": error_rate}))
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import multisiam
        import workloads
    except ImportError as err:
        print(f"error: cannot load the program from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if Path(multisiam.__file__).resolve().parent != ROOT / "src" / "multisiam":
        print(f"error: multisiam was loaded from {multisiam.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    workload = workloads.make(args.workload, args.seed, WORK_DIR, tiny=args.tiny)
    tally = Tally()
    try:
        if args.trace:
            metrics, detail, wall_clock = traced_run(workload, args, tally)
        else:
            metrics, detail, wall_clock = timed_run(workload, args, import_s, tally)
    finally:
        workload.close()
    result = report(args, facts(np, args), metrics, detail, wall_clock, tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
