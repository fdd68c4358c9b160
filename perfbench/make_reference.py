"""Regenerate reference.json: the default-seed outputs the benchmark checks.

    python3 perfbench/make_reference.py

It records, at seed 0, every step's loss over the whole schedule of each
training workload and every held-out image's ARIs for eval_probe. Run it only
when a change is meant to alter these outputs, and say so where the change is
described; a speed change must pass against the reference unchanged.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in ("train_default", "train_ablation"):
        workload = workloads.make(name, workloads.REFERENCE_SEED, run.WORK_DIR,
                                  check_reference=False)
        workload.setup()
        losses = [[] for _ in workload.configs]
        for _ in range(workload.configs[0].steps * workload.round):
            variant, step, loss, _ = workload.unit()
            losses[variant].append(loss)
        reference[name] = losses
    workload = workloads.make("eval_probe", workloads.REFERENCE_SEED, run.WORK_DIR,
                              check_reference=False)
    try:
        workload.prepare()
        workload.setup()
        reference["eval_probe"] = [list(workload.unit()[1]) for _ in workload.held_out]
    finally:
        workload.close()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
