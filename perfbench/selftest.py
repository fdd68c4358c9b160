"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection:
they exercise the benchmark, not the program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads, locates src/)

sys.path.insert(0, str(run.ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0
    spans.assert_clean()


@pytest.mark.parametrize("workload, units", [("train_default", 2), ("train_ablation", 12),
                                             ("eval_probe", 2), ("gradcheck", 0)])
def test_spot_check_runs_the_reference_seed(workload, units):
    tally = run.Tally()
    run.spot_check(run.parse_args(["--workload", workload, "--seed", "3"]), tally)
    assert (tally.attempted, tally.failed) == (units, 0)


def test_relative_times_divide_by_the_bracketing_reference():
    samples = [0.2, 0.4, 0.3]
    ref = [0.01, 0.03, 0.02, 0.01]
    assert run.relative_times(samples, ref) == pytest.approx([10.0, 16.0, 20.0])
    # a host twice as slow doubles both sides and leaves the ratios alone
    slow = run.relative_times([2 * s for s in samples], [2 * r for r in ref])
    assert slow == pytest.approx(run.relative_times(samples, ref))


def test_round_decile_averages_over_the_round():
    values = [1.0, 10.0, 10.0] * 4  # three variants, four units each
    assert run.round_decile(values, 5, 3) == pytest.approx(7.0)
    assert run.round_decile(values, 5, 1) == pytest.approx(10.0)  # the mixture's median
    assert run.round_decile(list(range(1, 12)), 9, 1) == pytest.approx(10.0)


def test_reference_check_flags_a_perturbed_loss_trace():
    reference = workloads.load_reference("train_default")
    steps = len(reference[0])
    rows = [(0, step, reference[0][step], 0.2) for step in range(steps)]
    assert all(workloads.check_train_row(row, reference) is None for row in rows)

    def flagged(step, delta):
        row = (0, step, reference[0][step] + delta, 0.2)
        return workloads.check_train_row(row, reference) is not None

    assert flagged(3, 1e-3)
    assert not flagged(3, 1e-9)  # a changed summation order
    assert flagged(steps - 1, 0.5)
    assert not flagged(steps - 1, 0.01)
    assert workloads.check_train_row((0, 5, float("nan"), 0.2), reference) is not None
    assert workloads.check_train_row((0, 5, reference[0][5], 0.05), reference) is not None


def test_training_slice_wraps_to_the_schedule_start():
    from multisiam import train

    cfg = train.TrainConfig(seed=2, steps=3, **workloads.TINY)
    workload = workloads.TrainWorkload([cfg])
    workload.setup()
    rows = [workload.unit() for _ in range(7)]
    assert [step for _, step, _, _ in rows] == [0, 1, 2, 0, 1, 2, 0]
    assert rows[3] == rows[0] and rows[5] == rows[2]


def test_reference_check_flags_a_perturbed_ari():
    reference = workloads.load_reference("eval_probe")
    sizes = ((1000, 2000, 1096), (4000, 48, 48))
    good = (0, tuple(reference[0]), sizes)
    assert workloads.check_eval_image(good, 3, 64 * 64, reference) is None
    bad = (0, (reference[0][0] + 0.2,) + tuple(reference[0][1:]), sizes)
    assert workloads.check_eval_image(bad, 3, 64 * 64, reference) is not None
    empty = (0, tuple(reference[0]), ((4096, 0, 0), sizes[1]))
    assert workloads.check_eval_image(empty, 3, 64 * 64, None) is not None


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_plus_unattributed_sum_to_wall():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    traced_middle = tracer.wrap("middle", middle, hook=lambda *a: clock.advance(0.25))
    start = clock()
    clock.advance(3.0)  # outside any span
    traced_middle()
    traced_middle()
    wall = clock() - start

    assert tracer.stats["leaf"].self_s == 8.0
    assert tracer.stats["leaf"].calls == 4
    assert tracer.stats["middle"].self_s == 3.0
    assert tracer.stats["middle"].incl_s == 11.0
    assert tracer.stats[spans.HOOKS].self_s == 0.5
    share = layers.unattributed(tracer, wall)
    assert share == pytest.approx(3.0 / wall)
    assert tracer.self_seconds() + share * wall == pytest.approx(wall)


def test_every_wrapped_name_is_restored():
    from multisiam import model, probe, tensor, train

    originals = {(train, "render_view"), (train, "backbone_forward"),
                 (probe, "backbone_forward"), (model, "conv2d"), (tensor, "_result")}
    before = {key: getattr(*key) for key in originals}
    tracer = spans.Tracer()
    with tracer.installed(layers.targets()):
        for key in originals:
            assert getattr(getattr(*key), spans.MARK, False), key
        with pytest.raises(spans.TraceError):
            spans.assert_clean()
    spans.assert_clean()
    assert all(getattr(*key) is fn for key, fn in before.items())
