import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import multisiam

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_imported_multisiam_is_the_one_pythonpath_names(package_under_test):
    # a suite run against another tree must not silently test this one
    assert Path(multisiam.__file__).resolve().parent == package_under_test


def test_an_explicit_pythonpath_wins_over_the_checkout(tmp_path):
    fake = tmp_path / "multisiam"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).relative_to(ROOT)}::"
         "test_imported_multisiam_is_the_one_pythonpath_names"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout


def test_src_keeps_every_name_the_benchmark_uses(monkeypatch):
    # the benchmark wraps and calls src/ names from outside, so a renamed or
    # deleted one breaks it only when it runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from multisiam.tensor import Tensor

    assert all(callable(target.fn) for target in layers.targets())
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "multisiam"
               for alias in node.names}
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert {module for module, _ in reads} == modules
    missing = [f"{module}.{attr}" for module, attr in sorted(reads)
               if not hasattr(getattr(workloads, module), attr)]
    assert not missing
    # the eval workload unpacks three values
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, (4, 4))
    result = workloads.probe.probe_image(Tensor(rng.random((3, 4, 4))), labels, labels, 2,
                                         "cosine", 3, rng)
    assert len(result) == 3


def test_gradient_suite_covers_every_tape_op(monkeypatch):
    # a tape op is a public function that builds a node itself; every one must
    # build a node with a parent that requires grad in some gradient case
    from multisiam import align, checks
    from multisiam import tensor as T

    ops = {name: fn for name, fn in vars(T).items()
           if name in T.__all__ and inspect.isfunction(fn) and "_result" in fn.__code__.co_names}
    ops.update(flip_back=align.flip_back, roi_align=align.roi_align)
    checked = set()

    def watch(result):
        def wrapped(data, parents, backward_fn):
            if any(p.requires_grad for p in parents):
                checked.add(sys._getframe(1).f_code.co_name)
            return result(data, parents, backward_fn)
        return wrapped

    monkeypatch.setattr(T, "_result", watch(T._result))
    monkeypatch.setattr(align, "_result", watch(align._result))
    checks.run_gradient_suite(seeds=[0])
    assert {"add", "conv2d", "roi_align"} <= set(ops)
    missing = sorted(set(ops) - checked)
    assert not missing, f"no gradient case checks the tape ops {missing}"
