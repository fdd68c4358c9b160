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
    # build a node with a parent that requires grad in some gradient case, and
    # conv2d must do so with its relu fused in too, a backward of its own
    from multisiam import align, checks
    from multisiam import tensor as T

    ops = {name: fn for name, fn in vars(T).items()
           if name in T.__all__ and inspect.isfunction(fn) and "_result" in fn.__code__.co_names}
    ops.update(flip_back=align.flip_back, roi_align=align.roi_align)
    checked = set()

    def watch(result):
        def wrapped(data, parents, backward_fn):
            if any(p.requires_grad for p in parents):
                op = sys._getframe(1)
                checked.add(op.f_code.co_name)
                if op.f_code.co_name == "conv2d" and op.f_locals["relu"]:
                    checked.add("conv2d(relu=True)")
            return result(data, parents, backward_fn)
        return wrapped

    monkeypatch.setattr(T, "_result", watch(T._result))
    monkeypatch.setattr(align, "_result", watch(align._result))
    checks.run_gradient_suite(seeds=[0])
    assert {"add", "conv2d", "roi_align"} <= set(ops)
    missing = sorted((set(ops) | {"conv2d(relu=True)"}) - checked)
    assert not missing, f"no gradient case checks the tape ops {missing}"


def _multisiam_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs a parsed file reads from ``multisiam`` modules:
    a name it imports from one and loads, or an attribute it loads off one."""
    modules: dict[str, str] = {}  # local name -> multisiam module
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.level, node.module) in ((1, None), (0, "multisiam")):
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif node.level == 1 or (node.module or "").startswith("multisiam."):
            module = node.module.rpartition(".")[2]
            imported.update((a.asname or a.name, (module, a.name)) for a in node.names)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            reads.add(imported[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def _loaded_beyond_its_definition(tree: ast.Module, name: str) -> bool:
    for stmt in tree.body:
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name == name):
            continue
        if any(isinstance(node, ast.Name) and node.id == name
               and isinstance(node.ctx, ast.Load) for node in ast.walk(stmt)):
            return True
    return False


def _exported(tree: ast.Module) -> list[str]:
    return [name for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for name in ast.literal_eval(stmt.value)]


def _private_definitions(tree: ast.Module) -> list[str]:
    return [stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")]


def _read_only_by_tests(names_of) -> tuple[list[str], int]:
    """The ``module.name`` of each name ``names_of`` gives of a parsed src/
    module that has no reader outside the tests, and how many names it gave.
    Readers are the other src/ modules, perfbench/, and the name's own module
    beyond its definition."""
    package = ROOT / "src" / "multisiam"
    src = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(package.glob("*.py"))}
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PERFBENCH.glob("*.py"))]
    unread, checked = [], 0
    for module, tree in src.items():
        names = names_of(tree)
        readers = set().union(*(_multisiam_reads(t) for m, t in src.items() if m != module),
                              *map(_multisiam_reads, bench))
        checked += len(names)
        unread += [f"{module}.{name}" for name in names
                   if (module, name) not in readers
                   and not _loaded_beyond_its_definition(tree, name)]
    return unread, checked


def test_every_exported_name_has_a_reader_outside_the_tests():
    # a name in a src/ module's __all__ that only tests read is code in src/
    # that only tests call
    unread, checked = _read_only_by_tests(_exported)
    assert checked > 100  # the parse found the package
    assert not unread, f"exported names that only tests read: {unread}"


def test_every_private_helper_has_a_reader_outside_the_tests():
    # the same for a module-level private function or class
    unread, checked = _read_only_by_tests(_private_definitions)
    assert checked > 50  # the parse found the package
    assert not unread, f"private helpers that only tests read: {unread}"
