import os
import subprocess
import sys
from pathlib import Path

import multisiam

ROOT = Path(__file__).resolve().parent.parent


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
