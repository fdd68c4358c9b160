"""Which ``multisiam`` the suite tests: the first PYTHONPATH entry that holds
the package, so ``PYTHONPATH=<other tree>/src python -m pytest`` tests that
tree; else this checkout's own ``src/``, put first on ``sys.path``."""

import os
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _pythonpath_package():
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (pathlib.Path(entry) / "multisiam" / "__init__.py").is_file():
            return (pathlib.Path(entry) / "multisiam").resolve()
    return None


PACKAGE = _pythonpath_package()
if PACKAGE is None:
    PACKAGE = SRC / "multisiam"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session")
def package_under_test() -> pathlib.Path:
    """The ``multisiam`` directory this session should import."""
    return PACKAGE
