"""Package-level facts: the import floor and the version string."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import concentrix
from concentrix import cli, montecarlo

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_does_not_load_scipy_stats():
    # importing scipy.stats adds about 0.6 s and 20 MB to every start-up
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, concentrix.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_pyproject_version_is_package_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == concentrix.__version__


def test_code_version_is_package_version():
    assert cli._code_version() == concentrix.__version__
    assert montecarlo._code_version() == concentrix.__version__
