"""Package-level facts: the exports, the import floor and the version string."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import concentrix
from concentrix import cli, montecarlo

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("cli", "dynamics", "lyapunov", "montecarlo", "transport")


@pytest.mark.parametrize("name", ("concentrix",) + tuple(f"concentrix.{m}" for m in SUBMODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_top_level_exports_are_their_home_objects():
    homes = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"concentrix.{name}")
        homes.update((n, getattr(module, n)) for n in module.__all__)
    exported = [n for n in concentrix.__all__ if n != "__version__"]
    assert [n for n in exported if n not in homes] == []
    assert [n for n in exported if getattr(concentrix, n) is not homes[n]] == []


# imported only by empirical_w1's n-D path, which no pipeline reaches
DEFERRED = ("scipy.optimize", "scipy.spatial")

SWITCHED = {
    "type": "slds",
    "regions": [
        {"predicate": {"ball_le": 1.0}, "A": [[1.0, 0.0], [0.0, 1.0]]},
        {"predicate": {"catch_all": True}, "A": [[0.5, 0.1], [-0.1, 0.5]]},
    ],
}
# a box region has no ball bound, so its containment check enumerates vertices
BOXED = {
    "type": "slds",
    "regions": [
        {
            "predicate": {
                "halfspaces": [
                    {"normal": normal, "offset": 0.7}
                    for normal in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])
                ]
            },
            "A": [[1.0, 0.0], [0.0, 1.0]],
        },
        {"predicate": {"catch_all": True}, "A": [[0.5, 0.1], [-0.1, 0.5]]},
    ],
}
PLANE = {"type": "lds", "A": [[0.5, 0.1], [-0.1, 0.5]]}
LINE = {"type": "lds", "A": [[0.5]]}


def run_probe(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on the source tree."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def loaded(names) -> str:
    """Probe code that prints which of ``names`` are in ``sys.modules``."""
    return f"import sys; print([n for n in {list(names)!r} if n in sys.modules])"


# probe code that prints every loaded scipy module
LOADED_SCIPY = "import sys; print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"


def test_cli_import_does_not_load_scipy_stats():
    # importing scipy.stats adds about 0.6 s and 20 MB to every start-up
    probe = "import sys, concentrix.cli; print('scipy.stats' in sys.modules)"
    assert run_probe(probe) == "False"


def test_cli_import_does_not_load_optimize_or_spatial():
    # together about 0.25 s and 17 MB of start-up that a linear run never uses
    assert run_probe("import concentrix.cli\n" + loaded(DEFERRED)) == "[]"


def test_cli_import_does_not_load_scipy_linalg():
    # about 0.1 s and 6 MB of start-up; the stationary covariance below 10
    # dimensions is solved in numpy
    assert run_probe("import concentrix.cli\n" + loaded(["scipy.linalg"])) == "[]"


def test_cli_import_loads_no_scipy():
    # scipy.special alone cost about 0.26 s and 28 MB of every start-up;
    # concentrix._special replaces its three functions
    assert run_probe("import concentrix.cli\n" + LOADED_SCIPY) == "[]"


def test_cli_import_loads_numpy_random_and_locale():
    # scipy.special used to load both at start-up.  numpy 2 loads
    # numpy.random on a run's first Generator, and argparse's gettext loads
    # locale on the first parser; the package imports them itself, so that
    # start-up and not the experiment pays
    probe = "import concentrix.cli\n" + loaded(["numpy.random", "locale"])
    assert run_probe(probe) == "['numpy.random', 'locale']"


def test_stationary_covariance_loads_scipy_linalg_from_ten_dimensions():
    probe = """
import sys
import numpy as np
from concentrix import lds_stationary_covariance

rng = np.random.Generator(np.random.PCG64(29))
for n in range(1, 10):
    lds_stationary_covariance(0.9 * np.eye(n) + 0.05 * rng.normal(size=(n, n)) / n)
assert "scipy.linalg" not in sys.modules
a = 0.9 * np.eye(10) + 0.05 * rng.normal(size=(10, 10)) / 10
sigma = lds_stationary_covariance(a)
assert "scipy.linalg" in sys.modules
from scipy.linalg import solve_discrete_lyapunov
print(np.array_equal(sigma, solve_discrete_lyapunov(a, np.eye(10))))
"""
    assert run_probe(probe) == "True"


def assert_run_loads_no_scipy(tmp_path, config):
    """``cli.main`` on ``config`` in a fresh interpreter passes and loads no
    scipy module."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["verify", "--config", str(path), "--out", str(tmp_path / "out")]
    probe = (
        "import contextlib, io\n"
        "from concentrix import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "assert code == 0, code\n" + LOADED_SCIPY
    )
    assert run_probe(probe) == "[]"
    assert (tmp_path / "out" / "report.json").exists()


def test_one_dimensional_trajectory_run_does_not_load_optimize_or_spatial(tmp_path):
    params = {"mode": "trajectory", "reward": "norm", "x0": [0.0], "n_samples": 40,
              "replications": 200, "epsilons": [0.3, 0.6]}
    assert_run_loads_no_scipy(
        tmp_path, {"pipeline": "verify-deviation", "system": LINE, "seed": 42, "params": params}
    )


def test_two_dimensional_trajectory_run_does_not_load_scipy_linalg(tmp_path):
    # its stationary covariance gives the exact target and the bias shift
    params = {"mode": "trajectory", "reward": "norm", "x0": [1.0, -1.0], "n_samples": 40,
              "replications": 200, "epsilons": [0.5, 1.0]}
    assert_run_loads_no_scipy(
        tmp_path, {"pipeline": "verify-deviation", "system": PLANE, "seed": 42, "params": params}
    )


def test_three_dimensional_trajectory_run_does_not_load_scipy_linalg(tmp_path):
    # the norm reward has no closed-form mean in 3-D: the Monte Carlo target
    # draws N(0, S) through numpy's eigendecomposition
    params = {"mode": "trajectory", "reward": "norm", "x0": [1.0, 0.0, -1.0],
              "n_samples": 20, "replications": 100, "epsilons": [0.5, 1.0],
              "target_samples": 1000}
    system = {"type": "lds", "A": [[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, -0.3]]}
    assert_run_loads_no_scipy(
        tmp_path, {"pipeline": "verify-deviation", "system": system, "seed": 42, "params": params}
    )


def test_iid_run_on_ball_regions_does_not_load_optimize_or_spatial(tmp_path):
    # a ball_le region settles containment without vertices, and the iid
    # experiment solves no assignment
    params = {"mode": "iid", "reward": "norm", "n_samples": 10, "replications": 100,
              "burn_in": 10, "epsilons": [0.5, 1.0], "target_samples": 500,
              "radius": 1.0, "contraction": 0.6, "lipschitz": 1.0, "alpha": 0.25}
    assert_run_loads_no_scipy(
        tmp_path, {"pipeline": "verify-deviation", "system": SWITCHED, "seed": 42, "params": params}
    )


def test_lyapunov_run_on_a_box_region_loads_no_scipy(tmp_path):
    # the box's containment is decided by its vertices, in numpy
    params = {"x_grid": [[0.0, 0.0], [1.0, 0.0], [4.0, -3.0]], "samples_per_point": 1000,
              "radius": 1.0, "contraction": 0.6, "lipschitz": 1.0}
    assert_run_loads_no_scipy(
        tmp_path, {"pipeline": "verify-lyapunov", "system": BOXED, "seed": 42, "params": params}
    )


def test_iid_run_on_a_box_region_loads_no_scipy(tmp_path):
    params = {"mode": "iid", "reward": "norm", "n_samples": 10, "replications": 100,
              "burn_in": 10, "epsilons": [0.5, 1.0], "target_samples": 500,
              "radius": 1.0, "contraction": 0.6, "lipschitz": 1.0, "alpha": 0.25}
    assert_run_loads_no_scipy(
        tmp_path, {"pipeline": "verify-deviation", "system": BOXED, "seed": 42, "params": params}
    )


def test_drift_contraction_and_minorization_on_a_box_region_load_no_scipy(tmp_path):
    # the three classical stages, one after another in one interpreter
    lyapunov = {"x_grid": [[0.0, 0.0], [4.0, -3.0]], "samples_per_point": 1000,
                "radius": 1.0, "contraction": 0.6, "lipschitz": 1.0}
    contraction = {"x0": [20.0, 20.0], "n_max": 10, "per_step": 128, "reference_burn_in": 60}
    argvs = []
    for pipeline, params in (("verify-lyapunov", lyapunov), ("contraction", contraction)):
        path = tmp_path / f"{pipeline}.json"
        path.write_text(json.dumps(
            {"pipeline": pipeline, "system": BOXED, "seed": 42, "params": params}
        ))
        argvs.append(["verify", "--config", str(path), "--out", str(tmp_path / pipeline)])
    probe = (
        "import contextlib, io\n"
        "from concentrix import cli, lyapunov\n"
        "from concentrix.dynamics import system_from_dict\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        f"spec = system_from_dict({BOXED!r})\n"
        "assert lyapunov.minorization_beta(spec, 1.0, (-6.0, 6.0), resolution=40).mass > 0.0\n"
        + LOADED_SCIPY
    )
    assert run_probe(probe) == "[]"


def test_two_dimensional_contraction_run_loads_no_scipy(tmp_path):
    # the fit measures synchronously coupled distances, with no assignment solve
    params = {"x0": [20.0, 20.0], "n_max": 10, "per_step": 128, "reference_burn_in": 60}
    assert_run_loads_no_scipy(
        tmp_path, {"pipeline": "contraction", "system": PLANE, "seed": 42, "params": params}
    )


@pytest.mark.parametrize(
    "pipeline, system, params, warmed",
    [
        ("verify-lyapunov", SWITCHED, {}, False),
        ("certify", SWITCHED, {}, False),
        ("contraction", PLANE, {}, False),
        ("verify-deviation", PLANE, {"mode": "iid"}, False),
        ("contraction", LINE, {}, False),
        ("verify-deviation", LINE, {"mode": "iid"}, False),
        ("verify-deviation", PLANE, {"mode": "trajectory"}, False),
        ("verify-deviation", PLANE, {}, False),
        ("sweep", None, {}, False),
        ("verify-deviation", SWITCHED, {"mode": "iid"}, False),
        ("verify-lyapunov", BOXED, {}, False),
        ("certify", BOXED, {}, False),
        ("verify-deviation", BOXED, {"mode": "iid"}, False),
        ("contraction", SWITCHED, {}, False),
    ],
)
def test_load_config_imports_what_the_run_can_reach(tmp_path, pipeline, system, params, warmed):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"pipeline": pipeline, "system": system, "params": params, "seed": 1})
    )
    probe = f"from concentrix import cli\ncli.load_config({str(path)!r})\n" + loaded(DEFERRED)
    assert run_probe(probe) == (str(list(DEFERRED)) if warmed else "[]")


def test_deferred_imports_resolve_after_a_plain_package_import():
    probe = """
import sys
import numpy as np
import concentrix
from concentrix import Predicate, SystemSpec

box = tuple((n, 0.7) for n in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))
spec = SystemSpec.slds([
    (Predicate(halfspaces=box), np.eye(2)),
    (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
])
report = concentrix.check_slds_hypothesis(spec, 1.0, 0.6, 1.0)
assert [c.classification for c in report.regions] == ["bounded", "contractive"], report
beta = concentrix.minorization_beta(spec, 1.0, (-6.0, 6.0), resolution=20)
assert 0.0 < beta.mass <= 1.0
assert not any(n in sys.modules for n in %r)
rng = np.random.Generator(np.random.PCG64(5))
w1 = concentrix.empirical_w1(rng.normal(size=(16, 2)), rng.normal(size=(16, 2)))
assert w1.solver == "assignment" and w1.value > 0.0
print(all(n in sys.modules for n in %r))
""" % (DEFERRED, DEFERRED)
    assert run_probe(probe) == "True"


def test_pyproject_version_is_package_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == concentrix.__version__


def test_code_version_is_package_version():
    assert cli._code_version() == concentrix.__version__
    assert montecarlo._code_version() == concentrix.__version__
