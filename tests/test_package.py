"""Package-level facts: the exports, the import floor, runs without scipy and
the version string."""

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


# imported only by empirical_w1's n-D path, which no pipeline reaches; scipy
# is in the test extra, so that path needs it installed
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
SPACE = {"type": "lds", "A": [[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, -0.3]]}
# 10-D: the stationary covariance is solved by doubling
CHAIN = {"type": "lds", "A": [[0.5 * (i == j) + 0.1 * (j == i + 1) for j in range(10)]
                              for i in range(10)]}
HYPOTHESIS = {"radius": 1.0, "contraction": 0.6, "lipschitz": 1.0}
IID = {"mode": "iid", "reward": "norm", "n_samples": 10, "replications": 100, "burn_in": 10,
       "epsilons": [0.5, 1.0], "target_samples": 500, **HYPOTHESIS, "alpha": 0.25}
LYAPUNOV = {"x_grid": [[0.0, 0.0], [1.0, 0.0], [4.0, -3.0]], "samples_per_point": 1000,
            **HYPOTHESIS}
CONTRACTION = {"x0": [20.0, 20.0], "n_max": 10, "per_step": 128, "reference_burn_in": 60}


def trajectory(x0, n_samples=40, replications=200):
    # from three dimensions the norm reward's mean is a Monte Carlo target
    return {"mode": "trajectory", "reward": "norm", "x0": x0, "n_samples": n_samples,
            "replications": replications, "epsilons": [0.5, 1.0], "target_samples": 1000}


# (name, pipeline, system, params): every CLI pipeline, on linear, ball-region
# and box-region systems, and trajectory runs from 1-D to 10-D
RUNS = [
    ("certify-lds", "certify", PLANE, {"n_samples": 100, "epsilons": [0.5, 1.0]}),
    ("certify-slds", "certify", SWITCHED, {**HYPOTHESIS, "alpha": 0.25}),
    ("sweep-n_samples", "sweep", PLANE, {"variable": "n_samples", "grid": [10, 100],
                                         "epsilon": 0.5}),
    ("sweep-epsilon", "sweep", PLANE, {"variable": "epsilon", "grid": [0.1, 0.5],
                                       "n_samples": 30}),
    ("sweep-rate", "sweep", None, {"variable": "rate", "grid": [0.5, 0.9], "n_samples": 50,
                                   "epsilon": 0.3}),
    ("sweep-alpha", "sweep", SWITCHED, {"variable": "alpha", "grid": [0.1, 0.25],
                                        **HYPOTHESIS}),
    ("trajectory-1d", "verify-deviation", LINE, trajectory([0.0])),
    ("trajectory-2d", "verify-deviation", PLANE, trajectory([1.0, -1.0])),
    ("trajectory-3d", "verify-deviation", SPACE, trajectory([1.0, 0.0, -1.0], 20, 100)),
    ("trajectory-10d", "verify-deviation", CHAIN, trajectory([1.0] * 10, 20, 100)),
    ("iid-ball", "verify-deviation", SWITCHED, IID),
    ("iid-box", "verify-deviation", BOXED, IID),
    ("verify-lyapunov-box", "verify-lyapunov", BOXED, LYAPUNOV),
    ("verify-lyapunov-plane", "verify-lyapunov", PLANE, {"x_grid": [[0.0, 0.0], [4.0, -3.0]]}),
    ("contraction-box", "contraction", BOXED, CONTRACTION),
    ("contraction-plane", "contraction", PLANE, CONTRACTION),
]
# (name, expression): library calls that no pipeline makes on these inputs
CALLS = [
    ("minorization_beta-box",
     f"minorization_beta(system_from_dict({BOXED!r}), 1.0, (-6.0, 6.0), resolution=40).mass > 0"),
    *((f"lds_stationary_covariance-{n}d", f"balanced({n})") for n in range(1, 13)),
]
# run under tests/scipy_blocked.py: prints each case's exit code, or the
# exception it raised, by name
BLOCKED_PROBE = """
import contextlib, io, json, sys
import numpy as np
from concentrix import cli, lds_stationary_covariance, minorization_beta
from concentrix.dynamics import system_from_dict

def balanced(n):
    a = 0.5 * np.eye(n) + 0.3 * np.eye(n, k=1)
    s = lds_stationary_covariance(a)
    return np.allclose(a @ s @ a.T + np.eye(n), s, rtol=1e-12, atol=0.0)

def outcome(case):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(case) if isinstance(case, list) else int(not eval(case))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

print(json.dumps({name: outcome(case) for name, case in json.loads(sys.argv[1]).items()}))
"""


def run_probe(*args) -> str:
    """stdout of ``python *args`` run in a fresh interpreter on the source tree."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def loaded(names) -> str:
    """Probe code that prints which of ``names`` are in ``sys.modules``."""
    return f"import sys; print([n for n in {list(names)!r} if n in sys.modules])"


def test_cli_import_loads_numpy_random_and_locale():
    # scipy.special used to load both at start-up.  numpy 2 loads
    # numpy.random on a run's first Generator, and argparse's gettext loads
    # locale on the first parser; the package imports them itself, so that
    # start-up and not the experiment pays
    probe = "import concentrix.cli\n" + loaded(["numpy.random", "locale"])
    assert run_probe("-c", probe) == "['numpy.random', 'locale']"


@pytest.fixture(scope="module")
def blocked_outcomes(tmp_path_factory):
    """Each case of RUNS and CALLS mapped to its exit code, or to the
    exception it raised, all run in one interpreter that blocks scipy."""
    tmp = tmp_path_factory.mktemp("blocked")
    cases = dict(CALLS)
    for name, pipeline, system, params in RUNS:
        path = tmp / f"{name}.json"
        path.write_text(
            json.dumps({"pipeline": pipeline, "system": system, "seed": 42, "params": params})
        )
        command = pipeline if pipeline in ("certify", "sweep") else "verify"
        cases[name] = [command, "--config", str(path), "--out", str(tmp / name)]
    probe = tmp / "probe.py"
    probe.write_text(BLOCKED_PROBE)
    blocker = ROOT / "tests" / "scipy_blocked.py"
    return json.loads(run_probe(str(blocker), str(probe), json.dumps(cases)))


@pytest.mark.parametrize("name", [case[0] for case in RUNS + CALLS])
def test_runs_without_scipy(blocked_outcomes, name):
    assert blocked_outcomes[name] == 0


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
    assert run_probe("-c", probe) == "True"


def test_pyproject_version_is_package_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == concentrix.__version__


def test_code_version_is_package_version():
    assert cli._code_version() == concentrix.__version__
    assert montecarlo._code_version() == concentrix.__version__
