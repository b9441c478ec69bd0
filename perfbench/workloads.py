"""Workload definitions: configs generated from a seed, and report checks.

Each workload is a list of stages.  A CLI stage is one experiment config
that ``concentrix verify`` runs; the library stage calls
``lyapunov.minorization_beta``, the one classical check the CLI does not
expose.  The benchmark seed becomes every config's master seed, so the
program only ever sees the generated configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# stationary law of x' = 0.5 x + N(0, 1) is N(0, 4/3), so E|x| = sqrt(8 / (3 pi))
LDS_TARGET_MEAN = math.sqrt(8.0 / (3.0 * math.pi))
TARGET_STDERRS = 5.0
EXACT_TARGET_TOL = 1e-9

CATCH_ALL_A = [[0.5, 0.1], [-0.1, 0.5]]  # spectral norm sqrt(0.26) ~ 0.51
IDENTITY_2 = [[1.0, 0.0], [0.0, 1.0]]


@dataclass(frozen=True)
class Stage:
    """One step of a workload.

    ``config`` is a CLI experiment config (run as ``verify``); when it is
    None the stage is the minorization call with keyword ``args``.
    ``name`` is the stage's output directory.
    """

    name: str
    config: dict | None = None
    workers: int = 1
    args: dict = field(default_factory=dict)


def _lds_trajectory(seed: int) -> list[Stage]:
    config = {
        "pipeline": "verify-deviation",
        "system": {"type": "lds", "A": [[0.5]]},
        "seed": seed,
        "params": {
            "mode": "trajectory",
            "reward": "norm",
            "x0": [0.0],
            "n_samples": 200,
            "replications": 5000,
            "epsilons": [round(0.1 * k, 1) for k in range(1, 11)],
        },
    }
    return [Stage("deviation", config)]


def _slds_iid(seed: int, workers: int) -> list[Stage]:
    system = {
        "type": "slds",
        "regions": [
            {"predicate": {"ball_le": 1.0}, "A": IDENTITY_2},
            {"predicate": {"catch_all": True}, "A": CATCH_ALL_A},
        ],
    }
    config = {
        "pipeline": "verify-deviation",
        "system": system,
        "seed": seed,
        "params": {
            "mode": "iid",
            "reward": "norm",
            "n_samples": 250,
            "replications": 300,
            "burn_in": 50,
            "epsilons": [0.05, 0.1, 0.2, 0.4],
            "target_samples": 20000,
            "radius": 1,
            "contraction": 0.6,
            "lipschitz": 1,
            "alpha": 0.25,
        },
    }
    return [Stage("deviation", config, workers=workers)]


def _slds_classical(seed: int) -> list[Stage]:
    # a box region has no ball_le bound, so the hypothesis check takes its
    # sampled containment path
    box = [
        {"normal": normal, "offset": 0.7}
        for normal in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])
    ]
    system = {
        "type": "slds",
        "regions": [
            {"predicate": {"halfspaces": box}, "A": IDENTITY_2},
            {"predicate": {"catch_all": True}, "A": CATCH_ALL_A},
        ],
    }
    lyapunov = {
        "pipeline": "verify-lyapunov",
        "system": system,
        "seed": seed,
        "params": {
            "x_grid": [[0, 0], [0.5, 0.5], [1, 0], [2, 1], [4, -3], [8, 6]],
            "samples_per_point": 20000,
            "radius": 1,
            "contraction": 0.6,
            "lipschitz": 1,
        },
    }
    contraction = {
        "pipeline": "contraction",
        "system": system,
        "seed": seed,
        "params": {
            "x0": [20, 20],
            "n_max": 30,
            "per_step": 512,
            "reference_burn_in": 100,
            "expected_rate": 0.51,
            "tolerance": 0.05,
        },
    }
    minorization = {
        "system": system,
        "radius": 1.0,
        "truncation": [-6.0, 6.0],
        "resolution": 80,
    }
    return [
        Stage("lyapunov", lyapunov),
        Stage("contraction", contraction),
        Stage("minorization", args=minorization),
    ]


def workloads(nproc: int) -> dict:
    """Workload name -> stage builder taking the benchmark seed.

    Each workload loads a different layer, so an optimisation of one layer
    shows on one workload and is predicted flat on the others:

    * ``lds-trajectory``: long 1-D trajectories plus a 100k-trajectory Monte
      Carlo target; ``simulate_batch`` does most of the work and 1-D W1
      takes the sorted path, so the assignment solver never runs.
    * ``slds-iid``: one small ``simulate_batch`` per replication with
      switched-region dispatch on every step; the only workload on the
      thread pool, with min(2, nproc) workers.
    * ``slds-classical``: drift check, contraction fit (31 assignment solves
      of size 512) and minorization quadrature; almost no simulation.
    """
    iid_workers = min(2, nproc)
    return {
        "lds-trajectory": _lds_trajectory,
        "slds-iid": lambda seed: _slds_iid(seed, iid_workers),
        "slds-classical": _slds_classical,
    }


# ------------------------------------------------------------------ checks


def schema_validators(schema_dir: Path):
    """(config validator, deviation-report validator) from docs/schemas."""
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource

    schemas = {
        p.name: json.loads(p.read_text()) for p in sorted(schema_dir.glob("*.json"))
    }
    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in schemas.values()
    )

    def validator(name):
        return Draft202012Validator(schemas[name], registry=registry)

    return validator("experiment-config.schema.json"), validator(
        "deviation-report.schema.json"
    )


def _check_lds_target(result: dict) -> list[str]:
    got = result["target_mean"]
    stderr = result["details"].get("target_stderr")
    if result["target_provenance"].startswith("monte_carlo") and stderr is not None:
        if abs(got - LDS_TARGET_MEAN) > TARGET_STDERRS * stderr:
            return [
                f"target_mean {got!r} is more than {TARGET_STDERRS:g} standard "
                f"errors ({stderr!r}) from {LDS_TARGET_MEAN!r}"
            ]
        return []
    if abs(got - LDS_TARGET_MEAN) > EXACT_TARGET_TOL:
        return [f"exact target_mean {got!r} differs from {LDS_TARGET_MEAN!r}"]
    return []


def check_repetition(workload: str, stages, exit_codes, files, report_validator):
    """Problems with one repetition's outputs; an empty list means it passed.

    ``exit_codes`` maps stage name to the CLI exit code (None for the
    library stage); ``files`` maps relative output paths to their bytes.
    """
    problems = []
    for stage in stages:
        code = exit_codes.get(stage.name, "missing")
        if code != (0 if stage.config is not None else None):
            problems.append(f"{stage.name}: exit code {code!r}")
            continue
        if stage.config is None:
            raw = files.get(f"{stage.name}/minorization.json")
            if raw is None:
                problems.append(f"{stage.name}: no minorization report")
                continue
            mass = json.loads(raw)["mass"]
            if not 0.0 < mass <= 1.0:
                problems.append(f"{stage.name}: minorization mass {mass!r} not in (0, 1]")
            continue
        raw = files.get(f"{stage.name}/report.json")
        if raw is None:
            problems.append(f"{stage.name}: no report.json")
            continue
        if stage.config["pipeline"] != "verify-deviation":
            continue
        report = json.loads(raw)
        errors = sorted(report_validator.iter_errors(report), key=str)
        if errors:
            problems.append(f"{stage.name}: schema: {errors[0].message}")
            continue
        if not report["result"]["all_pass"]:
            problems.append(f"{stage.name}: a deviation row fails")
        if workload == "lds-trajectory":
            problems.extend(f"{stage.name}: {p}" for p in _check_lds_target(report["result"]))
    return problems


def differing_files(reference: dict, files: dict) -> list[str]:
    """Output paths whose bytes differ from the reference repetition."""
    return sorted(
        path
        for path in set(reference) | set(files)
        if reference.get(path) != files.get(path)
    )
