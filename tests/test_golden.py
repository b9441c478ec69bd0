"""Golden output bytes: small seeded CLI runs whose JSON output is pinned.

Every seeded output is meant to be reproducible across releases, and speed
work on the simulation path must not move a single byte.  These hashes pin
every pipeline end to end: trajectory mode in one and two dimensions and,
with a Monte Carlo target, in three, the iid pipeline on two switched
systems, the contraction fit, the drift check, the certificates of a linear
and of a switched system, and an ``alpha`` sweep.  A change that alters
seeded output on purpose updates the hashes here and says so in CHANGES.md.
The noise layout is such a change: in 0.9.0 each batch of trajectories
came to share one ``Generator(PCG64(seed))`` stream (a trajectory-mode
block of replications, the iid target's endpoints, the contraction
reference and the contraction fit's paths), which re-pinned the three
trajectory goldens, both iid goldens and ``contraction``.  In 0.10.0 the
contraction fit came to measure synchronously coupled distances instead of
assignment W1 solves, which moved ``contraction``'s distances, used steps
and rate, and renamed its ``noise_floor`` to ``stationary_distance``.
"""

import hashlib
import json

import pytest

from concentrix import cli, montecarlo

SLDS_2D = {
    "type": "slds",
    "regions": [
        {"predicate": {"ball_le": 1.0}, "A": [[1.0, 0.0], [0.0, 1.0]]},
        {"predicate": {"catch_all": True}, "A": [[0.5, 0.1], [-0.1, 0.5]]},
    ],
}
# three regions: a box (halfspaces only), the outside of a ball and the rest
SLDS_3_REGIONS = {
    "type": "slds",
    "regions": [
        {
            "predicate": {
                "halfspaces": [
                    {"normal": normal, "offset": 0.5}
                    for normal in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])
                ]
            },
            "A": [[1.0, 0.0], [0.0, 1.0]],
        },
        {"predicate": {"ball_gt": 2.0}, "A": [[0.4, 0.2], [-0.2, 0.4]]},
        {"predicate": {"catch_all": True}, "A": [[0.5, 0.1], [-0.1, 0.5]]},
    ],
}
HYPOTHESIS = {"radius": 1.0, "contraction": 0.6, "lipschitz": 1.0}

CONFIGS = {
    "trajectory-lds": (
        "verify",
        {
            "pipeline": "verify-deviation",
            "system": {"type": "lds", "A": [[0.5]]},
            "seed": 7,
            "params": {
                "mode": "trajectory",
                "reward": "norm",
                "x0": [0.0],
                "n_samples": 40,
                "replications": 200,
                "epsilons": [0.3, 0.6],
                "target_samples": 2000,
            },
        },
        0,
        "e610c79fd4a0f9c0fc04d5149e482b92f5b8e9fdcb834dfdbe795c0047e7dcf3",
    ),
    # non-normal 2-D system over more than one replication block: from two
    # dimensions on, states depend on the batch a path is stepped in
    "trajectory-lds-2d": (
        "verify",
        {
            "pipeline": "verify-deviation",
            "system": {"type": "lds", "A": [[0.5, 0.3], [0.0, 0.4]]},
            "seed": 17,
            "params": {
                "mode": "trajectory",
                "reward": "norm",
                "x0": [1.0, 0.0],
                "n_samples": 60,
                "replications": 600,
                "epsilons": [0.1, 0.3],
            },
        },
        0,
        "cb8a4f87f1b5b290caf8f36d3164104664837062896bfcd17b58694f35e7c507",
    ),
    # the norm reward has no closed-form stationary mean from three
    # dimensions up, so this target is the Monte Carlo mean over N(0, S)
    "trajectory-lds-3d": (
        "verify",
        {
            "pipeline": "verify-deviation",
            "system": {
                "type": "lds",
                "A": [[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, -0.3]],
            },
            "seed": 19,
            "params": {
                "mode": "trajectory",
                "reward": "norm",
                "x0": [1.0, 0.0, -1.0],
                "n_samples": 30,
                "replications": 200,
                "epsilons": [0.2, 0.5],
                "target_samples": 3000,
            },
        },
        0,
        "af9f7aa337c6fe6b93530a5a35e9d0bff8c27fb8a86c1ff12d8440dc4806a0d9",
    ),
    "iid-slds": (
        "verify",
        {
            "pipeline": "verify-deviation",
            "system": SLDS_2D,
            "seed": 11,
            "params": {
                "mode": "iid",
                "reward": "norm",
                "n_samples": 30,
                "replications": 300,
                "burn_in": 20,
                "epsilons": [0.1, 0.3],
                "target_samples": 3000,
                "alpha": 0.25,
                **HYPOTHESIS,
            },
        },
        0,
        "52c5118756a721b65d6fb4203d514897abf520dedeb887d5a7cda9dd703dd32e",
    ),
    "iid-slds-3-regions": (
        "verify",
        {
            "pipeline": "verify-deviation",
            "system": SLDS_3_REGIONS,
            "seed": 13,
            "params": {
                "mode": "iid",
                "reward": "norm",
                "n_samples": 30,
                "replications": 300,
                "burn_in": 20,
                "epsilons": [0.1, 0.3],
                "target_samples": 3000,
                "alpha": 0.25,
                **HYPOTHESIS,
            },
        },
        0,
        "cb9d492609156e2614d81b2eb01dde17cda99a610d5e8600fbb1cf820368c4ac",
    ),
    "contraction": (
        "verify",
        {
            "pipeline": "contraction",
            "system": SLDS_2D,
            "seed": 5,
            "params": {
                "x0": [20.0, 20.0],
                "n_max": 10,
                "per_step": 128,
                "reference_burn_in": 60,
            },
        },
        0,
        "eb733407606ce02236666af4a8f980626101772be903790bde11cc11abb7d6d2",
    ),
    "verify-lyapunov": (
        "verify",
        {
            "pipeline": "verify-lyapunov",
            "system": SLDS_2D,
            "seed": 3,
            "params": {
                "x_grid": [[0.0, 0.0], [0.5, 0.5], [2.0, 1.0], [4.0, -3.0]],
                "samples_per_point": 1000,
                **HYPOTHESIS,
            },
        },
        0,
        "0634e8c6c18967c9d1f88a3751cef39cebb09cb5719c9512ed15da5bd3aefe96",
    ),
    "certify-lds": (
        "certify",
        {
            "pipeline": "certify",
            "system": {"type": "lds", "A": [[0.5, 0.3], [0.0, 0.4]]},
            "seed": 1,
            "params": {"n_samples": 100, "epsilons": [0.1, 0.5, 1.0]},
        },
        0,
        "8902a0038d6c888bdd92f55083886c842833e2e2a3bfaf75ea284d7fd795cd51",
    ),
    "certify-slds": (
        "certify",
        {
            "pipeline": "certify",
            "system": SLDS_2D,
            "seed": 1,
            "params": {"alpha": 0.25, **HYPOTHESIS},
        },
        0,
        "cd766440f1fd9c37b9a53f60191c8d8d4524f08e9c413c297a795a2f30c69569",
    ),
    "sweep-alpha": (
        "sweep",
        {
            "pipeline": "sweep",
            "system": SLDS_2D,
            "seed": 1,
            "params": {"variable": "alpha", "grid": [0.1, 0.2, 0.25, 0.3], **HYPOTHESIS},
        },
        0,
        "8cdf9d872d1389e2c0398953328fb5499baa742272c81b44956678184c1c6f8a",
    ),
}
# the file each CLI command writes
OUTPUT = {"certify": "certificate.json", "verify": "report.json", "sweep": "sweep.json"}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_are_pinned(name, tmp_path, monkeypatch):
    # the installed package version is part of the report; pin it so the
    # hash depends on the code alone
    monkeypatch.setattr(cli, "_code_version", lambda: "golden")
    monkeypatch.setattr(montecarlo, "_code_version", lambda: "golden")
    command, config, exit_code, digest = CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == exit_code
    assert hashlib.sha256((out / OUTPUT[command]).read_bytes()).hexdigest() == digest
