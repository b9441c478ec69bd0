"""Golden report bytes: small seeded CLI runs whose report.json is pinned.

Every seeded output is meant to be reproducible across releases, and speed
work on the simulation path must not move a single byte.  These hashes pin
four pipelines end to end, the iid pipeline on two switched systems.  A change that alters seeded output on purpose
(for example a different noise generator) updates the hashes here and says
so in CHANGES.md.
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
                "bias_burn_in": 50,
                "target_samples": 2000,
            },
        },
        0,
        "f509bc986d873950789da8bdf87469543632e838e20c5a7e58ca2f97f4b20af4",
    ),
    "iid-slds": (
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
                "diagnostic_samples": 128,
                "alpha": 0.25,
                **HYPOTHESIS,
            },
        },
        0,
        "32691d7885ccf19fea6c348a58c2cfcdd9c1ae6ac9f6a8a7094d330c4bbea4ab",
    ),
    "iid-slds-3-regions": (
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
        "23008c523e247cc179a2ce9b303534466f58ab8c8601c61bd3ef54262bfa735c",
    ),
    "contraction": (
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
        "ae2b2e0b6e585a5a47123e1b5dd87cb2f977e43aec3a58bacde7412487143021",
    ),
    "verify-lyapunov": (
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
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_are_pinned(name, tmp_path, monkeypatch):
    # the installed package version is part of the report; pin it so the
    # hash depends on the code alone
    monkeypatch.setattr(cli, "_code_version", lambda: "golden")
    monkeypatch.setattr(montecarlo, "_code_version", lambda: "golden")
    config, exit_code, digest = CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == exit_code
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest
