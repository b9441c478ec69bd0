"""Drive the three CLI commands from a declarative config.

The CLI reads one JSON config naming the system, the pipeline, and the
master seed; flags only override the seed and the output directory.
Reports embed the config and its hash, so any report can be reproduced
from its own contents.

Run from the repository root:  python3 demos/06_cli_workflow.py
"""

import json
import tempfile
from pathlib import Path

from concentrix.cli import main

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    # 1. Certify: derive every certificate for a switched system.
    certify = {
        "pipeline": "certify",
        "system": {
            "type": "slds",
            "regions": [
                {"predicate": {"ball_le": 1.0}, "A": [[1.0]]},
                {"predicate": {"catch_all": True}, "A": [[0.5]]},
            ],
        },
        "seed": 1,
        "params": {"radius": 1.0, "contraction": 0.5, "lipschitz": 1.0, "alpha": 0.25},
    }
    (tmp / "certify.json").write_text(json.dumps(certify))
    code = main(["certify", "--config", str(tmp / "certify.json"), "--out", str(tmp / "c")])
    bundle = json.loads((tmp / "c" / "certificate.json").read_text())
    print(f"certify exit {code}; te_constant = {bundle['result']['te_constant']:.4f}\n")

    # 2. Verify: tail-frequency experiment against the derived bounds.
    verify = {
        "pipeline": "verify-deviation",
        "system": {"type": "lds", "A": [[0.5]]},
        "seed": 7,
        "params": {
            "mode": "trajectory",
            "reward": "norm",
            "x0": [0.0],
            "n_samples": 100,
            "replications": 500,
            "epsilons": [0.2, 0.4, 0.6],
            "target_samples": 20000,
        },
    }
    (tmp / "verify.json").write_text(json.dumps(verify))
    code = main(["verify", "--config", str(tmp / "verify.json"), "--out", str(tmp / "v")])
    print(f"verify exit {code}; CSV rows:")
    print((tmp / "v" / "report.csv").read_text())

    # 3. Sweep: bound as a function of the trajectory length.
    sweep = {
        "pipeline": "sweep",
        "system": {"type": "lds", "A": [[0.5]]},
        "seed": 1,
        "params": {"variable": "n_samples", "grid": [50, 100, 200, 400], "epsilon": 0.3},
    }
    (tmp / "sweep.json").write_text(json.dumps(sweep))
    code = main(["sweep", "--config", str(tmp / "sweep.json"), "--out", str(tmp / "s")])
    print(f"sweep exit {code}; CSV:")
    print((tmp / "s" / "sweep.csv").read_text())

    # Reports are reproducible from their embedded config.
    report = json.loads((tmp / "v" / "report.json").read_text())
    (tmp / "replay.json").write_text(json.dumps(report["config"]))
    main(["verify", "--config", str(tmp / "replay.json"), "--out", str(tmp / "v2")])
    same = (tmp / "v" / "report.json").read_bytes() == (tmp / "v2" / "report.json").read_bytes()
    print(f"replay from embedded config is byte-identical: {same}")
