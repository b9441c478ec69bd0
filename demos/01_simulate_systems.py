"""Build linear and switched systems, simulate them, round-trip to JSON.

Run from the repository root:  python3 demos/01_simulate_systems.py
"""

import tempfile
from pathlib import Path

import numpy as np

from concentrix import (
    Predicate,
    SystemSpec,
    check_slds_hypothesis,
    load_system,
    save_system,
    simulate,
    simulate_batch,
)

# A scalar system: x' = 0.5 x + noise.
lds = SystemSpec.lds([[0.5]])
traj = simulate(lds, x0=[0.0], n_steps=10, seed=7)
print("scalar system, 10 steps from the origin:")
print(np.round(traj.states[:, 0], 3))

# The same seed always reproduces the same path, alone or inside a batch.
# A batch holds the states after each step; a Trajectory also starts at x0.
batch = simulate_batch(lds, [0.0], 10, seeds=[5, 6, 7])
assert np.array_equal(batch[2], traj.states[1:])
print("seed 7 inside a batch matches the standalone run\n")

# A switched system: unit map inside the unit ball, halving map outside.
slds = SystemSpec.slds(
    [
        (Predicate(ball_le=1.0), [[1.0]]),
        (Predicate(catch_all=True), [[0.5]]),
    ]
)
report = check_slds_hypothesis(slds, radius=1.0, contraction=0.5, lipschitz=1.0)
print(f"switched system admissible: {report.passed}")
for check in report.regions:
    print(f"  region {check.region}: {check.classification} (norm {check.norm:.2f})")

traj = simulate(slds, x0=[8.0], n_steps=12, seed=11)
print("\ntrajectory from x0=8 (outside region contracts, inside region mixes):")
print(np.round(traj.states[:, 0], 3))

# Systems serialize to a small JSON document.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "system.json"
    save_system(slds, path)
    print("\nserialized form:")
    print(path.read_text())
    reloaded = load_system(path)
    assert reloaded.to_dict() == slds.to_dict()

# Trajectories export plot-ready CSV.
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "trajectory.csv"
    traj.to_csv(csv_path)
    print("trajectory CSV head:")
    print("\n".join(csv_path.read_text().splitlines()[:4]))
