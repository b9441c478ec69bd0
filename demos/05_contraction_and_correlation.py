"""Measure transport contraction and correlation decay against theory.

Two empirical diagnostics of mixing: the per-step distance between paths
from a far start and paths from a stationary reference batch, driven by the
same noise (its log-slope recovers the contraction rate),
and the autocovariance of an observable along one long trajectory (it must
fall inside a geometric envelope implied by the certificate).

Run from the repository root:  python3 demos/05_contraction_and_correlation.py
"""

import numpy as np

from concentrix import (
    SystemSpec,
    burn_in_sampler,
    contraction_rate_fit,
    correlation_bound,
    empirical_autocovariance,
    simulate,
)

spec = SystemSpec.lds([[0.5]])

# Contraction: start far from equilibrium, watch distances decay.
reference = burn_in_sampler(spec, 1024, burn_in=100, seed=50)
fit = contraction_rate_fit(spec, x0=[20.0], n_max=15, per_step=512,
                           reference=reference, seed=51)
print(f"fitted contraction rate: {fit.rate:.3f} (true matrix norm 0.5)")
print(f"distance between independent stationary points: {fit.stationary_distance:.4f}")
print("step  distance   used in fit")
for i, step in enumerate(fit.steps[:10]):
    print(f"{step:4d}  {fit.distances[i]:9.4f}  {fit.used[i]}")

# Correlation decay: sample autocovariance vs the certificate envelope.
traj = simulate(spec, [0.0], 100_000, seed=52)
report = empirical_autocovariance(
    traj, "identity", max_lag=8, constant=1.0, rate=0.5, lipschitz=1.0
)
print("\nlag  measured    exact       envelope")
for k in report.lags:
    exact = 0.5 ** k * (4.0 / 3.0)
    print(
        f"{k:3d}  {report.values[k]:9.5f}  {exact:9.5f}  "
        f"{correlation_bound(1.0, 0.5, 1.0, k):9.5f}"
    )
