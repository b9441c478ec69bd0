"""Derive tail bounds for time averages and verify them by simulation.

A contractive linear system admits a per-step transport-entropy constant,
which tensorizes over a trajectory and yields an exponential bound on the
deviation of time averages of any Lipschitz reward.  This script derives
the bound, then measures actual tail frequencies against it.

Run from the repository root:  python3 demos/02_tail_bounds.py
"""

from concentrix import (
    SystemSpec,
    deviation_probability_experiment,
    lds_certificate,
    stationary_mean_reward,
    tensorized_constant,
)

spec = SystemSpec.lds([[0.5]])
t1, contraction = lds_certificate(spec)
print(f"per-step transport constant: {t1.constant}")
print(f"contraction rate (matrix 2-norm): {contraction.rate}")

n_samples = 200
print(
    f"tensorized constant over {n_samples} steps: "
    f"{tensorized_constant(t1.constant, contraction.rate, n_samples):.0f}"
)

# The stationary law is N(0, 4/3); the mean of |x| under it is the
# half-normal value sqrt(8 / (3 pi)).
target = stationary_mean_reward(spec, "norm")
print(f"stationary mean of |x|: {target.value:.4f} ({target.method})\n")

report = deviation_probability_experiment(
    spec,
    "norm",
    x0=[0.0],
    n_samples=n_samples,
    epsilons=[0.1, 0.2, 0.3, 0.5],
    replications=2000,
    seed=42,
    target_mean=target.value,
    target_provenance=target.method,
)
print(f"bias shift from the non-stationary start: {report.bias:.2e}")
print("epsilon  frequency  99% CI high  bound       pass")
for i, eps in enumerate(report.epsilons):
    print(
        f"{eps:7.1f}  {report.frequencies[i]:9.4f}  {report.ci_high[i]:11.4f}  "
        f"{report.bounds[i]:10.3e}  {report.passes[i]}"
    )
print(f"\nall epsilons pass: {report.all_pass}")
