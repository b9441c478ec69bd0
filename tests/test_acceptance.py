"""End-to-end acceptance checks, one criterion per test.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.  Everything is seeded, so
these are deterministic desk-scale runs, not flaky statistics.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from concentrix.cli import main as cli_main
from concentrix.dynamics import Predicate, SystemSpec, simulate
from concentrix.lyapunov import (
    drift_from_exp_lyapunov,
    slds_exp_lyapunov,
    stein_mgf,
    te_constant,
)
from concentrix.montecarlo import (
    burn_in_sampler,
    contraction_rate_fit,
    deviation_probability_experiment,
    empirical_autocovariance,
    empirical_w1,
    iid_deviation_experiment,
    lds_stationary_covariance,
)
from concentrix.transport import bobkov_goetze_gap

ALPHA = 0.25


def bounded_plus_contractive() -> SystemSpec:
    """Unit expansion inside the unit ball, halving map outside."""
    return SystemSpec.slds(
        [
            (Predicate(ball_le=1.0), [[1.0]]),
            (Predicate(catch_all=True), [[0.5]]),
        ]
    )


def emit(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_lds_trajectory_concentration():
    """Scalar system a=0.5, |x| reward: every tail frequency sits under its
    bound at N=200, M=5000 over the full epsilon grid, in under a minute."""
    spec = SystemSpec.lds([[0.5]])
    target = math.sqrt(8.0 / (3.0 * math.pi))
    epsilons = [round(0.1 * k, 1) for k in range(1, 11)]
    start = time.monotonic()
    report = deviation_probability_experiment(
        spec,
        "norm",
        [0.0],
        n_samples=200,
        epsilons=epsilons,
        replications=5000,
        seed=20260815,
        target_mean=target,
        target_provenance="half_normal_stationary_oracle",
    )
    elapsed = time.monotonic() - start
    failures = [
        f"eps={report.epsilons[i]}: ci_high={report.ci_high[i]:.4g} "
        f"bound={report.bounds[i]:.4g} count={report.counts[i]}"
        for i in range(len(epsilons))
        if not report.passes[i]
    ]
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    emit(1, not failures, f"10/10 epsilons bounded, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_02_dual_gap_on_gaussians():
    """A million standard normals against the unit certificate: the dual
    log-MGF gap stays at or below 1e-2 across the full tilt grid."""
    rng = np.random.Generator(np.random.PCG64(1002))
    samples = rng.standard_normal(1_000_000)
    report = bobkov_goetze_gap(samples, constant=1.0, lipschitz=1.0)
    emit(2, report.gap <= 1e-2, f"gap={report.gap:.2e} <= 1e-2")
    assert report.gap <= 1e-2


def test_criterion_03_correlation_decay():
    """AR(1) autocovariances at lags 1..10 stay under the geometric envelope
    and track the exact values, both up to three batch-means errors."""
    spec = SystemSpec.lds([[0.5]])
    traj = simulate(spec, [0.0], 100_000, seed=1003)
    report = empirical_autocovariance(
        traj, "identity", 10, constant=1.0, rate=0.5, lipschitz=1.0
    )
    failures = []
    for k in range(1, 11):
        exact = 0.5 ** k * (4.0 / 3.0)
        margin = 3.0 * report.stderrs[k]
        if abs(report.values[k]) > report.bounds[k] + margin:
            failures.append(f"lag {k}: |{report.values[k]:.4g}| over envelope")
        if abs(report.values[k] - exact) > 0.1 * exact + margin:
            failures.append(f"lag {k}: {report.values[k]:.4g} vs exact {exact:.4g}")
    emit(3, not failures, "lags 1..10 inside envelope and near exact values")
    assert not failures, "; ".join(failures)


def test_criterion_04_exponential_moment_closed_form():
    """Closed-form Gaussian quadratic exponential moments match a million-
    sample Monte Carlo estimate to better than 1% relative error."""
    rng = np.random.Generator(np.random.PCG64(1004))
    failures = []
    worst = 0.0
    for alpha in (0.05, 0.1, 0.2):
        for n in (1, 2, 3):
            for shift in (0.0, 1.0):
                mean = np.zeros(n)
                mean[0] = shift
                exact = stein_mgf(np.eye(n), mean, alpha)
                draws = mean + rng.standard_normal((1_000_000, n))
                estimate = float(np.mean(np.exp(alpha * np.sum(draws**2, axis=1))))
                rel = abs(estimate - exact) / exact
                worst = max(worst, rel)
                if rel >= 0.01:
                    failures.append(
                        f"alpha={alpha} n={n} shift={shift}: rel err {rel:.3%}"
                    )
    emit(4, not failures, f"18 combinations, worst relative error {worst:.3%}")
    assert not failures, "; ".join(failures)


def test_criterion_05_exponential_lyapunov_pipeline():
    """Bounded-plus-contractive chain at alpha=0.25: the one-step drift
    inequality holds exactly on a grid, and the stationary exponential
    moment stays under the certified cap."""
    spec = bounded_plus_contractive()
    cert = slds_exp_lyapunov(spec, 1.0, 0.5, 1.0, ALPHA)
    drift = drift_from_exp_lyapunov(cert)
    failures = []

    for x in np.linspace(-6.0, 6.0, 1000):
        pw = stein_mgf(spec.matrix_for([x]), [x], ALPHA)
        cap = drift.contraction * math.exp(ALPHA * x * x) + drift.offset
        if pw > cap * (1.0 + 1e-12):
            failures.append(f"drift violated at x={x:.3f}")

    batch = burn_in_sampler(spec, 10_000, 100, seed=1005)
    values = np.exp(ALPHA * np.sum(batch**2, axis=1))
    mean = float(values.mean())
    halfwidth = 2.5758293035489004 * float(values.std(ddof=1) / math.sqrt(values.size))
    cap = drift.moment_bound
    if mean + halfwidth > cap:
        failures.append(f"moment {mean:.3f}+{halfwidth:.3f} over cap {cap:.3f}")
    emit(
        5,
        not failures,
        f"pointwise drift exact on 1000 points; moment {mean:.2f}+-{halfwidth:.2f} "
        f"<= {cap:.3f}",
    )
    assert not failures, "; ".join(failures)


def test_criterion_06_stationary_iid_concentration():
    """Same chain, certificate constant from the pipeline: averages of 100
    near-stationary endpoints obey the tail bound at every epsilon with
    2000 replications."""
    spec = bounded_plus_contractive()
    cert = slds_exp_lyapunov(spec, 1.0, 0.5, 1.0, ALPHA)
    lte = te_constant(drift_from_exp_lyapunov(cert))
    epsilons = [round(0.2 + 0.1 * k, 1) for k in range(9)]
    report = iid_deviation_experiment(
        spec,
        "norm",
        n_samples=100,
        replications=2000,
        burn_in=100,
        epsilons=epsilons,
        te_const=lte,
        seed=1006,
    )
    failures = [
        f"eps={report.epsilons[i]}: ci_high={report.ci_high[i]:.4g} "
        f"bound={report.bounds[i]:.4g}"
        for i in range(len(epsilons))
        if not report.passes[i]
    ]
    emit(6, not failures, f"9/9 epsilons bounded with constant {lte:.3f}")
    assert not failures, "; ".join(failures)


def test_criterion_07_contraction_rate_recovery():
    """Fitted per-step transport decay recovers the matrix norm within 0.1
    for a scalar and a two-mode diagonal system."""
    failures = []
    cases = [
        (SystemSpec.lds([[0.5]]), [20.0], 0.5, 20),
        (SystemSpec.lds(np.diag([0.9, 0.1])), [20.0, 20.0], 0.9, 50),
    ]
    fitted = []
    for spec, x0, true_rate, n_max in cases:
        reference = burn_in_sampler(spec, 1024, 100, seed=1007)
        fit = contraction_rate_fit(spec, x0, n_max, 512, reference, seed=1008)
        fitted.append(fit.rate)
        if abs(fit.rate - true_rate) > 0.1:
            failures.append(f"true {true_rate}: fitted {fit.rate:.3f}")
    emit(7, not failures, f"fitted rates {fitted[0]:.3f} and {fitted[1]:.3f}")
    assert not failures, "; ".join(failures)


def test_criterion_08_transport_solver_equivalence():
    """The sorted one-dimensional matching agrees with the assignment
    solver on 100 random pairs and with brute force on all tiny pairs."""
    rng = np.random.Generator(np.random.PCG64(1008))
    failures = []
    for i in range(100):
        m = int(rng.integers(2, 257))
        x = rng.normal(size=m)
        y = rng.normal(loc=rng.normal(), size=m)
        sorted_value = empirical_w1(x.reshape(-1, 1), y.reshape(-1, 1)).value
        cost = np.abs(x[:, None] - y[None, :])
        rows, cols = linear_sum_assignment(cost)
        assigned = float(cost[rows, cols].mean())
        if abs(sorted_value - assigned) > 1e-9:
            failures.append(f"pair {i}: sorted {sorted_value} vs assigned {assigned}")

    import itertools

    for m in range(2, 7):
        for dim in (1, 2, 3):
            a = rng.normal(size=(m, dim))
            b = rng.normal(size=(m, dim))
            value = empirical_w1(a, b).value
            brute = min(
                sum(np.linalg.norm(a[i] - b[p[i]]) for i in range(m)) / m
                for p in itertools.permutations(range(m))
            )
            if abs(value - brute) > 1e-9:
                failures.append(f"size {m} dim {dim}: {value} vs brute {brute}")
    emit(8, not failures, "sorted == assignment on 100 pairs; brute force <= 6 ok")
    assert not failures, "; ".join(failures)


def test_criterion_09_stationary_covariance_oracle():
    """Fixed-point stationary covariances satisfy the balance equation to
    1e-10 on 100 random stable systems and match diagonal closed forms."""
    rng = np.random.Generator(np.random.PCG64(1009))
    failures = []
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 6))
        raw = rng.normal(size=(n, n))
        norm = np.linalg.norm(raw, 2)
        a = raw * (rng.uniform(0.05, 0.95) / max(norm, 1e-12))
        sigma = lds_stationary_covariance(a)
        residual = float(np.linalg.norm(a @ sigma @ a.T + np.eye(n) - sigma))
        worst = max(worst, residual)
        if residual >= 1e-10:
            failures.append(f"case {i}: residual {residual:.2e}")
    for diag in ([0.5], [0.9], [0.5, -0.8], [0.0, 0.3, 0.99]):
        sigma = lds_stationary_covariance(np.diag(diag))
        for j, a_j in enumerate(diag):
            exact = 1.0 / (1.0 - a_j**2)
            if abs(sigma[j, j] - exact) > 1e-10:
                failures.append(f"diag {diag}: entry {j} off by {sigma[j, j] - exact:.2e}")
    emit(9, not failures, f"100 random stable systems, worst residual {worst:.2e}")
    assert not failures, "; ".join(failures)


def test_criterion_10_deterministic_parallel_reports(tmp_path):
    """A verification run writes byte-identical reports with one worker and
    with eight."""
    config = {
        "pipeline": "verify-deviation",
        "system": {"type": "lds", "A": [[0.5]]},
        "seed": 1010,
        "params": {
            "mode": "trajectory",
            "reward": "norm",
            "x0": [0.0],
            "n_samples": 50,
            "replications": 600,
            "epsilons": [0.2, 0.4, 0.6],
            "target_samples": 5000,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    blobs = []
    for name, workers in (("one", "1"), ("eight", "8")):
        out = tmp_path / name
        code = cli_main(
            ["verify", "--config", str(config_path), "--out", str(out), "--workers", workers]
        )
        assert code == 0
        blobs.append(
            (out / "report.json").read_bytes() + (out / "report.csv").read_bytes()
        )
    identical = blobs[0] == blobs[1]
    emit(10, identical, f"report bytes identical across workers ({len(blobs[0])} bytes)")
    assert identical
