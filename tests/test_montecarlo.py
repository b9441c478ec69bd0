"""Tests for empirical verification: W1, tail experiments, fits, oracles."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_discrete_lyapunov
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.stats import beta, norm

from concentrix import dynamics, montecarlo
from concentrix.dynamics import (
    Predicate,
    SystemSpec,
    derive_seed,
    derive_seeds,
    simulate,
    simulate_batch,
    simulate_endpoints,
)
from concentrix.montecarlo import (
    AutocovarianceReport,
    ContractionFit,
    NoSignalError,
    PrecisionError,
    burn_in_sampler,
    clopper_pearson,
    contraction_rate_fit,
    deviation_probability_experiment,
    empirical_autocovariance,
    empirical_w1,
    iid_deviation_experiment,
    lds_stationary_covariance,
    stationary_mean_reward,
)
from concentrix.transport import NotContractiveError


def brute_force_w1(a, b):
    """Min average matching cost over all bijections; only for tiny sets."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    m = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(m)):
        cost = sum(np.linalg.norm(a[i] - b[perm[i]]) for i in range(m))
        best = min(best, cost / m)
    return best


def column(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


# ---------------------------------------------------------------- empirical W1


def test_w1_identical_multisets_zero():
    est = empirical_w1(column([0.0, 1.0]), column([1.0, 0.0]))
    assert est.value == 0.0
    assert est.solver == "sorted_1d"


def test_w1_singletons():
    assert empirical_w1(column([0.0]), column([3.0])).value == 3.0


def test_w1_two_point_example():
    # brute force over both bijections: min(1+1, 3+1)/2 = 1
    assert empirical_w1(column([0.0, 2.0]), column([1.0, 3.0])).value == 1.0


def test_w1_matches_brute_force_small_sets():
    rng = np.random.Generator(np.random.PCG64(18))
    for m in range(2, 7):
        for dim in (1, 2, 3):
            a = rng.normal(size=(m, dim))
            b = rng.normal(size=(m, dim))
            est = empirical_w1(a, b)
            assert est.value == pytest.approx(brute_force_w1(a, b), abs=1e-9)


def test_w1_sorted_equals_assignment_on_padded_data():
    # zero-padding a 1D set to 2D forces the assignment solver on the
    # same optimal-transport problem the sorted path solves directly
    rng = np.random.Generator(np.random.PCG64(19))
    for m in (2, 17, 256):
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        fast = empirical_w1(column(x), column(y))
        padded_a = np.column_stack([x, np.zeros(m)])
        padded_b = np.column_stack([y, np.zeros(m)])
        slow = empirical_w1(padded_a, padded_b)
        assert fast.solver == "sorted_1d"
        assert slow.solver == "assignment"
        assert fast.value == pytest.approx(slow.value, abs=1e-9)


def test_w1_mean_difference_lower_bound():
    rng = np.random.Generator(np.random.PCG64(20))
    for _ in range(50):
        m = int(rng.integers(2, 40))
        dim = int(rng.integers(1, 4))
        a = rng.normal(size=(m, dim))
        b = rng.normal(loc=rng.normal(), size=(m, dim))
        value = empirical_w1(a, b).value
        for j in range(dim):
            assert value >= abs(a[:, j].mean() - b[:, j].mean()) - 1e-12


def test_w1_symmetry():
    rng = np.random.Generator(np.random.PCG64(21))
    a = rng.normal(size=(31, 2))
    b = rng.normal(size=(31, 2))
    assert empirical_w1(a, b).value == pytest.approx(empirical_w1(b, a).value, abs=1e-12)


def test_w1_input_validation():
    with pytest.raises(ValueError):
        empirical_w1(column([0.0, 1.0]), column([0.0]))
    with pytest.raises(ValueError):
        empirical_w1(np.zeros((2, 1)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="subsample"):
        empirical_w1(np.zeros((1025, 2)), np.zeros((1025, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        empirical_w1(np.zeros((0, 2)), np.zeros((0, 2)))
    # a flat list reads as one 3-D point (W1 = 1.0), not as three 1-D points
    with pytest.raises(ValueError, match=r"\(m, n\)"):
        empirical_w1([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    for bad in (math.nan, math.inf, -math.inf):
        for dim in (1, 2):
            a = np.zeros((3, dim))
            a[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                empirical_w1(a, np.ones((3, dim)))
            with pytest.raises(ValueError, match="finite"):
                empirical_w1(np.ones((3, dim)), a)


def plain_assignment_w1(a, b):
    """The W1 value of a solve from zero duals on the raw distances."""
    cost = cdist(a, b)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _continuous_case(rng, kind, m, dim):
    a = rng.normal(size=(m, dim))
    if kind == "mixed":
        far = rng.random((m, 1)) < 0.5
        b = np.where(far, rng.normal(loc=3.0, size=(m, dim)), rng.normal(size=(m, dim)))
    elif kind == "offset":
        direction = rng.normal(size=dim)
        b = rng.normal(size=(m, dim)) + rng.uniform(1, 100) * direction / np.linalg.norm(direction)
    elif kind == "anisotropic":
        scales = rng.uniform(0.01, 10.0, size=dim)
        a = a * scales
        b = rng.normal(size=(m, dim)) * scales[::-1] + rng.uniform(0, 5)
    elif kind == "iid":  # two independent draws from one law
        b = rng.normal(size=(m, dim))
    else:  # a shuffled copy of the same set: W1 = 0
        b = a[rng.permutation(m)]
    return a, b


@pytest.mark.parametrize("kind", ["mixed", "offset", "anisotropic", "iid", "shuffled"])
def test_w1_warm_start_equals_plain_solver(kind):
    # the value is the plain solve's on cdist's distances, to the bit, on
    # continuous inputs
    rng = np.random.Generator(np.random.PCG64(22))
    for dim in (2, 3, 5, 8):
        for m in (2, 3, 7, 64, 257, 600):
            a, b = _continuous_case(rng, kind, m, dim)
            est = empirical_w1(a, b)
            assert est.solver == "assignment"
            assert est.value == plain_assignment_w1(a, b)
            if kind == "shuffled":
                assert est.value == 0.0


def test_w1_assignment_holds_one_cost_matrix():
    # the value is read from the matched entries, so a call holds one
    # m x m array, never a second copy
    rng = np.random.Generator(np.random.PCG64(26))
    m = 1024
    a = rng.normal(size=(m, 2))
    b = rng.normal(loc=0.5, size=(m, 2))
    matrix_bytes = m * m * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        empirical_w1(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix_bytes <= peak < 1.5 * matrix_bytes


def test_w1_tied_inputs_stay_optimal():
    # on lattices and duplicated points several permutations are optimal;
    # whichever is picked, its mean is the optimal value
    rng = np.random.Generator(np.random.PCG64(27))
    for trial in range(60):
        dim = 2 + trial % 2
        m = int(rng.integers(2, 7)) if trial < 30 else int(rng.integers(7, 150))
        if trial % 4 < 2:
            a = rng.integers(-2, 3, size=(m, dim)).astype(float)
            b = rng.integers(-2, 3, size=(m, dim)).astype(float) + rng.integers(0, 4)
        else:
            base = rng.normal(size=(max(1, m // 3), dim))
            a = base[rng.integers(0, len(base), m)]
            b = base[rng.integers(0, len(base), m)] + rng.integers(0, 3)
        value = empirical_w1(a, b).value
        assert value == pytest.approx(plain_assignment_w1(a, b), rel=1e-12, abs=0.0)
        if m <= 6:
            assert value == pytest.approx(brute_force_w1(a, b), rel=1e-12, abs=0.0)


# ------------------------------------------------------------- burn-in sampler


def test_burn_in_zero_steps_returns_copies_of_start():
    spec = SystemSpec.lds([[0.5]])
    batch = burn_in_sampler(spec, 7, 0, seed=1, x0=[2.5])
    assert isinstance(batch, np.ndarray)
    assert batch.dtype == np.float64
    assert batch.shape == (7, 1)
    assert np.all(batch == 2.5)


def test_burn_in_variance_near_stationary():
    spec = SystemSpec.lds([[0.5]])
    batch = burn_in_sampler(spec, 10_000, 50, seed=2)
    assert batch.var() == pytest.approx(4.0 / 3.0, rel=0.05)


def test_burn_in_deterministic_and_worker_invariant():
    spec = SystemSpec.lds([[0.7]])
    a = burn_in_sampler(spec, 600, 20, seed=3)
    b = burn_in_sampler(spec, 600, 20, seed=3)
    assert np.array_equal(a, b)


def test_burn_in_is_one_endpoint_run(monkeypatch):
    # a budget of 7 trajectories per chunk: 600 endpoints are 85 full chunks
    # and a partial one of 5, all from the one stream of seed 3
    monkeypatch.setattr(dynamics, "_NOISE_BUDGET_BYTES", 7 * 20 * 2 * 8)
    spec = SystemSpec.slds(
        [(Predicate(ball_le=1.0), np.eye(2)), (Predicate(catch_all=True), 0.5 * np.eye(2))]
    )
    points = burn_in_sampler(spec, 600, 20, seed=3)
    assert np.array_equal(points, simulate_endpoints(spec, np.zeros(2), 20, [3], per_seed=600))
    assert np.array_equal(points, simulate_batch(spec, np.zeros(2), 20, [3], per_seed=600)[:, -1])


@pytest.mark.parametrize("a", [[[0.7]], [[0.5, 0.3], [0.0, 0.4]]])
def test_burn_in_smaller_count_is_a_prefix(a):
    # 5,000 endpoints of 20 steps span several noise chunks; a smaller count
    # stops inside the first and inside a later one
    spec = SystemSpec.lds(a)
    full = burn_in_sampler(spec, 5_000, 20, seed=8)
    for count in (1, 37, 4_321):
        assert np.array_equal(burn_in_sampler(spec, count, 20, seed=8), full[:count])


def test_burn_in_covariance_converges_monotonically():
    # deviation from the stationary covariance should shrink with the
    # horizon, consistent with squared-contraction decay
    spec = SystemSpec.lds([[0.9]])
    target = lds_stationary_covariance([[0.9]])[0, 0]
    deviations = []
    for t in (1, 3, 6, 9):
        batch = burn_in_sampler(spec, 10_000, t, seed=4)
        deviations.append(abs(batch.var() - target))
    assert deviations == sorted(deviations, reverse=True)
    assert deviations[-1] < 2.0 * deviations[0] * 0.81 ** 8


def test_burn_in_validation():
    spec = SystemSpec.lds([[0.5]])
    with pytest.raises(ValueError):
        burn_in_sampler(spec, 0, 10, seed=1)
    with pytest.raises(ValueError):
        burn_in_sampler(spec, 10, -1, seed=1)


def test_burn_in_keeps_only_endpoints_alive():
    # each block simulates a (256, burn_in + 1, n) states array; keeping a
    # view of its last step would hold every block's whole array until the
    # final concatenate (about 16 MB here instead of the 80 kB of endpoints)
    spec = SystemSpec.lds([[0.5]])
    tracemalloc.start()
    try:
        burn_in_sampler(spec, 10_000, 200, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ------------------------------------------------- deviation experiment (path)


def test_deviation_single_step_matches_gaussian_tail():
    # A=0, N=1, coordinate reward: the time average is one standard
    # normal draw, so the exact tail is 2*(1 - Phi(eps))
    spec = SystemSpec.lds([[0.0]])
    eps_grid = [0.5, 1.0, 2.0]
    report = deviation_probability_experiment(
        spec,
        "coordinate",
        [0.0],
        n_samples=1,
        epsilons=eps_grid,
        replications=20_000,
        seed=6,
        target_mean=0.0,
        target_provenance="symmetry_closed_form",
    )
    for i, eps in enumerate(eps_grid):
        exact = 2.0 * norm.sf(eps + report.bias)
        stderr = math.sqrt(exact * (1.0 - exact) / report.replications)
        assert abs(report.frequencies[i] - exact) < 4.0 * stderr + 1e-9
        assert report.bounds[i] == pytest.approx(2.0 * math.exp(-eps * eps / 2.0))
        assert exact <= report.bounds[i]
    assert report.all_pass


def test_deviation_huge_epsilon_never_exceeded():
    spec = SystemSpec.lds([[0.5]])
    report = deviation_probability_experiment(
        spec, "norm", [0.0], 20, [50.0], 150, seed=7, target_samples=2_000,
    )
    assert report.counts == (0,)
    assert report.frequencies == (0.0,)
    assert report.passes == (True,)


def test_deviation_rerun_bit_identical():
    spec = SystemSpec.lds([[0.5]])
    kwargs = dict(
        reward="norm", x0=[1.0], n_samples=40, epsilons=[0.2, 0.6],
        replications=300, seed=8, target_samples=2_000,
    )
    first = deviation_probability_experiment(spec, **kwargs)
    second = deviation_probability_experiment(spec, **kwargs)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize(
    "a, x0, n_samples, replications, blocks",
    [
        # 512 paths of 201 states fit the 2 MiB budget; 5,000 are ten blocks
        ([[0.5]], [0.0], 200, 5000, [512] * 9 + [392]),
        # 2,001 2-D states leave room for 65 paths: long paths keep blocks of 256
        ([[0.5, 0.3], [0.0, 0.4]], [1.0, 0.0], 2000, 600, [256, 256, 88]),
    ],
)
def test_trajectory_blocks_fill_the_simulation_budget(
    a, x0, n_samples, replications, blocks, monkeypatch
):
    sizes = []

    def counted_batch(spec, x0, n_steps, seeds, per_seed=1):
        sizes.append(len(seeds) * per_seed)
        return simulate_batch(spec, x0, n_steps, seeds, per_seed=per_seed)

    monkeypatch.setattr(montecarlo, "simulate_batch", counted_batch)
    deviation_probability_experiment(
        SystemSpec.lds(a), "norm", x0, n_samples, [0.5], replications, seed=3
    )
    assert sizes == blocks


def _trajectory_averages(monkeypatch, replications, a, x0, n_samples, seed):
    """(report, replication averages) of a coordinate-reward trajectory run."""
    return _recorded_averages(
        monkeypatch, deviation_probability_experiment, SystemSpec.lds(a), "coordinate",
        x0, n_samples, [0.5], replications, seed, target_mean=0.0,
        target_provenance="symmetry_closed_form",
    )


def test_trajectory_replication_is_one_path_of_its_blocks_stream(monkeypatch):
    # 1-D paths of 200 steps make blocks of B = 512; replication r is path
    # r % B of the stream derive_seed(rep_stream, r // B), and the last
    # block of 88 paths takes the start of its stream
    a, x0, n_samples, reps, seed = 0.7, 1.5, 200, 600, 29
    block = montecarlo._trajectory_block(n_samples, 1)
    assert block == 512
    _, averages = _trajectory_averages(monkeypatch, reps, [[a]], [x0], n_samples, seed)
    rep_stream = derive_seed(seed, montecarlo._STREAM_REPLICATION)
    expected = np.empty(reps)
    for lo in range(0, reps, block):
        size = min(block, reps - lo)
        gen = np.random.Generator(np.random.PCG64(derive_seed(rep_stream, lo // block)))
        noise = gen.standard_normal((size, n_samples, 1))
        paths = np.empty((size, n_samples))
        x = np.full(size, x0)
        for k in range(n_samples):
            x = a * x + noise[:, k, 0]
            paths[:, k] = x
        expected[lo : lo + size] = paths.mean(axis=1)
    assert np.array_equal(averages, expected)


@pytest.mark.parametrize(
    "a, x0, n_samples",
    [
        ([[0.5]], [1.0], 200),
        # 2-D paths of 100 steps also make blocks of 512
        ([[0.5, 0.3], [0.0, 0.4]], [1.0, -1.0], 100),
    ],
)
def test_trajectory_averages_of_fewer_replications_are_a_prefix(
    a, x0, n_samples, monkeypatch
):
    # 600 replications cut the second block of 512 that a run of 1,100 fills
    assert montecarlo._trajectory_block(n_samples, len(x0)) == 512
    _, full = _trajectory_averages(monkeypatch, 1_100, a, x0, n_samples, seed=43)
    _, prefix = _trajectory_averages(monkeypatch, 600, a, x0, n_samples, seed=43)
    assert len(full) == 1_100 and len(prefix) == 600
    assert np.array_equal(prefix, full[:600])


def _exact_trajectory_average(a, x0, n_samples):
    """Mean and variance of the coordinate-0 time average, which is Gaussian.

    x_t = A^t x0 + sum_{s <= t} A^(t-s) xi_s, so the average over t = 1..N has
    mean (1/N) sum_t e0' A^t x0 and, noise by noise, variance
    (1/N^2) sum_s ||sum_{k=0}^{N-s} (A^k)' e0||^2.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    # rows[k] = e0' A^k for k = 0..N
    rows = [np.eye(n)[0]]
    for _ in range(n_samples):
        rows.append(rows[-1] @ a)
    rows = np.array(rows)
    mean = float(np.sum(rows[1:] @ np.asarray(x0, dtype=float))) / n_samples
    # partial[j] = sum_{k <= j} e0' A^k; noise s weighs in with partial[N - s]
    partial = np.cumsum(rows, axis=0)[:n_samples]
    variance = float(np.sum(partial * partial)) / n_samples**2
    return mean, variance


@pytest.mark.parametrize(
    "a, x0, seed",
    [([[0.5]], [1.0], 61), ([[0.5, 0.3], [0.0, 0.4]], [1.0, 1.0], 62)],
)
def test_trajectory_frequencies_match_the_exact_gaussian_tail(a, x0, seed):
    # with the coordinate reward the time average of a linear system is
    # exactly N(m, v) (_exact_trajectory_average), so a count beyond
    # bias + eps estimates P(|avg| > bias + eps), two erfc terms.  A wrong
    # block layout (shared, overlapping or reordered draws), a wrong
    # averaging window or a start-point error changes that law.
    n_samples, reps = 10, 4000
    mean, variance = _exact_trajectory_average(a, x0, n_samples)
    sd = math.sqrt(variance)
    multiples = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5]
    report = deviation_probability_experiment(
        SystemSpec.lds(a), "coordinate", x0, n_samples, [m * sd for m in multiples],
        reps, seed, target_mean=0.0, target_provenance="symmetry_closed_form",
    )
    assert report.bias > 0.0
    # Bonferroni: a 1% family-wise level over the grid
    level = 1.0 - 0.01 / len(multiples)
    for eps, count in zip(report.epsilons, report.counts):
        c = report.bias + eps
        scale = math.sqrt(2.0 * variance)
        exact = 0.5 * (math.erfc((c - mean) / scale) + math.erfc((c + mean) / scale))
        low, high = clopper_pearson(count, reps, level)
        assert low <= exact <= high, (eps, count, exact)


def test_deviation_report_fields_consistent():
    spec = SystemSpec.lds([[0.5]])
    report = deviation_probability_experiment(
        spec, "norm", [0.0], 30, [0.3], 200, seed=9, target_samples=2_000,
    )
    assert 0.0 <= report.frequencies[0] <= 1.0
    assert report.ci_low[0] <= report.frequencies[0] <= report.ci_high[0]
    # pass flag is derivable from the stored fields
    rederived = report.ci_high[0] <= report.bounds[0] or report.counts[0] == 0
    assert report.passes[0] == rederived
    # the 1-D norm reward has an exact stationary mean, so nothing is estimated
    assert report.target_provenance == "half_normal_closed_form"
    assert report.target_mean == pytest.approx(math.sqrt(8.0 / (3.0 * math.pi)), abs=1e-12)
    assert "target_stderr" not in report.details
    assert "target_samples" not in report.details
    assert report.bias >= 0.0
    assert report.details["system_digest"]


def test_deviation_monte_carlo_target_in_3d():
    # no closed form for E||X|| in three dimensions: the target is the mean
    # over draws of the stationary law N(0, S) itself
    spec = SystemSpec.lds(np.diag([0.5, 0.3, -0.4]))
    report = deviation_probability_experiment(
        spec, "norm", [0.0, 0.0, 0.0], 30, [0.3], 200, seed=9, target_samples=2_000,
    )
    assert report.target_provenance == "monte_carlo_stationary"
    assert report.details["target_samples"] == 2_000
    stderr = report.details["target_stderr"]
    assert stderr > 0.0
    precise = stationary_mean_reward(
        spec, "norm", precision=5e-3, seed=30, sample_budget=200_000
    )
    assert precise.method == "gaussian_monte_carlo"
    both = math.hypot(stderr, precise.ci_halfwidth / 2.5758293035489004)
    assert abs(report.target_mean - precise.value) < 5.0 * both


def test_deviation_monte_carlo_target_is_the_stationary_mean_estimate():
    # the trajectory target and stationary_mean_reward share one path: at the
    # target's own seed and sample count they agree to the bit
    spec = SystemSpec.lds([[0.5, 0.3, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, -0.3]])
    report = deviation_probability_experiment(
        spec, "norm", [1.0, 0.0, 0.0], 20, [0.3], 100, seed=4, target_samples=3_000,
    )
    estimate = stationary_mean_reward(
        spec, "norm", precision=1.0, seed=derive_seed(4, montecarlo._STREAM_TARGET),
        sample_budget=3_000,
    )
    assert report.target_mean == estimate.value
    assert 2.5758293035489004 * report.details["target_stderr"] == estimate.ci_halfwidth
    assert estimate.samples == report.details["target_samples"]


def test_deviation_bias_bounds_exact_w1():
    # from x0 = 0 on A = 0.5 the one-step law is N(0, 1) and the stationary
    # law N(0, 4/3); their W1 is (sqrt(4/3) - 1) sqrt(2/pi) and W2 is
    # sqrt(4/3) - 1, so the shift must not use less than W1
    spec = SystemSpec.lds([[0.5]])
    report = deviation_probability_experiment(
        spec, "norm", [0.0], 10, [0.5], 100, seed=1
    )
    exact_w1 = (math.sqrt(4.0 / 3.0) - 1.0) * math.sqrt(2.0 / math.pi)
    assert report.details["bias_w2"] >= exact_w1
    assert report.details["bias_w2"] == pytest.approx(math.sqrt(4.0 / 3.0) - 1.0, abs=1e-12)
    assert report.bias == pytest.approx(report.details["bias_w2"] / (10 * 0.5), rel=1e-15)


def test_deviation_bias_scales_with_lipschitz():
    spec = SystemSpec.lds([[0.5]])
    kwargs = dict(
        x0=[100.0], n_samples=20, epsilons=[0.5], replications=100, seed=2,
        target_mean=0.0, target_provenance="symmetry_closed_form",
    )
    coordinate = deviation_probability_experiment(spec, "coordinate", **kwargs)
    scaled = deviation_probability_experiment(
        spec, (lambda p: 5 * p[..., 0], 5.0), **kwargs
    )
    assert scaled.details["lipschitz"] == 5.0
    assert scaled.bias == 5.0 * coordinate.bias
    assert coordinate.bias > 0.0


def test_deviation_validation():
    spec = SystemSpec.lds([[0.5]])
    with pytest.raises(ValueError, match="replications"):
        deviation_probability_experiment(spec, "norm", [0.0], 10, [0.5], 50, seed=1)
    with pytest.raises(ValueError, match="provenance"):
        deviation_probability_experiment(
            spec, "norm", [0.0], 10, [0.5], 100, seed=1, target_mean=0.9
        )
    with pytest.raises(ValueError, match="reward"):
        deviation_probability_experiment(spec, "entropy", [0.0], 10, [0.5], 100, seed=1)
    with pytest.raises(ValueError, match="positive"):
        deviation_probability_experiment(spec, "norm", [0.0], 10, [-0.5], 100, seed=1)
    with pytest.raises(NotContractiveError):
        deviation_probability_experiment(
            SystemSpec.lds([[1.0]]), "norm", [0.0], 10, [0.5], 100, seed=1
        )


def test_deviation_csv_layout(tmp_path):
    spec = SystemSpec.lds([[0.5]])
    report = deviation_probability_experiment(
        spec, "norm", [0.0], 20, [0.4, 0.8], 150, seed=10, target_samples=2_000,
    )
    path = tmp_path / "rows.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,empirical,ci_low,ci_high,bound,pass"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.4
    assert first[5] in ("true", "false")


# ------------------------------------------------- deviation experiment (iid)


def test_iid_experiment_passes_for_contractive_lds():
    spec = SystemSpec.lds([[0.5]])
    report = iid_deviation_experiment(
        spec, "norm", n_samples=50, replications=200, burn_in=60,
        epsilons=[0.4, 0.8], te_const=16.0, seed=11, target_samples=5_000,
    )
    assert report.all_pass
    assert report.details["bound_kind"] == "iid_subgaussian"
    assert report.details["target_burn_in"] == 60
    assert "burn_in_diagnostic_w1" not in report.details
    assert "burn_in_diagnostic_note" not in report.details
    assert report.bias == 0.0


def test_iid_target_is_drawn_at_the_sampled_horizon():
    # one step of x' = x/2 + noise from the origin is N(0, 1), whose norm has
    # mean sqrt(2/pi); two steps give N(0, 1.25), the law the target had when
    # it was drawn at twice the burn-in
    spec = SystemSpec.lds([[0.5]])
    report = iid_deviation_experiment(
        spec, "norm", n_samples=5, replications=100, burn_in=1,
        epsilons=[0.5], te_const=4.0, seed=21, target_samples=20_000,
    )
    stderr = report.details["target_stderr"]
    one_step = math.sqrt(2.0 / math.pi)
    assert abs(report.target_mean - one_step) < 5 * stderr
    assert abs(report.target_mean - math.sqrt(1.25) * one_step) > 5 * stderr


def test_iid_tiny_epsilon_bound_saturates():
    spec = SystemSpec.lds([[0.5]])
    report = iid_deviation_experiment(
        spec, "norm", n_samples=5, replications=100, burn_in=30,
        epsilons=[1e-9], te_const=4.0, seed=12, target_samples=2_000,
    )
    assert report.bounds[0] == pytest.approx(2.0, abs=1e-12)
    assert report.passes == (True,)


def test_iid_single_sample_consistency():
    # N=1 averages a single endpoint, so counts must equal a direct tally
    # over endpoints regenerated with the documented seed derivation: the
    # one endpoint of replication i is the start of replication i's stream
    spec = SystemSpec.lds([[0.5]])
    seed, burn_in, reps = 13, 40, 120
    target = math.sqrt(8.0 / (3.0 * math.pi))
    report = iid_deviation_experiment(
        spec, "norm", n_samples=1, replications=reps, burn_in=burn_in,
        epsilons=[0.5], te_const=4.0, seed=seed,
        target_mean=target, target_provenance="half_normal_closed_form",
    )
    rep_stream = derive_seed(seed, 1)
    endpoints = []
    for i in range(reps):
        endpoint_seed = derive_seed(rep_stream, i)
        traj = simulate(spec, [0.0], burn_in, endpoint_seed)
        endpoints.append(abs(traj.states[-1, 0]))
    expected = sum(1 for v in endpoints if abs(v - target) > 0.5)
    assert report.counts == (expected,)


def _recorded_averages(monkeypatch, experiment, *args, **kwargs):
    """(report, replication averages) of one deviation experiment, in order."""
    averages = []
    report_of = montecarlo._deviation_report

    def recording(spec, reward, average, *rest):
        def recorded(*replications):
            values = average(*replications)
            averages.append(values)
            return values

        return report_of(spec, reward, recorded, *rest)

    monkeypatch.setattr(montecarlo, "_deviation_report", recording)
    report = experiment(*args, **kwargs)
    monkeypatch.undo()
    return report, np.concatenate(averages)


def test_iid_replication_steps_through_one_stream(monkeypatch):
    # replication r's endpoints are stepped from consecutive blocks of
    # burn_in draws of Generator(PCG64(derive_seed(rep_stream, r)))
    a, n_samples, burn_in, reps, seed = 0.7, 40, 12, 150, 23
    report, averages = _recorded_averages(
        monkeypatch, iid_deviation_experiment, SystemSpec.lds([[a]]), "coordinate",
        n_samples=n_samples, replications=reps, burn_in=burn_in, epsilons=[0.1],
        te_const=4.0, seed=seed,
        target_mean=0.0, target_provenance="symmetry_closed_form",
    )
    rep_stream = derive_seed(seed, montecarlo._STREAM_REPLICATION)
    expected = np.empty(reps)
    for r in range(reps):
        gen = np.random.Generator(np.random.PCG64(derive_seed(rep_stream, r)))
        noise = gen.standard_normal((n_samples, burn_in, 1))
        x = np.zeros(n_samples)
        for k in range(burn_in):
            x = a * x + noise[:, k, 0]
        expected[r] = x.mean()
    assert np.array_equal(averages, expected)
    assert report.counts == (int(np.sum(np.abs(expected) > 0.1)),)


IID_CHUNKING = [
    (SystemSpec.lds([[0.5]]), "norm", 50),
    # 2-D: the chunks keep at least two rows, so no product takes numpy's
    # matrix-vector route for a batch of one row
    (SystemSpec.lds([[0.5, 0.3], [0.0, 0.4]]), "norm", 50),
]


@pytest.mark.parametrize("spec, reward, n_samples", IID_CHUNKING)
def test_iid_report_does_not_depend_on_the_noise_chunk(spec, reward, n_samples, monkeypatch):
    # 8 endpoints per chunk: each 50-endpoint replication spans 7 chunks and
    # 6 of its chunk boundaries cut its stream
    burn_in = 10

    def run():
        return iid_deviation_experiment(
            spec, reward, n_samples=n_samples, replications=120, burn_in=burn_in,
            epsilons=[0.05, 0.1, 0.2], te_const=4.0, seed=31, target_samples=500,
        )

    default = json.dumps(run().to_dict(), sort_keys=True)
    monkeypatch.setattr(dynamics, "_NOISE_BUDGET_BYTES", 8 * burn_in * spec.dim * 8)
    assert dynamics._endpoint_chunk(burn_in, spec.dim) == 8
    assert json.dumps(run().to_dict(), sort_keys=True) == default


@pytest.mark.parametrize(
    "spec, reward, short",
    [
        (SystemSpec.lds([[0.5]]), "coordinate", 137),
        # 2-D batches hold whole groups of 218 replications in both runs
        (
            SystemSpec.slds(
                [
                    (Predicate(ball_le=1.0), np.eye(2)),
                    (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
                ]
            ),
            "norm",
            218,
        ),
    ],
)
def test_iid_averages_of_fewer_replications_are_a_prefix(spec, reward, short, monkeypatch):
    # streams are derived by replication index, so a shorter run's averages
    # are the first ones of a longer run
    common = dict(
        n_samples=30, burn_in=20, epsilons=[0.2], te_const=4.0, seed=41,
        target_mean=0.5, target_provenance="stated",
    )
    assert short == 137 or dynamics._endpoint_chunk(20, spec.dim) // 30 == short
    _, full = _recorded_averages(
        monkeypatch, iid_deviation_experiment, spec, reward, replications=300, **common
    )
    _, prefix = _recorded_averages(
        monkeypatch, iid_deviation_experiment, spec, reward, replications=short, **common
    )
    assert len(full) == 300 and len(prefix) == short
    assert np.array_equal(prefix, full[:short])


def _endpoint_covariance(a, steps):
    """Sigma_b = sum over k < steps of A^k (A^k)^T: an endpoint's covariance."""
    a = np.asarray(a, dtype=float)
    power, sigma = np.eye(len(a)), np.zeros((len(a), len(a)))
    for _ in range(steps):
        sigma += power @ power.T
        power = a @ power
    return sigma


@pytest.mark.parametrize(
    "a, seed", [([[0.5]], 51), ([[0.6, 0.8], [0.0, -0.3]], 52)]
)
def test_iid_frequencies_match_the_exact_gaussian_tail(a, seed):
    # with the coordinate reward, an endpoint b steps from the origin has
    # coordinate 0 distributed N(0, (Sigma_b)_00), so the average of n
    # independent endpoints is exactly N(0, (Sigma_b)_00 / n) and
    # P(|avg| > eps) = erfc(eps / sqrt(2 var)).  A wrong block layout (shared,
    # overlapping or reordered draws) changes that law.
    n_samples, burn_in, reps = 10, 6, 4000
    sd = math.sqrt(_endpoint_covariance(a, burn_in)[0, 0] / n_samples)
    multiples = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    report = iid_deviation_experiment(
        SystemSpec.lds(a), "coordinate", n_samples=n_samples, replications=reps,
        burn_in=burn_in, epsilons=[m * sd for m in multiples], te_const=100.0,
        seed=seed, target_mean=0.0, target_provenance="symmetry_closed_form",
    )
    assert report.bias == 0.0
    # Bonferroni: a 1% family-wise level over the grid
    level = 1.0 - 0.01 / len(multiples)
    for m, count in zip(multiples, report.counts):
        exact = math.erfc(m / math.sqrt(2.0))
        low, high = clopper_pearson(count, reps, level)
        assert low <= exact <= high, (m, count, exact)


def test_iid_validation():
    spec = SystemSpec.lds([[0.5]])
    with pytest.raises(ValueError, match="constant"):
        iid_deviation_experiment(spec, "norm", 5, 100, 10, [0.5], te_const=0.0, seed=1)
    with pytest.raises(ValueError, match="replications"):
        iid_deviation_experiment(spec, "norm", 5, 10, 10, [0.5], te_const=4.0, seed=1)
    with pytest.raises(ValueError, match="burn_in"):
        iid_deviation_experiment(spec, "norm", 5, 100, 0, [0.5], te_const=4.0, seed=1)


def test_iid_experiment_memory_does_not_grow_with_block_size():
    # one block is 100 replications x 100 samples x 200 steps, 16 MB of
    # noise; the endpoint path draws it in chunks of a fixed byte budget and
    # groups only as many replications as fill one chunk
    spec = SystemSpec.lds([[0.5]])
    tracemalloc.start()
    try:
        iid_deviation_experiment(
            spec, "norm", n_samples=100, replications=100, burn_in=200,
            epsilons=[0.1], te_const=4.0, seed=5, target_mean=0.9213,
            target_provenance="half_normal_closed_form",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ------------------------------------------------------------ contraction fit


def test_contraction_fit_recovers_scalar_rate():
    spec = SystemSpec.lds([[0.5]])
    reference = burn_in_sampler(spec, 1024, 100, seed=14)
    fit = contraction_rate_fit(spec, [20.0], 20, 512, reference, seed=15)
    assert 0.4 <= fit.rate <= 0.6
    assert sum(fit.used) >= 2
    assert fit.stationary_distance > 0.0


def test_contraction_fit_white_noise_has_no_signal():
    spec = SystemSpec.lds([[0.0]])
    reference = burn_in_sampler(spec, 1024, 50, seed=16)
    with pytest.raises(NoSignalError):
        contraction_rate_fit(spec, [0.0], 10, 512, reference, seed=17)


def test_contraction_fit_slow_mode_dominates():
    spec = SystemSpec.lds(np.diag([0.9, 0.1]))
    reference = burn_in_sampler(spec, 1024, 100, seed=18)
    fit = contraction_rate_fit(spec, [20.0, 20.0], 40, 512, reference, seed=19)
    assert abs(fit.rate - 0.9) <= 0.1


@pytest.mark.parametrize("seed", [15, 16])
def test_contraction_fit_distances_follow_the_matrix_powers(seed):
    # for an lds X_n - Y_n = A^n (x0 - y), so the coupled distance of step n
    # is the mean of ||A^n (x0 - y_i)|| over the reference points y_i
    a = np.array([[0.5, 0.3], [0.0, 0.4]])
    x0 = np.array([20.0, -15.0])
    per_step, n_max = 64, 8
    reference = burn_in_sampler(SystemSpec.lds(a), 2 * per_step, 100, seed=seed)
    fit = contraction_rate_fit(SystemSpec.lds(a), x0, n_max, per_step, reference, seed=seed)
    gaps = x0 - reference[:per_step]
    for n, distance in zip(fit.steps, fit.distances):
        exact = np.linalg.norm(gaps @ np.linalg.matrix_power(a, n).T, axis=1).mean()
        assert distance == pytest.approx(exact, rel=1e-12, abs=0.0)
    pairs = reference[:per_step] - reference[per_step:]
    assert fit.stationary_distance == pytest.approx(
        np.linalg.norm(pairs, axis=1).mean(), rel=1e-12, abs=0.0
    )
    # the leading steps above the stationary distance are the fitted ones
    above = [d > fit.stationary_distance for d in fit.distances]
    assert list(fit.used) == [all(above[: i + 1]) for i in range(n_max)]


def test_contraction_fit_of_a_scalar_system_is_its_factor():
    # every coupled distance is 0.5^n times the first gap's mean, so the
    # log-linear fit recovers 0.5 up to rounding
    spec = SystemSpec.lds([[0.5]])
    reference = burn_in_sampler(spec, 1024, 100, seed=14)
    fit = contraction_rate_fit(spec, [20.0], 20, 512, reference, seed=15)
    assert fit.rate == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_contraction_fit_validation():
    spec = SystemSpec.lds([[0.5]])
    reference = burn_in_sampler(spec, 64, 50, seed=20)
    with pytest.raises(ValueError, match="two steps"):
        contraction_rate_fit(spec, [5.0], 1, 16, reference, seed=1)
    with pytest.raises(ValueError, match="reference"):
        contraction_rate_fit(spec, [5.0], 5, 64, reference, seed=1)
    with pytest.raises(ValueError, match="cap"):
        contraction_rate_fit(spec, [5.0], 5, 2048, reference, seed=1)
    with pytest.raises(ValueError, match="dimension 1"):
        contraction_rate_fit(spec, [5.0], 5, 16, np.zeros((64, 2)), seed=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            contraction_rate_fit(spec, [5.0], 5, 16, np.full((64, 1), bad), seed=1)
        with pytest.raises(ValueError, match="finite"):
            contraction_rate_fit(spec, [bad], 5, 16, reference, seed=1)


# ------------------------------------------------------------- autocovariance


def test_autocovariance_white_noise_vanishes():
    spec = SystemSpec.lds([[0.0]])
    traj = simulate(spec, [0.0], 20_000, seed=22)
    report = empirical_autocovariance(traj, "coordinate", 5)
    for k in range(1, 6):
        assert abs(report.values[k]) <= 4.0 * report.stderrs[k]


def test_autocovariance_ar1_closed_form():
    spec = SystemSpec.lds([[0.5]])
    traj = simulate(spec, [0.0], 200_000, seed=23)
    report = empirical_autocovariance(traj, "identity", 6)
    for k in range(7):
        expected = 0.5 ** k * (4.0 / 3.0)
        assert report.values[k] == pytest.approx(expected, abs=4.0 * report.stderrs[k])


def test_autocovariance_within_envelope():
    spec = SystemSpec.lds([[0.5]])
    traj = simulate(spec, [0.0], 100_000, seed=24)
    report = empirical_autocovariance(
        traj, "identity", 10, constant=1.0, rate=0.5, lipschitz=1.0
    )
    assert report.bounds is not None
    for k in range(1, 11):
        assert abs(report.values[k]) <= report.bounds[k] + 3.0 * report.stderrs[k]


def test_autocovariance_reads_arrays_as_time_by_dimension():
    spec = SystemSpec.lds([[0.5]])
    traj = simulate(spec, [0.0], 2_000, seed=26)
    expected = empirical_autocovariance(traj, "identity", 5)
    assert empirical_autocovariance(traj.states, "identity", 5) == expected
    assert empirical_autocovariance(traj.states[:, 0], "identity", 5) == expected
    # a (1, T) array is one T-dimensional state, not a T-step series
    with pytest.raises(ValueError, match="too short"):
        empirical_autocovariance(np.ones((1, 12)) * np.arange(12), "norm", 1)
    with pytest.raises(ValueError, match=r"\(T, n\) array"):
        empirical_autocovariance(np.zeros((20, 1, 1)), "norm", 1)


def test_autocovariance_requires_long_trajectory():
    spec = SystemSpec.lds([[0.5]])
    traj = simulate(spec, [0.0], 50, seed=25)
    with pytest.raises(ValueError, match="length"):
        empirical_autocovariance(traj, "identity", 10)


# -------------------------------------------------------- stationary oracles


def test_stationary_covariance_scalar():
    sigma = lds_stationary_covariance([[0.5]])
    assert sigma[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-11)


def test_stationary_covariance_zero_matrix():
    assert np.allclose(lds_stationary_covariance(np.zeros((3, 3))), np.eye(3), atol=1e-12)


def test_stationary_covariance_diagonal():
    sigma = lds_stationary_covariance(np.diag([0.5, 0.9]))
    assert sigma[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert sigma[1, 1] == pytest.approx(100.0 / 19.0, abs=1e-10)
    assert abs(sigma[0, 1]) < 1e-12


def test_stationary_covariance_residual_random_stable():
    rng = np.random.Generator(np.random.PCG64(26))
    for _ in range(20):
        n = int(rng.integers(1, 5))
        raw = rng.normal(size=(n, n))
        a = raw * (0.95 / max(np.linalg.norm(raw, 2), 1e-12)) * rng.uniform(0.1, 1.0)
        sigma = lds_stationary_covariance(a)
        residual = np.linalg.norm(a @ sigma @ a.T + np.eye(n) - sigma)
        assert residual < 1e-10


def test_stationary_covariance_one_dimension_is_scipys_to_the_bit():
    rng = np.random.Generator(np.random.PCG64(27))
    for value in [0.0, 0.5, -0.5, 0.9, 1.0 - 2.0**-30, *rng.uniform(-0.999, 0.999, 500)]:
        a = np.array([[value]])
        assert lds_stationary_covariance(a) == solve_discrete_lyapunov(a, np.eye(1))


def _contraction_of_shape(rng, n, shape, norm):
    raw = rng.normal(size=(n, n))
    raw = {
        "general": raw,
        "symmetric": raw + raw.T,
        "skew": raw - raw.T,
        "lower": np.tril(raw),
        "upper": np.triu(raw),
    }[shape]
    return raw * (norm / np.linalg.norm(raw, 2))


@pytest.mark.parametrize("norm", [0.5, 0.999])
@pytest.mark.parametrize("shape", ["general", "symmetric", "skew", "lower", "upper"])
def test_stationary_covariance_agrees_with_scipy(shape, norm):
    # numpy's LU and scipy's structure-picked LAPACK routine (sysv for a
    # symmetric I - A (x) A, trtrs for a triangular one) are both backward
    # stable, so the two solutions differ by at most a few eps times the
    # condition number of I - A (x) A
    # from 10 dimensions up the solve is Smith's doubling, whose rounding
    # differs from both but stays inside the same bounds
    rng = np.random.Generator(np.random.PCG64(28))
    eps = np.finfo(float).eps
    for n in [*range(2, 10), 10, 16, 24]:
        for _ in range(10):
            a = _contraction_of_shape(rng, n, shape, norm)
            sigma = lds_stationary_covariance(a)
            reference = solve_discrete_lyapunov(a, np.eye(n))
            cond = np.linalg.cond(np.eye(n * n) - np.kron(a, a))
            scale = np.abs(reference).max()
            assert np.abs(sigma - reference).max() <= 32 * eps * cond * scale
            residual = np.abs(a @ sigma @ a.T + np.eye(n) - sigma).max()
            assert residual <= 1e-12 * np.abs(sigma).max()


def test_stationary_covariance_doubling_terminates_next_to_the_norm_bound():
    # 58 passes, under the 64 that any admitted norm needs.  Each square of
    # 1 - x drops x^2 while x < 2^-27, and later squares double that error,
    # so here the doubling keeps about half the digits (7.4e-9 relative);
    # I - A (x) A is 2^-51 I, whose condition number is 1
    a = 1.0 - 2.0**-52
    sigma = lds_stationary_covariance(np.diag(np.full(12, a)))
    assert np.array_equal(sigma, np.diag(np.diag(sigma)))
    exact = 1.0 / (1.0 - a * a)
    assert np.abs(np.diag(sigma) / exact - 1.0).max() <= np.sqrt(np.finfo(float).eps)


@pytest.mark.parametrize("scale", [1.0, -1.0, 1.01])
def test_stationary_covariance_doubling_refuses_what_does_not_converge(monkeypatch, scale):
    # a norm test that rounds below 1 must not buy an unconverged S: with
    # |rho| = 1 S doubles for all 64 passes, and above 1 A_k overflows
    monkeypatch.setattr(montecarlo, "spectral_norm", lambda a: 0.0)
    with pytest.raises(NotContractiveError, match="doubling did not converge"):
        lds_stationary_covariance(scale * np.eye(12))


def test_stationary_covariance_rejects_unstable():
    with pytest.raises(NotContractiveError):
        lds_stationary_covariance([[1.0]])


def test_stationary_mean_norm_closed_form():
    est = stationary_mean_reward(SystemSpec.lds([[0.5]]), "norm")
    assert est.value == pytest.approx(math.sqrt(8.0 / (3.0 * math.pi)), abs=1e-12)
    assert est.method == "half_normal_closed_form"
    assert est.ci_halfwidth == 0.0


def test_stationary_mean_unit_noise():
    est = stationary_mean_reward(np.eye(1), "norm")
    assert est.value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_stationary_mean_coordinate_is_zero():
    est = stationary_mean_reward(SystemSpec.lds(np.diag([0.3, 0.8])), "coordinate")
    assert est.value == 0.0
    assert est.method == "symmetry_closed_form"


def test_stationary_mean_monte_carlo_3d_norm():
    # E||Z|| for Z ~ N(0, I_3) is 2 sqrt(2/pi); three dimensions have no
    # closed form here, so this exercises the Monte Carlo path
    est = stationary_mean_reward(np.eye(3), "norm", precision=5e-3, seed=27)
    assert est.method == "gaussian_monte_carlo"
    assert est.value == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=5e-3)


def test_stationary_mean_precision_error():
    with pytest.raises(PrecisionError):
        stationary_mean_reward(
            np.eye(3), "norm", precision=1e-9, seed=28, sample_budget=10_000
        )


def _norm_mean_by_quadrature(sigma):
    # E||X|| = sqrt(pi/2) * mean over directions u of sqrt(u' sigma u)
    def radial(theta):
        u = np.array([math.cos(theta), math.sin(theta)])
        return math.sqrt(u @ sigma @ u)

    integral, _ = quad(radial, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return math.sqrt(math.pi / 2.0) * integral / (2.0 * math.pi)


@pytest.mark.parametrize(
    "target",
    [
        np.eye(2),
        np.diag([4.0, 0.25]),
        np.array([[2.0, 0.9], [0.9, 1.0]]),
        np.diag([1.0, 0.0]),
        SystemSpec.lds([[0.5, 0.1], [-0.1, 0.5]]),
        SystemSpec.lds([[0.8, 0.3], [-0.2, 0.6]]),
    ],
    ids=["isotropic", "diagonal", "correlated", "rank-one", "catch-all", "non-normal"],
)
def test_stationary_mean_2d_norm_closed_form(target):
    est = stationary_mean_reward(target, "norm")
    assert est.method == "elliptic_closed_form"
    assert est.ci_halfwidth == 0.0
    sigma = lds_stationary_covariance(target) if isinstance(target, SystemSpec) else target
    assert est.value == pytest.approx(_norm_mean_by_quadrature(sigma), rel=1e-12)


def test_stationary_mean_2d_norm_isotropic_and_degenerate():
    assert stationary_mean_reward(np.eye(2), "norm").value == pytest.approx(
        math.sqrt(math.pi / 2.0), rel=1e-15
    )
    # a rank-one covariance is the half-normal along its one direction
    assert stationary_mean_reward(np.diag([0.0, 9.0]), "norm").value == pytest.approx(
        3.0 * math.sqrt(2.0 / math.pi), rel=1e-15
    )
    assert stationary_mean_reward(np.zeros((2, 2)), "norm").value == 0.0
    with pytest.raises(ValueError, match="positive semidefinite"):
        stationary_mean_reward(np.diag([1.0, -1.0]), "norm")


def test_stationary_mean_1d_covariance_must_be_psd():
    # the half-normal branch checks sigma as the 2-D branch does, rather
    # than failing inside math.sqrt
    with pytest.raises(ValueError, match="positive semidefinite"):
        stationary_mean_reward(np.array([[-1.0]]), "norm")
    # a rounding-level negative passes the check and reads as zero
    assert stationary_mean_reward(np.array([[-1e-12]]), "norm").value == 0.0


@pytest.mark.parametrize(
    "sigma",
    [
        [[math.nan]],
        [[math.inf]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, math.nan], [math.nan, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
    ],
)
@pytest.mark.parametrize("reward", ["norm", "coordinate"])
def test_stationary_mean_rejects_non_finite_covariance(sigma, reward):
    # NaN gave value nan from the half-normal closed form in 1-D, and the
    # 2-D eigenvalues of a NaN matrix can come back finite (0 for the first)
    with pytest.raises(ValueError, match="non-finite"):
        stationary_mean_reward(np.array(sigma), reward)


@pytest.mark.parametrize(
    "target, budget, count",
    [
        (np.eye(3), 1, 1),
        (np.eye(3), 0, 0),
    ],
    ids=["budget-1", "budget-0"],
)
def test_stationary_mean_rejects_fewer_than_two_samples(target, budget, count):
    # one sample gives no interval and none gives no mean; a NaN half-width
    # would also slip past the precision check, since nan > precision is False
    with pytest.raises(ValueError, match=f"at least 2.*got {count}$"):
        stationary_mean_reward(target, "norm", sample_budget=budget)


# ------------------------------------------------------------ clopper-pearson


def test_clopper_pearson_edges():
    low, high = clopper_pearson(0, 100)
    assert low == 0.0
    assert high == pytest.approx(1.0 - 0.005 ** (1.0 / 100.0), abs=1e-12)
    low, high = clopper_pearson(100, 100)
    assert high == 1.0
    assert low == pytest.approx(0.005 ** (1.0 / 100.0), abs=1e-12)


def test_clopper_pearson_brackets_frequency():
    for k, m in [(3, 50), (25, 50), (49, 50)]:
        low, high = clopper_pearson(k, m)
        assert low <= k / m <= high


def test_deviation_report_inverts_each_distinct_count_once(monkeypatch):
    # far epsilons count zero exceedances; their rows share one interval
    calls = []
    inverse = montecarlo.betaincinv

    def counted(a, b, p):
        calls.append((a, b, p))
        return inverse(a, b, p)

    monkeypatch.setattr(montecarlo, "betaincinv", counted)
    reps = 300
    report = deviation_probability_experiment(
        SystemSpec.lds([[0.5]]), "norm", [0.0], n_samples=40, replications=reps,
        epsilons=[0.05, 0.1, 0.3, 0.6, 1.0, 2.0, 3.0], seed=7,
        target_mean=math.sqrt(8.0 / (3.0 * math.pi)),
        target_provenance="half_normal_closed_form",
    )
    distinct = set(report.counts)
    assert report.counts.count(0) >= 3 and len(distinct) < len(report.counts)
    # an interior count inverts both limits, 0 and reps only one each
    assert len(calls) == sum(1 if k in (0, reps) else 2 for k in distinct)
    monkeypatch.undo()
    for k, low, high in zip(report.counts, report.ci_low, report.ci_high):
        assert (low, high) == clopper_pearson(k, reps)


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)
    with pytest.raises(ValueError):
        clopper_pearson(-1, 4)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_clopper_pearson_rejects_level_outside_unit_interval(level):
    # 1.5 or nan gave (nan, nan), and -0.2 a narrow interval that meant nothing
    with pytest.raises(ValueError, match="level"):
        clopper_pearson(3, 10, level)


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99, 0.999])
def test_clopper_pearson_agrees_with_beta_ppf(level):
    # the beta quantiles come from concentrix._special, not scipy: they
    # stay within 2e-14 relative of scipy.stats.beta.ppf (worst measured
    # 6.3e-15, where scipy's own quantile is 37 ulps from the exact one)
    # and within 1 ulp in the median
    trials = (1, 2, 5, 10, 50, 100, 300, 1000, 5000, 20000)
    pairs = [
        (k, m)
        for m in trials
        for k in sorted({0, 1, 2, 3, m // 100, m // 10, m // 3, m // 2, m - 2, m - 1, m})
        if 0 <= k <= m
    ]
    k = np.array([p[0] for p in pairs])
    m = np.array([p[1] for p in pairs])
    tail = (1.0 - level) / 2.0
    with np.errstate(all="ignore"):
        low = np.where(k == 0, 0.0, beta.ppf(tail, k, m - k + 1))
        high = np.where(k == m, 1.0, beta.ppf(1.0 - tail, k + 1, m - k))
    want = np.column_stack([low, high])
    got = np.array([clopper_pearson(int(a), int(b), level) for a, b in pairs])
    ends = (want == 0.0) | (want == 1.0)
    assert (got[ends] == want[ends]).all()
    err = np.abs(got - want)[~ends]
    assert (err <= 2e-14 * want[~ends]).all()
    assert np.median(err / np.spacing(want[~ends])) <= 1.0
