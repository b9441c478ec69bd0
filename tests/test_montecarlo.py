"""Tests for empirical verification: W1, tail experiments, fits, oracles."""

import itertools
import json
import math
import sys
import threading
import time
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
    # the dual start changes the solver's path, not its permutation, and
    # the matched distances are cdist's bits, so the value is the plain
    # solve's to the bit on continuous inputs, with or without a buffer
    rng = np.random.Generator(np.random.PCG64(22))
    for dim in (2, 3, 5, 8):
        for m in (2, 3, 7, 64, 257, 600):
            a, b = _continuous_case(rng, kind, m, dim)
            plain = plain_assignment_w1(a, b)
            for out in (None, np.full((m, m), np.nan)):
                est = empirical_w1(a, b, out=out)
                assert est.solver == "assignment"
                assert est.value == plain
            if kind == "shuffled":
                assert est.value == 0.0


def classical_spec():
    """The slds-classical system: identity in a box, a contraction outside it."""
    box = tuple(
        (normal, 0.7) for normal in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
    )
    return SystemSpec.slds(
        [
            (Predicate(halfspaces=box), np.eye(2)),
            (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
        ]
    )


def test_w1_contraction_distances_equal_plain_solver(monkeypatch):
    # the slds-classical system, far from its reference at first: the
    # regime the mean-direction start is for
    spec = classical_spec()
    reference = burn_in_sampler(spec, 256, 100, seed=23)
    fit = contraction_rate_fit(spec, [20.0, 20.0], 30, 128, reference, seed=24)
    monkeypatch.setattr(
        montecarlo, "_warm_started_costs", lambda pa, pb, cost: cdist(pa, pb, out=cost)
    )
    plain = contraction_rate_fit(spec, [20.0, 20.0], 30, 128, reference, seed=24)
    assert fit.distances == plain.distances
    assert fit.noise_floor == plain.noise_floor
    assert fit.rate == plain.rate


def test_w1_fills_each_cost_matrix_once_unless_the_mean_direction_wins(monkeypatch):
    # the plain start costs one fill; only a mean-direction start whose dual
    # value beats its bound refills, and the value needs no fill after a solve
    events = []
    fill, reduce = cdist, montecarlo._reduce_costs
    solve = linear_sum_assignment

    def counted_fill(*args, **kwargs):
        events.append("fill")
        return fill(*args, **kwargs)

    def counted_reduce(cost, pa, pb, direction):
        if direction is not None:
            events.append("direction")
        return reduce(cost, pa, pb, direction)

    def counted_solve(cost):
        events.append("solve")
        return solve(cost)

    monkeypatch.setattr("scipy.spatial.distance.cdist", counted_fill)
    monkeypatch.setattr(montecarlo, "_reduce_costs", counted_reduce)
    monkeypatch.setattr("scipy.optimize.linear_sum_assignment", counted_solve)
    plain, direction = ["fill"], ["fill", "direction", "fill"]

    rng = np.random.Generator(np.random.PCG64(30))
    m = 512
    near = rng.normal(size=(m, 2)), rng.normal(size=(m, 2))
    far = rng.normal(size=(m, 2)), rng.normal(size=(m, 2)) + 50.0 * np.array([0.6, 0.8])
    for (a, b), start in ((near, plain), (far, direction)):
        events.clear()
        value = empirical_w1(a, b).value
        assert events == start + ["solve"]
        assert value == plain_assignment_w1(a, b)

    # one worker, so the events of each solve are contiguous
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    spec = classical_spec()
    reference = burn_in_sampler(spec, 256, 100, seed=23)
    events.clear()
    contraction_rate_fit(spec, [20.0, 20.0], 30, 128, reference, seed=24)
    *solves, tail = " ".join(events).split("solve")
    starts = [segment.split() for segment in solves]
    assert len(starts) == 31
    assert tail == ""
    assert all(start in (plain, direction) for start in starts)
    assert events.count("fill") == 31 + events.count("direction")
    # the near-stationary noise floor takes the plain start, the far steps not
    assert starts[0] == plain and direction in starts


def test_w1_assignment_holds_one_cost_matrix():
    # the starts reduce the costs in place and the value is read from the
    # matched pairs, so a call holds one m x m array, never a second copy
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


def test_w1_into_caller_buffer_allocates_no_matrix():
    # with out= the assignment path reuses the caller's matrix and gives the
    # value of a call that allocates its own
    rng = np.random.Generator(np.random.PCG64(28))
    m = 512
    a = rng.normal(size=(m, 2))
    b = rng.normal(loc=0.5, size=(m, 2))
    matrix_bytes = m * m * 8
    buffer = np.full((m, m), np.nan)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        value = empirical_w1(a, b, out=buffer).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * matrix_bytes
    assert value == empirical_w1(a, b).value
    # the sorted 1-D path never touches the buffer
    small = np.full((3, 3), 7.0)
    assert empirical_w1(column([0, 1, 2]), column([1, 2, 3]), out=small).value == 1.0
    assert (small == 7.0).all()


@pytest.mark.parametrize(
    "out",
    [np.empty((4, 5)), np.empty((5, 5), dtype=np.float32), np.empty((5, 10))[:, ::2]],
)
def test_w1_rejects_unfit_buffer(out):
    rng = np.random.Generator(np.random.PCG64(29))
    a, b = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    with pytest.raises(ValueError, match="out must be"):
        empirical_w1(a, b, out=out)


def test_w1_tied_inputs_stay_optimal():
    # on lattices and duplicated points several permutations are optimal;
    # the warm start may pick another one, whose mean differs from the
    # plain solve's in the last bits only
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
    # a budget of 7 trajectories per chunk: 600 seeds are 85 full chunks
    # and a partial one of 5
    monkeypatch.setattr(dynamics, "_NOISE_BUDGET_BYTES", 7 * 20 * 2 * 8)
    spec = SystemSpec.slds(
        [(Predicate(ball_le=1.0), np.eye(2)), (Predicate(catch_all=True), 0.5 * np.eye(2))]
    )
    seeds = derive_seeds(3, 0, 600)
    points = burn_in_sampler(spec, 600, 20, seed=3)
    assert np.array_equal(points, simulate_endpoints(spec, np.zeros(2), 20, seeds))
    assert np.array_equal(points, simulate_batch(spec, np.zeros(2), 20, seeds)[:, -1])


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

    def counted_batch(spec, x0, n_steps, seeds):
        sizes.append(len(seeds))
        return simulate_batch(spec, x0, n_steps, seeds)

    monkeypatch.setattr(montecarlo, "simulate_batch", counted_batch)
    deviation_probability_experiment(
        SystemSpec.lds(a), "norm", x0, n_samples, [0.5], replications, seed=3
    )
    assert sizes == blocks


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
    # over endpoints regenerated with the documented seed derivation
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
        endpoint_seed = derive_seed(derive_seed(rep_stream, i), 0)
        traj = simulate(spec, [0.0], burn_in, endpoint_seed)
        endpoints.append(abs(traj.states[-1, 0]))
    expected = sum(1 for v in endpoints if abs(v - target) > 0.5)
    assert report.counts == (expected,)


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
    assert fit.noise_floor > 0.0


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


def test_contraction_fit_validation():
    spec = SystemSpec.lds([[0.5]])
    reference = burn_in_sampler(spec, 64, 50, seed=20)
    with pytest.raises(ValueError, match="two steps"):
        contraction_rate_fit(spec, [5.0], 1, 16, reference, seed=1)
    with pytest.raises(ValueError, match="reference"):
        contraction_rate_fit(spec, [5.0], 5, 64, reference, seed=1)
    with pytest.raises(ValueError, match="cap"):
        contraction_rate_fit(spec, [5.0], 5, 2048, reference, seed=1)


def _fit_cases(per_step=128, n_max=12):
    """A 2-D (assignment) and a 1-D (sorted) contraction fit, as callables."""
    spec2 = classical_spec()
    ref2 = burn_in_sampler(spec2, 2 * per_step, 100, seed=30)
    spec1 = SystemSpec.lds([[0.5]])
    ref1 = burn_in_sampler(spec1, 2 * per_step, 100, seed=31)
    return {
        "2d": lambda: contraction_rate_fit(spec2, [20.0, 20.0], n_max, per_step, ref2, seed=32),
        "1d": lambda: contraction_rate_fit(spec1, [20.0], n_max, per_step, ref1, seed=33),
    }


@pytest.mark.parametrize("case", ["2d", "1d"])
def test_contraction_fit_equal_on_any_pool_size(monkeypatch, case):
    fit = _fit_cases()[case]
    results = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda cpus=cpus: cpus)
        results.append(fit())
    for other in results[1:]:
        assert other.distances == results[0].distances
        assert other.noise_floor == results[0].noise_floor
        assert other.rate == results[0].rate
        assert other.used == results[0].used


def test_contraction_fit_buffers_under_thread_switching(monkeypatch):
    # more workers than cores, switching threads every microsecond: two
    # solves sharing one cost matrix would change a distance
    spec = classical_spec()
    reference = burn_in_sampler(spec, 64, 100, seed=36)

    def fit():
        return contraction_rate_fit(spec, [20.0, 20.0], 60, 32, reference, seed=37)

    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    serial = fit()
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)
    pooled = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: pooled.append(fit()), daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(pooled) == 1, "the pooled fit raised"
    assert pooled[0].distances == serial.distances
    assert pooled[0].noise_floor == serial.noise_floor


def test_contraction_fit_raises_first_failing_step(monkeypatch):
    # steps 2 and 4 fail, step 2 after step 4 has already raised: the
    # caller still sees step 2's error.  From x0 = 1000 under A = 0.5 the
    # step-n batch sits near 1000 / 2^n, which names the step.
    spec = SystemSpec.lds([[0.5]])
    reference = burn_in_sampler(spec, 64, 50, seed=34)
    solve = montecarlo.empirical_w1

    def failing(a, b, *args, **kwargs):
        mean = float(np.mean(a))
        step = round(math.log2(1000.0 / mean)) if mean > 10.0 else 0
        if step == 2:
            time.sleep(0.2)
        if step in (2, 4):
            raise ValueError(f"step {step}")
        return solve(a, b, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "empirical_w1", failing)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 3)
    with pytest.raises(ValueError, match="step 2"):
        contraction_rate_fit(spec, [1000.0], 6, 32, reference, seed=35)


def _fit_peak(fit) -> int:
    tracemalloc.start()
    try:
        fit()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("cpus, budget_matrices, workers", [(3, 8, 3), (5, 2, 2)])
def test_contraction_fit_holds_one_matrix_per_worker(
    monkeypatch, cpus, budget_matrices, workers
):
    # the pool is sized by the CPUs and by the byte budget, whichever is
    # smaller, and the solves reuse the caller's matrices
    matrix_bytes = 512 * 512 * 8
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "_COST_BUDGET_BYTES", budget_matrices * matrix_bytes)
    peak = _fit_peak(_fit_cases(512, 6)["2d"])
    assert workers * matrix_bytes <= peak < (workers + 0.5) * matrix_bytes


def test_contraction_fit_sorted_path_allocates_no_matrix(monkeypatch):
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 3)
    peak = _fit_peak(_fit_cases(512, 6)["1d"])
    assert peak < 0.5 * 512 * 512 * 8


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
    rng = np.random.Generator(np.random.PCG64(28))
    eps = np.finfo(float).eps
    for n in range(2, 10):
        for _ in range(10):
            a = _contraction_of_shape(rng, n, shape, norm)
            sigma = lds_stationary_covariance(a)
            reference = solve_discrete_lyapunov(a, np.eye(n))
            cond = np.linalg.cond(np.eye(n * n) - np.kron(a, a))
            scale = np.abs(reference).max()
            assert np.abs(sigma - reference).max() <= 32 * eps * cond * scale
            residual = np.abs(a @ sigma @ a.T + np.eye(n) - sigma).max()
            assert residual <= 1e-12 * np.abs(sigma).max()


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
def test_clopper_pearson_matches_beta_ppf_bitwise(level):
    # the beta quantiles come from betaincinv; they must be the very floats
    # scipy.stats.beta.ppf gives, so reports keep their bytes
    pairs = [(k, m) for m in range(1, 301) for k in range(m + 1)]
    pairs += [(k, 5000) for k in (0, 1, 2500, 4999, 5000)]
    k = np.array([p[0] for p in pairs])
    m = np.array([p[1] for p in pairs])
    tail = (1.0 - level) / 2.0
    with np.errstate(all="ignore"):
        low = np.where(k == 0, 0.0, beta.ppf(tail, k, m - k + 1))
        high = np.where(k == m, 1.0, beta.ppf(1.0 - tail, k + 1, m - k))
    got = np.array([clopper_pearson(int(a), int(b), level) for a, b in pairs])
    assert (got[:, 0] == low).all()
    assert (got[:, 1] == high).all()
