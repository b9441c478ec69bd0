"""Tests for the drift and exponential-moment certificate pipeline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from concentrix import lyapunov
from concentrix.dynamics import HypothesisError, Predicate, SystemSpec, _apply_matrices
from concentrix.lyapunov import (
    DivergentMGFError,
    DriftPair,
    ExpLyapunovCertificate,
    GeometricDriftCertificate,
    InvalidAlphaError,
    UnsupportedDimensionError,
    drift_from_exp_lyapunov,
    empirical_drift_check,
    minorization_beta,
    n_step_te_coefficient,
    n_step_w_bound,
    slds_exp_lyapunov,
    slds_geometric_drift,
    stein_mgf,
    te_constant,
)


def bounded_plus_contractive(inner=1.0, outer=0.5, radius=1.0, dim=1):
    """Ball region with matrix norm `inner`, contractive exterior `outer`."""
    return SystemSpec.slds(
        [
            (Predicate(ball_le=radius), np.eye(dim) * inner),
            (Predicate(catch_all=True), np.eye(dim) * outer),
        ]
    )


# ---------------------------------------------------------------- stein_mgf


def test_stein_mgf_centered_two_dims():
    assert stein_mgf(np.zeros((2, 2)), [1.0, 2.0], 0.25) == pytest.approx(2.0)


def test_stein_mgf_matches_monte_carlo_centered():
    val = stein_mgf([[0.0]], [0.0], 0.1)
    assert val == pytest.approx(0.8 ** (-0.5))
    z = np.random.default_rng(6).standard_normal(1_000_000)
    assert np.exp(0.1 * z**2).mean() == pytest.approx(val, rel=1e-2)


def test_stein_mgf_matches_monte_carlo_shifted():
    a, x, alpha = [[0.7]], [2.0], 0.2
    val = stein_mgf(a, x, alpha)
    y = 1.4 + np.random.default_rng(7).standard_normal(1_000_000)
    assert np.exp(alpha * y**2).mean() == pytest.approx(val, rel=1e-2)


def test_stein_mgf_divergent_exponent():
    with pytest.raises(DivergentMGFError):
        stein_mgf([[0.5]], [1.0], 0.5)


# ---------------------------------------------------------------- exp-Lyapunov


def test_exp_lyapunov_reference_constants():
    spec = bounded_plus_contractive()
    cert = slds_exp_lyapunov(spec, radius=1.0, contraction=0.5, lipschitz=1.0, alpha=0.25)
    assert cert.beta == pytest.approx(0.25 * 0.25 / 0.5)  # 0.125
    assert cert.scale == pytest.approx(math.sqrt(2.0) * math.exp(0.5))


def test_exp_lyapunov_admissible_range_narrow_for_weak_contraction():
    spec = bounded_plus_contractive(outer=0.9)
    limit = (1.0 - 0.81) / 2.0
    assert limit == pytest.approx(0.095)
    cert = slds_exp_lyapunov(spec, 1.0, 0.9, 1.0, alpha=0.094)
    assert cert.beta < 0.094
    with pytest.raises(InvalidAlphaError):
        slds_exp_lyapunov(spec, 1.0, 0.9, 1.0, alpha=0.096)


def test_exp_lyapunov_rejects_alpha_beyond_range():
    spec = bounded_plus_contractive()
    with pytest.raises(InvalidAlphaError):
        slds_exp_lyapunov(spec, 1.0, 0.5, 1.0, alpha=0.4)


def test_exp_lyapunov_requires_hypothesis():
    spec = SystemSpec.slds([(Predicate(catch_all=True), [[1.2]])])
    with pytest.raises(HypothesisError):
        slds_exp_lyapunov(spec, 1.0, 0.9, 1.0, alpha=0.05)


def test_exp_lyapunov_beta_strictly_below_alpha_across_grid():
    spec = bounded_plus_contractive()
    limit = (1.0 - 0.25) / 2.0
    for alpha in np.linspace(limit / 21, limit * 20 / 21, 20):
        cert = slds_exp_lyapunov(spec, 1.0, 0.5, 1.0, alpha=float(alpha))
        assert cert.beta < cert.alpha


def test_exp_lyapunov_bound_holds_against_monte_carlo():
    # kernel moment estimated by simulation never exceeds the certificate
    spec = bounded_plus_contractive()
    rng = np.random.default_rng(8)
    z = rng.standard_normal(20_000)
    limit = (1.0 - 0.25) / 2.0
    alphas = np.linspace(limit / 21, limit * 20 / 21, 20)
    for x in np.linspace(-3.0, 3.0, 50):
        mean = float((spec.matrix_for([x]) @ [x])[0])
        y = mean + z
        for alpha in alphas:
            cert = slds_exp_lyapunov(spec, 1.0, 0.5, 1.0, alpha=float(alpha))
            w = np.exp(alpha * y**2)
            est = w.mean()
            se = w.std(ddof=1) / math.sqrt(w.size)
            assert est <= (cert.scale + 3.0 * se) * math.exp(cert.beta * x * x)


def test_certificate_requires_beta_below_alpha():
    with pytest.raises(ValueError):
        ExpLyapunovCertificate(alpha=0.2, beta=0.25, scale=1.0)


# ---------------------------------------------------------------- drift pair


def test_drift_pair_reference_values():
    cert = ExpLyapunovCertificate(
        alpha=0.25, beta=0.125, scale=math.sqrt(2.0) * math.exp(0.5)
    )
    drift = drift_from_exp_lyapunov(cert)
    assert drift.contraction == 0.5
    assert drift.split_radius_sq == pytest.approx(
        math.log(2.0 * cert.scale) / 0.125
    )
    # here beta/(alpha - beta) = 1, so the offset collapses to 2 scale^2 = 4e
    assert drift.offset == pytest.approx(4.0 * math.e)
    assert drift.moment_bound == pytest.approx(8.0 * math.e)


def test_drift_pair_small_scale_branch():
    cert = ExpLyapunovCertificate(alpha=0.3, beta=0.1, scale=0.4)
    drift = drift_from_exp_lyapunov(cert)
    assert drift.contraction == 0.4
    assert drift.offset == 0.4


def test_drift_inequality_holds_pointwise_closed_form():
    # kernel moment is available exactly, so the check needs no sampling
    spec = bounded_plus_contractive()
    cert = slds_exp_lyapunov(spec, 1.0, 0.5, 1.0, alpha=0.25)
    drift = drift_from_exp_lyapunov(cert)
    for x in np.linspace(-6.0, 6.0, 200):
        pw = stein_mgf(spec.matrix_for([x]), [x], 0.25)
        w = math.exp(0.25 * x * x)
        assert pw <= drift.contraction * w + drift.offset * (1 + 1e-12)


# ---------------------------------------------------------------- constants


def test_te_constant_reference_value():
    drift = DriftPair(contraction=0.5, offset=4.0 * math.e, alpha=0.25)
    assert te_constant(drift) == pytest.approx(8.0 + 12.0 * math.log(2.0))


def test_te_constant_near_trivial_pair():
    drift = DriftPair(contraction=1e-12, offset=1.0, alpha=1.0)
    assert te_constant(drift) == pytest.approx(1.0)


def test_te_constant_monotone_in_offset():
    values = [
        te_constant(DriftPair(contraction=0.5, offset=c, alpha=0.25))
        for c in [1.0, 2.0, 5.0, 10.0, 50.0]
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_n_step_w_bound_reference_and_limits():
    drift = DriftPair(contraction=0.5, offset=4.0 * math.e, alpha=0.25)
    assert n_step_w_bound(drift, 1.0, 0) == 1.0
    assert n_step_w_bound(drift, 1.0, 3) == pytest.approx(0.125 + 4.0 * math.e * 1.75)
    assert n_step_w_bound(drift, 1.0, 500) == pytest.approx(drift.moment_bound)


def test_n_step_w_bound_monotone_towards_stationary_moment():
    drift = DriftPair(contraction=0.5, offset=2.0, alpha=0.25)
    high = [n_step_w_bound(drift, 100.0, n) for n in range(10)]
    low = [n_step_w_bound(drift, 1.0, n) for n in range(10)]
    assert all(a > b for a, b in zip(high, high[1:]))
    assert all(a < b for a, b in zip(low, low[1:]))


def test_n_step_te_coefficient_positive_and_shrinking():
    drift = DriftPair(contraction=0.5, offset=2.0, alpha=0.25)
    coeffs = [n_step_te_coefficient(drift, 50.0, n) for n in range(8)]
    assert all(c > 0 for c in coeffs)
    assert coeffs[-1] < coeffs[0]


@given(
    contraction=st.floats(1e-6, 1.0, exclude_max=True),
    offset=st.floats(1e-6, 1e6),
    alpha=st.floats(1e-6, 0.5, exclude_max=True),
    steps=st.integers(0, 2000),
)
@settings(max_examples=300, deadline=None)
def test_n_step_constant_from_the_origin_never_exceeds_te_constant(
    contraction, offset, alpha, steps
):
    # from W(0) = 1 the n-step weight bound mixes 1 and the stationary moment
    # bound, so the stationary constant bounds the iid experiment's samples at
    # every burn-in
    drift = DriftPair(contraction=contraction, offset=offset, alpha=alpha)
    n_step = n_step_te_coefficient(drift, 1.0, steps) ** 2 / 2
    assert n_step <= te_constant(drift) * (1 + 1e-12)


def test_n_step_constant_on_the_benchmark_switched_system():
    spec = SystemSpec.slds(
        [
            (Predicate(ball_le=1.0), np.eye(2)),
            (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
        ]
    )
    drift = drift_from_exp_lyapunov(slds_exp_lyapunov(spec, 1.0, 0.6, 1.0, 0.25))
    n_step = [n_step_te_coefficient(drift, 1.0, b) ** 2 / 2 for b in (1, 5, 50)]
    assert n_step == pytest.approx([28.179, 30.820, 30.947], abs=1e-3)
    assert n_step[-1] == pytest.approx(te_constant(drift), rel=1e-12)


# ---------------------------------------------------------------- geometric drift


def test_geometric_drift_reference_offset():
    spec = SystemSpec.slds(
        [
            (Predicate(ball_le=3.0), np.diag([2.0, 0.0])),
            (Predicate(catch_all=True), np.eye(2) * 0.5),
        ]
    )
    cert = slds_geometric_drift(spec, radius=3.0, contraction=0.5, lipschitz=2.0)
    assert cert.offset == pytest.approx(math.sqrt(38.0))


def test_geometric_drift_pure_contractive_case():
    spec = SystemSpec.slds([(Predicate(catch_all=True), [[0.5]])])
    cert = slds_geometric_drift(spec, radius=0.0, contraction=0.5, lipschitz=0.5)
    assert cert.offset == pytest.approx(1.0)


def test_geometric_drift_holds_at_distant_state():
    spec = SystemSpec.slds(
        [
            (Predicate(ball_le=3.0), np.diag([2.0, 0.0])),
            (Predicate(catch_all=True), np.eye(2) * 0.5),
        ]
    )
    cert = slds_geometric_drift(spec, radius=3.0, contraction=0.5, lipschitz=2.0)
    rng = np.random.default_rng(9)
    draws = np.array([5.0, 0.0]) + rng.standard_normal((100_000, 2))
    norms = np.linalg.norm(draws, axis=1)
    se = norms.std(ddof=1) / math.sqrt(norms.size)
    assert norms.mean() <= 0.5 * 10.0 + cert.offset + 3.0 * se


# ---------------------------------------------------------------- empirical drift


def folded_normal_mean(m):
    """E|N(m, 1)|, the exact one-step norm drift of a scalar system."""
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * m * m) + m * (
        1.0 - 2.0 * norm.cdf(-m)
    )


def test_empirical_drift_fit_recovers_scalar_contraction():
    spec = SystemSpec.lds([[0.5]])
    grid = [[-20.0], [-5.0], [-1.0], [1.0], [5.0], [20.0]]
    report = empirical_drift_check(spec, grid, samples_per_point=10_000, seed=10)
    assert 0.45 <= report.slope <= 0.55
    for p in report.points:
        truth = folded_normal_mean(0.5 * p.x[0])
        assert abs(p.estimate - truth) <= 4.0 * p.stderr


def test_empirical_drift_pure_noise_recovers_half_normal_mean():
    spec = SystemSpec.lds([[0.0]])
    grid = [[-20.0], [-5.0], [-1.0], [1.0], [5.0], [20.0]]
    report = empirical_drift_check(spec, grid, samples_per_point=10_000, seed=11)
    assert abs(report.slope) < 0.02
    assert report.intercept == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.02)


def test_empirical_drift_single_point_skips_fit():
    spec = SystemSpec.lds([[0.5]])
    report = empirical_drift_check(spec, [[2.0]], samples_per_point=2000, seed=12)
    assert report.slope is None
    assert report.intercept is None


def test_empirical_drift_flags_no_violations_for_valid_certificate():
    spec = SystemSpec.slds([(Predicate(catch_all=True), [[0.5]])])
    cert = slds_geometric_drift(spec, 0.0, 0.5, 0.5)
    report = empirical_drift_check(
        spec, [[-4.0], [0.0], [4.0]], 5000, seed=13, certificate=cert
    )
    assert report.certificate_violations == ()


# ---------------------------------------------------------------- minorization


def test_minorization_pure_noise_captures_truncated_mass():
    spec = SystemSpec.lds([[0.0]])
    est = minorization_beta(spec, radius=1.0, truncation=(-5.0, 5.0), resolution=400)
    truth = 1.0 - 2.0 * norm.cdf(-5.0)
    assert est.mass == pytest.approx(truth, abs=1e-3)
    assert est.mass <= 1.0


def test_minorization_near_unit_matrix_is_small():
    spec = SystemSpec.lds([[0.99]])
    est = minorization_beta(spec, radius=10.0, truncation=(-5.0, 5.0), resolution=200)
    assert est.mass < 0.05


def test_minorization_grid_convergence():
    spec = SystemSpec.lds([[0.5]])
    masses = [
        minorization_beta(spec, 1.0, (-6.0, 6.0), resolution=r).mass
        for r in (100, 200, 400)
    ]
    assert abs(masses[1] - masses[0]) < 1e-3
    assert abs(masses[2] - masses[1]) < 1e-3


def test_minorization_monotone_in_radius():
    spec = SystemSpec.lds([[0.5]])
    masses = [
        minorization_beta(spec, r, (-6.0, 6.0), resolution=150).mass
        for r in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_minorization_two_dims_matches_product_mass():
    spec = SystemSpec.lds(np.zeros((2, 2)))
    est = minorization_beta(spec, radius=1.0, truncation=(-4.0, 4.0), resolution=60)
    truth = (1.0 - 2.0 * norm.cdf(-4.0)) ** 2
    assert est.mass == pytest.approx(truth, abs=2e-3)


def test_minorization_rejects_high_dimension():
    spec = SystemSpec.lds(np.zeros((3, 3)))
    with pytest.raises(UnsupportedDimensionError):
        minorization_beta(spec, 1.0, (-4.0, 4.0), resolution=20)


@pytest.mark.parametrize(
    "radius, truncation, resolution, match",
    [
        (1.0, (-math.inf, 6.0), 40, "finite"),
        (math.inf, (-6.0, 6.0), 40, "radius"),
        (math.nan, (-6.0, 6.0), 40, "radius"),
        (1.0, (-6.0, 6.0), 80.0, "resolution"),
        (1.0, (-6.0, 6.0), 1, "resolution"),
    ],
    ids=["truncation-inf", "radius-inf", "radius-nan", "resolution-float", "resolution-1"],
)
def test_minorization_rejects_meaningless_inputs(radius, truncation, resolution, match):
    spec = SystemSpec.lds([[0.5]])
    with pytest.raises(ValueError, match=match):
        minorization_beta(spec, radius, truncation, resolution=resolution)


def test_minorization_rejects_start_grid_missing_the_ball():
    # at resolution 2 the 2-D start grid is the four corners of the square,
    # all outside the ball
    spec = SystemSpec.lds(np.eye(2) * 0.5)
    with pytest.raises(ValueError, match="start grid"):
        minorization_beta(spec, 1.0, (-4.0, 4.0), resolution=2)


def _brute_force_mass(spec, radius, truncation, resolution):
    """Midpoint quadrature taking the max over every mapped start point."""
    n = spec.dim
    box = np.asarray(truncation, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (n, 1))
    if radius == 0.0:
        xs = np.zeros((1, n))
    else:
        axes = [np.linspace(-radius, radius, resolution) for _ in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        xs = np.stack([m.ravel() for m in mesh], axis=1)
        xs = xs[np.linalg.norm(xs, axis=1) <= radius]
    mus = _apply_matrices(spec, xs)
    centers = [
        lo + (hi - lo) / resolution * (np.arange(resolution) + 0.5) for lo, hi in box
    ]
    mesh = np.meshgrid(*centers, indexing="ij")
    ys = np.stack([m.ravel() for m in mesh], axis=1)
    cell = float(np.prod([(hi - lo) / resolution for lo, hi in box]))
    log_norm = -0.5 * n * math.log(2.0 * math.pi)
    total = 0.0
    chunk = max(1, 2**22 // max(len(mus), 1))
    for start in range(0, len(ys), chunk):
        block = ys[start : start + chunk]
        d2 = ((block[:, None, :] - mus[None, :, :]) ** 2).sum(axis=2)
        worst = d2.max(axis=1)
        total += float(np.exp(log_norm - 0.5 * worst).sum()) * cell
    return min(total, 1.0)


def _box_switched_system(normals=((1, 0), (-1, 0), (0, 1), (0, -1)), offset=0.7):
    """A unit map on a box (|x_i| <= 0.7 by default), a contractive rotation
    elsewhere."""
    box = tuple((normal, offset) for normal in normals)
    return SystemSpec.slds(
        [
            (Predicate(halfspaces=box), np.eye(2)),
            (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
        ]
    )


@pytest.mark.parametrize(
    "spec, radius, truncation, resolution",
    [
        (SystemSpec.lds([[0.5]]), 1.5, (-6.0, 6.0), 300),
        (SystemSpec.lds([[0.8, 0.3], [-0.2, 0.6]]), 2.0, (-6.0, 6.0), 50),
        (_box_switched_system(), 1.0, (-6.0, 6.0), 40),
        (_box_switched_system(), 3.0, (-6.0, 6.0), 40),
        (SystemSpec.lds(np.zeros((2, 2))), 1.0, (-4.0, 4.0), 40),
        (SystemSpec.lds([[1.0, 0.0], [0.0, 0.0]]), 1.0, (-4.0, 4.0), 40),
        (SystemSpec.lds([[1.0, 0.0], [0.0, 0.0]]), 1.0, (-6.0, 6.0), 80),
        (SystemSpec.lds([[0.6, 0.3], [0.2, 0.1]]), 1.5, (-4.0, 4.0), 40),
        (SystemSpec.lds([[0.0, 0.7], [0.0, -0.35]]), 1.0, [[-4.0, 4.0], [-6.0, 5.0]], 40),
        (SystemSpec.lds([[0.5, 0.1], [0.0, 0.5]]), 0.0, (-4.0, 4.0), 40),
        (SystemSpec.lds([[0.5, 0.1], [0.0, 0.5]]), 1.0, [[-4.0, 4.0], [-6.0, 5.0]], 40),
        # about 5 times the collinear tolerance off rank one
        (SystemSpec.lds([[0.6, 0.3], [0.2, 0.1 + 1e-12]]), 1.0, (-4.0, 4.0), 40),
        # |x| + |y| <= 0.9: the hull's edges hold rows of grid points, whose
        # projections on the diagonal directions tie to rounding
        (_box_switched_system(((1, 1), (1, -1), (-1, 1), (-1, -1)), 0.9), 1.0, (-6.0, 6.0), 40),
    ],
    ids=["lds-1d", "lds-2d", "slds-box", "slds-box-r3", "zero", "rank-one",
         "rank-one-r80", "rank-one-oblique", "rank-one-per-axis", "radius-0",
         "per-axis-box", "nearly-collinear", "rotated-box"],
)
def test_minorization_hull_band_is_bit_identical(spec, radius, truncation, resolution):
    est = minorization_beta(spec, radius, truncation, resolution=resolution)
    assert est.mass == _brute_force_mass(spec, radius, truncation, resolution)


def test_minorization_memory_scales_with_the_hull_band():
    # the whole-grid quadrature holds a (chunk, grid points, 2) difference
    # array of 2**23 floats, 64 MiB, twice; the hull band is ~4% of the grid
    spec = _box_switched_system()
    tracemalloc.start()
    try:
        minorization_beta(spec, 1.0, (-6.0, 6.0), resolution=80)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_hull_band_of_collinear_points_keeps_the_two_ends():
    # a rank-one map sends the disc onto a segment; only the points near
    # the segment's ends can be farthest
    axis = np.linspace(-1.0, 1.0, 80)
    xs = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    xs = xs[np.linalg.norm(xs, axis=1) <= 1.0]
    box = np.array([[-6.0, 6.0], [-6.0, 6.0]])
    mus = _apply_matrices(SystemSpec.lds([[0.6, 0.3], [0.2, 0.1]]), xs)
    kept = lyapunov._hull_band(mus, box)
    assert len(kept) < 20
    along = mus @ np.array([3.0, 1.0])
    for end in (along.argmin(), along.argmax()):
        assert (kept == mus[end]).all(axis=1).any()
    # just off rank one the points spread about 1e-12 off their line, above
    # the collinear tolerance: the polygon is as thin, so every point is kept
    thin = _apply_matrices(SystemSpec.lds([[0.6, 0.3], [0.2, 0.1 + 1e-12]]), xs)
    assert len(lyapunov._hull_band(thin, box)) == len(thin)
    # a full-rank map keeps a thin band along the hull
    full_rank = _apply_matrices(SystemSpec.lds([[0.5, 0.1], [-0.1, 0.5]]), xs)
    assert len(lyapunov._hull_band(full_rank, box)) < 0.05 * len(full_rank)
