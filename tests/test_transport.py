"""Tests for transport certificates and closed-form bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentrix.transport import (
    ConcentrationCertificate,
    NotContractiveError,
    bias_term,
    bobkov_goetze_gap,
    correlation_bound,
    gaussian_w2,
    iid_deviation_bound,
    lds_certificate,
    tensorized_constant,
    trajectory_deviation_bound,
)
from concentrix.transport import _check_psd


# ---------------------------------------------------------------- certificates


def test_lds_certificate_scalar_half():
    t1, contraction = lds_certificate([[0.5]])
    assert t1.constant == 1.0
    assert contraction.rate == pytest.approx(0.5, abs=1e-12)


def test_lds_certificate_zero_matrix():
    t1, contraction = lds_certificate(np.zeros((3, 3)))
    assert t1.constant == 1.0
    assert contraction.rate == 0.0


def test_lds_certificate_rejects_unit_norm():
    with pytest.raises(NotContractiveError):
        lds_certificate([[1.0]])


# ---------------------------------------------------------------- gaussian W2


def test_gaussian_w2_equal_covariance_mean_shift():
    assert gaussian_w2([0, 0], np.eye(2), [3, 4], np.eye(2)) == pytest.approx(5.0)


def test_gaussian_w2_identical_arguments():
    cov = [[2.0, 0.3], [0.3, 1.0]]
    assert gaussian_w2([1, 2], cov, [1, 2], cov) == 0.0


def test_gaussian_w2_1d_scale_difference():
    # equal means: distance is the difference of standard deviations
    assert gaussian_w2([0.0], [[4.0]], [0.0], [[1.0]]) == pytest.approx(1.0)


def test_gaussian_w2_rejects_non_psd():
    with pytest.raises(ValueError):
        gaussian_w2([0, 0], [[1.0, 0.0], [0.0, -0.5]], [0, 0], np.eye(2))


def random_psd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.05 * np.eye(n)


def test_gaussian_w2_metric_properties_on_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = rng.integers(1, 4)
        means = [rng.normal(size=n) for _ in range(3)]
        covs = [random_psd(rng, n) for _ in range(3)]
        d01 = gaussian_w2(means[0], covs[0], means[1], covs[1])
        d10 = gaussian_w2(means[1], covs[1], means[0], covs[0])
        assert d01 == d10  # exact by canonical argument ordering
        d02 = gaussian_w2(means[0], covs[0], means[2], covs[2])
        d12 = gaussian_w2(means[1], covs[1], means[2], covs[2])
        assert d02 <= d01 + d12 + 1e-9


def test_gaussian_w2_equal_covariances_reduce_to_mean_distance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(1, 5)
        cov = random_psd(rng, n)
        m1, m2 = rng.normal(size=n), rng.normal(size=n)
        assert gaussian_w2(m1, cov, m2, cov) == pytest.approx(
            float(np.linalg.norm(m1 - m2)), abs=1e-9
        )


# ---------------------------------------------------------------- tensorization


@pytest.mark.parametrize(
    "constant,rate,n,expected",
    [(1.0, 0.5, 100, 400.0), (1.0, 0.0, 1, 1.0), (2.0, 0.9, 10, 2000.0)],
)
def test_tensorized_constant_values(constant, rate, n, expected):
    assert tensorized_constant(constant, rate, n) == pytest.approx(expected)


@given(
    constant=st.floats(0.01, 100),
    rate=st.floats(0.0, 0.99),
    n=st.integers(1, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_tensorized_constant_linear_in_n_monotone_in_rate(constant, rate, n):
    base = tensorized_constant(constant, rate, n)
    assert tensorized_constant(constant, rate, 2 * n) == pytest.approx(2 * base)
    bumped = min(rate + 0.01, 0.995)
    assert tensorized_constant(constant, bumped, n) >= base


def test_tensorized_constant_rejects_unit_rate():
    with pytest.raises(ValueError):
        tensorized_constant(1.0, 1.0, 10)


# ---------------------------------------------------------------- tail bounds


def test_trajectory_bound_reference_value():
    cert = ConcentrationCertificate(constant=1.0, rate=0.5, n_samples=100, lipschitz=1.0)
    assert trajectory_deviation_bound(cert, 0.5) == pytest.approx(2 * math.exp(-3.125))


def test_trajectory_bound_limits():
    cert = ConcentrationCertificate(constant=1.0, rate=0.5, n_samples=100, lipschitz=1.0)
    assert trajectory_deviation_bound(cert, 100.0) < 1e-300
    assert trajectory_deviation_bound(cert, 1e-9) == pytest.approx(2.0)


def test_trajectory_bound_iid_special_case():
    cert = ConcentrationCertificate(constant=1.0, rate=0.0, n_samples=1, lipschitz=1.0)
    assert trajectory_deviation_bound(cert, 2.0) == pytest.approx(2 * math.exp(-2.0))


@given(
    constant=st.floats(0.01, 50),
    lipschitz=st.floats(0.01, 10),
    n=st.integers(1, 1000),
    epsilon=st.floats(1e-3, 10),
)
@settings(max_examples=200, deadline=None)
def test_rate_zero_trajectory_bound_equals_iid_bound(constant, lipschitz, n, epsilon):
    cert = ConcentrationCertificate(
        constant=constant, rate=0.0, n_samples=n, lipschitz=lipschitz
    )
    assert trajectory_deviation_bound(cert, epsilon) == iid_deviation_bound(
        constant, lipschitz, n, epsilon
    )


@pytest.mark.parametrize(
    "w1,n,rate,expected", [(2.0, 100, 0.5, 0.04), (0.0, 7, 0.3, 0.0), (1.0, 1, 0.0, 1.0)]
)
def test_bias_term_values(w1, n, rate, expected):
    assert bias_term(w1, n, rate) == pytest.approx(expected)


@pytest.mark.parametrize(
    "args,expected",
    [
        ((1.0, 1.0, 1, 2.0), 2 * math.exp(-2.0)),
        ((2.0, 1.0, 50, 0.5), 2 * math.exp(-3.125)),
    ],
)
def test_iid_bound_values(args, expected):
    assert iid_deviation_bound(*args) == pytest.approx(expected)


def test_iid_bound_small_epsilon_approaches_two():
    assert iid_deviation_bound(1.0, 1.0, 10, 1e-9) == pytest.approx(2.0)


# ---------------------------------------------------------------- correlation


@pytest.mark.parametrize(
    "args,expected",
    [
        ((1.0, 0.5, 1.0, 2), 1.0 / 3.0),
        ((3.0, 0.0, 2.0, 5), 0.0),
        ((1.0, 0.5, 1.0, 0), 4.0 / 3.0),
    ],
)
def test_correlation_bound_values(args, expected):
    assert correlation_bound(*args) == pytest.approx(expected)


def test_correlation_bound_summable():
    constant, rate, lipschitz = 1.0, 0.5, 1.0
    partial = sum(correlation_bound(constant, rate, lipschitz, k) for k in range(200))
    closed = constant * lipschitz**2 / ((1 - rate**2) * (1 - rate))
    assert partial == pytest.approx(closed, rel=1e-12)


# ---------------------------------------------------------------- dual gap


def test_gap_gaussian_samples_small():
    rng = np.random.default_rng(4)
    report = bobkov_goetze_gap(rng.standard_normal(1_000_000), 1.0, 1.0)
    assert report.gap <= 1e-2
    assert report.overflow_count == 0
    assert report.tilts.max() == pytest.approx(1.0)


def test_gap_constant_samples_nonpositive():
    report = bobkov_goetze_gap(np.full(1000, 3.7), constant=0.5, lipschitz=2.0)
    assert report.gap <= 0.0


def test_gap_rademacher_nonpositive():
    # cosh(t) <= exp(t^2/2), with ~0.066 analytic headroom at |t| = 1
    rng = np.random.default_rng(5)
    signs = rng.choice([-1.0, 1.0], size=1_000_000)
    report = bobkov_goetze_gap(signs, constant=1.0, lipschitz=1.0)
    assert report.gap <= 0.0


def test_gap_rejects_empty():
    with pytest.raises(ValueError):
        bobkov_goetze_gap([], 1.0, 1.0)


def test_psd_check_rejects_non_finite_eigenvalues():
    # NaN compares False with the negative-eigenvalue threshold
    for eigenvalues in ([math.nan], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="non-finite"):
            _check_psd(np.array(eigenvalues))
