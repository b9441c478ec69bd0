"""Transport-entropy certificates and closed-form concentration bounds.

A measure satisfies a transport-entropy inequality with constant ``C`` when
the order-1 Wasserstein distance to any other measure is bounded by
``sqrt(2 C Ent)``.  The dual statement caps the moment generating function
of centered Lipschitz observables at ``exp(t^2 C L^2 / 2)``; the empirical
check lives in :func:`bobkov_goetze_gap`.  Per-kernel constants lift to a
whole sampled path through :func:`tensorized_constant` when the transition
kernel is a Wasserstein contraction, which is what turns a one-step
certificate into tail bounds for time averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .dynamics import SystemSpec, spectral_norm

__all__ = [
    "NotContractiveError",
    "T1Certificate",
    "ContractionCertificate",
    "ConcentrationCertificate",
    "GapReport",
    "lds_certificate",
    "gaussian_w2",
    "tensorized_constant",
    "trajectory_deviation_bound",
    "bias_term",
    "iid_deviation_bound",
    "correlation_bound",
    "bobkov_goetze_gap",
]


class NotContractiveError(ValueError):
    """The system matrix is not a strict contraction in the 2-norm."""


@dataclass(frozen=True)
class T1Certificate:
    """Transport-entropy constant for one measure or kernel, in euclidean W1.

    Attributes
    ----------
    constant : float
        The transport constant; must be positive.
    """

    constant: float

    def __post_init__(self):
        if not self.constant > 0:
            raise ValueError("transport constant must be positive")

    def to_dict(self) -> dict:
        return {
            "kind": "transport_entropy",
            "constant": self.constant,
            "metric": "euclidean",
        }


@dataclass(frozen=True)
class ContractionCertificate:
    """One-step Wasserstein contraction factor of a Markov kernel."""

    rate: float

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise ValueError("contraction rate must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {"kind": "wasserstein_contraction", "rate": self.rate}


@dataclass(frozen=True)
class ConcentrationCertificate:
    """Everything needed to bound tail probabilities of a time average.

    Bundles the per-step transport constant, the contraction rate, the
    number of averaged samples, the Lipschitz constant of the observable,
    and the start-point bias shift.  The tail bound
    :func:`trajectory_deviation_bound` computes from it is monotone
    decreasing in epsilon and in the sample count.
    """

    constant: float
    rate: float
    n_samples: int
    lipschitz: float
    bias: float = 0.0

    def __post_init__(self):
        if not self.constant > 0:
            raise ValueError("transport constant must be positive")
        if not (0.0 <= self.rate < 1.0):
            raise ValueError("contraction rate must lie in [0, 1)")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if not self.lipschitz > 0:
            raise ValueError("Lipschitz constant must be positive")
        if self.bias < 0:
            raise ValueError("bias must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "kind": "trajectory_subgaussian",
            "constant": self.constant,
            "rate": self.rate,
            "n_samples": self.n_samples,
            "lipschitz": self.lipschitz,
            "bias": self.bias,
        }


def lds_certificate(a) -> tuple[T1Certificate, ContractionCertificate]:
    """Per-step certificates of a linear system with standard-normal noise.

    The Gaussian transition kernel has unit transport constant regardless
    of the matrix, and contracts Wasserstein distances by the matrix
    2-norm, which therefore must be strictly below 1.

    Parameters
    ----------
    a : array_like or SystemSpec
        Square system matrix, or a linear SystemSpec.

    Raises
    ------
    NotContractiveError
        If the matrix 2-norm is >= 1.
    """
    if isinstance(a, SystemSpec):
        if a.kind != "lds":
            raise ValueError("lds_certificate expects a linear system")
        a = a.matrices[0]
    rate = spectral_norm(a)
    if rate >= 1.0:
        raise NotContractiveError(
            f"matrix 2-norm {rate:.6g} is not strictly below 1"
        )
    return T1Certificate(constant=1.0), ContractionCertificate(rate=rate)


def _check_psd(eigenvalues: np.ndarray, tol: float = 1e-9) -> None:
    """Reject a symmetric matrix whose eigenvalues dip below ``-tol`` (relative)."""
    low = eigenvalues.min()
    if low < -tol * max(1.0, abs(eigenvalues.max())):
        raise ValueError(f"matrix is not positive semidefinite (min eig {low:.3g})")


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    _check_psd(w)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def gaussian_w2(mean1, cov1, mean2, cov2) -> float:
    r"""Order-2 Wasserstein distance between two Gaussians, closed form.

    .. math::
        W_2^2 = \|m_1 - m_2\|^2
              + \mathrm{tr}\bigl(\Sigma_1 + \Sigma_2
              - 2(\Sigma_1^{1/2}\Sigma_2\Sigma_1^{1/2})^{1/2}\bigr)

    Covariances must be symmetric positive semidefinite (eigenvalues above
    ``-1e-9``); square roots use symmetric eigendecompositions with
    eigenvalues clamped at zero, and the inner product is symmetrized
    before decomposition to suppress asymmetry drift.
    """
    m1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    m2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    c1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    c2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    # canonical argument order makes the result exactly symmetric
    if (m2.tobytes(), c2.tobytes()) < (m1.tobytes(), c1.tobytes()):
        m1, m2, c1, c2 = m2, m1, c2, c1
    if np.array_equal(m1, m2) and np.array_equal(c1, c2):
        _psd_sqrt(c1)  # still validate
        return 0.0
    root1 = _psd_sqrt(c1)
    _psd_sqrt(c2)  # validates PSD
    inner = _psd_sqrt(root1 @ c2 @ root1)
    sq = float(np.sum((m1 - m2) ** 2) + np.trace(c1) + np.trace(c2) - 2.0 * np.trace(inner))
    return math.sqrt(max(sq, 0.0))


def tensorized_constant(constant: float, rate: float, n_samples: int) -> float:
    """Transport constant of the joint law of ``n_samples`` chained samples.

    A per-step constant ``C`` and contraction rate below 1 lift to
    ``C * n / (1 - rate)**2`` for the whole path under the additive path
    metric.
    """
    if not constant > 0:
        raise ValueError("transport constant must be positive")
    if not (0.0 <= rate < 1.0):
        raise ValueError("contraction rate must lie in [0, 1)")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return constant * n_samples / (1.0 - rate) ** 2


def trajectory_deviation_bound(cert: ConcentrationCertificate, epsilon: float) -> float:
    """Tail bound for a time average deviating by more than bias + epsilon.

    Evaluates ``2 exp(-N eps^2 (1-rate)^2 / (2 C L^2))``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    expo = (
        cert.n_samples
        * epsilon**2
        * (1.0 - cert.rate) ** 2
        / (2.0 * cert.constant * cert.lipschitz**2)
    )
    return 2.0 * math.exp(-expo)


def bias_term(w1_to_stationary: float, n_samples: int, rate: float) -> float:
    """Start-point shift of the deviation threshold: ``W1 / (N (1-rate))``.

    This is the shift for a 1-Lipschitz reward; an ``L``-Lipschitz reward
    shifts ``L`` times as far.
    """
    if w1_to_stationary < 0:
        raise ValueError("distance must be nonnegative")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not rate < 1.0:
        raise ValueError("contraction rate must lie below 1")
    return w1_to_stationary / (n_samples * (1.0 - rate))


def iid_deviation_bound(constant: float, lipschitz: float, n_samples: int, epsilon: float) -> float:
    """Tail bound for the average of independent stationary samples.

    Evaluates ``2 exp(-N eps^2 / (2 C L^2))``; coincides with
    :func:`trajectory_deviation_bound` at rate zero.
    """
    if constant <= 0 or lipschitz <= 0 or n_samples < 1 or epsilon <= 0:
        raise ValueError("all arguments must be positive")
    return 2.0 * math.exp(-n_samples * epsilon**2 / (2.0 * constant * lipschitz**2))


def correlation_bound(constant: float, rate: float, lipschitz: float, lag: int) -> float:
    """Stationary autocovariance envelope ``rate^k C L^2 / (1 - rate^2)``."""
    if not (0.0 <= rate < 1.0):
        raise ValueError("contraction rate must lie in [0, 1)")
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    if constant <= 0 or lipschitz <= 0:
        raise ValueError("constant and lipschitz must be positive")
    return rate**lag * constant * lipschitz**2 / (1.0 - rate**2)


@dataclass(frozen=True)
class GapReport:
    """Result of the dual moment-generating-function check.

    ``gap`` is the maximum over the tilt grid of
    ``log(mean exp(t (f - mean f))) - t^2 C L^2 / 2``; a value at or below
    zero (within sampling error) is consistent with the claimed transport
    constant.  Per-tilt values are kept so individual overflow points are
    visible.
    """

    gap: float
    tilts: np.ndarray
    per_tilt: np.ndarray
    overflow_count: int

    def to_dict(self) -> dict:
        return {
            "kind": "mgf_dual_gap",
            "gap": self.gap,
            "tilts": self.tilts.tolist(),
            "per_tilt": self.per_tilt.tolist(),
            "overflow_count": self.overflow_count,
        }


def bobkov_goetze_gap(samples, constant: float, lipschitz: float, tilts=None) -> GapReport:
    """Empirical dual check of a transport-entropy constant.

    For samples of a 1-Lipschitz image of the candidate measure, the
    centered empirical log moment generating function must stay below
    ``t^2 C L^2 / 2`` for every tilt ``t``.  The default grid is 41 points
    on [-1, 1] scaled by ``1/(sqrt(C) L)``, where the inequality is
    tightest without overflowing the empirical mean.

    Parameters
    ----------
    samples : array_like
        Observable values under the candidate measure.
    constant, lipschitz : float
        Claimed transport constant and observable Lipschitz bound.
    tilts : array_like, optional
        Tilt grid override.

    Returns
    -------
    GapReport
        Maximum gap over the grid plus per-tilt detail.
    """
    vals = np.asarray(samples, dtype=float).reshape(-1)
    if vals.size == 0:
        raise ValueError("samples must be nonempty")
    if constant <= 0 or lipschitz <= 0:
        raise ValueError("constant and lipschitz must be positive")
    if tilts is None:
        tilts = np.linspace(-1.0, 1.0, 41) / (math.sqrt(constant) * lipschitz)
    tilts = np.asarray(tilts, dtype=float)
    centered = vals - vals.mean()
    per_tilt = np.empty_like(tilts)
    for i, t in enumerate(tilts):
        log_mgf = logsumexp(t * centered) - math.log(vals.size)
        per_tilt[i] = log_mgf - 0.5 * t * t * constant * lipschitz**2
    overflow = int(np.sum(~np.isfinite(per_tilt)))
    gap = float(np.max(per_tilt))
    return GapReport(gap=gap, tilts=tilts, per_tilt=per_tilt, overflow_count=overflow)
