"""Certificate pipeline for geometrically mixing switched linear systems.

The chain runs: an exponential moment condition on the transition kernel
(``int exp(alpha ||y||^2) P(x, dy) <= scale * exp(beta ||x||^2)`` with
``beta < alpha``), from it a one-step drift pair for the weight function
``W(x) = exp(alpha ||x||^2)``, and from the drift pair a transport-entropy
constant for the stationary law plus n-step moment bounds.  Alongside the
exponential route live the classical ingredients of Harris-style mixing:
geometric drift for ``V(x) = ||x||`` and a quadrature lower bound for the
minorization mass on a small set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    HypothesisError,
    SystemSpec,
    _apply_matrices,
    _row_norms,
    _write_csv,
    check_slds_hypothesis,
    derive_seed,
)

__all__ = [
    "DivergentMGFError",
    "InvalidAlphaError",
    "UnsupportedDimensionError",
    "ExpLyapunovCertificate",
    "DriftPair",
    "GeometricDriftCertificate",
    "MinorizationEstimate",
    "DriftPoint",
    "DriftCheckReport",
    "stein_mgf",
    "slds_exp_lyapunov",
    "drift_from_exp_lyapunov",
    "te_constant",
    "n_step_w_bound",
    "n_step_te_coefficient",
    "slds_geometric_drift",
    "empirical_drift_check",
    "minorization_beta",
]


class DivergentMGFError(ValueError):
    """The Gaussian exponential moment does not exist at this exponent."""


class InvalidAlphaError(ValueError):
    """Exponent outside the admissible range for the given contraction."""


class UnsupportedDimensionError(ValueError):
    """Quadrature-based estimation is limited to dimensions 1 and 2."""


@dataclass(frozen=True)
class ExpLyapunovCertificate:
    """Exponential moment certificate of a Markov kernel.

    Asserts ``int exp(alpha ||y||^2) P(x, dy) <= scale * exp(beta ||x||^2)``
    for every state ``x``, with ``beta`` strictly below ``alpha``.
    """

    alpha: float
    beta: float
    scale: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not (0.0 <= self.beta < self.alpha):
            raise ValueError("beta must satisfy 0 <= beta < alpha")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def to_dict(self) -> dict:
        return {
            "kind": "exponential_moment",
            "alpha": self.alpha,
            "beta": self.beta,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class DriftPair:
    """One-step drift of the weight ``W(x) = exp(alpha ||x||^2)``.

    Guarantees ``PW <= contraction * W + offset`` pointwise, which caps the
    stationary exponential moment at ``offset / (1 - contraction)``.
    """

    contraction: float
    offset: float
    alpha: float
    split_radius_sq: float | None = None  # where the two-regime bound switches

    def __post_init__(self):
        if not (0.0 < self.contraction < 1.0):
            raise ValueError("contraction must lie in (0, 1)")
        if not self.offset > 0:
            raise ValueError("offset must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @property
    def moment_bound(self) -> float:
        return self.offset / (1.0 - self.contraction)

    def to_dict(self) -> dict:
        return {
            "kind": "weight_drift",
            "contraction": self.contraction,
            "offset": self.offset,
            "alpha": self.alpha,
            "split_radius_sq": self.split_radius_sq,
            "moment_bound": self.moment_bound,
        }


@dataclass(frozen=True)
class GeometricDriftCertificate:
    """Foster-Lyapunov drift ``PV <= contraction * V + offset`` for V = ||.||."""

    contraction: float
    offset: float

    def __post_init__(self):
        if not (0.0 <= self.contraction < 1.0):
            raise ValueError("contraction must lie in [0, 1)")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "kind": "geometric_drift",
            "contraction": self.contraction,
            "offset": self.offset,
            "lyapunov": "euclidean_norm",
        }


@dataclass(frozen=True)
class MinorizationEstimate:
    """Quadrature lower bound for the common overlap mass on a small set.

    ``mass`` underestimates the true minorization constant through domain
    truncation; the minimum over starting states is taken on a finite grid
    of the small set, so the estimate is resolution-limited and should be
    read together with the grid-convergence check.
    """

    mass: float
    radius: float
    truncation: tuple
    resolution: int

    def to_dict(self) -> dict:
        return {
            "kind": "minorization_mass",
            "mass": self.mass,
            "radius": self.radius,
            "truncation": [list(b) for b in self.truncation],
            "resolution": self.resolution,
        }


def stein_mgf(a, x, alpha: float) -> float:
    """Exact Gaussian exponential moment ``int exp(alpha ||y||^2) N(Ax, I)(dy)``.

    Closed form ``(1 - 2 alpha)^(-n/2) * exp(alpha ||Ax||^2 / (1 - 2 alpha))``,
    valid for ``0 < alpha < 1/2``.

    Raises
    ------
    DivergentMGFError
        If ``alpha >= 1/2`` (the integral diverges).
    """
    if alpha >= 0.5:
        raise DivergentMGFError("exponential moment diverges for alpha >= 1/2")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a = np.asarray(a, dtype=float)
    xv = np.asarray(x, dtype=float).reshape(-1)
    mean = a @ xv
    n = xv.size
    msq = float(mean @ mean)
    return (1.0 - 2.0 * alpha) ** (-n / 2.0) * math.exp(alpha * msq / (1.0 - 2.0 * alpha))


def slds_exp_lyapunov(
    spec: SystemSpec,
    radius: float,
    contraction: float,
    lipschitz: float,
    alpha: float,
) -> ExpLyapunovCertificate:
    """Exponential moment certificate for a switched system.

    Requires the geometric-mixing hypothesis (every region contractive with
    matrix norm <= ``contraction`` < 1, or contained in the ``radius`` ball
    with matrix norm <= ``lipschitz``) and an exponent in the admissible
    range ``(0, (1 - contraction^2)/2)``.  Then

    * ``beta = contraction^2 * alpha / (1 - 2 alpha)``
    * ``scale = (1 - 2 alpha)^(-n/2) * exp(lipschitz^2 radius^2 alpha / (1 - 2 alpha))``

    and ``beta < alpha`` holds automatically.
    """
    report = check_slds_hypothesis(spec, radius, contraction, lipschitz)
    if not report.passed:
        bad = report.violations[0]
        raise HypothesisError(f"region {bad.region}: {bad.reason}")
    limit = (1.0 - contraction**2) / 2.0
    if not (0.0 < alpha < limit):
        raise InvalidAlphaError(
            f"alpha must lie in (0, {limit:.6g}) for contraction {contraction:g}"
        )
    n = spec.dim
    beta = contraction**2 * alpha / (1.0 - 2.0 * alpha)
    scale = (1.0 - 2.0 * alpha) ** (-n / 2.0) * math.exp(
        lipschitz**2 * radius**2 * alpha / (1.0 - 2.0 * alpha)
    )
    return ExpLyapunovCertificate(alpha=alpha, beta=beta, scale=scale)


def drift_from_exp_lyapunov(cert: ExpLyapunovCertificate) -> DriftPair:
    """Turn an exponential moment certificate into a one-step drift pair.

    For ``scale <= 1/2`` the pair ``(scale, scale)`` works directly.
    Otherwise split the state space at ``||x||^2 = ln(2 scale)/(alpha-beta)``:
    inside, the moment is at most the offset ``scale * exp(beta R^2)``;
    outside, ``scale * exp(beta ||x||^2) <= W(x)/2``.  The contraction
    one half balances offset growth against n-step convergence speed.
    """
    if cert.scale <= 0.5:
        return DriftPair(contraction=cert.scale, offset=cert.scale, alpha=cert.alpha)
    r_sq = math.log(2.0 * cert.scale) / (cert.alpha - cert.beta)
    offset = cert.scale * math.exp(cert.beta * r_sq)
    return DriftPair(
        contraction=0.5, offset=offset, alpha=cert.alpha, split_radius_sq=r_sq
    )


def te_constant(drift: DriftPair) -> float:
    """Transport-entropy constant of the stationary law from a drift pair.

    ``(1 + ln(moment)) / alpha`` with ``moment = offset/(1 - contraction)``
    floored at 1 (an exponential moment of a probability measure is never
    below 1).
    """
    moment = max(drift.moment_bound, 1.0)
    return (1.0 + math.log(moment)) / drift.alpha


def n_step_w_bound(drift: DriftPair, w_start: float, steps: int) -> float:
    """Bound on the expected weight after ``steps`` transitions.

    ``contraction^n * w_start + offset * (1 - contraction^n)/(1 - contraction)``;
    monotone towards the stationary moment bound from either side.
    """
    if w_start < 1.0:
        raise ValueError("the weight function is bounded below by 1")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    decay = drift.contraction**steps
    return decay * w_start + drift.offset * (1.0 - decay) / (1.0 - drift.contraction)


def n_step_te_coefficient(drift: DriftPair, w_start: float, steps: int) -> float:
    """Deviation coefficient ``sqrt(2 (1 + ln moment_n) / alpha)`` after n steps.

    ``moment_n`` is the n-step weight bound floored at 1.  Multiplied by the
    square root of a relative entropy this caps the Wasserstein distance
    from the n-step law.
    """
    moment = max(n_step_w_bound(drift, w_start, steps), 1.0)
    return math.sqrt(2.0 * (1.0 + math.log(moment)) / drift.alpha)


def slds_geometric_drift(
    spec: SystemSpec, radius: float, contraction: float, lipschitz: float
) -> GeometricDriftCertificate:
    """Foster-Lyapunov drift for ``V(x) = ||x||`` on a switched system.

    Under the geometric-mixing hypothesis, Jensen's inequality gives
    ``PV <= contraction * V + K`` with ``K = sqrt(n + lipschitz^2 radius^2)``.
    """
    report = check_slds_hypothesis(spec, radius, contraction, lipschitz)
    if not report.passed:
        bad = report.violations[0]
        raise HypothesisError(f"region {bad.region}: {bad.reason}")
    offset = math.sqrt(spec.dim + lipschitz**2 * radius**2)
    return GeometricDriftCertificate(contraction=contraction, offset=offset)


@dataclass(frozen=True)
class DriftPoint:
    x: tuple
    v: float
    estimate: float
    stderr: float


@dataclass(frozen=True)
class DriftCheckReport:
    """Monte Carlo one-step drift estimates with an optional linear fit."""

    points: tuple[DriftPoint, ...]
    slope: float | None
    intercept: float | None
    certificate_violations: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "kind": "empirical_drift",
            "points": [
                {"x": list(p.x), "v": p.v, "estimate": p.estimate, "stderr": p.stderr}
                for p in self.points
            ],
            "slope": self.slope,
            "intercept": self.intercept,
            "certificate_violations": (
                list(self.certificate_violations)
                if self.certificate_violations is not None
                else None
            ),
        }

    def to_csv(self, path) -> None:
        """Per-point rows: lyapunov, estimate, stderr."""
        _write_csv(
            path,
            ["lyapunov", "estimate", "stderr"],
            ([repr(p.v), repr(p.estimate), repr(p.stderr)] for p in self.points),
        )


def empirical_drift_check(
    spec: SystemSpec,
    x_grid,
    samples_per_point: int,
    seed: int,
    certificate: GeometricDriftCertificate | None = None,
) -> DriftCheckReport:
    """Estimate the one-step drift of ``V(x) = ||x||`` on a grid of states.

    For each grid point the expected norm after one transition is estimated
    from ``samples_per_point`` draws, then an ordinary least-squares line of
    the estimates against ``V`` yields a fitted (contraction, offset) pair.
    Heteroscedasticity across grid points is ignored.  A single-point grid
    skips the fit.  When a certificate is supplied, points whose estimate
    exceeds its drift line by more than three standard errors are flagged.
    """
    if samples_per_point < 1000:
        raise ValueError("need at least 1000 samples per grid point")
    points = []
    for i, x in enumerate(np.atleast_2d(np.asarray(x_grid, dtype=float))):
        gen = np.random.Generator(np.random.PCG64(derive_seed(seed, i)))
        mean = spec.matrix_for(x) @ x
        draws = mean + gen.standard_normal((samples_per_point, spec.dim))
        norms = _row_norms(draws)
        points.append(
            DriftPoint(
                x=tuple(float(v) for v in x),
                v=float(np.linalg.norm(x)),
                estimate=float(norms.mean()),
                stderr=float(norms.std(ddof=1) / math.sqrt(samples_per_point)),
            )
        )
    slope = intercept = None
    if len(points) > 1:
        vs = np.array([p.v for p in points])
        if np.ptp(vs) > 0:
            est = np.array([p.estimate for p in points])
            slope_f, intercept_f = np.polyfit(vs, est, 1)
            slope, intercept = float(slope_f), float(intercept_f)
    violations = None
    if certificate is not None:
        violations = tuple(
            i
            for i, p in enumerate(points)
            if p.estimate - 3.0 * p.stderr
            > certificate.contraction * p.v + certificate.offset
        )
    return DriftCheckReport(
        points=tuple(points),
        slope=slope,
        intercept=intercept,
        certificate_violations=violations,
    )


def _normalize_truncation(truncation, dim: int) -> tuple:
    box = np.asarray(truncation, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (dim, 1))
    if box.shape != (dim, 2) or not np.all(box[:, 0] < box[:, 1]):
        raise ValueError("truncation must be (lo, hi) or one (lo, hi) pair per axis")
    if not np.all(np.isfinite(box)):
        raise ValueError("truncation bounds must be finite")
    return tuple((float(lo), float(hi)) for lo, hi in box)


def _axis_centers(lo: float, hi: float, resolution: int) -> np.ndarray:
    h = (hi - lo) / resolution
    return lo + h * (np.arange(resolution) + 0.5)


# hull depth, relative to the largest coordinate in play (scale), below
# which a mapped start point is kept: its square, 1e-12 scale^2, is about a
# hundred times the rounding error of a 2-D squared distance (~1e-14
# scale^2), so a dropped point can never tie the maximum
_HULL_BAND = 1e-6
# directions whose extreme mapped points are the corners of the polygon
# that measures hull depth
_HULL_DIRECTIONS = 256
# floats in one temporary (directions, points) or (edges, points) block
_HULL_BLOCK = 2**18


def _hull_band(mus: np.ndarray, box: tuple) -> np.ndarray:
    """The mapped start points that can attain ``max ||y - mu||^2``.

    A point at depth at least ``delta`` inside a convex polygon whose
    corners are mapped points is a convex combination of corners that each
    lie at least ``delta`` from it, so its squared distance to any ``y`` is
    at most the corners' maximum minus ``delta^2``.  Dropping such points
    leaves every maximum unchanged to the last bit.  The polygon joins the
    extreme points in ``_HULL_DIRECTIONS`` evenly spaced directions, in
    counter-clockwise order; a point's depth is its least distance inside
    an edge, negative outside the polygon, and points between it and the
    hull are kept.  Points on one line (in one dimension, or in two when
    every point lies within ``delta^2 / (32 scale)`` of the line from the
    first point to the one farthest from it) are measured along the line,
    and the two end bands are kept.  That tolerance moves each squared
    distance by less than ``delta^2 / 4``.
    """
    scale = max(np.abs(mus).max(), np.abs(box).max())
    delta = _HULL_BAND * scale
    if mus.shape[1] == 1:
        return mus[_end_bands(mus[:, 0], delta)]
    offsets = mus - mus[0]
    reach = np.linalg.norm(offsets, axis=1)
    if reach.max() == 0.0:
        return mus
    unit = offsets[reach.argmax()] / reach.max()
    along = offsets @ unit
    off_line = np.linalg.norm(offsets - along[:, None] * unit, axis=1).max()
    if off_line <= delta * delta / (32.0 * scale):
        return mus[_end_bands(along, delta)]

    angles = np.arange(_HULL_DIRECTIONS) * (2.0 * math.pi / _HULL_DIRECTIONS)
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # a (directions, points) product reduced along its rows: argmax over
    # the points of a (points, directions) array is far slower
    step = max(1, _HULL_BLOCK // len(mus))
    extreme = np.concatenate([
        (directions[j : j + step] @ mus.T).argmax(axis=1)
        for j in range(0, len(directions), step)
    ])
    extreme = extreme[extreme != np.roll(extreme, 1)]  # one index per corner
    corners = mus[extreme]
    sides = np.roll(corners, -1, axis=0) - corners
    # outward edge normals: the corners run counter-clockwise
    normals = np.stack([sides[:, 1], -sides[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    limits = (normals * corners).sum(axis=1)
    keep = np.empty(len(mus), dtype=bool)
    step = max(1, _HULL_BLOCK // len(normals))
    for start in range(0, len(mus), step):
        heights = normals @ mus[start : start + step].T
        heights -= limits[:, None]  # minus each point's depth inside each edge
        keep[start : start + step] = heights.max(axis=0) > -delta
    return mus[keep]


def _end_bands(coords: np.ndarray, delta: float) -> np.ndarray:
    """Mask of the coordinates within ``delta`` of their minimum or maximum."""
    return (coords - coords.min() < delta) | (coords.max() - coords < delta)


def minorization_beta(
    spec: SystemSpec, radius: float, truncation, resolution: int = 200
) -> MinorizationEstimate:
    """Lower-bound the minorization mass of the kernel on a norm ball.

    Midpoint quadrature of ``min over x in the ball of the transition
    density at y`` over the truncation box; the minimum over start states
    runs on a tensor grid of the ball at the same per-axis resolution.
    Truncation makes this an underestimate of the true overlap; the grid
    minimum is resolution-limited, so convergence should be confirmed by
    re-running at doubled resolution.  Dimensions 1 and 2 only.

    The minimum density is the maximum of ``||y - A x||^2``, which is convex
    in the mapped point ``A x`` and so attained on the convex hull of the
    mapped grid.  Only the mapped points within a thin band of the hull
    boundary enter the quadrature; every interior point is strictly
    dominated by more than rounding, so the mass is bit-identical to the
    quadrature over the whole grid.  The band comes from a polygon of
    extreme mapped points in numpy (:func:`_hull_band`); the quadrature
    then costs one (nodes, band points) array operation per coordinate for
    each chunk of quadrature nodes, instead of quadrature nodes times the
    whole grid.

    Raises
    ------
    ValueError
        If the radius is negative or not finite, a truncation bound is not
        finite, ``resolution`` is not an integer of at least 2, or the start
        grid at this resolution has no point in the ball.
    """
    n = spec.dim
    if n > 2:
        raise UnsupportedDimensionError("quadrature supports dimensions 1 and 2 only")
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError("radius must be finite and nonnegative")
    if not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise ValueError("resolution must be an integer of at least 2")
    box = _normalize_truncation(truncation, n)

    # start-state grid on the small set {||x|| <= radius}
    if radius == 0.0:
        xs = np.zeros((1, n))
    else:
        axes = [np.linspace(-radius, radius, resolution) for _ in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        xs = np.stack([m.ravel() for m in mesh], axis=1)
        xs = xs[np.linalg.norm(xs, axis=1) <= radius]
        if len(xs) == 0:
            raise ValueError("no start grid point lies in the ball at this resolution")
    mus = _apply_matrices(spec, xs)

    centers = [_axis_centers(lo, hi, resolution) for lo, hi in box]
    mesh = np.meshgrid(*centers, indexing="ij")
    ys = np.stack([m.ravel() for m in mesh], axis=1)
    cell = float(np.prod([(hi - lo) / resolution for lo, hi in box]))

    log_norm = -0.5 * n * math.log(2.0 * math.pi)
    total = 0.0
    # chunks follow the whole grid, not the band, so the partial sums add
    # in the same order as the quadrature over every start point
    chunk = max(1, 2**22 // len(mus))
    mus = _hull_band(mus, box)
    for start in range(0, len(ys), chunk):
        block = ys[start : start + chunk]
        # squared distances summed by coordinate from left to right: the
        # adds of a sum over the last axis, without its per-pair loop
        d2 = np.subtract.outer(block[:, 0], mus[:, 0])
        d2 *= d2
        for j in range(1, n):
            diff = np.subtract.outer(block[:, j], mus[:, j])
            diff *= diff
            d2 += diff
        worst = d2.max(axis=1)
        total += float(np.exp(log_norm - 0.5 * worst).sum()) * cell
    return MinorizationEstimate(
        mass=min(total, 1.0),
        radius=radius,
        truncation=box,
        resolution=resolution,
    )
