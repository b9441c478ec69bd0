"""Monte Carlo verification of concentration certificates.

Every experiment here is deterministic given its master seed: its noise
streams are ``Generator(PCG64(seed))`` for seeds from a fixed avalanche
derivation, so a report's bytes depend only on the config and the seed.
Each batch of trajectories shares one stream, one block of draws per
trajectory.  Trajectory mode opens one stream per block of replications,
and a replication is one path of its block's stream.  An iid replication
steps all its endpoints from a stream of its own.  A burn-in sample (the
iid target, the contraction reference) takes one stream.  The contraction
fit's paths from its start and from its reference points share one
stream, which couples them synchronously.  Streams are derived by index,
so a run with fewer replications gets the first averages of a longer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._special import betaincinv, ellipe
from .dynamics import (
    SystemSpec,
    Trajectory,
    _check_vector,
    _endpoint_chunk,
    _row_norms,
    _write_csv,
    derive_seed,
    derive_seeds,
    simulate_batch,
    simulate_endpoints,
    spectral_norm,
    system_digest,
)
from .transport import (
    ConcentrationCertificate,
    NotContractiveError,
    _check_psd,
    _psd_sqrt,
    bias_term,
    correlation_bound,
    gaussian_w2,
    lds_certificate,
    trajectory_deviation_bound,
)

__all__ = [
    "NoSignalError",
    "PrecisionError",
    "WassersteinEstimate",
    "DeviationReport",
    "ContractionFit",
    "AutocovarianceReport",
    "MeanEstimate",
    "empirical_w1",
    "deviation_probability_experiment",
    "burn_in_sampler",
    "iid_deviation_experiment",
    "contraction_rate_fit",
    "empirical_autocovariance",
    "lds_stationary_covariance",
    "stationary_mean_reward",
    "clopper_pearson",
]


class NoSignalError(RuntimeError):
    """Too few coupled distances lie above the stationary distance to fit a rate."""


class PrecisionError(RuntimeError):
    """Requested precision is unreachable within the sample budget."""


# replications per trajectory-mode average() call: from _BLOCK up while
# m paths of T + 1 states fit the 2 MiB simulation budget, to a cap that
# bounds peak memory
_BLOCK = 256
_TRAJECTORY_BLOCK_MAX = 512

# derived-seed substream labels
_STREAM_REPLICATION = 1
_STREAM_TARGET = 4


def _code_version() -> str:
    return __version__


def _resolve_reward(reward):
    """Map a reward tag to (vectorized fn over (..., n) arrays, lipschitz, tag)."""
    if reward == "norm":
        return _row_norms, 1.0, "norm"
    if reward == "coordinate":
        return (lambda pts: pts[..., 0]), 1.0, "coordinate"
    if isinstance(reward, tuple) and len(reward) == 2 and callable(reward[0]):
        fn, lipschitz = reward
        if not lipschitz > 0:
            raise ValueError("custom reward needs a positive Lipschitz constant")
        return fn, float(lipschitz), "custom"
    raise ValueError(
        "reward must be 'norm', 'coordinate', or a (callable, lipschitz) pair"
    )


def clopper_pearson(successes: int, trials: int, level: float = 0.99):
    """Two-sided exact binomial confidence interval for a frequency.

    Each bound is a quantile of a beta law, taken from the inverse
    regularized incomplete beta function ``concentrix._special.betaincinv``,
    which agrees with ``scipy.special.betaincinv`` to a few ulps.
    ``level`` must lie strictly between 0 and 1.
    """
    if not (0 <= successes <= trials) or trials < 1:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level!r}")
    tail = (1.0 - level) / 2.0
    if successes == 0:
        low = 0.0
    else:
        low = betaincinv(successes, trials - successes + 1, tail)
    if successes == trials:
        high = 1.0
    else:
        high = betaincinv(successes + 1, trials - successes, 1.0 - tail)
    return low, high


@dataclass(frozen=True)
class WassersteinEstimate:
    """Empirical order-1 transport distance between equal-size batches."""

    value: float
    size: int
    solver: str  # "sorted_1d" | "assignment"


def _batch_points(batch) -> np.ndarray:
    pts = np.asarray(batch, dtype=float)
    if pts.ndim != 2:
        # a flat list is ambiguous: m points on a line or one m-vector
        raise ValueError(f"a batch must be an (m, n) array of points, got shape {pts.shape}")
    return pts


def empirical_w1(a, b) -> WassersteinEstimate:
    """Exact empirical euclidean W1 between two equal-size point sets.

    Batches are (m, n) arrays of finite points, m at most 1024.
    One-dimensional inputs take the sorted-matching fast path, which
    provably equals the optimal assignment.  Everything else solves the
    full assignment problem on the ``cdist`` matrix of distances, and the
    value is the mean of the matched distances.  From two dimensions it
    imports ``scipy.optimize`` and ``scipy.spatial``, so it needs scipy,
    which the ``test`` extra installs; no pipeline calls it.
    """
    pa, pb = _batch_points(a), _batch_points(b)
    if pa.shape[0] != pb.shape[0]:
        raise ValueError("batches must have equal sizes")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("batches must share a dimension")
    if pa.size == 0:
        raise ValueError("batches must be nonempty")
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise ValueError("batches must hold finite points")
    m = pa.shape[0]
    if m > 1024:
        raise ValueError("batch size exceeds the 1024 assignment cap; subsample first")
    if pa.shape[1] == 1:
        value = float(np.mean(np.abs(np.sort(pa[:, 0]) - np.sort(pb[:, 0]))))
        return WassersteinEstimate(value, m, "sorted_1d")
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(pa, pb)
    rows, cols = linear_sum_assignment(cost)
    return WassersteinEstimate(float(cost[rows, cols].mean()), m, "assignment")


def burn_in_sampler(
    spec: SystemSpec,
    count: int,
    burn_in: int,
    seed: int,
    x0=None,
) -> np.ndarray:
    """Final states of ``count`` independent trajectories of length ``burn_in``.

    Returns a float64 ``(count, dim)`` array.  Every trajectory draws from
    the one stream ``Generator(PCG64(seed))``, the j-th from its j-th block
    of ``burn_in * dim`` draws, so a smaller ``count`` gives the first
    endpoints of a larger one.  ``seed`` must lie in [0, 2**64).  ``x0``
    defaults to the origin.  Only endpoints are kept: work is cut into
    chunks whose noise fits the fixed budget of
    :func:`~concentrix.dynamics.simulate_endpoints`.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    start = np.zeros(spec.dim) if x0 is None else x0
    return simulate_endpoints(spec, start, burn_in, [seed], per_seed=count)


@dataclass(frozen=True)
class DeviationReport:
    """Tail-frequency verification result, one row per epsilon.

    A row passes when the 99% upper confidence bound of the empirical
    frequency stays below the theoretical bound, or when no exceedance was
    observed at all (a finite-sample experiment cannot resolve frequencies
    below roughly 1/replications, while the bound may be far smaller).
    """

    epsilons: tuple
    counts: tuple
    frequencies: tuple
    ci_low: tuple
    ci_high: tuple
    bounds: tuple
    passes: tuple
    replications: int
    n_samples: int
    target_mean: float
    target_provenance: str
    bias: float
    details: dict

    @property
    def all_pass(self) -> bool:
        return all(self.passes)

    def to_dict(self) -> dict:
        return {
            "kind": self.details.get("bound_kind", "deviation_report"),
            "epsilons": list(self.epsilons),
            "counts": list(self.counts),
            "frequencies": list(self.frequencies),
            "ci_low": list(self.ci_low),
            "ci_high": list(self.ci_high),
            "bounds": list(self.bounds),
            "passes": list(self.passes),
            "replications": self.replications,
            "n_samples": self.n_samples,
            "target_mean": self.target_mean,
            "target_provenance": self.target_provenance,
            "bias": self.bias,
            "all_pass": self.all_pass,
            "details": self.details,
        }

    def to_csv(self, path) -> None:
        """Per-epsilon rows: epsilon, empirical, ci_low, ci_high, bound, pass."""
        columns = (self.epsilons, self.frequencies, self.ci_low, self.ci_high, self.bounds)
        _write_csv(
            path,
            ["epsilon", "empirical", "ci_low", "ci_high", "bound", "pass"],
            (
                [repr(float(v)) for v in values] + ["true" if passed else "false"]
                for *values, passed in zip(*columns, self.passes)
            ),
        )


def _mean_stderr(values) -> tuple[float, float]:
    """Sample mean and its standard error (ddof=1)."""
    vals = np.asarray(values, dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def _check_experiment(
    n_samples, epsilons, replications, target_mean, target_provenance
) -> tuple:
    """Checks shared by both deviation experiments, run before any simulation."""
    grid = tuple(float(e) for e in epsilons)
    if not grid:
        raise ValueError("epsilon grid must be nonempty")
    if any(e <= 0 for e in grid):
        raise ValueError("epsilons must be positive")
    if replications < 100:
        raise ValueError("need at least 100 replications")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if target_mean is not None and not target_provenance:
        raise ValueError("a supplied target mean must state its provenance")
    return grid


def _check_monte_carlo_target(target_samples: int) -> None:
    """Checks for a Monte Carlo target, run only where one will be estimated."""
    if target_samples < 2:
        raise ValueError(
            "a Monte Carlo target needs target_samples >= 2 for its standard error"
        )


def _trajectory_block(n_samples: int, dim: int) -> int:
    """Replications per trajectory-mode block: as many paths as fit the budget.

    The budget is counted for paths of ``n_samples + 1`` states, as when
    paths held their start, and is kept so: a block's replications are the
    paths of one stream, so a change to the block size moves the bytes of
    trajectory-mode reports.  Long paths keep blocks of ``_BLOCK``; the cap
    bounds peak memory.
    """
    fits = _endpoint_chunk(n_samples + 1, dim)
    return min(max(_BLOCK, fits), _TRAJECTORY_BLOCK_MAX)


def _deviation_report(
    spec: SystemSpec,
    reward,
    average,
    block: int,
    cert: ConcentrationCertificate,
    epsilons: tuple,
    replications: int,
    seed: int,
    target_mean: float,
    target_provenance: str,
    details: dict,
) -> DeviationReport:
    """Run the replications of a deviation experiment and tabulate its tails.

    ``reward`` is a resolved (fn, lipschitz, tag) triple.  ``average(rep_stream,
    lo, hi)`` returns the averages of replications ``lo`` to ``hi - 1``, at
    most ``block`` of them and with ``lo`` a multiple of ``block``; each mode
    derives its own noise seeds from ``rep_stream = derive_seed(seed, 1)``.
    The experiment resolves its own target and records how in ``details``.
    Each epsilon counts deviations beyond ``cert.bias + epsilon``, bounded
    by the tail bound of ``cert``.
    """
    _, lipschitz, tag = reward
    target_mean = float(target_mean)
    details = {
        **details,
        "system_digest": system_digest(spec),
        "master_seed": int(seed),
        "code_version": _code_version(),
        "reward": tag,
        "lipschitz": lipschitz,
    }

    rep_stream = derive_seed(seed, _STREAM_REPLICATION)
    averages = np.concatenate(
        [
            average(rep_stream, lo, min(lo + block, replications))
            for lo in range(0, replications, block)
        ]
    )
    deviations = np.abs(averages - target_mean)
    counts = tuple(int(np.sum(deviations > cert.bias + eps)) for eps in epsilons)
    # equal counts share an interval: most rows of a run often count zero
    distinct = {k: clopper_pearson(k, replications) for k in set(counts)}
    intervals = [distinct[k] for k in counts]
    bounds = tuple(trajectory_deviation_bound(cert, eps) for eps in epsilons)
    return DeviationReport(
        epsilons=epsilons,
        counts=counts,
        frequencies=tuple(k / replications for k in counts),
        ci_low=tuple(low for low, _ in intervals),
        ci_high=tuple(high for _, high in intervals),
        bounds=bounds,
        passes=tuple(
            high <= bound or k == 0
            for k, (_, high), bound in zip(counts, intervals, bounds)
        ),
        replications=replications,
        n_samples=cert.n_samples,
        target_mean=target_mean,
        target_provenance=target_provenance,
        bias=cert.bias,
        details=details,
    )


def deviation_probability_experiment(
    spec: SystemSpec,
    reward,
    x0,
    n_samples: int,
    epsilons,
    replications: int,
    seed: int,
    target_mean: float | None = None,
    target_provenance: str | None = None,
    target_samples: int = 100_000,
) -> DeviationReport:
    """Tail-frequency experiment for time averages along one trajectory.

    Runs ``replications`` independent trajectories of ``n_samples`` steps
    from ``x0``, averages the reward over the sampled states (the start
    point is excluded), and counts deviations from the target mean beyond
    ``bias + epsilon``.  Bounds come from the per-step transport certificate
    of the linear system, whose stationary law is exactly N(0, S) with
    ``S = A S A^T + I``.  Replications run in blocks of B =
    :func:`_trajectory_block` paths, and replication r is path ``r % B`` of
    the stream of ``derive_seed(derive_seed(seed, 1), r // B)``.  The bias
    shift is ``L * W2 / (n_samples * (1 - rate))``, with ``W2`` the
    closed-form distance from the one-step law N(A x0, I) to N(0, S); it
    bounds W1, so the shift is a true upper bound on the start-point bias
    of an ``L``-Lipschitz reward.  An unsupplied
    target is the reward's mean under N(0, S) as :func:`stationary_mean_reward`
    finds it: a closed form (the coordinate reward, and the norm reward in one
    or two dimensions), else provenance ``monte_carlo_stationary``, the mean
    of ``target_samples`` draws of N(0, S).  Supplied targets must state
    their provenance.
    """
    epsilons = _check_experiment(
        n_samples, epsilons, replications, target_mean, target_provenance
    )
    if spec.kind != "lds":
        raise ValueError(
            "trajectory deviation bounds need a per-step transport certificate; "
            "only linear systems are supported here"
        )
    x0v = _check_vector(x0, spec.dim, "x0")
    if not np.isfinite(x0v).all():
        raise ValueError("x0 must be finite")
    reward = _resolve_reward(reward)
    reward_fn, lipschitz, _ = reward
    t1, contraction = lds_certificate(spec)
    rate = contraction.rate
    sigma = lds_stationary_covariance(spec)
    n = spec.dim
    with np.errstate(over="ignore"):  # an overflow is reported just below
        w2_start = gaussian_w2(spec.matrices[0] @ x0v, np.eye(n), np.zeros(n), sigma)
    bias = lipschitz * bias_term(w2_start, n_samples, rate)
    if not math.isfinite(bias):
        raise ValueError("x0 lies so far out that its start-point bias overflows a float")
    details = {
        "bound_kind": "trajectory_subgaussian",
        "constant": t1.constant,
        "rate": rate,
        "x0": [float(v) for v in x0v],
        "bias_w2": w2_start,
    }
    if target_mean is None:
        target_mean, stderr, target_provenance = _gaussian_mean(
            sigma, reward, target_samples, derive_seed(seed, _STREAM_TARGET)
        )
        if stderr is not None:
            target_provenance = "monte_carlo_stationary"
            details.update(target_stderr=stderr, target_samples=target_samples)

    block = _trajectory_block(n_samples, n)

    def average(rep_stream, lo, hi):
        seed = derive_seed(rep_stream, lo // block)
        states = simulate_batch(spec, x0v, n_samples, [seed], per_seed=hi - lo)
        return np.asarray(reward_fn(states), dtype=float).mean(axis=1)

    cert = ConcentrationCertificate(
        constant=t1.constant,
        rate=rate,
        n_samples=n_samples,
        lipschitz=lipschitz,
        bias=bias,
    )
    return _deviation_report(
        spec, reward, average, block, cert, epsilons,
        replications, seed, target_mean, target_provenance, details,
    )


def iid_deviation_experiment(
    spec: SystemSpec,
    reward,
    n_samples: int,
    replications: int,
    burn_in: int,
    epsilons,
    te_const: float,
    seed: int,
    target_mean: float | None = None,
    target_provenance: str | None = None,
    target_samples: int = 100_000,
) -> DeviationReport:
    """Tail-frequency experiment for averages of independent endpoints.

    Each replication averages the reward over ``n_samples`` independent
    endpoints, each ``burn_in`` steps from the origin, so every sample has
    the law mu_b of that horizon.  Replication r draws its noise from one
    stream, ``Generator(PCG64(derive_seed(derive_seed(seed, 1), r)))``, and
    endpoint j steps through its j-th block of ``burn_in * dim`` draws: one
    stream per replication instead of one per endpoint, since opening a
    stream costs about as much as drawing 600 normals.  An unsupplied target
    is the Monte Carlo mean of ``target_samples`` endpoints drawn from that
    same law, all from one stream (:func:`burn_in_sampler`), and a
    supplied ``target_mean`` must describe mu_b, not the stationary law.

    Bounds use ``te_const`` as the transport-entropy constant of mu_b.  The
    stationary constant ``te_constant(drift)`` of a drift pair is sound at
    every horizon: started from the origin the weight W(0) is 1, so the
    n-step weight bound ``contraction^n + offset (1 - contraction^n) / (1 -
    contraction)`` is a convex combination of 1 and the stationary moment
    bound, and the n-step constant ``n_step_te_coefficient(drift, 1, n)**2 /
    2`` never exceeds ``te_constant(drift)``.
    """
    epsilons = _check_experiment(
        n_samples, epsilons, replications, target_mean, target_provenance
    )
    if target_mean is None:
        _check_monte_carlo_target(target_samples)
    if burn_in < 1:
        # every endpoint would be the start point, so every deviation is zero
        raise ValueError("burn_in must be at least 1")
    if te_const <= 0:
        raise ValueError("transport-entropy constant must be positive")
    reward = _resolve_reward(reward)
    reward_fn, lipschitz, _ = reward
    details = {
        "bound_kind": "iid_subgaussian",
        "te_constant": te_const,
        "burn_in": burn_in,
    }
    if target_mean is None:
        endpoints = burn_in_sampler(
            spec, target_samples, burn_in, derive_seed(seed, _STREAM_TARGET)
        )
        target_mean, stderr = _mean_stderr(reward_fn(endpoints))
        target_provenance = "monte_carlo_burn_in"
        details.update(target_stderr=stderr, target_burn_in=burn_in)

    # whole replications per endpoint run, as many as fill one noise chunk,
    # so memory is bounded by the chunk or by one replication's endpoints
    group = max(1, _endpoint_chunk(burn_in, spec.dim) // n_samples)

    def average(rep_stream, lo, hi):
        endpoints = simulate_endpoints(
            spec, np.zeros(spec.dim), burn_in, derive_seeds(rep_stream, lo, hi),
            per_seed=n_samples,
        )
        rewards = np.asarray(reward_fn(endpoints), dtype=float)
        # one contiguous row per replication, averaged as a whole
        return rewards.reshape(hi - lo, n_samples).mean(axis=1)

    # independent samples are the rate-zero case of the path bound
    cert = ConcentrationCertificate(
        constant=te_const, rate=0.0, n_samples=n_samples, lipschitz=lipschitz
    )
    return _deviation_report(
        spec, reward, average, group, cert, epsilons, replications, seed,
        target_mean, target_provenance, details,
    )


@dataclass(frozen=True)
class ContractionFit:
    """Log-linear fit of the per-step distances between synchronously coupled paths."""

    rate: float
    steps: tuple
    distances: tuple
    used: tuple  # bool per step, True where fitted
    stationary_distance: float

    def to_dict(self) -> dict:
        return {
            "kind": "contraction_fit",
            "rate": self.rate,
            "steps": list(self.steps),
            "distances": list(self.distances),
            "used": list(self.used),
            "stationary_distance": self.stationary_distance,
        }

    def to_csv(self, path) -> None:
        """Per-step rows: step, distance, used."""
        _write_csv(
            path,
            ["step", "distance", "used"],
            (
                [step, repr(d), "true" if used else "false"]
                for step, d, used in zip(self.steps, self.distances, self.used)
            ),
        )


def _check_contraction(n_max: int, per_step: int, reference_count: int) -> None:
    """Reject contraction-fit sizes before any simulation."""
    if n_max < 2:
        raise ValueError("need at least two steps to fit a rate")
    if per_step < 1:
        raise ValueError("per_step must be at least 1")
    if per_step > 1024:
        raise ValueError("per_step exceeds the 1024 cap")
    if reference_count < 2 * per_step:
        raise ValueError("reference batch must hold at least 2 * per_step points")


def _mean_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean over the first axis of the euclidean distances ``||a - b||``.

    ``a`` and ``b`` are (m, ..., dim) arrays; the result has shape ``a.shape[1:-1]``.
    """
    return _row_norms(a - b).mean(axis=0)


def contraction_rate_fit(
    spec: SystemSpec,
    x0,
    n_max: int,
    per_step: int,
    reference: np.ndarray,
    seed: int = 0,
) -> ContractionFit:
    """Estimate the Wasserstein contraction rate by synchronous coupling.

    ``reference`` holds at least ``2 * per_step`` points, meant to be drawn
    from the stationary law pi.  Its first ``per_step`` points are the
    starts Y_0 of ``per_step`` paths Y, and ``per_step`` paths X start at
    ``x0``.  Path i of X and path i of Y both step with block i of the
    stream ``Generator(PCG64(derive_seed(seed, 1)))``, so each pair sees
    the same noise.  For n = 1..n_max the distance d_n is the mean of
    ||X_n - Y_n|| over the pairs.

    d_n bounds W1 from above: a stationary Y_0 keeps Y_n stationary, so
    (X_n, Y_n) is a coupling of law(X_n) and pi, and W1(law X_n, pi) is
    the least mean distance over all couplings.  d_n is the Monte Carlo
    mean of that coupling's distance, so d_n >= W1(law X_n, pi) up to its
    sampling error and the reference's burn-in.  For a linear system X_n -
    Y_n = A^n (x0 - Y_0), so d_n falls at least as fast as ||A||_2^n, the
    rate the certificate uses.

    ``stationary_distance`` is the mean of ||ref_a[i] - ref_b[i]|| over
    the pairs of the first and second ``per_step`` reference points: the
    distance between two independent stationary points.  The fit uses the
    leading steps with d_n > ``stationary_distance``, up to the first step
    that is not, and the rate is ``exp`` of the least-squares slope of
    log d_n against n over them.  A coupled pair nearer than two
    independent stationary points moves inside the bulk of pi, where a
    switched system need not contract (a region with an identity matrix),
    so those steps no longer measure the approach from ``x0``.

    Raises
    ------
    NoSignalError
        If fewer than two leading steps lie above the stationary distance.
    """
    ref = _batch_points(reference)
    _check_contraction(n_max, per_step, ref.shape[0])
    if ref.shape[1] != spec.dim or not np.isfinite(ref).all():
        raise ValueError(f"reference batch must hold finite points of dimension {spec.dim}")
    x0v = _check_vector(x0, spec.dim, "x0")
    if not np.isfinite(x0v).all():
        raise ValueError("x0 must be finite")
    ref_a, ref_b = ref[:per_step], ref[per_step : 2 * per_step]
    stream = [derive_seed(seed, _STREAM_REPLICATION)]
    paths = simulate_batch(spec, x0v, n_max, stream, per_seed=per_step)
    coupled = simulate_batch(spec, ref_a, n_max, stream, per_seed=per_step)
    distances = _mean_distance(paths, coupled)
    if not np.isfinite(distances).all():
        raise ValueError("a coupled distance overflows a float")
    stationary_distance = float(_mean_distance(ref_a, ref_b))

    above = distances > stationary_distance
    leading = n_max if above.all() else int(np.argmin(above))
    if leading < 2:
        raise NoSignalError(
            "fewer than two leading coupled distances lie above the stationary "
            "distance, too few to fit a contraction rate"
        )
    steps = np.arange(1, leading + 1)
    slope = float(np.polyfit(steps, np.log(distances[:leading]), 1)[0])
    return ContractionFit(
        rate=float(math.exp(slope)),
        steps=tuple(range(1, n_max + 1)),
        distances=tuple(float(d) for d in distances),
        used=tuple(bool(i < leading) for i in range(n_max)),
        stationary_distance=stationary_distance,
    )


@dataclass(frozen=True)
class AutocovarianceReport:
    """Sample autocovariances with batch-means errors and optional envelopes."""

    lags: tuple
    values: tuple
    stderrs: tuple
    bounds: tuple | None = None

    def to_dict(self) -> dict:
        return {
            "kind": "autocovariance",
            "lags": list(self.lags),
            "values": list(self.values),
            "stderrs": list(self.stderrs),
            "bounds": list(self.bounds) if self.bounds is not None else None,
        }


def empirical_autocovariance(
    trajectory,
    f_tag,
    max_lag: int,
    constant: float | None = None,
    rate: float | None = None,
    lipschitz: float | None = None,
) -> AutocovarianceReport:
    """Sample autocovariance of an observable along one trajectory.

    ``trajectory`` is a :class:`~concentrix.dynamics.Trajectory` or a (T, n)
    array of states; a 1-D array is read as (T, 1).  Lags run 0..max_lag;
    the series is centered at its sample mean and each lag's standard error
    comes from batch means with sqrt(length) batches.
    When (constant, rate, lipschitz) are given, the stationary envelope
    ``rate^k * constant * lipschitz^2 / (1 - rate^2)`` is attached per lag.
    """
    if isinstance(trajectory, Trajectory):
        trajectory = trajectory.states
    states = np.asarray(trajectory, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2:
        raise ValueError(
            f"a trajectory must be a (T, n) array of states, got shape {states.shape}"
        )
    if f_tag == "identity":
        if states.shape[1] != 1:
            raise ValueError("identity observable needs a one-dimensional system")
        series = states[:, 0]
    else:
        fn, _, _ = _resolve_reward(f_tag)
        series = np.asarray(fn(states), dtype=float)
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if series.size < 10 * max(max_lag, 1):
        raise ValueError("trajectory too short: need length >= 10 * max_lag")

    centered = series - series.mean()
    values, stderrs, bounds = [], [], []
    for k in range(max_lag + 1):
        prod = centered[: centered.size - k] * centered[k:] if k else centered * centered
        values.append(float(prod.mean()))
        nb = int(math.sqrt(prod.size))
        width = prod.size // nb
        batches = prod[: nb * width].reshape(nb, width).mean(axis=1)
        stderrs.append(float(batches.std(ddof=1) / math.sqrt(nb)))
        if constant is not None and rate is not None and lipschitz is not None:
            bounds.append(correlation_bound(constant, rate, lipschitz, k))
    return AutocovarianceReport(
        lags=tuple(range(max_lag + 1)),
        values=tuple(values),
        stderrs=tuple(stderrs),
        bounds=tuple(bounds) if bounds else None,
    )


def lds_stationary_covariance(a) -> np.ndarray:
    """Stationary covariance of a contractive linear system.

    Solves ``S = A S A^T + I``.  Below 10 dimensions numpy's LU solves the
    Kronecker system ``(I - A (x) A) vec S = vec I`` (Kitagawa, Int. J.
    Control 1977), in one dimension to scipy's bits.  From 10 dimensions up,
    where that system needs n^4 floats and O(n^6) time, Smith's doubling
    (SIAM J. Appl. Math. 1968) runs ``S <- S + A_k S A_k^T``, ``A_k <- A_k^2``
    from ``S = I``, ``A_0 = A`` until S stops changing.  An admitted A has
    ``||A|| <= 1 - 2^-53``, so ``||A_k|| <= ||A||^(2^k)`` underflows by k = 63
    and 64 passes suffice.  If rounding in the squares defeats that, A is
    refused (NotContractiveError) and no unconverged or overflowed S is
    returned.  Within about sqrt(eps) of ``||A|| = 1`` the squares keep half
    the digits: 7e-9 relative at ``diag(1 - 2^-52)``, where LU errs by eps.
    """
    if isinstance(a, SystemSpec):
        if a.kind != "lds":
            raise ValueError("stationary covariance solver expects a linear system")
        a = a.matrices[0]
    a = np.asarray(a, dtype=float)
    if spectral_norm(a) >= 1.0:
        raise NotContractiveError("matrix 2-norm must be strictly below 1")
    n = a.shape[0]
    if n < 10:
        lhs = np.eye(n * n) - np.kron(a, a)
        return np.linalg.solve(lhs, np.eye(n).reshape(-1)).reshape(n, n)
    s = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):  # a growing A_k is refused below
        for _ in range(64):
            step = s + a @ s @ a.T
            if np.array_equal(step, s) and np.isfinite(s).all():
                return s
            s, a = step, a @ a
    raise NotContractiveError("doubling did not converge: the 2-norm is 1 in floating point")


def _closed_form_mean(sigma: np.ndarray, tag: str) -> tuple[float, str] | None:
    """Exact mean of a built-in reward under N(0, sigma) as (value, method).

    The coordinate reward is zero by symmetry.  The norm reward is
    half-normal in one dimension, ``sqrt(sigma) * sqrt(2/pi)``, and in two
    dimensions, with eigenvalues ``l1 >= l2`` of sigma, it is
    ``sqrt(2 l1 / pi) * E(1 - l2 / l1)`` for the complete elliptic integral
    of the second kind ``E(m)``.  Returns None when no closed form applies.
    """
    if tag == "coordinate":
        return 0.0, "symmetry_closed_form"
    if tag != "norm" or sigma.shape[0] > 2:
        return None
    if sigma.shape[0] == 1:
        _check_psd(sigma.diagonal())
        value = math.sqrt(max(float(sigma[0, 0]), 0.0)) * math.sqrt(2.0 / math.pi)
        return value, "half_normal_closed_form"
    eigenvalues = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    _check_psd(eigenvalues)
    low, high = np.clip(eigenvalues, 0.0, None)
    value = math.sqrt(2.0 * high / math.pi) * ellipe(1.0 - low / high) if high else 0.0
    return value, "elliptic_closed_form"


def _gaussian_mean(sigma: np.ndarray, reward, samples: int, seed: int) -> tuple:
    """Mean of a resolved reward under N(0, sigma) as (value, stderr, method).

    A closed form (:func:`_closed_form_mean`) has stderr None; otherwise the
    mean is taken over ``samples`` draws of N(0, sigma) from ``PCG64(seed)``.
    """
    reward_fn, _, tag = reward
    exact = _closed_form_mean(sigma, tag)
    if exact is not None:
        return exact[0], None, exact[1]
    _check_monte_carlo_target(samples)
    gen = np.random.Generator(np.random.PCG64(seed))
    draws = gen.standard_normal((samples, sigma.shape[0])) @ _psd_sqrt(sigma)
    return (*_mean_stderr(reward_fn(draws)), "gaussian_monte_carlo")


@dataclass(frozen=True)
class MeanEstimate:
    """Stationary mean of a reward, exact or Monte Carlo with a 99% CI."""

    value: float
    ci_halfwidth: float
    method: str
    samples: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": "stationary_mean",
            "value": self.value,
            "ci_halfwidth": self.ci_halfwidth,
            "method": self.method,
            "samples": self.samples,
        }


def stationary_mean_reward(
    target,
    reward="norm",
    precision: float = 1e-3,
    seed: int = 0,
    sample_budget: int = 1_000_000,
) -> MeanEstimate:
    """Mean reward under the stationary Gaussian law of a linear system.

    ``target`` is a linear SystemSpec or its stationary covariance matrix.
    The coordinate reward and the norm reward in one or two dimensions have
    closed forms (see :func:`_closed_form_mean`); other cases fall back to
    Monte Carlo with a CLT interval at the requested precision.

    Raises
    ------
    ValueError
        If ``sample_budget`` is below two, too few samples for an interval,
        or the covariance has a non-finite entry or is not positive
        semidefinite.
    PrecisionError
        If the CLT 99% half-width still exceeds ``precision`` after the
        full sample budget.
    """
    if sample_budget < 2:
        raise ValueError(f"sample_budget must be at least 2, got {sample_budget}")
    reward = _resolve_reward(reward)
    if isinstance(target, SystemSpec):
        sigma = lds_stationary_covariance(target)
    else:
        sigma = np.atleast_2d(np.asarray(target, dtype=float))
        # eigvalsh can return finite eigenvalues for a matrix holding NaN
        if not np.isfinite(sigma).all():
            raise ValueError("covariance has non-finite entries")
    value, stderr, method = _gaussian_mean(sigma, reward, sample_budget, seed)
    if stderr is None:
        return MeanEstimate(value=value, ci_halfwidth=0.0, method=method)
    half = 2.5758293035489004 * stderr
    if half > precision:
        raise PrecisionError(
            f"99% half-width {half:.3g} exceeds requested precision {precision:g} "
            f"within the {sample_budget}-sample budget"
        )
    return MeanEstimate(value=value, ci_halfwidth=half, method=method, samples=sample_budget)
