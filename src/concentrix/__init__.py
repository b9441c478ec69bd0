"""Concentration certificates for random dynamical systems.

The library splits into four layers: ``dynamics`` simulates linear and
switched linear systems with standard-normal noise under deterministic
seeding; ``transport`` derives transport-entropy and contraction
certificates with their tail bounds; ``lyapunov`` builds exponential-moment
and drift certificates for switched systems; ``montecarlo`` verifies all of
them empirically.  The ``cli`` module wraps the pipelines behind a
declarative JSON config.
"""

# set before the submodule imports: ``montecarlo`` stamps it into reports
__version__ = "0.14.0"

from .dynamics import (
    HypothesisError,
    Predicate,
    SystemSpec,
    Trajectory,
    check_slds_hypothesis,
    derive_seed,
    derive_seeds,
    load_system,
    save_system,
    simulate,
    simulate_batch,
    simulate_endpoints,
    spectral_norm,
    system_digest,
)
from .lyapunov import (
    DriftPair,
    ExpLyapunovCertificate,
    GeometricDriftCertificate,
    InvalidAlphaError,
    drift_from_exp_lyapunov,
    empirical_drift_check,
    minorization_beta,
    slds_exp_lyapunov,
    slds_geometric_drift,
    stein_mgf,
    te_constant,
)
from .montecarlo import (
    DeviationReport,
    NoSignalError,
    burn_in_sampler,
    contraction_rate_fit,
    deviation_probability_experiment,
    empirical_autocovariance,
    empirical_w1,
    iid_deviation_experiment,
    lds_stationary_covariance,
    stationary_mean_reward,
)
from .transport import (
    ConcentrationCertificate,
    ContractionCertificate,
    NotContractiveError,
    T1Certificate,
    bias_term,
    bobkov_goetze_gap,
    correlation_bound,
    gaussian_w2,
    iid_deviation_bound,
    lds_certificate,
    tensorized_constant,
    trajectory_deviation_bound,
)

__all__ = [
    "__version__",
    # dynamics
    "HypothesisError",
    "Predicate",
    "SystemSpec",
    "Trajectory",
    "check_slds_hypothesis",
    "derive_seed",
    "derive_seeds",
    "load_system",
    "save_system",
    "simulate",
    "simulate_batch",
    "simulate_endpoints",
    "spectral_norm",
    "system_digest",
    # transport
    "ConcentrationCertificate",
    "ContractionCertificate",
    "NotContractiveError",
    "T1Certificate",
    "bias_term",
    "bobkov_goetze_gap",
    "correlation_bound",
    "gaussian_w2",
    "iid_deviation_bound",
    "lds_certificate",
    "tensorized_constant",
    "trajectory_deviation_bound",
    # lyapunov
    "DriftPair",
    "ExpLyapunovCertificate",
    "GeometricDriftCertificate",
    "InvalidAlphaError",
    "drift_from_exp_lyapunov",
    "empirical_drift_check",
    "minorization_beta",
    "slds_exp_lyapunov",
    "slds_geometric_drift",
    "stein_mgf",
    "te_constant",
    # montecarlo
    "DeviationReport",
    "NoSignalError",
    "burn_in_sampler",
    "contraction_rate_fit",
    "deviation_probability_experiment",
    "empirical_autocovariance",
    "empirical_w1",
    "iid_deviation_experiment",
    "lds_stationary_covariance",
    "stationary_mean_reward",
]
