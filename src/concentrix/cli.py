"""Batch front door: declarative configs in, reports out.

A single JSON config names the system, the pipeline, its parameters, and
the master seed; flags only override the seed and the output directory.
Reports are canonical JSON (sorted keys, no timestamps) plus plot-ready
CSV, so identical configs always produce identical bytes.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad config,
inadmissible system, or certificate constants too large for a float.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import locale  # noqa: F401  argparse's first parser loads it (gettext): pay at start-up
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .dynamics import (
    SystemSpec,
    _write_csv,
    derive_seed,
    system_digest,
    system_from_dict,
    system_to_dict,
)
from .lyapunov import (
    drift_from_exp_lyapunov,
    empirical_drift_check,
    slds_exp_lyapunov,
    slds_geometric_drift,
    te_constant,
)
from .montecarlo import (
    NoSignalError,
    _check_contraction,
    _code_version,
    burn_in_sampler,
    contraction_rate_fit,
    deviation_probability_experiment,
    iid_deviation_experiment,
)
from .transport import (
    lds_certificate,
    tensorized_constant,
    trajectory_deviation_bound,
    ConcentrationCertificate,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "cmd_certify",
    "cmd_verify",
    "cmd_sweep",
    "main",
]

_PIPELINES = ("certify", "verify-deviation", "verify-lyapunov", "contraction", "sweep")
_VERIFY_PIPELINES = ("verify-deviation", "verify-lyapunov", "contraction")

# substream label for CLI-owned reference batches, distinct from the
# experiment-internal labels
_STREAM_CLI_REFERENCE = 101

# verify-deviation keys that are no longer read, with the reason; a config
# that still sets one exits 2 rather than run as if nothing had changed
_RETIRED_DEVIATION_KEYS = {
    "diagnostic_samples": "the burn-in diagnostic was removed, and the Monte Carlo "
    "target is now taken at burn_in, the horizon the samples are drawn at",
    "bias_burn_in": "the trajectory-mode Monte Carlo target samples N(0, S) directly",
}


class ConfigError(ValueError):
    """Missing or contradictory experiment configuration."""


def _whole_number(value) -> int | None:
    """``value`` as an int, or None when it is not a whole number.

    JSON Schema counts 1.0 as an integer, so a whole float is that integer;
    a bool is an int to Python but not a number in a config.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _integer(key: str, value) -> int:
    """An integer parameter; 2.5 or true is an error, never truncated."""
    number = _whole_number(value)
    if number is None:
        raise ConfigError(f"params.{key} must be an integer, got {value!r}")
    return number


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    Only (pipeline, system, params, seed) identify the experiment; output
    paths are execution detail and stay out of the hash.
    """

    pipeline: str
    system: SystemSpec | None
    params: dict
    seed: int
    out: Path | None = None

    def canonical_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "system": system_to_dict(self.system) if self.system else None,
            "params": self.params,
            "seed": self.seed,
        }

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def require_system(self) -> SystemSpec:
        if self.system is None:
            raise ConfigError(f"pipeline {self.pipeline!r} needs a system")
        return self.system

    def param(self, key, default=None, required=False):
        if required and key not in self.params:
            raise ConfigError(f"pipeline {self.pipeline!r} needs params.{key}")
        return self.params.get(key, default)

    def int_param(self, key, default=None, required=False) -> int:
        """:meth:`param` read as an integer by the seed's rule (:func:`_integer`)."""
        return _integer(key, self.param(key, default, required))

    def numbers_param(self, key, default=None, required=False) -> list:
        """:meth:`param` read as a list of numbers, returned as floats; a bare
        number, null or true is an error."""
        value = self.param(key, default, required)
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"params.{key} must be a list of numbers, got {value!r}")
        return [float(v) for v in value]


def _reject_constant(name: str):
    # json.loads reads NaN, Infinity and -Infinity, which are no JSON numbers
    raise ConfigError(f"config holds {name}, which is not a JSON number")


def load_config(path, seed_override=None) -> ExperimentConfig:
    """Read and validate an experiment config document.

    NaN, Infinity and -Infinity are refused wherever they appear, before any
    experiment runs: a report could not encode them.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(), parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    pipeline = raw.get("pipeline")
    if pipeline not in _PIPELINES:
        raise ConfigError(f"pipeline must be one of {_PIPELINES}, got {pipeline!r}")

    system_field = raw.get("system")
    if system_field is None:
        system = None
    elif isinstance(system_field, str):
        system_path = (path.parent / system_field).resolve()
        try:
            system = system_from_dict(
                json.loads(system_path.read_text(), parse_constant=_reject_constant)
            )
        except FileNotFoundError:
            raise ConfigError(f"system file not found: {system_path}")
    elif isinstance(system_field, dict):
        system = system_from_dict(system_field)
    else:
        raise ConfigError("system must be an inline object or a file path")

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("a master seed is mandatory (config seed or --seed)")
    # derive_seeds would fold 2**64 onto 0
    seed = _whole_number(seed)
    if seed is None or not 0 <= seed < 2**64:
        raise ConfigError("seed must be an integer in [0, 2**64)")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")

    out = Path(raw["out"]) if "out" in raw else None
    return ExperimentConfig(
        pipeline=pipeline, system=system, params=params, seed=seed, out=out
    )


def canonical_json(payload) -> str:
    # NaN and infinities are not JSON; refuse them rather than write them
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _envelope(config: ExperimentConfig, result: dict) -> dict:
    return {
        "config": config.canonical_dict(),
        "config_hash": config.config_hash,
        "code_version": _code_version(),
        "result": result,
    }


# ----------------------------------------------------------------- pipelines


def _hypothesis(config: ExperimentConfig) -> list:
    """Radius, contraction and lipschitz of the geometric-mixing hypothesis."""
    return [
        float(config.param(key, required=True))
        for key in ("radius", "contraction", "lipschitz")
    ]


def cmd_certify(config: ExperimentConfig) -> dict:
    """Derive the certificate bundle for the configured system."""
    spec = config.require_system()
    if spec.kind == "lds":
        t1, contraction = lds_certificate(spec)
        n_samples = config.int_param("n_samples", 100)
        lipschitz = float(config.param("lipschitz", 1.0))
        tensorized = tensorized_constant(t1.constant, contraction.rate, n_samples)
        cert = ConcentrationCertificate(
            constant=t1.constant,
            rate=contraction.rate,
            n_samples=n_samples,
            lipschitz=lipschitz,
            bias=0.0,
        )
        curve = [
            {"epsilon": eps, "bound": trajectory_deviation_bound(cert, eps)}
            for eps in config.numbers_param("epsilons", [])
        ]
        result = {
            "kind": "lds_certificates",
            "transport": t1.to_dict(),
            "contraction": contraction.to_dict(),
            "n_samples": n_samples,
            "tensorized_constant": tensorized,
            "bound_curve": curve,
        }
    else:
        hypothesis = _hypothesis(config)
        alpha = float(config.param("alpha", required=True))
        moment = slds_exp_lyapunov(spec, *hypothesis, alpha)
        drift = drift_from_exp_lyapunov(moment)
        geometric = slds_geometric_drift(spec, *hypothesis)
        result = {
            "kind": "slds_certificates",
            "exponential_moment": moment.to_dict(),
            "drift": drift.to_dict(),
            "stationary_moment_bound": drift.moment_bound,
            "te_constant": te_constant(drift),
            "geometric_drift": geometric.to_dict(),
        }
    result["system_digest"] = system_digest(spec)
    return result


def _resolve_te_constant(config: ExperimentConfig, spec: SystemSpec) -> float:
    explicit = config.param("te_constant")
    if explicit is not None:
        return float(explicit)
    hypothesis = _hypothesis(config)
    moment = slds_exp_lyapunov(spec, *hypothesis, float(config.param("alpha", required=True)))
    return te_constant(drift_from_exp_lyapunov(moment))


def _run_deviation(config: ExperimentConfig):
    for key, reason in _RETIRED_DEVIATION_KEYS.items():
        if key in config.params:
            raise ConfigError(f"params.{key} is no longer read: {reason}")
    spec = config.require_system()
    mode = config.param("mode", "trajectory")
    reward = config.param("reward", "norm")
    if reward not in ("norm", "coordinate"):
        raise ConfigError("config rewards are limited to 'norm' and 'coordinate'")
    shared = {
        "spec": spec,
        "reward": reward,
        "epsilons": config.numbers_param("epsilons", required=True),
        "replications": config.int_param("replications", required=True),
        "n_samples": config.int_param("n_samples", required=True),
        "seed": config.seed,
        "target_mean": config.param("target_mean"),
        "target_provenance": config.param("target_provenance"),
        "target_samples": config.int_param("target_samples", 100_000),
    }
    if mode == "trajectory":
        return deviation_probability_experiment(x0=config.param("x0", required=True), **shared)
    if mode == "iid":
        return iid_deviation_experiment(
            burn_in=config.int_param("burn_in", required=True),
            te_const=_resolve_te_constant(config, spec),
            **shared,
        )
    raise ConfigError(f"unknown deviation mode: {mode!r}")


def _run_drift_check(config: ExperimentConfig):
    spec = config.require_system()
    x_grid = config.param("x_grid", required=True)
    samples = config.int_param("samples_per_point", 2000)
    certificate = None
    if config.param("radius") is not None:
        certificate = slds_geometric_drift(spec, *_hypothesis(config))
    report = empirical_drift_check(
        spec, x_grid, samples, config.seed, certificate=certificate
    )
    violations = report.certificate_violations or ()
    return report, len(violations) == 0


def _run_contraction(config: ExperimentConfig):
    spec = config.require_system()
    per_step = config.int_param("per_step", 512)
    n_max = config.int_param("n_max", required=True)
    reference_count = config.int_param("reference_count", 2 * per_step)
    # reject bad sizes before the reference batch is simulated
    _check_contraction(n_max, per_step, reference_count)
    reference = burn_in_sampler(
        spec,
        reference_count,
        config.int_param("reference_burn_in", 100),
        derive_seed(config.seed, _STREAM_CLI_REFERENCE),
    )
    fit = contraction_rate_fit(
        spec, config.param("x0", required=True), n_max, per_step, reference, seed=config.seed
    )
    expected = config.param("expected_rate")
    if expected is None:
        passed = True
    else:
        passed = abs(fit.rate - float(expected)) <= float(config.param("tolerance", 0.1))
    return fit, passed


def cmd_verify(config: ExperimentConfig):
    """Run the configured verification experiment.

    Returns (report, passed flag); the report writes its own JSON dict and
    CSV rows, and the caller maps the flag to the exit code.
    """
    if config.pipeline not in _VERIFY_PIPELINES:
        raise ConfigError(
            f"verify expects one of {_VERIFY_PIPELINES}, got {config.pipeline!r}"
        )
    if config.pipeline == "verify-deviation":
        report = _run_deviation(config)
        return report, report.all_pass
    if config.pipeline == "verify-lyapunov":
        return _run_drift_check(config)
    return _run_contraction(config)


def _sweep_rows(config: ExperimentConfig):
    variable = config.param("variable", required=True)
    grid = config.param("grid", required=True)
    if not isinstance(grid, (list, tuple)) or len(grid) == 0:
        raise ConfigError("sweep grid must be a nonempty list")

    if variable in ("n_samples", "epsilon", "rate"):
        # one certificate per grid point, with the swept field overridden
        casts = {"n_samples": partial(_integer, "n_samples"), "epsilon": float, "rate": float}
        if variable == "rate":
            base = {"constant": float(config.param("constant", 1.0))}
        else:
            t1, contraction = lds_certificate(config.require_system())
            base = {"constant": t1.constant, "rate": contraction.rate}
        base["lipschitz"] = float(config.param("lipschitz", 1.0))
        for key in ("n_samples", "epsilon"):
            if key != variable:
                base[key] = casts[key](config.param(key, required=True))
        header = [variable, "bound"]
        if variable != "epsilon":
            header.insert(1, "tensorized_constant")
        rows = []
        for value in map(casts[variable], grid):
            fields = {**base, variable: value}
            epsilon = fields.pop("epsilon")
            cert = ConcentrationCertificate(**fields)
            row = [value]
            if variable != "epsilon":
                row.append(tensorized_constant(cert.constant, cert.rate, cert.n_samples))
            rows.append(row + [trajectory_deviation_bound(cert, epsilon)])
        return variable, header, rows

    if variable == "alpha":
        spec = config.require_system()
        hypothesis = _hypothesis(config)
        header = [
            "alpha",
            "beta",
            "scale",
            "drift_contraction",
            "drift_offset",
            "moment_bound",
            "te_constant",
        ]
        rows = []
        for a in grid:
            moment = slds_exp_lyapunov(spec, *hypothesis, float(a))
            drift = drift_from_exp_lyapunov(moment)
            rows.append(
                [
                    float(a),
                    moment.beta,
                    moment.scale,
                    drift.contraction,
                    drift.offset,
                    drift.moment_bound,
                    te_constant(drift),
                ]
            )
        return variable, header, rows

    raise ConfigError(f"unknown sweep variable: {variable!r}")


def cmd_sweep(config: ExperimentConfig):
    """Evaluate certificate values over a parameter grid, row per point."""
    if config.pipeline != "sweep":
        raise ConfigError(f"sweep expects pipeline 'sweep', got {config.pipeline!r}")
    variable, header, rows = _sweep_rows(config)
    return {
        "kind": "sweep",
        "variable": variable,
        "columns": header,
        "rows": rows,
    }


# ----------------------------------------------------------------- front end


def _emit(out_dir: Path, stem: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.json"
    path.write_text(canonical_json(payload))
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concentrix",
        description="Concentration certificates and their Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("certify", "derive certificates for a system"),
        ("verify", "run a Monte Carlo verification experiment"),
        ("sweep", "evaluate certificates over a parameter grid"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="accepted for compatibility: must be at least 1, otherwise ignored",
        )
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed)
        if args.workers is not None and args.workers < 1:
            raise ConfigError("worker count must be at least 1")
        out_dir = Path(args.out) if args.out else (config.out or Path.cwd())

        if args.command == "certify":
            if config.pipeline != "certify":
                raise ConfigError(
                    f"certify expects pipeline 'certify', got {config.pipeline!r}"
                )
            payload = _envelope(config, cmd_certify(config))
            path = _emit(out_dir, "certificate", payload)
            print(f"certificates written to {path}")
            return 0

        if args.command == "verify":
            report, passed = cmd_verify(config)
            path = _emit(out_dir, "report", _envelope(config, report.to_dict()))
            report.to_csv(out_dir / "report.csv")
            print(f"report written to {path}")
            print("verification passed" if passed else "verification FAILED")
            return 0 if passed else 1

        result = cmd_sweep(config)
        payload = _envelope(config, result)
        path = _emit(out_dir, "sweep", payload)
        _write_csv(out_dir / "sweep.csv", result["columns"], result["rows"])
        print(f"sweep written to {path}")
        return 0
    except NoSignalError as exc:
        print(canonical_json({"error": {"type": type(exc).__name__, "message": str(exc)}}), end="")
        return 1
    except (ValueError, OverflowError) as exc:
        # covers ConfigError plus every domain rejection (bad spec,
        # non-contractive system, inadmissible exponent, a certificate
        # whose constants overflow a float)
        print(canonical_json({"error": {"type": type(exc).__name__, "message": str(exc)}}), end="")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
