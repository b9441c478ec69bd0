"""Tests for the batch CLI: configs, pipelines, exit codes, reproducibility."""

import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from concentrix import dynamics
from concentrix.cli import (
    ConfigError,
    ExperimentConfig,
    canonical_json,
    cmd_certify,
    cmd_sweep,
    cmd_verify,
    load_config,
    main,
)
from concentrix.transport import (
    ConcentrationCertificate,
    tensorized_constant,
    trajectory_deviation_bound,
)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"

LDS_HALF = {"type": "lds", "A": [[0.5]]}
LDS_2D = {"type": "lds", "A": [[0.5, 0.2], [0.0, 0.6]]}
SLDS_CHAIN = {
    "type": "slds",
    "regions": [
        {"predicate": {"ball_le": 1.0}, "A": [[1.0]]},
        {"predicate": {"catch_all": True}, "A": [[0.5]]},
    ],
}
SLDS_PARAMS = {"radius": 1.0, "contraction": 0.5, "lipschitz": 1.0, "alpha": 0.25}

SMALL_DEVIATION_PARAMS = {
    "mode": "trajectory",
    "reward": "norm",
    "x0": [0.0],
    "n_samples": 40,
    "replications": 200,
    "epsilons": [0.3, 0.6],
    "target_samples": 2000,
}


def half_lds(params):
    """A = 0.5 I in the dimension of ``params``' start point; LDS_HALF without one.

    The norm reward's stationary mean has a closed form in one and two
    dimensions only, so a trajectory config starting in 3-D has a Monte
    Carlo target.
    """
    return {"type": "lds", "A": (0.5 * np.eye(len(params.get("x0", [0.0])))).tolist()}


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def schema_registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        contents = json.loads(path.read_text())
        resources.append((contents["$id"], Resource.from_contents(contents)))
    return Registry().with_resources(resources)


def validate_against(schema_name, document):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    validator = jsonschema.Draft202012Validator(schema, registry=schema_registry())
    validator.validate(document)


# -------------------------------------------------------------------- config


def test_load_config_roundtrip(tmp_path):
    path = write_config(
        tmp_path,
        {"pipeline": "certify", "system": LDS_HALF, "seed": 5, "params": {"n_samples": 10}},
    )
    config = load_config(path)
    assert config.pipeline == "certify"
    assert config.seed == 5
    assert config.system.kind == "lds"
    assert config.params == {"n_samples": 10}


def test_load_config_system_by_path(tmp_path):
    (tmp_path / "sys.json").write_text(json.dumps(SLDS_CHAIN))
    path = write_config(
        tmp_path, {"pipeline": "certify", "system": "sys.json", "seed": 1, "params": {}}
    )
    config = load_config(path)
    assert config.system.kind == "slds"


def test_load_config_rejects_bad_pipeline(tmp_path):
    path = write_config(tmp_path, {"pipeline": "optimize", "seed": 1})
    with pytest.raises(ConfigError, match="pipeline"):
        load_config(path)


def test_load_config_requires_seed(tmp_path):
    path = write_config(tmp_path, {"pipeline": "certify", "system": LDS_HALF})
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)
    assert load_config(path, seed_override=9).seed == 9


def test_config_hash_excludes_execution_detail(tmp_path):
    base = {"pipeline": "certify", "system": LDS_HALF, "seed": 3, "params": {}}
    a = load_config(write_config(tmp_path, base, "a.json"))
    b = load_config(write_config(tmp_path, {**base, "out": "elsewhere"}, "b.json"))
    assert a.config_hash == b.config_hash
    c = load_config(write_config(tmp_path, {**base, "seed": 4}, "c.json"))
    assert a.config_hash != c.config_hash


# ------------------------------------------------------------------- certify


def test_certify_lds_bundle(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "certify",
            "system": LDS_HALF,
            "seed": 1,
            "params": {"n_samples": 100, "epsilons": [0.5]},
        },
    )
    result = cmd_certify(load_config(path))
    assert result["transport"]["constant"] == 1.0
    assert result["contraction"]["rate"] == pytest.approx(0.5)
    assert result["tensorized_constant"] == pytest.approx(400.0)
    assert result["bound_curve"][0]["bound"] == pytest.approx(
        2.0 * math.exp(-100 * 0.25 * 0.25 / 2.0)
    )


def test_certify_slds_chain(tmp_path):
    path = write_config(
        tmp_path,
        {"pipeline": "certify", "system": SLDS_CHAIN, "seed": 1, "params": SLDS_PARAMS},
    )
    result = cmd_certify(load_config(path))
    assert result["te_constant"] == pytest.approx(16.318, abs=1e-3)
    assert result["stationary_moment_bound"] == pytest.approx(8.0 * math.e, rel=1e-9)
    assert result["exponential_moment"]["beta"] == pytest.approx(0.125)
    assert result["geometric_drift"]["offset"] == pytest.approx(math.sqrt(2.0))


def test_certify_non_contractive_exits_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"pipeline": "certify", "system": {"type": "lds", "A": [[1.0]]}, "seed": 1},
    )
    code = main(["certify", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "NotContractiveError"


def test_certify_exponent_overflow_exits_2(tmp_path, capsys):
    # exp(lipschitz^2 radius^2 alpha / (1 - 2 alpha)) = exp(5e5) overflows
    params = {**SLDS_PARAMS, "radius": 100.0, "lipschitz": 10.0}
    path = write_config(
        tmp_path, {"pipeline": "certify", "system": SLDS_CHAIN, "seed": 1, "params": params}
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", path, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "OverflowError"
    assert not (out / "certificate.json").exists()


def test_certify_unbounded_expanding_region_exits_2(tmp_path, capsys):
    # an expanding half-plane beyond radius 5 is unbounded, so the
    # geometric-mixing hypothesis fails and no certificate is issued
    system = {
        "type": "slds",
        "regions": [
            {
                "predicate": {
                    "ball_gt": 5.0,
                    "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.0}],
                },
                "A": [[1.5, 0.0], [0.0, 1.5]],
            },
            {"predicate": {"catch_all": True}, "A": [[0.5, 0.0], [0.0, 0.5]]},
        ],
    }
    params = {**SLDS_PARAMS, "lipschitz": 2.0}
    path = write_config(
        tmp_path, {"pipeline": "certify", "system": system, "seed": 1, "params": params}
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", path, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "HypothesisError"
    assert not (out / "certificate.json").exists()


def test_certify_halfspace_normal_of_wrong_length_exits_2(tmp_path, capsys):
    system = {
        "type": "slds",
        "regions": [
            {
                "predicate": {"halfspaces": [{"normal": [1.0, 0.0, 0.0], "offset": 0.5}]},
                "A": [[1.0, 0.0], [0.0, 1.0]],
            },
            {"predicate": {"catch_all": True}, "A": [[0.5, 0.0], [0.0, 0.5]]},
        ],
    }
    path = write_config(
        tmp_path, {"pipeline": "certify", "system": system, "seed": 1, "params": SLDS_PARAMS}
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", path, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert "halfspace normal" in error["message"]
    assert not (out / "certificate.json").exists()


CATCH_ALL_HALF = {"predicate": {"catch_all": True}, "A": [[0.5]]}
# (command, pipeline, system, params, error): a malformed config is a bad
# config, named where it is read, and never a traceback
MALFORMED = {
    "region-without-predicate": (
        "certify", "certify", {"type": "slds", "regions": [{"A": [[1.0]]}, CATCH_ALL_HALF]},
        SLDS_PARAMS, ("ValueError", "slds region needs key 'predicate'"),
    ),
    "halfspace-without-normal": (
        "certify", "certify",
        {"type": "slds", "regions": [
            {"predicate": {"halfspaces": [{"offset": 0.5}]}, "A": [[1.0]]}, CATCH_ALL_HALF,
        ]},
        SLDS_PARAMS, ("ValueError", "halfspace needs key 'normal'"),
    ),
    "region-as-string": (
        "certify", "certify", {"type": "slds", "regions": ["ball_le", CATCH_ALL_HALF]},
        SLDS_PARAMS, ("ValueError", "slds region must be an object, got str"),
    ),
    "bare-epsilon": (
        "verify", "verify-deviation", LDS_HALF, {**SMALL_DEVIATION_PARAMS, "epsilons": 0.5},
        ("ConfigError", "params.epsilons must be a list of numbers, got 0.5"),
    ),
    "null-epsilon": (
        "certify", "certify", LDS_HALF, {"epsilons": [None]},
        ("ConfigError", "params.epsilons must be a list of numbers, got [None]"),
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_exits_2(tmp_path, capsys, case):
    command, pipeline, system, params, (kind, message) = MALFORMED[case]
    body = {"pipeline": pipeline, "system": system, "seed": 1, "params": params}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {"type": kind, "message": message}
    assert not out.exists()


def test_region_over_the_vertex_budget_exits_2_before_enumerating(
    tmp_path, capsys, monkeypatch
):
    # 150 tangents of the unit circle: C(150, 2) = 11175 vertex subsets,
    # more than the containment check solves; it must say so before it
    # enumerates any subset, and before the drift check simulates
    def no_enumeration(*args):
        raise AssertionError("subsets enumerated")

    monkeypatch.setattr(dynamics, "combinations", no_enumeration)
    angles = np.linspace(0.0, 2.0 * np.pi, 150, endpoint=False)
    polygon = [
        {"normal": [math.cos(t), math.sin(t)], "offset": 1.0} for t in angles
    ]
    system = {
        "type": "slds",
        "regions": [
            {"predicate": {"halfspaces": polygon}, "A": [[1.0, 0.0], [0.0, 1.0]]},
            {"predicate": {"catch_all": True}, "A": [[0.5, 0.0], [0.0, 0.5]]},
        ],
    }
    params = {"x_grid": [[0.0, 0.0]], "radius": 2.0, "contraction": 0.6, "lipschitz": 1.0}
    path = write_config(
        tmp_path, {"pipeline": "verify-lyapunov", "system": system, "seed": 1, "params": params}
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("region 0: ")
    assert "11175" in error["message"]
    assert not (out / "report.json").exists()


def test_certify_missing_seed_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"pipeline": "certify", "system": LDS_HALF})
    code = main(["certify", "--config", path])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("seed, flag", [(True, False), (2**64, False), (2**64, True)])
def test_seed_outside_u64_exits_2(tmp_path, capsys, seed, flag):
    # true would run as seed 1 and 2**64 would draw what seed 0 draws, each
    # under a config hash of its own
    body = {"pipeline": "verify-deviation", "system": LDS_HALF, "params": SMALL_DEVIATION_PARAMS}
    path = write_config(tmp_path, body if flag else {**body, "seed": seed})
    out = tmp_path / "out"
    argv = ["verify", "--config", path, "--out", str(out)]
    assert main(argv + (["--seed", str(seed)] if flag else [])) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": "seed must be an integer in [0, 2**64)"}
    assert not (out / "report.json").exists()


def test_largest_u64_seed_is_accepted(tmp_path):
    seed = 2**64 - 1
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": seed,
            "params": SMALL_DEVIATION_PARAMS,
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["seed"] == seed
    validate_against("experiment-config.schema.json", payload["config"])


def test_whole_float_seed_runs_as_its_integer(tmp_path):
    # JSON Schema counts 1.0 as an integer, so this config is schema-valid
    reports = []
    for seed in (1, 1.0):
        body = {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": seed,
            "params": SMALL_DEVIATION_PARAMS,
        }
        validate_against("experiment-config.schema.json", body)
        path = write_config(tmp_path, body, name=f"config-{seed!r}.json")
        out = tmp_path / f"out-{seed!r}"
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("seed", [1.5, -1.0, 2.0**64])
def test_float_seed_that_is_no_u64_exits_2(tmp_path, capsys, seed):
    body = {"pipeline": "verify-deviation", "system": LDS_HALF, "seed": seed,
            "params": SMALL_DEVIATION_PARAMS}
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": "seed must be an integer in [0, 2**64)"}
    assert not (out / "report.json").exists()


IID_PARAMS = {
    "mode": "iid", "reward": "norm", "n_samples": 5, "replications": 100,
    "burn_in": 20, "epsilons": [0.5], "te_constant": 1e-6,
}
DRIFT_PARAMS = {"x_grid": [[0.0], [2.0]], "samples_per_point": 100}
CONTRACTION_PARAMS = {"x0": [5.0], "n_max": 5, "per_step": 64}
# (command, pipeline, system, params, key): each key is a size parameter
INTEGER_PARAMS = [
    ("certify", "certify", LDS_HALF, {"n_samples": 100}, "n_samples"),
    *(
        ("verify", "verify-deviation", LDS_HALF, SMALL_DEVIATION_PARAMS, key)
        for key in ("n_samples", "replications", "target_samples", "bias_burn_in")
    ),
    *(
        ("verify", "verify-deviation", LDS_HALF, IID_PARAMS, key)
        for key in ("burn_in", "diagnostic_samples")
    ),
    ("verify", "verify-lyapunov", SLDS_CHAIN, DRIFT_PARAMS, "samples_per_point"),
    *(
        ("verify", "contraction", LDS_HALF,
         {**CONTRACTION_PARAMS, "reference_count": 128, "reference_burn_in": 20}, key)
        for key in ("per_step", "n_max", "reference_count", "reference_burn_in")
    ),
    ("sweep", "sweep", LDS_HALF, {"variable": "epsilon", "grid": [0.3], "n_samples": 10},
     "n_samples"),
]
# retired keys are no longer read: any value of one, a non-integer too,
# exits 2 with its removal message instead of the integer one
RETIRED_KEYS = {
    "diagnostic_samples": (
        "params.diagnostic_samples is no longer read: the burn-in diagnostic "
        "was removed, and the Monte Carlo target is now taken at burn_in, "
        "the horizon the samples are drawn at"
    ),
    "bias_burn_in": (
        "params.bias_burn_in is no longer read: "
        "the trajectory-mode Monte Carlo target samples N(0, S) directly"
    ),
}


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize(
    "command, pipeline, system, params, key",
    INTEGER_PARAMS,
    ids=[f"{case[1]}-{case[4]}" for case in INTEGER_PARAMS],
)
def test_integer_param_that_is_no_integer_exits_2(
    tmp_path, capsys, command, pipeline, system, params, key, value
):
    # int() would cut 2.5 down to 2 and true to 1 while the report embeds 2.5
    body = {"pipeline": pipeline, "system": system, "seed": 3,
            "params": {**params, key: value}}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    message = RETIRED_KEYS.get(key, f"params.{key} must be an integer, got {value!r}")
    assert error == {"type": "ConfigError", "message": message}
    assert list(tmp_path.glob("out/*")) == []


def test_iid_diagnostic_samples_is_rejected(tmp_path, capsys):
    # the burn-in diagnostic it sized is gone; a config that still asks for it
    # must not run without it as if nothing had changed
    body = {"pipeline": "verify-deviation", "system": LDS_HALF, "seed": 3,
            "params": {**IID_PARAMS, "diagnostic_samples": 64}}
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": RETIRED_KEYS["diagnostic_samples"]}
    assert list(tmp_path.glob("out/*")) == []


def test_trajectory_bias_burn_in_is_rejected(tmp_path, capsys):
    # the 3-D norm target it sized now samples N(0, S) with no burn-in; a
    # config that still sets it must not run as if nothing had changed
    params = {**SMALL_DEVIATION_PARAMS, "x0": [0.0, 0.0, 0.0], "bias_burn_in": 200}
    body = {"pipeline": "verify-deviation", "system": half_lds(params), "seed": 3,
            "params": params}
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": RETIRED_KEYS["bias_burn_in"]}
    assert list(tmp_path.glob("out/*")) == []


@pytest.mark.parametrize("value", [2.5, True])
def test_sweep_grid_value_that_is_no_integer_exits_2(tmp_path, capsys, value):
    params = {"variable": "n_samples", "grid": [10, value], "epsilon": 0.3}
    body = {"pipeline": "sweep", "system": LDS_HALF, "seed": 1, "params": params}
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["message"] == f"params.n_samples must be an integer, got {value!r}"
    assert not (out / "sweep.json").exists()


@pytest.mark.parametrize(
    "command,pipeline,system,params,key",
    [
        ("certify", "certify", SLDS_CHAIN, {**SLDS_PARAMS, "radius": None}, "radius"),
        ("certify", "certify", SLDS_CHAIN, {**SLDS_PARAMS, "alpha": "0.25"}, "alpha"),
        ("sweep", "sweep", LDS_HALF, {"variable": "epsilon", "grid": [None], "n_samples": 10},
         "epsilon"),
        ("sweep", "sweep", SLDS_CHAIN, {**SLDS_PARAMS, "variable": "alpha", "grid": [None]},
         "alpha"),
        ("verify", "verify-deviation", LDS_HALF,
         {**IID_PARAMS, "target_mean": True, "target_provenance": "stated"}, "target_mean"),
    ],
)
def test_null_or_string_where_a_number_is_expected_exits_2(
    tmp_path, capsys, command, pipeline, system, params, key
):
    # null used to reach float() and exit 1 with a TypeError, and true ran as 1.0
    body = {"pipeline": pipeline, "system": system, "seed": 1, "params": params}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"params.{key} must be a number, got ")
    assert not out.exists()


def test_whole_float_integer_params_run_as_their_integers(tmp_path):
    results = []
    for kind in (int, float):
        params = {**SMALL_DEVIATION_PARAMS, "n_samples": kind(40), "replications": kind(200)}
        body = {"pipeline": "verify-deviation", "system": LDS_HALF, "seed": 5,
                "params": params}
        path = write_config(tmp_path, body, name=f"config-{kind.__name__}.json")
        report, _ = cmd_verify(load_config(path))
        results.append(report.to_dict())
        sweep = {"variable": "n_samples", "grid": [kind(10), kind(100)], "epsilon": 0.3}
        body = {"pipeline": "sweep", "system": LDS_HALF, "seed": 1, "params": sweep}
        path = write_config(tmp_path, body, name=f"sweep-{kind.__name__}.json")
        results.append(cmd_sweep(load_config(path))["rows"])
    assert results[:2] == results[2:]


def test_certify_writes_enveloped_json(tmp_path):
    path = write_config(
        tmp_path,
        {"pipeline": "certify", "system": LDS_HALF, "seed": 2, "params": {}},
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["config_hash"] == load_config(path).config_hash
    assert payload["result"]["kind"] == "lds_certificates"
    assert payload["config"]["seed"] == 2


# -------------------------------------------------------------------- verify


def test_verify_deviation_passes(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": 42,
            "params": SMALL_DEVIATION_PARAMS,
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["result"]["all_pass"] is True
    assert (out / "report.csv").read_text().startswith(
        "epsilon,empirical,ci_low,ci_high,bound,pass"
    )


def test_verify_misset_target_exits_1(tmp_path):
    params = {
        **SMALL_DEVIATION_PARAMS,
        "target_mean": 1.92,
        "target_provenance": "deliberately_wrong",
    }
    path = write_config(
        tmp_path,
        {"pipeline": "verify-deviation", "system": LDS_HALF, "seed": 42, "params": params},
    )
    assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 1


def test_verify_rejects_pipeline_mismatch(tmp_path, capsys):
    path = write_config(
        tmp_path, {"pipeline": "certify", "system": LDS_HALF, "seed": 1, "params": {}}
    )
    assert main(["verify", "--config", path]) == 2
    assert "verify expects" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_verify_lyapunov_drift(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-lyapunov",
            "system": SLDS_CHAIN,
            "seed": 7,
            "params": {
                "x_grid": [[0.0], [1.0], [2.0], [4.0]],
                "samples_per_point": 1000,
                "radius": 1.0,
                "contraction": 0.5,
                "lipschitz": 1.0,
            },
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["result"]["kind"] == "empirical_drift"
    assert payload["result"]["certificate_violations"] == []


def test_verify_lyapunov_csv_rows(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-lyapunov",
            "system": SLDS_CHAIN,
            "seed": 7,
            "params": {"x_grid": [[0.0], [3.0]], "samples_per_point": 1000},
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    points = json.loads((out / "report.json").read_text())["result"]["points"]
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "lyapunov,estimate,stderr"
    assert lines[1:] == [
        f"{p['v']!r},{p['estimate']!r},{p['stderr']!r}" for p in points
    ]


def test_verify_one_sample_target_exits_2(tmp_path, capsys):
    # a one-sample Monte Carlo target has no standard error; the report
    # would carry NaN, which is not JSON
    params = {**SMALL_DEVIATION_PARAMS, "x0": [0.0, 0.0, 0.0], "target_samples": 1}
    path = write_config(
        tmp_path,
        {"pipeline": "verify-deviation", "system": half_lds(params), "seed": 42,
         "params": params},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValueError"
    assert "target_samples" in error["message"]
    assert not (out / "report.json").exists()
    with pytest.raises(ValueError):
        canonical_json({"value": math.nan})


@pytest.mark.parametrize("unused", [{"target_samples": 1}])
def test_verify_exact_target_ignores_monte_carlo_target_sizes(tmp_path, unused):
    # the 1-D norm reward's target is exact, so the Monte Carlo target's
    # sample count is never used and is not checked
    results = []
    for name, params in (
        ("default", SMALL_DEVIATION_PARAMS),
        ("unused", {**SMALL_DEVIATION_PARAMS, **unused}),
    ):
        path = write_config(
            tmp_path,
            {"pipeline": "verify-deviation", "system": LDS_HALF, "seed": 42,
             "params": params},
            f"{name}.json",
        )
        assert main(["verify", "--config", path, "--out", str(tmp_path / name)]) == 0
        results.append(json.loads((tmp_path / name / "report.json").read_text())["result"])
    default, changed = results
    assert changed["target_provenance"] == "half_normal_closed_form"
    assert changed == default


@pytest.mark.parametrize("x0", [[0.0, 0.0], [math.nan], [1e200]])
def test_verify_bad_x0_exits_2(tmp_path, capsys, x0):
    # x0 is checked before any simulation: a NaN or an overflowing start
    # would otherwise only fail when the finished report is encoded
    params = {**SMALL_DEVIATION_PARAMS, "x0": x0}
    path = write_config(
        tmp_path,
        {"pipeline": "verify-deviation", "system": LDS_HALF, "seed": 42, "params": params},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    # NaN is no JSON number, so a NaN start is refused as the config loads
    if math.isnan(x0[0]):
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("config holds NaN")
    else:
        assert error["type"] == "ValueError"
        assert error["message"].startswith("x0")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "key, params",
    [
        ("target_mean", {**IID_PARAMS, "target_provenance": "stated"}),
        ("te_constant", IID_PARAMS),
        ("epsilons", SMALL_DEVIATION_PARAMS),
    ],
)
def test_non_finite_config_number_exits_2_before_any_run(
    tmp_path, capsys, monkeypatch, key, params, constant
):
    # json.loads reads NaN and +-Infinity; an experiment run with one could
    # only fail when its finished report is encoded, leaving an empty output
    # directory behind
    value = [0.3, constant] if key == "epsilons" else constant
    path = write_config(
        tmp_path,
        {"pipeline": "verify-deviation", "system": LDS_HALF, "seed": 42,
         "params": {**params, key: value}},
    )
    text = Path(path).read_text()
    name = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(constant)]
    assert name in text
    monkeypatch.setattr(
        "concentrix.cli.cmd_verify", lambda config: pytest.fail("the experiment ran")
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == f"config holds {name}, which is not a JSON number"
    assert not out.exists()


def test_verify_zero_burn_in_exits_2(tmp_path, capsys):
    # with no burn-in every endpoint (and the Monte Carlo target) is the start
    # point, so every deviation is zero and any bound would "pass"
    params = {**IID_PARAMS, "burn_in": 0}
    path = write_config(
        tmp_path,
        {"pipeline": "verify-deviation", "system": LDS_HALF, "seed": 42, "params": params},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["message"].startswith("burn_in")
    assert not (out / "report.json").exists()


def test_verify_contraction_recovers_rate(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "contraction",
            "system": LDS_HALF,
            "seed": 9,
            "params": {
                "x0": [20.0],
                "n_max": 15,
                "per_step": 256,
                "reference_burn_in": 80,
                "expected_rate": 0.5,
                "tolerance": 0.1,
            },
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert abs(payload["result"]["rate"] - 0.5) <= 0.1
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "step,distance,used"


def test_verify_contraction_no_signal_exits_1(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "pipeline": "contraction",
            "system": {"type": "lds", "A": [[0.0]]},
            "seed": 9,
            "params": {"x0": [0.0], "n_max": 10, "per_step": 128},
        },
    )
    assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NoSignalError"


def test_verify_contraction_zero_per_step_exits_2(tmp_path, capsys):
    # per_step 0 used to run W1 on empty batches and exit 1 with "no signal"
    path = write_config(
        tmp_path,
        {
            "pipeline": "contraction",
            "system": LDS_HALF,
            "seed": 9,
            "params": {"x0": [5.0], "n_max": 5, "per_step": 0, "reference_count": 10},
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("per_step")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "params, message",
    [
        ({"per_step": 0, "reference_count": 100_000}, "per_step must"),
        ({"per_step": 2048, "reference_burn_in": 1000}, "per_step exceeds"),
        ({"n_max": 1}, "need at least two steps"),
        ({"per_step": 64, "reference_count": 127}, "reference batch"),
    ],
)
def test_verify_contraction_bad_sizes_exit_2_before_sampling(
    tmp_path, capsys, monkeypatch, params, message
):
    def sampler(*args, **kwargs):
        raise AssertionError("the reference batch was simulated")

    monkeypatch.setattr("concentrix.cli.burn_in_sampler", sampler)
    path = write_config(
        tmp_path,
        {
            "pipeline": "contraction",
            "system": LDS_HALF,
            "seed": 9,
            "params": {"x0": [5.0], "n_max": 5, **params},
        },
    )
    assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["message"].startswith(message)


# --------------------------------------------------------------------- sweep


def test_sweep_n_samples_bounds_decrease(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "sweep",
            "system": LDS_HALF,
            "seed": 1,
            "params": {"variable": "n_samples", "grid": [10, 100, 1000], "epsilon": 0.5},
        },
    )
    result = cmd_sweep(load_config(path))
    bounds = [row[2] for row in result["rows"]]
    assert bounds == sorted(bounds, reverse=True)
    assert result["rows"][1][1] == pytest.approx(400.0)


def _certificate(constant, rate, n_samples, lipschitz):
    return ConcentrationCertificate(
        constant=constant, rate=rate, n_samples=n_samples, lipschitz=lipschitz
    )


@pytest.mark.parametrize(
    "system, params, expected",
    [
        (
            LDS_HALF,
            {"variable": "n_samples", "grid": [1, 10, 100], "epsilon": 0.5, "lipschitz": 2.0},
            lambda n: [
                n,
                tensorized_constant(1.0, 0.5, n),
                trajectory_deviation_bound(_certificate(1.0, 0.5, n, 2.0), 0.5),
            ],
        ),
        (
            LDS_2D,
            {"variable": "epsilon", "grid": [0.1, 0.5, 2.0], "n_samples": 30, "lipschitz": 0.5},
            lambda e: [
                e,
                trajectory_deviation_bound(
                    _certificate(1.0, float(np.linalg.norm(LDS_2D["A"], 2)), 30, 0.5), e
                ),
            ],
        ),
        (
            None,
            {
                "variable": "rate",
                "grid": [0.0, 0.5, 0.9],
                "n_samples": 50,
                "epsilon": 0.3,
                "constant": 2.0,
            },
            lambda r: [
                r,
                tensorized_constant(2.0, r, 50),
                trajectory_deviation_bound(_certificate(2.0, r, 50, 1.0), 0.3),
            ],
        ),
    ],
    ids=["n_samples", "epsilon", "rate_without_system"],
)
def test_sweep_rows_match_closed_forms(tmp_path, system, params, expected):
    body = {"pipeline": "sweep", "seed": 1, "params": params}
    if system is not None:
        body["system"] = system
    result = cmd_sweep(load_config(write_config(tmp_path, body)))
    assert result["columns"][0] == params["variable"]
    assert len(result["rows"]) == len(params["grid"])
    for row, value in zip(result["rows"], params["grid"]):
        assert row == pytest.approx(expected(value), rel=1e-12)


@pytest.mark.parametrize(
    "params, missing",
    [
        ({"variable": "n_samples", "grid": [10]}, "epsilon"),
        ({"variable": "epsilon", "grid": [0.1]}, "n_samples"),
        ({"variable": "rate", "grid": [0.1], "epsilon": 0.3}, "n_samples"),
        ({"variable": "rate", "grid": [0.1], "n_samples": 10}, "epsilon"),
    ],
)
def test_sweep_missing_param_exits_2(tmp_path, capsys, params, missing):
    path = write_config(
        tmp_path, {"pipeline": "sweep", "system": LDS_HALF, "seed": 1, "params": params}
    )
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {
        "type": "ConfigError",
        "message": f"pipeline 'sweep' needs params.{missing}",
    }


def test_sweep_alpha_te_curve_finite(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "sweep",
            "system": SLDS_CHAIN,
            "seed": 1,
            "params": {
                "variable": "alpha",
                "grid": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35],
                "radius": 1.0,
                "contraction": 0.5,
                "lipschitz": 1.0,
            },
        },
    )
    result = cmd_sweep(load_config(path))
    te_column = result["columns"].index("te_constant")
    for row in result["rows"]:
        assert math.isfinite(row[te_column])
        assert row[te_column] > 0


def test_sweep_empty_grid_exits_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "pipeline": "sweep",
            "system": LDS_HALF,
            "seed": 1,
            "params": {"variable": "epsilon", "grid": [], "n_samples": 10},
        },
    )
    assert main(["sweep", "--config", path]) == 2
    assert "grid" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_sweep_unknown_variable_exits_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "pipeline": "sweep",
            "system": LDS_HALF,
            "seed": 1,
            "params": {"variable": "temperature", "grid": [1, 2]},
        },
    )
    assert main(["sweep", "--config", path]) == 2
    capsys.readouterr()


def test_sweep_writes_csv(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "sweep",
            "system": LDS_HALF,
            "seed": 1,
            "params": {"variable": "epsilon", "grid": [0.25, 0.5], "n_samples": 20},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,bound"
    assert len(lines) == 3


# ----------------------------------------------------------- reproducibility


def test_rerun_byte_identical(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": 11,
            "params": SMALL_DEVIATION_PARAMS,
        },
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["verify", "--config", path, "--out", str(out)])
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_workers_do_not_change_bytes(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": 12,
            "params": SMALL_DEVIATION_PARAMS,
        },
    )
    results = []
    for name, workers in (("w1", "1"), ("w8", "8")):
        out = tmp_path / name
        main(["verify", "--config", path, "--out", str(out), "--workers", workers])
        results.append(
            (out / "report.json").read_bytes() + (out / "report.csv").read_bytes()
        )
    assert results[0] == results[1]


def test_workers_below_one_exits_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": 12,
            "params": SMALL_DEVIATION_PARAMS,
        },
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out), "--workers", "0"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": "worker count must be at least 1"}
    assert not (out / "report.json").exists()


def test_workers_env_fallback(tmp_path, monkeypatch):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": 13,
            "params": SMALL_DEVIATION_PARAMS,
        },
    )
    out_flag = tmp_path / "flag"
    main(["verify", "--config", path, "--out", str(out_flag), "--workers", "1"])
    monkeypatch.setenv("CONCENTRIX_WORKERS", "4")
    out_env = tmp_path / "env"
    main(["verify", "--config", path, "--out", str(out_env)])
    assert (out_flag / "report.json").read_bytes() == (out_env / "report.json").read_bytes()


def test_embedded_config_reproduces_report(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": 14,
            "params": SMALL_DEVIATION_PARAMS,
        },
    )
    first = tmp_path / "first"
    main(["verify", "--config", path, "--out", str(first)])
    payload = json.loads((first / "report.json").read_text())

    replay_path = write_config(tmp_path, payload["config"], "replay.json")
    second = tmp_path / "second"
    main(["verify", "--config", replay_path, "--out", str(second)])
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


# ------------------------------------------------------------------- schemas


def test_schema_accepts_valid_documents(tmp_path):
    validate_against("system.schema.json", LDS_HALF)
    validate_against("system.schema.json", SLDS_CHAIN)
    validate_against(
        "experiment-config.schema.json",
        {"pipeline": "certify", "system": LDS_HALF, "seed": 1, "params": {}},
    )


def test_schema_rejects_invalid_documents():
    with pytest.raises(jsonschema.ValidationError):
        validate_against("system.schema.json", {"type": "lds"})
    for seed in (True, -1, 2**64):
        with pytest.raises(jsonschema.ValidationError):
            validate_against(
                "experiment-config.schema.json", {"pipeline": "certify", "seed": seed}
            )
    with pytest.raises(jsonschema.ValidationError):
        validate_against(
            "experiment-config.schema.json", {"pipeline": "meditate", "seed": 1}
        )
    with pytest.raises(jsonschema.ValidationError):
        validate_against(
            "system.schema.json",
            {"type": "slds", "regions": [{"predicate": {}, "A": [[0.5]]}]},
        )


def test_deviation_report_matches_schema(tmp_path):
    path = write_config(
        tmp_path,
        {
            "pipeline": "verify-deviation",
            "system": LDS_HALF,
            "seed": 15,
            "params": SMALL_DEVIATION_PARAMS,
        },
    )
    out = tmp_path / "out"
    main(["verify", "--config", path, "--out", str(out)])
    payload = json.loads((out / "report.json").read_text())
    validate_against("deviation-report.schema.json", payload)


# ------------------------------------------------------------ entry point


def test_console_entry_point(tmp_path):
    path = write_config(
        tmp_path,
        {"pipeline": "certify", "system": LDS_HALF, "seed": 1, "params": {}},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "concentrix.cli", "certify", "--config", path,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "certificate.json").exists()
