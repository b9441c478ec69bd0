"""Tests of the benchmark itself: tracing, determinism and failure counting.

Run with ``python3 -m pytest perfbench``.  Workload sizes are shrunk here;
the properties checked do not depend on size.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import pytest

import repetition
import run
from tracer import Tracer
from workloads import LDS_TARGET_MEAN, schema_validators, workloads

sys.path.insert(0, str(run.ROOT / "src"))

import concentrix  # noqa: E402
from concentrix import cli, dynamics, lyapunov, montecarlo  # noqa: E402

CONFIG_VALIDATOR, REPORT_VALIDATOR = schema_validators(run.ROOT / "docs" / "schemas")

SMALL_PARAMS = {
    "lds-trajectory": {"n_samples": 50, "replications": 200, "target_samples": 2000},
    "slds-iid": {"n_samples": 40, "replications": 100, "target_samples": 2000},
    "slds-classical": {"samples_per_point": 2000, "per_step": 64},
}


def small_stages(name: str, seed: int = 3, workers: int = 2):
    stages = workloads(workers)[name](seed)
    for stage in stages:
        if stage.config is not None:
            stage.config["params"].update(SMALL_PARAMS[name])
        else:
            stage.args["resolution"] = 20
    return stages


def run_in_process(stages, workdir: Path, traced: bool) -> tuple[dict, dict]:
    plan = json.loads(run.write_plan("test", stages, workdir, CONFIG_VALIDATOR).read_text())
    out_dir = workdir / ("traced" if traced else "plain")
    tracer = Tracer()
    with tracer if traced else contextlib.nullcontext():
        codes = repetition.run_stages(plan, repetition.load_plan(plan), out_dir)
    assert bool(tracer.spans) == traced
    files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return codes, files


def test_tracer_wraps_every_binding_and_restores_it():
    bindings = {
        "simulate_batch": (dynamics, montecarlo, concentrix),
        "derive_seed": (dynamics, montecarlo, lyapunov, cli, concentrix),
        "burn_in_sampler": (montecarlo, cli, concentrix),
        "check_slds_hypothesis": (dynamics, lyapunov, concentrix),
    }
    originals = {(m.__name__, f): getattr(m, f) for f, ms in bindings.items() for m in ms}
    tracer = Tracer()
    with tracer:
        for (module_name, fname), original in originals.items():
            assert getattr(sys.modules[module_name], fname) is not original
        patched = tracer.patched
        dynamics.derive_seed(1, 2)
        cli.derive_seed(1, 2)
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original
    for (module_name, fname), original in originals.items():
        assert getattr(sys.modules[module_name], fname) is original
    assert [s[0] for s in tracer.spans] == ["dynamics.derive_seed"] * 2


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ["outer", 0.0, 10.0, None, 1, None],
        ["a", 1.0, 4.0, 0, 2, None],
        ["b", 3.0, 6.0, 0, 3, None],  # overlaps a on another thread
        ["c", 1.5, 2.0, 1, 2, None],
    ]
    assert tracer.self_times() == pytest.approx([5.0, 2.5, 3.0, 0.5])


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_traced_and_untraced_reports_are_equal(name, tmp_path):
    stages = small_stages(name)
    plain_codes, plain = run_in_process(stages, tmp_path, traced=False)
    traced_codes, traced = run_in_process(stages, tmp_path, traced=True)
    assert plain and plain == traced
    assert plain_codes == traced_codes


def test_slds_iid_reports_equal_across_worker_counts(tmp_path):
    reports = []
    for workers in (1, 2):
        stages = small_stages("slds-iid", workers=workers)
        assert stages[0].workers == workers
        codes, files = run_in_process(stages, tmp_path / str(workers), traced=False)
        assert codes == {"deviation": 0}
        reports.append(files["deviation/report.json"])
    assert reports[0] == reports[1]


def _deviation_report(all_pass: bool, target_mean: float = LDS_TARGET_MEAN) -> bytes:
    result = {
        "kind": "trajectory_subgaussian", "epsilons": [0.1, 0.2], "counts": [3, 0],
        "frequencies": [0.01, 0.0], "ci_low": [0.0, 0.0], "ci_high": [0.03, 0.01],
        "bounds": [0.02 if not all_pass else 0.5, 0.5], "passes": [all_pass, True],
        "replications": 300, "n_samples": 10, "target_mean": target_mean,
        "target_provenance": "monte_carlo_burn_in", "bias": 0.0, "all_pass": all_pass,
        "details": {"target_stderr": 0.001},
    }
    report = {"config": {}, "config_hash": "0" * 64, "code_version": "0", "result": result}
    return cli.canonical_json(report).encode()


def _rep(report: bytes, exit_code: int = 0) -> dict:
    return {"problems": [], "exit_codes": {"deviation": exit_code}, "traced": False,
            "setup_s": 1.0, "wall_s": 2.0, "peak_rss_mb": 100.0,
            "files": {"deviation/report.json": report, "deviation/report.csv": b"x\n"}}


def test_failing_row_and_differing_bytes_count_as_failures():
    stages = workloads(2)["lds-trajectory"](1)
    good = _rep(_deviation_report(True))
    failing_row = _rep(_deviation_report(False), exit_code=0)
    far_target = _rep(_deviation_report(True, target_mean=LDS_TARGET_MEAN + 0.01))
    changed = _rep(_deviation_report(True))
    changed["files"]["deviation/report.csv"] = b"y\n"

    assert run.judge("lds-trajectory", stages, good, None, REPORT_VALIDATOR) == []
    for rep in (failing_row, far_target):
        rep["problems"] = run.judge("lds-trajectory", stages, rep, None, REPORT_VALIDATOR)
        assert rep["problems"]
    changed["problems"] = run.judge("lds-trajectory", stages, changed, good["files"],
                                    REPORT_VALIDATOR)
    reps = [good, failing_row, far_target, changed]
    assert any("bytes differ" in p for p in changed["problems"])
    _, failed = run.summarize("lds-trajectory", reps, False, {"wall_s": "s"})
    assert failed == 3
