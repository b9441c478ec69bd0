"""Time to a verified concentrix report, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload from BENCHMARK.json, or ``all`` to run each in turn.
The seed becomes the master seed of every generated config.  Each
repetition is a fresh interpreter (repetition.py) that imports numpy,
scipy and concentrix from ``src/``, loads the configs, runs the stages and
reports its peak RSS; this process starts one repetition at a time and
checks every report.  Repetitions continue while another one fits in
``--seconds`` (at least two, so report bytes can be compared).

With ``--trace 0`` the result metrics are the end-to-end ones: medians of
set-up time, wall time and peak RSS over the repetitions.  With
``--trace 1`` untraced and traced repetitions alternate, and the metrics
are the per-layer numbers of the traced ones plus the tracing overhead.
The last stdout line is the JSON result; lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import check_repetition, differing_files, schema_validators, workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUNS = ROOT / ".perfbench_runs"
REQUIRED = (ROOT / "src" / "concentrix" / "cli.py", ROOT / "docs" / "schemas")
MIN_REPETITIONS = 2
REPETITION_TIMEOUT_S = 80
# one BLAS thread: the process then runs at most the workload's own workers
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_repetition(plan_path: Path, out_dir: Path, trace_file: Path | None) -> dict:
    """Run one repetition in a child process; its result plus the report bytes."""
    env = {k: v for k, v in os.environ.items() if k != "CONCENTRIX_WORKERS"}
    env.update(CHILD_ENV)
    argv = [sys.executable, str(HERE / "repetition.py"), str(plan_path), str(out_dir),
            str(trace_file or "")]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {REPETITION_TIMEOUT_S} s"],
                "duration": time.monotonic() - started}
    duration = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"repetition exited {proc.returncode}: {proc.stderr[-2000:]}"],
                "duration": duration}
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("loaded_at") - started
    result["duration"] = duration
    result["files"] = {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }
    result["problems"] = []
    return result


def write_plan(name: str, stages, workdir: Path, config_validator) -> Path:
    """Validate and write each stage's config, then the stage list; its path."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan = []
    for stage in stages:
        config_path = None
        if stage.config is not None:
            errors = list(config_validator.iter_errors(stage.config))
            if errors:
                raise SystemExit(f"{name}/{stage.name}: invalid config: {errors[0].message}")
            config_path = workdir / f"{stage.name}.config.json"
            config_path.write_text(json.dumps(stage.config, indent=2, sort_keys=True))
            config_path = str(config_path)
        plan.append({"name": stage.name, "config": config_path,
                     "workers": stage.workers, "args": stage.args})
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=2))
    return plan_path


def judge(name: str, stages, rep: dict, reference_files, report_validator) -> list[str]:
    """Problems of one repetition: its own checks, then bytes against the reference."""
    if rep["problems"]:
        return rep["problems"]
    problems = check_repetition(name, stages, rep["exit_codes"], rep["files"], report_validator)
    if reference_files is not None:
        changed = differing_files(reference_files, rep["files"])
        problems += [f"{p}: bytes differ from repetition 0" for p in changed]
    return problems


def run_workload(name: str, stages, seconds: float, trace: bool,
                 config_validator, report_validator) -> list[dict]:
    """Repeat one workload for about ``seconds``; per-repetition results."""
    workdir = RUNS / name
    shutil.rmtree(workdir, ignore_errors=True)
    plan_path = write_plan(name, stages, workdir, config_validator)

    reps = []
    started = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        out_dir = workdir / f"rep-{len(reps)}"
        rep = run_repetition(plan_path, out_dir, workdir / "trace.json" if traced else None)
        rep["traced"] = traced
        reference = reps[0].get("files") if reps else None
        rep["problems"] = judge(name, stages, rep, reference, report_validator)
        reps.append(rep)
        for problem in rep["problems"]:
            print(f"{name} repetition {len(reps) - 1}: {problem}", file=sys.stderr)
        elapsed = time.monotonic() - started
        typical = statistics.median(r["duration"] for r in reps)
        if len(reps) >= MIN_REPETITIONS and elapsed + typical > seconds:
            return reps


def _median(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else None


def summarize(name: str, reps: list[dict], trace: bool, units: dict) -> tuple[dict, int]:
    """Metrics of one workload (name -> value) and its failed repetition count.

    ``units`` maps each metric to report to its unit.
    """
    failed = sum(1 for r in reps if r["problems"])
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        values = {k: _median(plain, k) for k in ("setup_s", "wall_s", "peak_rss_mb")}
        count = sum(1 for r in plain if "wall_s" in r)
        print(f"{name}: setup_s {values['setup_s']} s, wall_s {values['wall_s']} s "
              f"(median of {count}), peak_rss_mb {values['peak_rss_mb']} MB, "
              f"failed_share {failed}/{len(reps)} = {failed / len(reps):g}")
    else:
        traced = [r["layers"] for r in reps if r["traced"] and "layers" in r] or [{}]
        # median_low keeps counts whole and every time a measured one
        values = {k: statistics.median_low(t[k] for t in traced) for k in traced[0]}
        traced_wall = _median([r for r in reps if r["traced"]], "wall_s")
        plain_wall = _median(plain, "wall_s")
        if traced_wall is not None and plain_wall is not None:
            values["trace.overhead_s"] = traced_wall - plain_wall
        for key, unit in units.items():
            print(f"{name}: {key} {values.get(key)} {unit}")
    return {k: values.get(k) for k in units}, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    builders = workloads(len(os.sched_getaffinity(0)))
    names = list(builders) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in builders]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {sorted(builders)} or 'all'",
              file=sys.stderr)
        return 2
    config_validator, report_validator = schema_validators(ROOT / "docs" / "schemas")

    out, attempted, failed = {}, 0, 0
    for name in names:
        reps = run_workload(name, builders[name](args.seed), args.seconds,
                            bool(args.trace), config_validator, report_validator)
        values, rep_failed = summarize(name, reps, bool(args.trace), units)
        attempted += len(reps)
        failed += rep_failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            if value is None:
                print(f"{name}: no measurement of {key}", file=sys.stderr)
                return 1
            out[prefix + key] = {"value": value, "unit": units[key]}
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    print(f"environment: nproc {len(os.sched_getaffinity(0))}, "
          + ", ".join(f"{k} {v}" for k, v in versions.items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
