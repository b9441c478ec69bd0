"""One repetition of a workload, run in a fresh interpreter.

    python repetition.py PLAN OUT_DIR TRACE_FILE

PLAN is the JSON stage list that run.py writes; reports go under OUT_DIR,
one directory per stage.  With a TRACE_FILE the stages run under the
outside-in tracer and the spans are written there at the end; an empty
string means untraced.  The last stdout line is one JSON object with the
monotonic time at which the configs were loaded (the parent measures
set-up from before it started this process), the wall time from loaded
configs to the last report written, peak RSS, and the stage exit codes.
"""

import sys
import time  # only light imports before the timed set-up

import contextlib
import io
import json
import resource
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_plan(plan: list[dict]):
    """Import the package from src/ and load every stage's input."""
    sys.path.insert(0, str(ROOT / "src"))
    from concentrix import cli, dynamics

    inputs = []
    for stage in plan:
        if stage["config"] is not None:
            inputs.append(cli.load_config(stage["config"]))
        else:
            inputs.append(dynamics.system_from_dict(stage["args"]["system"]))
    return inputs


def run_stages(plan: list[dict], inputs, out_dir: Path) -> dict:
    """Run each stage through the public API; stage name -> exit code.

    The library stage has exit code None.  A stage that raises is recorded
    as a crash string and the remaining stages still run.
    """
    from concentrix import cli, lyapunov

    codes = {}
    for stage, loaded in zip(plan, inputs):
        target = out_dir / stage["name"]
        try:
            if stage["config"] is not None:
                argv = ["verify", "--config", stage["config"], "--out", str(target),
                        "--workers", str(stage["workers"])]
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[stage["name"]] = cli.main(argv)
            else:
                args = stage["args"]
                estimate = lyapunov.minorization_beta(
                    loaded, args["radius"], tuple(args["truncation"]),
                    resolution=args["resolution"],
                )
                target.mkdir(parents=True, exist_ok=True)
                (target / "minorization.json").write_text(
                    cli.canonical_json(estimate.to_dict())
                )
                codes[stage["name"]] = None
        except Exception as exc:  # reported to the parent as a failed stage
            traceback.print_exc()
            codes[stage["name"]] = f"crash: {type(exc).__name__}: {exc}"
    return codes


def main(argv) -> int:
    plan_path, out_dir, trace_file = argv
    plan = json.loads(Path(plan_path).read_text())
    inputs = load_plan(plan)
    loaded_at = time.monotonic()

    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        codes = run_stages(plan, inputs, Path(out_dir))
        wall_s = time.perf_counter() - start
    result = {
        "loaded_at": loaded_at,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
        "versions": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        Path(trace_file).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
