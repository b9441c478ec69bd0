"""Outside-in span tracer for the concentrix modules.

The package carries no tracing of its own, so this module wraps the public
functions the benchmark cares about under every module name that binds
them (``from .dynamics import simulate_batch`` makes ``montecarlo`` bind the
same function object, and calls through it would bypass a wrapper placed
on ``dynamics`` alone).  Each call records a span (name, start, end,
parent) on a per-thread stack; spans stay in memory until the run ends.
Counts come from return values only.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (home module, function name); the transport layer is traced whole
TRACED = (
    ("dynamics", "simulate_batch"),
    ("dynamics", "derive_seed"),
    ("dynamics", "check_slds_hypothesis"),
    ("montecarlo", "burn_in_sampler"),
    ("montecarlo", "empirical_w1"),
    ("montecarlo", "deviation_probability_experiment"),
    ("montecarlo", "iid_deviation_experiment"),
    ("montecarlo", "contraction_rate_fit"),
    ("montecarlo", "lds_stationary_covariance"),
    ("lyapunov", "minorization_beta"),
    ("lyapunov", "empirical_drift_check"),
    ("lyapunov", "slds_exp_lyapunov"),
    ("lyapunov", "slds_geometric_drift"),
    ("transport", "lds_certificate"),
    ("transport", "gaussian_w2"),
    ("transport", "tensorized_constant"),
    ("transport", "trajectory_deviation_bound"),
    ("transport", "bias_term"),
    ("transport", "iid_deviation_bound"),
    ("transport", "correlation_bound"),
    ("transport", "bobkov_goetze_gap"),
    ("cli", "load_config"),
    ("cli", "canonical_json"),
)

PACKAGE = "concentrix"


def _simulate_batch_counts(result):
    m, t1, n = result.shape
    return {"trajectories": m, "steps": m * (t1 - 1), "dim": n}


def _burn_in_counts(result):
    return {"count": len(result)}


def _w1_counts(result):
    return {"solver": result.solver, "size": result.size}


def _minorization_counts(result):
    # start points on the radius ball times quadrature nodes, rebuilt from
    # the returned grid parameters
    n, res, radius = len(result.truncation), result.resolution, result.radius
    if radius == 0.0:
        starts = 1
    else:
        axis = np.linspace(-radius, radius, res)
        mesh = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1)
        starts = int(np.count_nonzero(np.linalg.norm(mesh, axis=-1) <= radius))
    return {"grid_pairs": starts * res**n}


def _canonical_json_counts(result):
    return {"bytes": len(result.encode())}


COUNTERS = {
    "dynamics.simulate_batch": _simulate_batch_counts,
    "montecarlo.burn_in_sampler": _burn_in_counts,
    "montecarlo.empirical_w1": _w1_counts,
    "lyapunov.minorization_beta": _minorization_counts,
    "cli.canonical_json": _canonical_json_counts,
}


COUNT_TOTALS = (
    "dynamics.simulate_batch.trajectories",
    "dynamics.simulate_batch.steps",
    "dynamics.simulate_batch.computed_bytes",
    "montecarlo.burn_in_sampler.count",
    "montecarlo.empirical_w1.assignment_solves",
    "lyapunov.minorization_beta.grid_pairs",
    "cli.canonical_json.bytes",
)


class Tracer:
    """Wraps the traced functions while installed; records spans.

    A span is ``[name, start, end, parent, thread, counts]`` with
    ``parent`` the index of the enclosing span.  A span opened on a worker
    thread whose own stack is empty is parented to the innermost open span
    of the main thread, which is the call that handed out the work.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for home, fname in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{home}"], fname)
            wrapper = self._wrap(f"{home}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def _stack(self) -> list[int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, lock, stack_of = self.spans, self._lock, self._stack
        main = threading.main_thread().ident
        stacks = self._stacks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack else None
            record = [name, 0.0, 0.0, parent, threading.get_ident(), None]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                record[5] = counter(result)
            return result

        return traced

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Per span: duration minus the part its child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        out = []
        for index, (_, start, end, *_rest) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counts, keyed by metric name."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        totals = dict.fromkeys(COUNT_TOTALS, 0)
        w1_sizes = [0]
        sim_threads = defaultdict(set)
        for span, own in zip(self.spans, selfs):
            name, counts = span[0], span[5]
            layer = "transport" if name.startswith("transport.") else name
            calls[layer] += 1
            self_s[layer] += own
            if name == "dynamics.simulate_batch":
                sim_threads[span[3]].add(span[4])
                totals[name + ".trajectories"] += counts["trajectories"]
                totals[name + ".steps"] += counts["steps"]
                totals[name + ".computed_bytes"] += 2 * counts["steps"] * counts["dim"] * 8
            elif name == "montecarlo.empirical_w1":
                if counts["solver"] == "assignment":
                    totals[name + ".assignment_solves"] += 1
                    w1_sizes.append(counts["size"])
            elif name == "montecarlo.burn_in_sampler":
                totals[name + ".count"] += counts["count"]
            elif name == "lyapunov.minorization_beta":
                totals[name + ".grid_pairs"] += counts["grid_pairs"]
            elif name == "cli.canonical_json":
                totals[name + ".bytes"] += counts["bytes"]

        sim = "dynamics.simulate_batch"
        trajectories = totals[sim + ".trajectories"]
        metrics = dict(totals)
        metrics[sim + ".us_per_trajectory"] = (
            1e6 * self_s[sim] / trajectories if trajectories else 0.0
        )
        # most threads that ran simulate_batch under one caller
        metrics[sim + ".threads"] = max((len(t) for t in sim_threads.values()), default=0)
        metrics["montecarlo.empirical_w1.assignment_max_size"] = max(w1_sizes)
        layers = {"transport"} | {f"{h}.{f}" for h, f in TRACED if h != "transport"}
        for layer in layers:
            metrics[layer + ".calls"] = calls[layer]
            metrics[layer + ".self_s"] = self_s[layer]
        return metrics

    def dump(self) -> dict:
        """Spans in a compact form for writing out when the run ends."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        threads = sorted({span[4] for span in self.spans})
        thread_index = {t: i for i, t in enumerate(threads)}
        return {
            "names": names,
            "columns": ["name", "start", "end", "parent", "thread", "counts"],
            "spans": [
                [index[s[0]], s[1], s[2], s[3], thread_index[s[4]], s[5]]
                for s in self.spans
            ],
        }
