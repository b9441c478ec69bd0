"""Random dynamical systems with standard-normal noise.

Two model families are supported: a linear system ``x' = A x + xi`` and a
switched linear system ``x' = A_j x + xi`` where ``j`` is the index of the
first region predicate that matches ``x``.  The noise ``xi`` is always
N(0, I_n); simulation is bit-reproducible from a seed in [0, 2**64).  A
trajectory's noise is exactly what ``Generator(PCG64(seed))`` draws, but
the generator states of a whole batch are computed at once in numpy and
loaded into one reused generator, because building one PCG64 per seed costs
more than its draws.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "HypothesisError",
    "Predicate",
    "RegionSpec",
    "SystemSpec",
    "Trajectory",
    "RegionCheck",
    "HypothesisReport",
    "derive_seed",
    "derive_seeds",
    "step",
    "simulate",
    "simulate_batch",
    "simulate_endpoints",
    "region_index",
    "spectral_norm",
    "check_slds_hypothesis",
    "system_to_dict",
    "system_from_dict",
    "system_digest",
    "load_system",
    "save_system",
]


class HypothesisError(ValueError):
    """A mixing hypothesis is malformed (e.g. contraction bound >= 1)."""


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 array arithmetic wraps mod 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seeds(master_seed, start: int, stop: int) -> np.ndarray:
    """``derive_seed(master_seed, i)`` for every ``i`` in ``range(start, stop)``.

    Parameters
    ----------
    master_seed : int or ndarray
        One master seed (an int, reduced mod 2**64), or a 1-D uint64 array
        of master seeds.
    start, stop : int
        Index range; ``start`` must be nonnegative.

    Returns
    -------
    ndarray of uint64
        Shape ``(stop - start,)`` for one master, ``(len(master_seed),
        stop - start)`` for an array of masters.
    """
    if start < 0:
        raise ValueError("index must be nonnegative")
    if isinstance(master_seed, np.ndarray):
        masters = master_seed.astype(np.uint64, copy=False)[:, None]
    else:
        masters = np.uint64(int(master_seed) & _MASK64)
    indices = np.arange(max(stop - start, 0), dtype=np.uint64)
    steps = (indices + np.uint64((start + 1) & _MASK64)) * np.uint64(_GOLDEN)
    return _mix64(_mix64(masters + steps))


def derive_seed(master_seed: int, index: int) -> int:
    """Derive an independent substream seed from a 64-bit master seed.

    Applies two rounds of the splitmix64 avalanche mixer to
    ``master + (index + 1) * golden_ratio_increment`` (mod 2**64).  Nearby
    (seed, index) pairs map to statistically unrelated outputs, so parallel
    and serial executions can hand out per-task seeds without coordination
    and agree bit-exactly.  :func:`derive_seeds` computes a whole index
    range at once.

    Parameters
    ----------
    master_seed : int
        Master seed, reduced mod 2**64.
    index : int
        Nonnegative task index.

    Returns
    -------
    int
        Derived 64-bit seed.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    return int(derive_seeds(master_seed, int(index), int(index) + 1)[0])


# numpy's SeedSequence constants (pool of four 32-bit words) and the PCG64
# multiplier; _pcg64_states reproduces PCG64(seed) from them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = (1 << 32) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_array(seeds) -> np.ndarray:
    """Seeds as a 1-D uint64 array; each must lie in [0, 2**64)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds.reshape(-1)
    values = [int(s) for s in seeds]
    if any(not 0 <= s <= _MASK64 for s in values):
        raise ValueError("seeds must lie in [0, 2**64)")
    return np.array(values, dtype=np.uint64)


def _pcg64_states(seeds: np.ndarray):
    """Yield (state, inc) of ``np.random.PCG64(seed)`` for each uint64 seed.

    A seed below 2**64 enters ``SeedSequence`` as the two 32-bit words
    ``[lo, hi]``: shorter entropy is padded with ``hashmix(0)``, which is
    what a zero word gives.  The pool mixing and ``generate_state(4,
    uint64)`` run here on whole uint32 arrays; PCG64 then seeds with
    ``pcg_setseq_128_srandom_r``.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(low), hashmix(high), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # little-endian pairs of 32-bit words: seed[0], seed[1], inc[0], inc[1]
    halves = [
        (words[2 * k] | (words[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)
    ]
    for s0, s1, i0, i1 in zip(*halves):
        inc = ((((i0 << 64) | i1) << 1) | 1) & _MASK128
        yield ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128, inc


def _standard_normals(seeds: np.ndarray, n_steps: int, dim: int) -> np.ndarray:
    """(len(seeds), n_steps, dim) noise; row i is PCG64(seeds[i])'s first draws."""
    noise = np.empty((len(seeds), n_steps, dim))
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (pcg_state, inc) in zip(noise, _pcg64_states(seeds)):
        pcg["state"], pcg["inc"] = pcg_state, inc
        gen.bit_generator.state = state
        gen.standard_normal(out=row)
    return noise


def _as_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def spectral_norm(a) -> float:
    """Largest singular value of a square matrix.

    Computed from the symmetric eigenproblem of ``A.T @ A`` with the top
    eigenvalue clamped at zero before the square root.
    """
    m = _as_matrix(a)
    w = np.linalg.eigvalsh(m.T @ m)
    return float(np.sqrt(max(float(w[-1]), 0.0)))


@dataclass(frozen=True)
class Predicate:
    """Region membership test: a conjunction of optional constraints.

    Constraints are a closed ball ``||x|| <= ball_le``, an open complement
    ``||x|| > ball_gt``, and halfspaces ``normal . x <= offset``.  A
    catch-all predicate matches everything and carries no other constraint.
    """

    ball_le: float | None = None
    ball_gt: float | None = None
    halfspaces: tuple[tuple[tuple[float, ...], float], ...] = ()
    catch_all: bool = False

    def __post_init__(self):
        if self.catch_all:
            if self.ball_le is not None or self.ball_gt is not None or self.halfspaces:
                raise ValueError("catch_all predicate cannot carry other constraints")
            return
        if self.ball_le is None and self.ball_gt is None and not self.halfspaces:
            raise ValueError("empty predicate; use catch_all=True to match everything")
        for r in (self.ball_le, self.ball_gt):
            if r is not None and not (np.isfinite(r) and r >= 0):
                raise ValueError("ball radius must be finite and nonnegative")
        hs = []
        for normal, offset in self.halfspaces:
            vec = tuple(float(v) for v in normal)
            if not all(np.isfinite(vec)) or not np.isfinite(offset):
                raise ValueError("halfspace coefficients must be finite")
            hs.append((vec, float(offset)))
        object.__setattr__(self, "halfspaces", tuple(hs))

    def matches(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if self.catch_all:
            return True
        nrm = float(np.linalg.norm(x))
        if self.ball_le is not None and nrm > self.ball_le:
            return False
        if self.ball_gt is not None and nrm <= self.ball_gt:
            return False
        for normal, offset in self.halfspaces:
            if float(np.dot(normal, x)) > offset:
                return False
        return True

    def matches_batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership over an (m, n) array of points."""
        pts = np.asarray(pts, dtype=float)
        m = pts.shape[0]
        if self.catch_all:
            return np.ones(m, dtype=bool)
        ok = np.ones(m, dtype=bool)
        if self.ball_le is not None or self.ball_gt is not None:
            nrm = np.linalg.norm(pts, axis=1)
            if self.ball_le is not None:
                ok &= nrm <= self.ball_le
            if self.ball_gt is not None:
                ok &= nrm > self.ball_gt
        for normal, offset in self.halfspaces:
            ok &= pts @ np.asarray(normal) <= offset
        return ok

    def to_dict(self) -> dict:
        if self.catch_all:
            return {"catch_all": True}
        out: dict = {}
        if self.ball_le is not None:
            out["ball_le"] = self.ball_le
        if self.ball_gt is not None:
            out["ball_gt"] = self.ball_gt
        if self.halfspaces:
            out["halfspaces"] = [
                {"normal": list(normal), "offset": offset}
                for normal, offset in self.halfspaces
            ]
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "Predicate":
        known = {"ball_le", "ball_gt", "halfspaces", "catch_all"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown predicate keys: {sorted(unknown)}")
        if obj.get("catch_all"):
            return cls(catch_all=True)
        hs = tuple(
            (tuple(h["normal"]), float(h["offset"]))
            for h in obj.get("halfspaces", ())
        )
        return cls(
            ball_le=obj.get("ball_le"),
            ball_gt=obj.get("ball_gt"),
            halfspaces=hs,
        )


@dataclass(frozen=True)
class RegionSpec:
    """Ordered decision list of predicates; the last entry must catch all.

    First match wins, so regions are pairwise disjoint by construction and
    every point belongs to exactly one region.
    """

    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        preds = tuple(self.predicates)
        if not preds:
            raise ValueError("RegionSpec needs at least one predicate")
        if not preds[-1].catch_all:
            raise ValueError("last predicate must be a catch-all")
        if any(p.catch_all for p in preds[:-1]):
            raise ValueError("only the last predicate may be a catch-all")
        object.__setattr__(self, "predicates", preds)

    def __len__(self) -> int:
        return len(self.predicates)


def region_index(regions: RegionSpec, x) -> int:
    """Index of the first predicate matching ``x`` (total by construction)."""
    for i, pred in enumerate(regions.predicates):
        if pred.matches(x):
            return i
    raise AssertionError("unreachable: catch-all predicate missing")


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Immutable description of a linear or switched linear system.

    Use the :meth:`lds` and :meth:`slds` factories; matrices are stored
    read-only so an instance cannot change once built.
    """

    kind: str
    matrices: tuple[np.ndarray, ...]
    regions: RegionSpec | None = None

    @classmethod
    def lds(cls, a) -> "SystemSpec":
        return cls(kind="lds", matrices=(_as_matrix(a),), regions=None)

    @classmethod
    def slds(cls, region_pairs) -> "SystemSpec":
        """Build a switched system from (predicate, matrix) pairs, in order."""
        pairs = list(region_pairs)
        if not pairs:
            raise ValueError("slds needs at least one region")
        preds = tuple(p for p, _ in pairs)
        mats = tuple(_as_matrix(a) for _, a in pairs)
        dims = {m.shape[0] for m in mats}
        if len(dims) != 1:
            raise ValueError("all region matrices must share one dimension")
        (dim,) = dims
        for pred in preds:
            for normal, _ in pred.halfspaces:
                if len(normal) != dim:
                    raise ValueError(
                        f"halfspace normal {list(normal)} has length {len(normal)}, "
                        f"but the system has dimension {dim}"
                    )
        return cls(kind="slds", matrices=mats, regions=RegionSpec(preds))

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def matrix_for(self, x) -> np.ndarray:
        if self.kind == "lds":
            return self.matrices[0]
        return self.matrices[region_index(self.regions, x)]

    def to_dict(self) -> dict:
        return system_to_dict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "SystemSpec":
        return system_from_dict(obj)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated path: ``states[0]`` is the start, one row per step after."""

    states: np.ndarray  # (n_steps + 1, dim)
    seed: int

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    def to_csv(self, path) -> None:
        """Write states as CSV with columns step, x_1..x_n."""
        _write_csv(
            path,
            ["step"] + [f"x_{i + 1}" for i in range(self.dim)],
            ([k] + [repr(float(v)) for v in row] for k, row in enumerate(self.states)),
        )


def _write_csv(path, header, rows) -> None:
    """Write one header row and then ``rows``; every report CSV goes through here."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_vector(x, dim: int, name: str = "x") -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, system has {dim}")
    return v


def step(spec: SystemSpec, x, noise) -> np.ndarray:
    """One transition: apply the active matrix to ``x`` and add ``noise``."""
    xv = _check_vector(x, spec.dim, "x")
    nv = _check_vector(noise, spec.dim, "noise")
    return spec.matrix_for(xv) @ xv + nv


def _apply_matrices(spec: SystemSpec, pts: np.ndarray) -> np.ndarray:
    """Apply the region-appropriate matrix to each row of ``pts``."""
    if spec.kind == "lds":
        return pts @ spec.matrices[0].T
    out = np.empty_like(pts)
    remaining = np.ones(pts.shape[0], dtype=bool)
    for pred, mat in zip(spec.regions.predicates, spec.matrices):
        mask = remaining & pred.matches_batch(pts)
        if mask.any():
            out[mask] = pts[mask] @ mat.T
            remaining &= ~mask
            if not remaining.any():
                break
    return out


def simulate_batch(spec: SystemSpec, x0, n_steps: int, seeds) -> np.ndarray:
    """Simulate one trajectory per seed, all from the same start.

    Each trajectory's noise is bit-identical to the draws of
    ``np.random.Generator(np.random.PCG64(seed))``, so the result is
    independent of batch composition: simulating a seed alone or inside any
    batch yields the same states.  Every seed must lie in [0, 2**64).

    Returns
    -------
    ndarray of shape (len(seeds), n_steps + 1, dim).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    x0v = _check_vector(x0, spec.dim, "x0")
    seeds = _seed_array(seeds)
    noise = _standard_normals(seeds, n_steps, spec.dim)
    states = np.empty((len(seeds), n_steps + 1, spec.dim))
    cur = np.tile(x0v, (len(seeds), 1))
    states[:, 0] = cur
    for k in range(n_steps):
        cur = _apply_matrices(spec, cur) + noise[:, k]
        states[:, k + 1] = cur
    return states


# noise drawn at once by simulate_endpoints: big enough that the per-step
# numpy calls are amortised over many trajectories, small enough that peak
# memory does not grow with the number of trajectories
_NOISE_BUDGET_BYTES = 2**20


def _endpoint_chunk(n_steps: int, dim: int) -> int:
    """Trajectories whose noise fits the budget (at least one)."""
    return max(1, _NOISE_BUDGET_BYTES // max(1, n_steps * dim * 8))


def simulate_endpoints(spec: SystemSpec, x0, n_steps: int, seeds) -> np.ndarray:
    """Final states of :func:`simulate_batch`, bit for bit, without the paths.

    Trajectories run in chunks whose noise fits a fixed byte budget, so
    memory stays bounded however many seeds are given.

    Returns
    -------
    ndarray of shape (len(seeds), dim).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    x0v = _check_vector(x0, spec.dim, "x0")
    seeds = _seed_array(seeds)
    out = np.empty((len(seeds), spec.dim))
    chunk = _endpoint_chunk(n_steps, spec.dim)
    for lo in range(0, len(seeds), chunk):
        noise = _standard_normals(seeds[lo : lo + chunk], n_steps, spec.dim)
        cur = np.tile(x0v, (noise.shape[0], 1))
        for k in range(n_steps):
            cur = _apply_matrices(spec, cur) + noise[:, k]
        out[lo : lo + chunk] = cur
        del noise  # free this chunk's noise before the next one is drawn
    return out


def simulate(spec: SystemSpec, x0, n_steps: int, seed: int) -> Trajectory:
    """Run ``n_steps`` transitions from ``x0`` with i.i.d. N(0, I) noise.

    Pure function of its arguments: the same (spec, x0, n_steps, seed)
    always produces the same state list.
    """
    states = simulate_batch(spec, x0, n_steps, [seed])[0]
    return Trajectory(states=states, seed=int(seed))


@dataclass(frozen=True)
class RegionCheck:
    """Per-region outcome of a switched-system hypothesis check."""

    region: int
    norm: float
    classification: str  # "contractive" | "bounded" | "violation"
    reason: str | None = None


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    regions: tuple[RegionCheck, ...]
    radius: float
    contraction: float
    lipschitz: float

    @property
    def violations(self) -> tuple[RegionCheck, ...]:
        return tuple(c for c in self.regions if c.classification == "violation")

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "radius": self.radius,
            "contraction": self.contraction,
            "lipschitz": self.lipschitz,
            "regions": [
                {
                    "region": c.region,
                    "norm": c.norm,
                    "classification": c.classification,
                    "reason": c.reason,
                }
                for c in self.regions
            ],
        }


# HiGHS's default primal feasibility tolerance; pads the linprog caps
_LP_TOL = 1e-7


def _region_contained_in_ball(pred: Predicate, radius: float, dim: int) -> bool:
    """Whether every point matching ``pred`` lies in the closed ``radius`` ball.

    A ``ball_le`` bound settles it.  Otherwise each coordinate is maximised
    and minimised over the halfspaces with ``linprog``: an unbounded program
    means an unbounded region and infeasible ones an empty region; else the
    region lies in the box of the per-coordinate caps, padded by the solver
    tolerance, and is contained when the box's corner is.  Dropping
    ``ball_gt`` and the earlier regions only enlarges the region, so the
    answer can be a false "no" but never a false "yes".
    """
    if pred.ball_le is not None:
        return pred.ball_le <= radius
    normals = np.array([normal for normal, _ in pred.halfspaces]).reshape(-1, dim)
    offsets = np.array([offset for _, offset in pred.halfspaces])
    caps = np.zeros(dim)
    for i in range(dim):
        for sign in (1.0, -1.0):
            objective = np.zeros(dim)
            objective[i] = -sign  # linprog minimises, so this maximises sign * x_i
            res = linprog(objective, A_ub=normals, b_ub=offsets, bounds=(None, None))
            if res.status == 2:
                return True  # no point satisfies the halfspaces
            if res.status != 0:
                return False  # unbounded, or the solver could not decide
            caps[i] = max(caps[i], abs(res.fun))
    return float(np.linalg.norm(caps + _LP_TOL * (1.0 + caps))) <= radius


def check_slds_hypothesis(
    spec: SystemSpec, radius: float, contraction: float, lipschitz: float
) -> HypothesisReport:
    """Verify the geometric-mixing hypothesis for a switched system.

    Every region must either be contractive (matrix norm <= ``contraction``)
    or bounded (contained in the closed ball of ``radius`` with matrix norm
    <= ``lipschitz``).  ``contraction`` must be strictly below 1.
    """
    if spec.kind != "slds":
        raise ValueError("hypothesis check applies to switched systems")
    if contraction >= 1.0:
        raise HypothesisError("contraction bound must be strictly below 1")
    if contraction < 0 or radius < 0 or lipschitz < 0:
        raise HypothesisError("radius, contraction, lipschitz must be nonnegative")
    checks = []
    for j, mat in enumerate(spec.matrices):
        nrm = spectral_norm(mat)
        if nrm <= contraction:
            checks.append(RegionCheck(j, nrm, "contractive"))
            continue
        if not _region_contained_in_ball(spec.regions.predicates[j], radius, spec.dim):
            checks.append(
                RegionCheck(
                    j, nrm, "violation",
                    f"matrix norm {nrm:.6g} exceeds contraction bound and the "
                    f"region is not contained in the radius-{radius:g} ball",
                )
            )
        elif nrm > lipschitz:
            checks.append(
                RegionCheck(
                    j, nrm, "violation",
                    f"bounded region matrix norm {nrm:.6g} exceeds {lipschitz:g}",
                )
            )
        else:
            checks.append(RegionCheck(j, nrm, "bounded"))
    passed = all(c.classification != "violation" for c in checks)
    return HypothesisReport(passed, tuple(checks), radius, contraction, lipschitz)


def system_to_dict(spec: SystemSpec) -> dict:
    if spec.kind == "lds":
        return {"type": "lds", "A": spec.matrices[0].tolist()}
    return {
        "type": "slds",
        "regions": [
            {"predicate": pred.to_dict(), "A": mat.tolist()}
            for pred, mat in zip(spec.regions.predicates, spec.matrices)
        ],
    }


def system_from_dict(obj: dict) -> SystemSpec:
    kind = obj.get("type")
    if kind == "lds":
        if "A" not in obj:
            raise ValueError("lds spec needs a matrix under key 'A'")
        return SystemSpec.lds(obj["A"])
    if kind == "slds":
        regions = obj.get("regions")
        if not regions:
            raise ValueError("slds spec needs a nonempty 'regions' list")
        pairs = [(Predicate.from_dict(r["predicate"]), r["A"]) for r in regions]
        return SystemSpec.slds(pairs)
    raise ValueError(f"unknown system type: {kind!r}")


def system_digest(spec: SystemSpec) -> str:
    """Stable sha256 over the canonical JSON form of a system."""
    payload = json.dumps(system_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def load_system(path) -> SystemSpec:
    with Path(path).open() as fh:
        return system_from_dict(json.load(fh))


def save_system(spec: SystemSpec, path) -> None:
    with Path(path).open("w") as fh:
        json.dump(system_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
