"""Random dynamical systems with standard-normal noise.

Two model families are supported: a linear system ``x' = A x + xi`` and a
switched linear system ``x' = A_j x + xi`` where ``j`` is the index of the
first region predicate that matches ``x``.  The noise ``xi`` is always
N(0, I_n); simulation is bit-reproducible from a seed in [0, 2**64).  Every
noise stream is ``np.random.Generator(np.random.PCG64(seed))``, and a batch
can step several trajectories through one seed's stream, one block of draws
after another (``per_seed``).  Opening a stream costs about 8 us, as much
as drawing some 600 normals (numpy 2.4, 2 vCPUs), so callers that need many
trajectories of one law take them from few streams.

A batch advances one step at a time.  Each region's matrix multiplies the
whole batch, through a contiguous copy of its transpose, and a row keeps
the product of the first region that matches it: one ``np.putmask`` over
whole-row items puts a region's products into the result, and there are no
per-region gathers.  Membership sums squares and halfspace products along
each row from left to right.  A step sums the squares once for every
predicate and compares them with each ball bound's squared cut
(:func:`_ball_cut`), which decides as the rooted norm would without taking
a root; a predicate tests all its halfspaces at once.  So ``region_index``
and a batch of any size put a point in the same region.

Every run fills a contiguous (m, n_steps, dim) noise array with one
``standard_normal`` call per seed's run of trajectories, and steps its
paths through one loop (:func:`_run_steps`) over two contiguous state
buffers.  Path runs (:func:`simulate_batch`) fill one array for the whole
batch and overwrite each step's noise with that step's states, so no
second array of the paths' size is held.  Endpoint runs fill their noise
in chunks cut by a fixed 2 MiB budget, so the library, not a config, fixes
the batches; raising the budget from 1 MiB moved no golden byte.  A stream
that a chunk boundary cuts continues in the next chunk.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it lazily: pay at start-up, not in a run

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


def derive_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_seed(master_seed, i)`` for every ``i`` in ``range(start, stop)``.

    Parameters
    ----------
    master_seed : int
        Master seed, reduced mod 2**64.
    start, stop : int
        Index range; ``start`` must be nonnegative.

    Returns
    -------
    ndarray of uint64, shape ``(stop - start,)``
    """
    if start < 0:
        raise ValueError("index must be nonnegative")
    master = np.uint64(int(master_seed) & _MASK64)
    indices = np.arange(max(stop - start, 0), dtype=np.uint64)
    steps = (indices + np.uint64((start + 1) & _MASK64)) * np.uint64(_GOLDEN)
    return _mix64(_mix64(master + steps))


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


def _seed_array(seeds) -> np.ndarray:
    """Seeds as a 1-D uint64 array; each must lie in [0, 2**64)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds.reshape(-1)
    values = [int(s) for s in seeds]
    if any(not 0 <= s <= _MASK64 for s in values):
        raise ValueError("seeds must lie in [0, 2**64)")
    return np.array(values, dtype=np.uint64)


def _noise_source(seeds: np.ndarray, per_seed: int):
    """A fill for the noise of ``per_seed`` trajectories per seed, in order.

    Trajectory t takes block ``t % per_seed`` of the draws of
    ``Generator(PCG64(seeds[t // per_seed]))``.  Each call ``fill(noise)``
    fills a contiguous (m, n_steps, dim) array with the next m trajectories'
    noise, one ``standard_normal`` call per seed's run of them, and returns
    it.  A stream that the end of one array cuts continues in the next:
    numpy's draws taken in pieces equal the same draws taken at once.  A
    seed given twice opens two generators.
    """
    streams = iter(seeds.tolist())
    gen, left = None, 0  # the open stream and its trajectories not yet filled

    def fill(noise: np.ndarray) -> np.ndarray:
        nonlocal gen, left
        start = 0
        while start < len(noise):
            if not left:
                gen, left = np.random.Generator(np.random.PCG64(next(streams))), per_seed
            stop = min(len(noise), start + left)
            gen.standard_normal(out=noise[start:stop])
            left -= stop - start
            start = stop
        return noise

    return fill


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


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum an (..., n) array along its last axis from left to right.

    The rounding is the same for every row count and position, unlike a
    BLAS product or a pairwise reduction.
    """
    if terms.shape[-1] == 1:
        return terms[..., 0].copy()
    total = terms[..., 0] + terms[..., 1]
    for j in range(2, terms.shape[-1]):
        total += terms[..., j]
    return total


def _row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of an (..., n) array.

    The root of the squares' :func:`_row_sums`.  Up to n = 7 it equals
    ``np.linalg.norm(pts, axis=-1)`` bit for bit; from n = 8 on numpy sums
    pairwise and can round differently.  In one dimension the result is a
    view of the squares, rooted in place, so nothing is copied.
    """
    squares = pts * pts
    if squares.shape[-1] == 1:
        return np.sqrt(squares, out=squares)[..., 0]
    total = _row_sums(squares)
    return np.sqrt(total, out=total)


def _key(obj, key: str, what: str):
    """``obj[key]`` of a spec read from JSON; a ValueError names a missing
    key or an ``obj`` that is no object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} needs key {key!r}")
    return obj[key]


def _list(value, what: str):
    """``value`` when it is a list; otherwise a ValueError naming its type."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _number(value, what: str):
    """``value`` when it is a number; true or a string is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {type(value).__name__}")
    return value


def _matrix(value, what: str):
    """``value`` when it is a list of lists of numbers (:func:`_number`)."""
    for row in _list(value, what):
        for v in _list(row, f"{what} row"):
            _number(v, f"{what} entry")
    return value


def _ball_cut(r: float) -> float:
    """The largest double ``s`` with ``math.sqrt(s) <= r``, for a radius ``r >= 0``.

    sqrt is correctly rounded and monotone (IEEE 754-2019, 5.4.1), so for
    every double ``s``, inf and NaN included, ``sqrt(s) <= r`` holds iff
    ``s <= cut`` and ``sqrt(s) > r`` iff ``s > cut``: a squared norm is
    compared with the cut, and no root is taken.  ``r * r`` is within a few
    steps of the cut.
    """
    s = r * r
    while math.sqrt(s) > r:
        s = math.nextafter(s, 0.0)
    while math.sqrt(up := math.nextafter(s, math.inf)) <= r:
        s = up
    return s


@dataclass(frozen=True)
class Predicate:
    """Region membership test: a conjunction of optional constraints.

    Constraints are a closed ball ``||x|| <= ball_le``, an open complement
    ``||x|| > ball_gt``, and halfspaces ``normal . x <= offset``.  A
    catch-all predicate matches everything and carries no other constraint.
    Each ball bound is also kept as its squared-norm cut (:func:`_ball_cut`),
    and the halfspaces as one stack of normals and one of offsets.
    """

    ball_le: float | None = None
    ball_gt: float | None = None
    halfspaces: tuple[tuple[tuple[float, ...], float], ...] = ()
    catch_all: bool = False
    _le_cut: float | None = field(init=False, repr=False, compare=False, default=None)
    _gt_cut: float | None = field(init=False, repr=False, compare=False, default=None)
    # (k, n, 1) normals and (k, 1) offsets, or None without halfspaces
    _normals: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _offsets: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

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
        lengths = sorted({len(vec) for vec, _ in hs})
        if len(lengths) > 1:
            raise ValueError(f"halfspace normals have lengths {lengths}; they must share one")
        object.__setattr__(self, "halfspaces", tuple(hs))
        for name, r in (("_le_cut", self.ball_le), ("_gt_cut", self.ball_gt)):
            if r is not None:
                object.__setattr__(self, name, _ball_cut(float(r)))
        if hs:
            normals = np.array([vec for vec, _ in hs])[:, :, None]
            offsets = np.array([offset for _, offset in hs])[:, None]
            normals.setflags(write=False)
            offsets.setflags(write=False)
            object.__setattr__(self, "_normals", normals)
            object.__setattr__(self, "_offsets", offsets)

    def matches(self, x) -> bool:
        """Membership of one point: :meth:`matches_batch` on a single row."""
        return bool(self.matches_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def matches_batch(self, pts: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
        """Vectorized membership over an (m, n) array of points.

        ``sq`` holds the rows' squared norms, ``_row_sums(pts * pts)``; they
        are computed when not given.  Squared norms are compared with the
        ball cuts and halfspace products with the offsets, all of them row
        sums taken left to right (:func:`_row_sums`), so a point gets the
        same answer alone as in any batch.  The halfspace products are laid
        out (k, n, m), so each numpy loop runs along the rows.
        """
        pts = np.asarray(pts, dtype=float)
        if self.catch_all:
            return np.ones(pts.shape[0], dtype=bool)
        tests = []
        if self._le_cut is not None or self._gt_cut is not None:
            if sq is None:
                sq = _row_sums(pts * pts)
            if self._le_cut is not None:
                tests.append(sq <= self._le_cut)
            if self._gt_cut is not None:
                tests.append(sq > self._gt_cut)
        if self._normals is not None:
            terms = np.multiply(self._normals, pts.T, order="C")
            inside = _row_sums(terms.transpose(0, 2, 1)) <= self._offsets
            tests.append(np.logical_and.reduce(inside, axis=0))
        ok = tests[0]
        for test in tests[1:]:
            ok &= test
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
        if not isinstance(obj, dict):
            raise ValueError(f"predicate must be an object, got {type(obj).__name__}")
        known = {"ball_le", "ball_gt", "halfspaces", "catch_all"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown predicate keys: {sorted(unknown)}")
        if "catch_all" in obj:
            if obj["catch_all"] is not True:
                raise ValueError(f"catch_all must be true, got {obj['catch_all']!r}")
            return cls(catch_all=True)
        radii = {k: obj.get(k) for k in ("ball_le", "ball_gt")}
        for key, radius in radii.items():
            if radius is not None:
                _number(radius, key)
        hs = tuple(
            (
                tuple(
                    _number(v, "halfspace normal entry")
                    for v in _list(_key(h, "normal", "halfspace"), "halfspace normal")
                ),
                float(_number(_key(h, "offset", "halfspace"), "halfspace offset")),
            )
            for h in _list(obj.get("halfspaces", ()), "halfspaces")
        )
        return cls(halfspaces=hs, **radii)


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
    read-only so an instance cannot change once built.  ``transposes`` holds
    a read-only C-contiguous copy of each matrix's transpose, which batch
    products multiply against.
    """

    kind: str
    matrices: tuple[np.ndarray, ...]
    regions: RegionSpec | None = None
    transposes: tuple[np.ndarray, ...] = field(init=False, repr=False)
    # one state row as a single item, so a row mask needs no broadcasting
    _row: np.dtype = field(init=False, repr=False)
    # whether some region has a ball bound, so a step needs squared norms
    _balls: bool = field(init=False, repr=False)

    def __post_init__(self):
        transposes = tuple(np.array(m.T, order="C") for m in self.matrices)
        for t in transposes:
            t.setflags(write=False)
        object.__setattr__(self, "transposes", transposes)
        object.__setattr__(self, "_row", np.dtype((np.void, 8 * self.dim)))
        preds = self.regions.predicates if self.regions is not None else ()
        object.__setattr__(
            self, "_balls", any(p.ball_le is not None or p.ball_gt is not None for p in preds)
        )

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


def _check_vector(x, dim: int, name: str = "x", rows: int | None = None) -> np.ndarray:
    """``x`` as a float vector of length ``dim``; with ``rows``, an (rows, dim)
    array of one vector per row is returned as it is."""
    v = np.asarray(x, dtype=float)
    if rows is not None and v.shape == (rows, dim):
        return v
    v = v.reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, system has {dim}")
    return v


def _batch_product(pts: np.ndarray, mat_t: np.ndarray, out: np.ndarray) -> None:
    """``pts @ mat_t`` into ``out``; a 1-D batch takes the scalar multiply."""
    if mat_t.shape == (1, 1):
        np.multiply(pts, mat_t[0, 0], out=out)
    else:
        np.matmul(pts, mat_t, out=out)


def _apply_matrices(
    spec: SystemSpec, pts: np.ndarray, out=None, scratch=None
) -> np.ndarray:
    """Apply the region-appropriate matrix to each row of ``pts``.

    The result goes to ``out`` and ``scratch`` holds one region's products;
    both are (m, dim) arrays that must not overlap ``pts``, and are allocated
    when not given.  Every product multiplies the whole batch against the
    contiguous copy of a transpose (``SystemSpec.transposes``).  ``out``
    starts as the catch-all's products; the rows' squared norms are summed
    once and handed to every other predicate, and the regions that match
    some row then put their products into ``out`` through whole-row items
    (``np.putmask``), from the last region to the first, so a row keeps the
    product of the first region that matches it.  In one dimension a batch
    is multiplied by the scalar, which gives ``matmul``'s values at a
    fraction of its cost; only the sign of a zero can differ.
    """
    if out is None:
        out = np.empty(pts.shape)
    _batch_product(pts, spec.transposes[-1], out)
    if len(spec.matrices) == 1:
        return out
    if scratch is None:
        scratch = np.empty(pts.shape)
    # scratch holds no product yet, so the squares can go there
    sq = _row_sums(np.multiply(pts, pts, out=scratch)) if spec._balls else None
    masks = [pred.matches_batch(pts, sq) for pred in spec.regions.predicates[:-1]]
    out_rows, scratch_rows = out.view(spec._row)[:, 0], scratch.view(spec._row)[:, 0]
    for mask, mat_t in zip(reversed(masks), reversed(spec.transposes[:-1])):
        if mask.any():
            _batch_product(pts, mat_t, scratch)
            np.putmask(out_rows, mask, scratch_rows)
    return out


def _run_steps(
    spec: SystemSpec, x0v: np.ndarray, noise: np.ndarray, keep: bool = False
) -> np.ndarray:
    """Final states of the paths from ``x0v`` driven by (m, n_steps, dim) noise.

    ``x0v`` is one start or an (m, dim) array of one start per path.  Two
    contiguous state buffers and one product scratch serve every step.  With
    ``keep``, each step's states overwrite that step's noise, so ``noise``
    ends as the paths' states after each step.
    """
    cur = np.empty((noise.shape[0], noise.shape[2]))
    cur[...] = x0v
    nxt, scratch = np.empty_like(cur), np.empty_like(cur)
    # numpy's default order runs a short inner loop per row of the strided
    # noise slice; below 4 columns, running down the columns is faster
    order = "F" if noise.shape[2] < 4 else "K"
    for k in range(noise.shape[1]):
        _apply_matrices(spec, cur, out=nxt, scratch=scratch)
        np.add(nxt, noise[:, k], out=nxt, order=order)
        if keep:
            noise[:, k] = nxt
        cur, nxt = nxt, cur
    return cur


def simulate_batch(
    spec: SystemSpec, x0, n_steps: int, seeds, per_seed: int = 1
) -> np.ndarray:
    """Simulate ``per_seed`` trajectories per seed from ``x0``.

    ``x0`` is one start for every trajectory, or a (len(seeds) * per_seed,
    dim) array of one start per trajectory.  The start does not change the
    noise, so two calls on the same seeds are synchronously coupled.

    Trajectory ``t`` takes block ``t % per_seed`` of ``n_steps * dim`` draws
    of ``np.random.Generator(np.random.PCG64(seeds[t // per_seed]))``: the
    trajectories of one seed step through its stream in order, and with the
    default ``per_seed=1`` each trajectory is the start of a stream of its
    own.  A seed given twice opens two generators, so it gives two equal
    blocks of paths.  The noise is the same in any batch.  So are the
    states in batches of two or more trajectories on the OpenBLAS kernels
    tried (SkylakeX, Haswell, Zen; Nehalem rounds 8-D rows by batch size).
    numpy multiplies a batch of one by a matrix-vector routine, whose last
    bits can differ from two dimensions on.  Every seed must lie in
    [0, 2**64).

    The noise of the whole batch is drawn into the returned array, and each
    step overwrites its noise with its states (:func:`_run_steps` with
    ``keep``), so no second array of the paths' size is held.

    Returns
    -------
    ndarray of shape (len(seeds) * per_seed, n_steps, dim)
        The states after each step; the start ``x0`` is not included.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if per_seed < 1:
        raise ValueError("per_seed must be at least 1")
    seeds = _seed_array(seeds)
    x0v = _check_vector(x0, spec.dim, "x0", rows=len(seeds) * per_seed)
    fill = _noise_source(seeds, per_seed)
    states = fill(np.empty((len(seeds) * per_seed, n_steps, spec.dim)))
    _run_steps(spec, x0v, states, keep=True)
    return states


# noise drawn at once by simulate_endpoints: big enough that the per-step
# numpy calls are amortised over many trajectories, small enough that peak
# memory does not grow with the number of trajectories.  Trajectory mode
# sizes its replication blocks by it too, so changing it moves the bytes of
# trajectory-mode reports.
_NOISE_BUDGET_BYTES = 2**21


def _endpoint_chunk(n_steps: int, dim: int) -> int:
    """Trajectories whose noise fits the budget (at least one)."""
    return max(1, _NOISE_BUDGET_BYTES // max(1, n_steps * dim * 8))


def simulate_endpoints(
    spec: SystemSpec, x0, n_steps: int, seeds, per_seed: int = 1
) -> np.ndarray:
    """Final states of ``per_seed`` trajectories per seed, without the paths.

    The noise layout is :func:`simulate_batch`'s: trajectory ``t`` takes
    block ``t % per_seed`` of ``n_steps * dim`` draws of
    ``Generator(PCG64(seeds[t // per_seed]))``.  The states are
    :func:`simulate_batch`'s final states (``x0`` after zero steps), bit for
    bit unless a chunk or the batch holds one trajectory alone.

    Trajectories run in chunks whose noise fits a fixed byte budget, so
    memory stays bounded however many trajectories are asked for.  A chunk
    boundary can cut a seed's trajectories in two: the next chunk continues
    that stream's generator, so every trajectory's noise is the same under
    any chunking.

    Only the endpoints are kept, so the steps do not overwrite the noise
    with the states: that strided write per step took the stepping of a
    freshly filled 2 MiB chunk (2,621 paths of 50 steps on a 2-D switched
    system) from about 2.25 to 3.15 ms (2 vCPUs, BLAS on one thread).

    Returns
    -------
    ndarray of shape (len(seeds) * per_seed, dim).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if per_seed < 1:
        raise ValueError("per_seed must be at least 1")
    x0v = _check_vector(x0, spec.dim, "x0")
    seeds = _seed_array(seeds)
    total = len(seeds) * per_seed
    out = np.empty((total, spec.dim))
    chunk = _endpoint_chunk(n_steps, spec.dim)
    fill = _noise_source(seeds, per_seed)
    for lo in range(0, total, chunk):
        noise = fill(np.empty((min(chunk, total - lo), n_steps, spec.dim)))
        out[lo : lo + len(noise)] = _run_steps(spec, x0v, noise)
        del noise  # free this chunk's noise before the next is drawn
    return out


def simulate(spec: SystemSpec, x0, n_steps: int, seed: int) -> Trajectory:
    """Run ``n_steps`` transitions from ``x0`` with i.i.d. N(0, I) noise.

    Pure function of its arguments: the same (spec, x0, n_steps, seed)
    always produces the same state list.  ``states`` is ``x0`` followed by
    ``simulate_batch(spec, x0, n_steps, [seed])[0]``.
    """
    x0v = _check_vector(x0, spec.dim, "x0")
    states = np.vstack((x0v, simulate_batch(spec, x0v, n_steps, [seed])[0]))
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


# most halfspace subsets of one region that the containment check solves;
# C(k, r) grows fast with the k halfspaces, and each subset is an r x r solve
_VERTEX_SUBSETS = 10_000
# slack per unit of condition number: an r-subset's solution is off by about
# cond * 2.2e-16 of its size, so each vertex is kept, and its norm padded,
# by some 4500 times that
_VERTEX_TOL = 1e-12


def _full_rank_subsets(rows: np.ndarray, size: int):
    """Every ``size``-subset of ``rows`` of full row rank.

    Returns the (subsets, size) row indices, the last right singular vector
    and the condition number of each.  The rows are unit vectors, so the
    singular values bracket 1 and a subset of no rows has condition 1.
    """
    idx = np.array(list(combinations(range(len(rows)), size)), dtype=np.intp)
    idx = idx.reshape(math.comb(len(rows), size), size)
    _, sv, vt = np.linalg.svd(rows[idx])
    high = sv.max(axis=1, initial=1.0)
    low = sv.min(axis=1, initial=1.0)
    ok = low > high * rows.shape[1] * np.finfo(float).eps
    return idx[ok], vt[ok, -1], high[ok] / low[ok]


def _region_contained_in_ball(pred: Predicate, radius: float, dim: int) -> bool:
    """Whether every point matching ``pred`` lies in the closed ``radius`` ball.

    A ``ball_le`` bound within the radius settles it; without halfspaces the
    answer is "no".  Otherwise the halfspaces, scaled to unit normals, are
    read in the row space of the normals, of rank r: there the region is a
    polyhedron with a vertex if it is nonempty.  Its vertices are the
    solutions of the nonsingular r-subsets of the halfspaces, solved in one
    batch, that satisfy every halfspace within a slack.  No vertex means an
    empty region, contained.  A nonempty region with r < ``dim`` contains a
    line, and one is unbounded when some (r-1)-subset's null direction d
    has normals . d <= slack for d or -d (an extreme ray of its recession
    cone); both are "no".  Otherwise ``||x||`` is convex, so its maximum is
    the largest vertex norm, which is padded before it is compared with the
    radius.  Slack and padding scale with each subset's condition number,
    so rounding can only reject.  Dropping a larger ``ball_le``,
    ``ball_gt`` and the earlier regions only enlarges the region, so the
    answer can be a false "no" but never a false "yes".

    Raises
    ------
    ValueError
        If the region has more than ``_VERTEX_SUBSETS`` r-subsets of
        halfspaces; nothing is solved then.
    """
    if pred.ball_le is not None and pred.ball_le <= radius:
        return True
    normals = np.array([normal for normal, _ in pred.halfspaces]).reshape(-1, dim)
    offsets = np.array([offset for _, offset in pred.halfspaces])
    lengths = np.linalg.norm(normals, axis=1)
    if np.any((lengths == 0.0) & (offsets < 0.0)):
        return True  # 0 . x <= offset < 0 holds nowhere
    live = lengths > 0.0
    if not live.any():
        return False
    normals = normals[live] / lengths[live, None]
    offsets = offsets[live] / lengths[live]
    _, sv, basis = np.linalg.svd(normals)
    rank = int((sv > sv[0] * max(normals.shape) * np.finfo(float).eps).sum())
    count = math.comb(len(normals), rank)
    if count > _VERTEX_SUBSETS:
        raise ValueError(
            f"{len(normals)} halfspaces of rank {rank} have {count} vertex subsets, "
            f"more than the {_VERTEX_SUBSETS} the containment check solves"
        )
    coords = normals @ basis[:rank].T  # unit rows: the normals in their row space

    idx, _, cond = _full_rank_subsets(coords, rank)
    if len(idx) == 0:
        return False  # no r-subset is well posed, so no vertex can be trusted
    points = np.linalg.solve(coords[idx], offsets[idx][..., None])[..., 0]
    norms = np.linalg.norm(points, axis=1)
    pad = _VERTEX_TOL * cond * (1.0 + np.abs(offsets).max() + norms)
    vertex = (points @ coords.T - offsets <= pad[:, None]).all(axis=1)
    if not vertex.any():
        return True
    if rank < dim:
        return False
    _, rays, cond = _full_rank_subsets(coords, rank - 1)
    heights = rays @ coords.T
    slack = _VERTEX_TOL * cond[:, None]
    if ((heights <= slack).all(axis=1) | (heights >= -slack).all(axis=1)).any():
        return False
    return float((norms + pad)[vertex].max()) <= radius


def check_slds_hypothesis(
    spec: SystemSpec, radius: float, contraction: float, lipschitz: float
) -> HypothesisReport:
    """Verify the geometric-mixing hypothesis for a switched system.

    Every region must either be contractive (matrix norm <= ``contraction``)
    or bounded (contained in the closed ball of ``radius`` with matrix norm
    <= ``lipschitz``).  ``contraction`` must be strictly below 1.
    Containment is decided from the vertices of a halfspace region, in
    numpy (:func:`_region_contained_in_ball`); a region with too many
    halfspaces for that raises ``ValueError`` naming it.
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
        try:
            contained = _region_contained_in_ball(
                spec.regions.predicates[j], radius, spec.dim
            )
        except ValueError as exc:
            raise ValueError(f"region {j}: {exc}") from None
        if not contained:
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
    kind = _key(obj, "type", "system spec")
    if kind == "lds":
        if "A" not in obj:
            raise ValueError("lds spec needs a matrix under key 'A'")
        return SystemSpec.lds(_matrix(obj["A"], "lds A"))
    if kind == "slds":
        regions = obj.get("regions")
        if not regions:
            raise ValueError("slds spec needs a nonempty 'regions' list")
        pairs = [
            (Predicate.from_dict(_key(r, "predicate", "slds region")),
             _matrix(_key(r, "A", "slds region"), "slds region A"))
            for r in _list(regions, "slds regions")
        ]
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
