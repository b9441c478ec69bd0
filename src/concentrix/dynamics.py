"""Random dynamical systems with standard-normal noise.

Two model families are supported: a linear system ``x' = A x + xi`` and a
switched linear system ``x' = A_j x + xi`` where ``j`` is the index of the
first region predicate that matches ``x``.  The noise ``xi`` is always
N(0, I_n); simulation is bit-reproducible from a seed in [0, 2**64).  A
trajectory's noise is exactly what ``Generator(PCG64(seed))`` draws, but
the generator states of a whole batch are computed at once in numpy (the
128-bit seeding step on pairs of uint64 limbs) and copied, one stream at a
time, into the ``pcg64_random_t`` of one reused generator: building one
PCG64 per seed, or going through its ``state`` setter, costs about as much
as the draws.  The copy target's layout is read and checked against the
public ``state`` getter first; an unknown layout raises RuntimeError.

A batch advances one step at a time.  Each region's matrix multiplies the
whole batch, and a row keeps the product of the first region that matches
it; there are no per-region gathers.  A batch of two or more rows is
multiplied against a contiguous copy of each transpose, which gives the bits
of the product with the transposed view by a faster BLAS route; a one-row
batch and a region's lone row keep numpy's matrix-vector route.  Membership
sums squares and halfspace products along each row from left to right, so
``step``, ``region_index`` and a batch put a point in the same region.

Path runs (:func:`simulate_batch`) draw each trajectory's noise straight
into its own rows of the path array and step the paths in place, adding
each step's products to the noise already there, so no separate noise
array is held.  Endpoint runs keep two contiguous state buffers and draw
their noise in chunks cut by a fixed 2 MiB budget, so the library, not a
config, fixes the batches; raising the budget from 1 MiB moved no golden
byte.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
# multiplier as two 64-bit limbs; _pcg64_states reproduces PCG64(seed) from them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = (1 << 32) - 1
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_U64_32, _U64_1, _U64_LOW32 = np.uint64(32), np.uint64(1), np.uint64(_MASK32)


def _seed_array(seeds) -> np.ndarray:
    """Seeds as a 1-D uint64 array; each must lie in [0, 2**64)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds.reshape(-1)
    values = [int(s) for s in seeds]
    if any(not 0 <= s <= _MASK64 for s in values):
        raise ValueError("seeds must lie in [0, 2**64)")
    return np.array(values, dtype=np.uint64)


def _mul_hi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit halves."""
    a0, a1 = a & _U64_LOW32, a >> _U64_32
    b0, b1 = b & _U64_LOW32, b >> _U64_32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U64_32) + (cross0 & _U64_LOW32) + (cross1 & _U64_LOW32)
    return a1 * b1 + (cross0 >> _U64_32) + (cross1 >> _U64_32) + (mid >> _U64_32)


def _pcg64_states(seeds: np.ndarray, high_first: bool = False) -> np.ndarray:
    """``np.random.PCG64(seed)``'s (state, inc) for each uint64 seed, as limbs.

    A seed below 2**64 enters ``SeedSequence`` as the two 32-bit words
    ``[lo, hi]``: shorter entropy is padded with ``hashmix(0)``, which is
    what a zero word gives.  The pool mixing and ``generate_state(4,
    uint64)`` run here on whole uint32 arrays.  PCG64 then seeds with
    ``pcg_setseq_128_srandom_r``, whose 128-bit step runs on (high, low)
    uint64 limbs.

    Returns
    -------
    ndarray of uint64, shape (len(seeds), 4)
        Row i is the state and then the increment of seed i, each as its
        low and then its high limb, or high and then low when
        ``high_first``: the two layouts of numpy's ``pcg64_random_t``.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    low = (seeds & _U64_LOW32).astype(np.uint32)
    high = (seeds >> _U64_32).astype(np.uint32)
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
    # little-endian pairs of 32-bit words: seed[0], seed[1], inc[0], inc[1];
    # the 128-bit seed is seed[0] << 64 | seed[1], and inc is (initseq << 1) | 1
    seed_hi, seed_lo, seq_hi, seq_lo = (
        words[2 * k] | (words[2 * k + 1] << _U64_32) for k in range(4)
    )
    inc_hi = (seq_hi << _U64_1) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << _U64_1) | _U64_1
    # state = (inc + seed) * multiplier + inc  (mod 2**128)
    sum_lo = inc_lo + seed_lo
    sum_hi = inc_hi + seed_hi + (sum_lo < inc_lo)
    state_hi = (
        _mul_hi64(sum_lo, _PCG_MULT_LO) + sum_lo * _PCG_MULT_HI + sum_hi * _PCG_MULT_LO
    )
    state_lo = sum_lo * _PCG_MULT_LO + inc_lo
    state_hi += inc_hi + (state_lo < inc_lo)
    if high_first:
        return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _pcg64_struct(bit_generator: np.random.PCG64) -> tuple[np.ndarray, bool]:
    """A PCG64's ``pcg64_random_t`` as four writable uint64, and its limb order.

    The flag is True when each 128-bit word stores its high limb first.
    ``bit_generator.ctypes.state_address`` points to numpy's ``pcg64_state``,
    whose first member points to the ``pcg64_random_t`` inside the same
    object.  Its two 128-bit words are ``__uint128_t`` where the compiler
    has one (low limb first on a little-endian machine) and ``{high, low}``
    structs where numpy emulates 128-bit arithmetic.  The limbs are only
    read here, and must equal what the public ``state`` getter reports; any
    other layout raises RuntimeError.  The view is valid while
    ``bit_generator`` lives.
    """
    start = id(bit_generator)  # the object's address in CPython
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    # pcg64_random_t is 32 bytes: the 128-bit state, then the 128-bit inc
    end = start + type(bit_generator).__basicsize__ - 32
    if address is None or not start <= address <= end:
        raise RuntimeError("numpy's PCG64 state is not inside its bit generator")
    struct = np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)
    pcg = bit_generator.state["state"]
    (state_hi, state_lo), (inc_hi, inc_lo) = (
        divmod(pcg[key], 1 << 64) for key in ("state", "inc")
    )
    words = struct.tolist()
    if words == [state_lo, state_hi, inc_lo, inc_hi]:
        return struct, False
    if words == [state_hi, state_lo, inc_hi, inc_lo]:
        return struct, True
    raise RuntimeError("numpy's PCG64 state has an unknown memory layout")


def _fill_standard_normals(out: np.ndarray, seeds: np.ndarray) -> None:
    """Fill each ``out[i]`` with PCG64(seeds[i])'s first draws, in order.

    ``out[i]`` must be C-contiguous; ``out`` itself need not be.  One
    generator draws every row.  Before each row, that seed's state is copied
    into the generator's ``pcg64_random_t`` (:func:`_pcg64_struct`), which
    costs less than the ``state`` setter or a new PCG64.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    struct, high_first = _pcg64_struct(gen.bit_generator)
    for row, limbs in zip(out, _pcg64_states(seeds, high_first)):
        struct[...] = limbs
        gen.standard_normal(out=row)


def _standard_normals(seeds: np.ndarray, n_steps: int, dim: int) -> np.ndarray:
    """(len(seeds), n_steps, dim) noise; row i is PCG64(seeds[i])'s first draws."""
    noise = np.empty((len(seeds), n_steps, dim))
    _fill_standard_normals(noise, seeds)
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


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum each row of an (m, n) array from left to right.

    The rounding is the same for every row count and position, unlike a
    BLAS product or a pairwise reduction.  Up to n = 7 the squares' sums
    equal ``np.linalg.norm(pts, axis=1) ** 2`` before the root, bit for bit.
    """
    total = terms[:, 0].copy()
    for j in range(1, terms.shape[1]):
        total += terms[:, j]
    return total


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
        """Membership of one point: :meth:`matches_batch` on a single row."""
        return bool(self.matches_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def matches_batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership over an (m, n) array of points.

        Norms and halfspace products are row sums taken left to right
        (:func:`_row_sums`), so a point gets the same answer alone as in
        any batch.
        """
        pts = np.asarray(pts, dtype=float)
        if self.catch_all:
            return np.ones(pts.shape[0], dtype=bool)
        tests = []
        if self.ball_le is not None or self.ball_gt is not None:
            nrm = np.sqrt(_row_sums(pts * pts))
            if self.ball_le is not None:
                tests.append(nrm <= self.ball_le)
            if self.ball_gt is not None:
                tests.append(nrm > self.ball_gt)
        for normal, offset in self.halfspaces:
            tests.append(_row_sums(pts * np.asarray(normal)) <= offset)
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
    read-only so an instance cannot change once built.  ``transposes`` holds
    a read-only C-contiguous copy of each matrix's transpose, which batch
    products multiply against.
    """

    kind: str
    matrices: tuple[np.ndarray, ...]
    regions: RegionSpec | None = None
    transposes: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        transposes = tuple(np.array(m.T, order="C") for m in self.matrices)
        for t in transposes:
            t.setflags(write=False)
        object.__setattr__(self, "transposes", transposes)

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
    when not given.  A batch of two or more rows is multiplied against the
    contiguous copies of the transposes (``SystemSpec.transposes``), which
    give the same bits as ``pts @ A.T`` on the transposed view and take a
    faster BLAS route.  Each matrix multiplies the whole batch, and a row
    keeps the product of the first region that matches it.  numpy multiplies
    a lone row with a matrix-vector routine that rounds differently from the
    batch product, so a one-row batch, and a region that holds exactly one
    row, take that row's product alone as ``row @ A.T``, as a gathered
    one-row product would; seeded outputs rely on those bits.  In one
    dimension a batch is multiplied by the scalar, which gives ``matmul``'s
    values at a fraction of its cost; only the sign of a zero can differ.
    """
    if out is None:
        out = np.empty(pts.shape)
    if len(pts) == 1:
        out[...] = pts @ spec.matrix_for(pts[0]).T
        return out
    _batch_product(pts, spec.transposes[-1], out)
    if len(spec.matrices) == 1:
        return out
    if scratch is None:
        scratch = np.empty(pts.shape)
    # whole rows as single items: a row mask needs no broadcasting
    row = np.dtype((np.void, out.itemsize * out.shape[1]))
    out_rows, scratch_rows = out.view(row), scratch.view(row)
    free = None  # rows no earlier region matched; None before the first region
    for pred, mat, mat_t in zip(
        spec.regions.predicates[:-1], spec.matrices[:-1], spec.transposes[:-1]
    ):
        mask = pred.matches_batch(pts)
        if free is None:
            free = ~mask
        else:
            mask &= free
            free ^= mask
        count = np.count_nonzero(mask)
        if count > 1:
            _batch_product(pts, mat_t, scratch)
            np.copyto(out_rows, scratch_rows, where=mask[:, None])
        elif count == 1:
            out[mask] = pts[mask] @ mat.T
    if np.count_nonzero(free) == 1:
        out[free] = pts[free] @ spec.matrices[-1].T
    return out


def _run_steps(spec: SystemSpec, x0v: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Final states of the paths from ``x0v`` driven by (m, n_steps, dim) noise.

    Two contiguous state buffers and one product scratch serve every step.
    """
    cur = np.tile(x0v, (noise.shape[0], 1))
    nxt, scratch = np.empty_like(cur), np.empty_like(cur)
    for k in range(noise.shape[1]):
        _apply_matrices(spec, cur, out=nxt, scratch=scratch)
        nxt += noise[:, k]
        cur, nxt = nxt, cur
    return cur


def simulate_batch(spec: SystemSpec, x0, n_steps: int, seeds) -> np.ndarray:
    """Simulate one trajectory per seed, all from the same start.

    Each trajectory's noise is bit-identical to the draws of
    ``np.random.Generator(np.random.PCG64(seed))`` in any batch.  Its states
    are too in one dimension; from two dimensions on, a trajectory that is
    alone in a batch or in its region is multiplied by numpy's lone-row
    routine, whose last bits can differ from the batch product.  Every seed
    must lie in [0, 2**64).

    Each path's noise is drawn straight into its own rows ``states[i, 1:]``,
    and each step adds the products into them in place: noise plus product
    has the bits of product plus noise, and no separate noise array is held.
    :func:`simulate_endpoints` keeps its 2 MiB noise chunks.

    Returns
    -------
    ndarray of shape (len(seeds), n_steps + 1, dim).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    x0v = _check_vector(x0, spec.dim, "x0")
    seeds = _seed_array(seeds)
    states = np.empty((len(seeds), n_steps + 1, spec.dim))
    _fill_standard_normals(states[:, 1:], seeds)
    states[:, 0] = x0v
    prod, scratch = np.empty((2, len(seeds), spec.dim))
    for k in range(n_steps):
        _apply_matrices(spec, states[:, k], out=prod, scratch=scratch)
        states[:, k + 1] += prod
    return states


# noise drawn at once by simulate_endpoints: big enough that the per-step
# numpy calls are amortised over many trajectories, small enough that peak
# memory does not grow with the number of trajectories
_NOISE_BUDGET_BYTES = 2**21


def _endpoint_chunk(n_steps: int, dim: int) -> int:
    """Trajectories whose noise fits the budget (at least one)."""
    return max(1, _NOISE_BUDGET_BYTES // max(1, n_steps * dim * 8))


def simulate_endpoints(spec: SystemSpec, x0, n_steps: int, seeds) -> np.ndarray:
    """Final states of :func:`simulate_batch`, without the paths.

    Trajectories run in chunks whose noise fits a fixed byte budget, so
    memory stays bounded however many seeds are given.  The states are
    :func:`simulate_batch`'s bit for bit in one dimension; from two on, a
    trajectory alone in its chunk or region can differ in its last bits.

    The contiguous :func:`_run_steps` loop is kept on purpose.  Routing this
    through chunked :func:`simulate_batch` keeps every byte, but ten
    2,500-trajectory, 50-step runs on a 2-D switched system took 117-136 ms
    instead of 96-103 ms (2 vCPUs, BLAS on one thread); stepping a contiguous
    copy inside :func:`simulate_batch` was still about 10% slower.

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
        out[lo : lo + chunk] = _run_steps(spec, x0v, noise)
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

    A ``ball_le`` bound within the radius settles it.  Otherwise each
    coordinate is maximised and minimised over the halfspaces with
    ``linprog``: an unbounded program means an unbounded region and
    infeasible ones an empty region; else the region lies in the box of the
    per-coordinate caps, padded by the solver tolerance, and is contained
    when the box's corner is.  Without halfspaces the answer is "no".
    Dropping a larger ``ball_le``, ``ball_gt`` and the earlier regions only
    enlarges the region, so the answer can be a false "no" but never a
    false "yes".
    """
    if pred.ball_le is not None and pred.ball_le <= radius:
        return True
    if not pred.halfspaces:
        return False
    from scipy.optimize import linprog

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
