"""Tests for system definitions, simulation, and seed derivation."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from concentrix import dynamics
from concentrix.dynamics import (
    HypothesisError,
    Predicate,
    RegionSpec,
    SystemSpec,
    check_slds_hypothesis,
    derive_seed,
    derive_seeds,
    region_index,
    simulate,
    simulate_batch,
    simulate_endpoints,
    spectral_norm,
    system_from_dict,
    system_to_dict,
)
from concentrix.lyapunov import slds_exp_lyapunov


def ball_then_catchall(a_inner, a_outer, radius=1.0):
    return SystemSpec.slds(
        [
            (Predicate(ball_le=radius), a_inner),
            (Predicate(catch_all=True), a_outer),
        ]
    )


# ---------------------------------------------------------------- step


def test_step_lds_linear_map_zero_noise():
    spec = SystemSpec.lds([[0.5]])
    x = np.array([2.0])
    assert spec.matrix_for(x) @ x + np.array([0.0]) == pytest.approx([1.0])


def test_step_slds_inner_region_applies():
    spec = ball_then_catchall([[2.0]], [[0.5]])
    x = np.array([0.5])
    assert spec.matrix_for(x) @ x + np.array([0.1]) == pytest.approx([1.1])


def test_step_identity_map():
    spec = SystemSpec.lds(np.eye(2))
    out = dynamics._apply_matrices(spec, np.array([[1.0, 2.0]]))[0] + [-1.0, -2.0]
    assert out == pytest.approx([0.0, 0.0])


def test_step_dimension_mismatch():
    spec = SystemSpec.lds(np.eye(2))
    for m in (1, 2):
        with pytest.raises(ValueError):
            dynamics._apply_matrices(spec, np.ones((m, 1)))
    with pytest.raises(ValueError, match="x0 has dimension 1"):
        simulate_batch(spec, [1.0], 1, [0])


# ---------------------------------------------------------------- simulate


def test_simulate_zero_steps_returns_start_only():
    spec = SystemSpec.lds([[0.5]])
    traj = simulate(spec, [3.0], 0, seed=1)
    assert traj.states.shape == (1, 1)
    assert traj.states[0] == pytest.approx([3.0])


def test_simulate_is_deterministic():
    spec = ball_then_catchall([[1.0]], [[0.5]])
    t1 = simulate(spec, [0.2], 200, seed=42)
    t2 = simulate(spec, [0.2], 200, seed=42)
    assert np.array_equal(t1.states, t2.states)
    t3 = simulate(spec, [0.2], 200, seed=43)
    assert not np.array_equal(t1.states, t3.states)


def test_simulate_pure_noise_mean_within_clt_margin():
    # A = 0 makes states[1:] i.i.d. standard normal
    spec = SystemSpec.lds([[0.0]])
    n = 100_000
    traj = simulate(spec, [7.0], n, seed=11)
    mean = traj.states[1:].mean(axis=0)
    assert np.all(np.abs(mean) < 4.0 / np.sqrt(n))


def test_simulate_batch_rows_match_individual_runs():
    spec = ball_then_catchall([[1.0]], [[0.5]])
    seeds = [5, 6, 7]
    batch = simulate_batch(spec, [0.0], 50, seeds)
    assert batch.shape == (3, 50, 1)
    for i, s in enumerate(seeds):
        assert np.array_equal(batch[i], simulate(spec, [0.0], 50, s).states[1:])


@pytest.mark.parametrize("n_steps", [0, 1, 17])
def test_simulate_is_the_start_then_the_batch_of_its_seed(n_steps):
    spec = SystemSpec.slds(
        [
            (Predicate(ball_le=1.0), np.eye(2)),
            (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
        ]
    )
    x0 = np.array([2.0, -0.5])
    traj = simulate(spec, x0, n_steps, seed=19)
    batch = simulate_batch(spec, x0, n_steps, [19])
    assert traj.states.shape == (n_steps + 1, 2)
    assert np.array_equal(traj.states[0], x0)
    assert np.array_equal(traj.states[1:], batch[0])


def test_pure_noise_covariance_close_to_identity():
    spec = SystemSpec.lds(np.zeros((2, 2)))
    m = 100_000
    traj = simulate(spec, [0.0, 0.0], m, seed=3)
    samples = traj.states[1:]
    cov = samples.T @ samples / m
    assert np.all(np.abs(cov - np.eye(2)) < 5.0 * np.sqrt(2.0 / m))


# ---------------------------------------------------------------- row norms


def _norm_arrays(dim):
    """(m, n), (paths, steps, n) and non-contiguous (..., n) arrays of points."""
    rng = np.random.default_rng(40 + dim)
    grid = rng.normal(size=(300, 7, dim)) * 10.0 ** rng.integers(-20, 20, size=(300, 7, 1))
    grid[0, 0] = 0.0
    return {
        "rows": np.ascontiguousarray(grid[:, 0]),
        "paths": grid,
        "strided rows": grid[::3, 2],
        "strided steps": grid[:, ::2],
        "column-major": np.asfortranarray(grid[:, 1]),
        "reversed coordinates": grid[:, 3, ::-1],
    }


@pytest.mark.parametrize("dim", range(1, 8))
def test_row_norms_equal_linalg_norm_bit_for_bit(dim):
    for name, pts in _norm_arrays(dim).items():
        got = dynamics._row_norms(pts)
        want = np.linalg.norm(pts, axis=-1)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_row_norms_leave_their_input_alone():
    pts = np.array([[-3.0], [4.0]])
    assert dynamics._row_norms(pts).tolist() == [3.0, 4.0]
    assert pts.tolist() == [[-3.0], [4.0]]


# ---------------------------------------------------------------- regions


def test_region_index_ball_then_catchall():
    regions = RegionSpec(
        (Predicate(ball_le=1.0), Predicate(catch_all=True))
    )
    assert region_index(regions, [0.5, 0.0]) == 0
    assert region_index(regions, [2.0, 0.0]) == 1
    # closed-ball convention: boundary belongs to the ball region
    assert region_index(regions, [1.0, 0.0]) == 0


def test_region_spec_requires_trailing_catchall():
    with pytest.raises(ValueError):
        RegionSpec((Predicate(ball_le=1.0),))
    with pytest.raises(ValueError):
        RegionSpec((Predicate(catch_all=True), Predicate(ball_le=1.0)))


def test_region_index_total_and_matches_scalar_scan():
    regions = RegionSpec(
        (
            Predicate(ball_le=0.8),
            Predicate(halfspaces=(((1.0, 0.0), -1.0),)),
            Predicate(ball_gt=3.0),
            Predicate(catch_all=True),
        )
    )
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=3.0, size=(100_000, 2))
    # vectorized first-match assignment, checked against the scalar route
    assigned = np.full(len(pts), -1)
    remaining = np.ones(len(pts), dtype=bool)
    for j, pred in enumerate(regions.predicates):
        mask = remaining & pred.matches_batch(pts)
        assigned[mask] = j
        remaining &= ~mask
    assert not remaining.any()
    for i in rng.choice(len(pts), size=500, replace=False):
        assert region_index(regions, pts[i]) == assigned[i]


# the scalar and batch routes once disagreed here: np.linalg.norm of the
# vector gave 1.0, the per-row sum 1.0000000000000002
NEAR_UNIT_CIRCLE = [0.6005746195892662, 0.799568712685288]


def test_region_index_matches_batch_dispatch_at_a_rounding_boundary():
    spec = ball_then_catchall(np.eye(2), 0.5 * np.eye(2))
    pred = spec.regions.predicates[0]
    x = np.array(NEAR_UNIT_CIRCLE)
    assert not pred.matches(x)
    assert not pred.matches_batch(x[None])[0]
    assert region_index(spec.regions, x) == 1
    assert spec.matrix_for(x) is spec.matrices[1]
    batch_step = dynamics._apply_matrices(spec, x[None])[0]
    assert np.array_equal(spec.matrix_for(x) @ x + np.zeros(2), batch_step)
    assert np.array_equal(batch_step, 0.5 * x)


# radii from zero and the least subnormal to beyond sqrt(max), where r * r is inf
CUT_RADII = [0.0, 5e-324, 1e-160, 0.1, 1.0, 1.3, 2.5, 1e154, math.sqrt(sys.float_info.max), 1e300]


def test_ball_cut_decides_each_square_as_its_root_does():
    rng = np.random.default_rng(31)
    drawn = np.concatenate([rng.uniform(0.0, 4.0, 100), 10.0 ** rng.uniform(-300, 300, 100)])
    radii = CUT_RADII + drawn.tolist()
    assert len(radii) == 210
    for r in radii:
        cut = dynamics._ball_cut(r)
        s = np.array(
            [cut, math.nextafter(cut, -math.inf), math.nextafter(cut, math.inf), r * r,
             0.0, 5e-324, math.inf, math.nan]
        )
        s = s[~(s < 0.0)]  # a sum of squares is never negative
        with np.errstate(over="ignore"):
            root = np.sqrt(s)
        assert ((s <= cut) == (root <= r)).all(), r
        assert ((s > cut) == (root > r)).all(), r


def _every_predicate_kind(dim, radius):
    normal, other = np.linspace(1.0, -0.5, dim), np.linspace(-0.3, 0.7, dim)
    halfspaces = ((tuple(normal), 0.4), (tuple(other), 0.9))
    return [
        Predicate(ball_le=radius),
        Predicate(ball_gt=radius),
        Predicate(ball_le=2.0 * radius, ball_gt=radius),
        Predicate(halfspaces=halfspaces[:1]),
        Predicate(halfspaces=halfspaces),
        Predicate(ball_le=radius, halfspaces=halfspaces),
        Predicate(ball_gt=radius, halfspaces=halfspaces),
        Predicate(catch_all=True),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_matches_batch_with_given_squares_equals_its_own_and_the_rooted_norm(dim):
    rng = np.random.default_rng(40 + dim)
    radius = 1.3
    directions = rng.normal(size=(300, dim))
    on_sphere = radius * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    pts = np.concatenate([_ulp_neighbours(on_sphere, rng), rng.normal(size=(300, dim))])
    sq = dynamics._row_sums(pts * pts)
    norms = np.sqrt(sq)
    for pred in _every_predicate_kind(dim, radius):
        got = pred.matches_batch(pts)
        assert np.array_equal(pred.matches_batch(pts, sq), got), pred
        want = np.ones(len(pts), dtype=bool)
        if pred.ball_le is not None:
            want &= norms <= pred.ball_le
        if pred.ball_gt is not None:
            want &= norms > pred.ball_gt
        for normal, offset in pred.halfspaces:
            want &= dynamics._row_sums(pts * np.asarray(normal)) <= offset
        assert np.array_equal(got, want), pred
    # the sphere is crossed, so both answers are seen
    assert 0 < (norms[:300] <= radius).sum() < 300


def _ulp_neighbours(points, rng):
    """Each point times (1 + k ulp) for a random k in [-2, 2]."""
    k = rng.integers(-2, 3, size=(len(points), 1))
    return points + k * np.spacing(points)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_scalar_and_batch_membership_agree_within_an_ulp_of_a_boundary(dim):
    rng = np.random.default_rng(dim)
    directions = rng.normal(size=(400, dim))
    radius = 1.3
    on_sphere = radius * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    normal = rng.normal(size=dim)
    offset = 0.7
    # project random points onto the hyperplane normal . x = offset
    raw = rng.normal(size=(400, dim))
    on_plane = raw + np.outer((offset - raw @ normal) / (normal @ normal), normal)
    near_sphere, near_plane = _ulp_neighbours(on_sphere, rng), _ulp_neighbours(on_plane, rng)
    pts = np.concatenate([near_sphere, near_plane])
    regions = RegionSpec(
        (
            Predicate(ball_le=radius),
            Predicate(halfspaces=((tuple(normal), offset),)),
            Predicate(ball_gt=radius),
            Predicate(catch_all=True),
        )
    )
    for pred in regions.predicates:
        batch = pred.matches_batch(pts)
        assert [pred.matches(x) for x in pts] == batch.tolist()
    # both boundaries are crossed, so the test sees both answers
    assert 0 < regions.predicates[0].matches_batch(near_sphere).sum() < len(near_sphere)
    assert 0 < regions.predicates[1].matches_batch(near_plane).sum() < len(near_plane)
    first = np.full(len(pts), len(regions) - 1)
    for j in range(len(regions) - 2, -1, -1):
        first[regions.predicates[j].matches_batch(pts)] = j
    assert [region_index(regions, x) for x in pts] == first.tolist()


def _matches_reference(pred, pts):
    """Predicate.matches_batch as first written: np.linalg.norm per row."""
    ok = np.ones(pts.shape[0], dtype=bool)
    if pred.catch_all:
        return ok
    if pred.ball_le is not None or pred.ball_gt is not None:
        nrm = np.linalg.norm(pts, axis=1)
        if pred.ball_le is not None:
            ok &= nrm <= pred.ball_le
        if pred.ball_gt is not None:
            ok &= nrm > pred.ball_gt
    for normal, offset in pred.halfspaces:
        ok &= pts @ np.asarray(normal) <= offset
    return ok


def _apply_matrices_reference(spec, pts):
    """Region dispatch as first written: gather each region's rows, then scatter."""
    if spec.kind == "lds":
        return pts @ spec.matrices[0].T
    out = np.empty_like(pts)
    remaining = np.ones(pts.shape[0], dtype=bool)
    for pred, mat in zip(spec.regions.predicates, spec.matrices):
        mask = remaining & _matches_reference(pred, pts)
        if mask.any():
            out[mask] = pts[mask] @ mat.T
            remaining &= ~mask
            if not remaining.any():
                break
    return out


def _random_predicate(rng, dim):
    """A ball, a ball complement, halfspaces, or a ball with halfspaces."""
    radius = float(rng.uniform(0.5, 3.0))
    halfspaces = tuple(
        (tuple(rng.normal(size=dim)), float(rng.normal()))
        for _ in range(rng.integers(1, 3))
    )
    return [
        Predicate(ball_le=radius),
        Predicate(ball_gt=radius),
        Predicate(halfspaces=halfspaces),
        Predicate(ball_le=radius, halfspaces=halfspaces),
        Predicate(ball_gt=radius, halfspaces=halfspaces),
        Predicate(ball_le=2.0 * radius, ball_gt=radius),
    ][rng.integers(6)]


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_region_dispatch_equals_gather_scatter_reference(dim):
    rng = np.random.default_rng(100 + dim)
    matches_none = Predicate(ball_le=0.0, ball_gt=0.0)
    matches_all = Predicate(ball_le=1e9)
    for trial in range(60):
        n_regions = int(rng.integers(2, 5))
        preds = [_random_predicate(rng, dim) for _ in range(n_regions - 1)]
        if trial % 5 == 0:
            preds[rng.integers(len(preds))] = matches_none
        if trial % 7 == 0:
            preds[rng.integers(len(preds))] = matches_all
        mats = [rng.normal(size=(dim, dim)) for _ in range(n_regions)]
        spec = SystemSpec.slds(list(zip(preds + [Predicate(catch_all=True)], mats)))
        # 2621 rows are a 2 MiB noise chunk of 50-step 2-D trajectories
        for m in (1, 2, 7, 64, 1001, 2621):
            pts = rng.normal(scale=float(rng.uniform(0.5, 4.0)), size=(m, dim))
            expected = _apply_matrices_reference(spec, pts)
            assert np.array_equal(dynamics._apply_matrices(spec, pts), expected)
            # the caller-supplied buffers of a stepping loop; stale values must not leak
            out, scratch = np.full_like(pts, np.nan), np.full_like(pts, np.nan)
            assert dynamics._apply_matrices(spec, pts, out=out, scratch=scratch) is out
            assert np.array_equal(out, expected)
    lds = SystemSpec.lds(rng.normal(size=(dim, dim)))
    pts = rng.normal(size=(50, dim))
    assert np.array_equal(
        dynamics._apply_matrices(lds, pts), _apply_matrices_reference(lds, pts)
    )
    # a switched system with the catch-all alone has no earlier region
    lone = SystemSpec.slds([(Predicate(catch_all=True), rng.normal(size=(dim, dim)))])
    for m in (1, 2):
        pts = rng.normal(size=(m, dim))
        assert np.array_equal(
            dynamics._apply_matrices(lone, pts), _apply_matrices_reference(lone, pts)
        )


@pytest.mark.parametrize("a", [0.5, -0.5, 0.0, -0.0, 1e-300, -3.0])
def test_one_dimensional_step_equals_matmul(a):
    # the 1-D step multiplies by the scalar; matmul's values must come out,
    # and where the bits differ both are zeros of opposite sign
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(512, 1))
    pts[::5] = 0.0
    pts[1::5] = -0.0
    pts[[2, 3, 4, 6], 0] = 5e-324, -5e-324, 1e300, -1e300
    lds = SystemSpec.lds([[a]])
    switched = SystemSpec.slds(
        [(Predicate(halfspaces=(((1.0,), 0.0),)), [[a]]), (Predicate(catch_all=True), [[-a]])]
    )
    for spec in (lds, switched):
        for m in (2, 3, 512):
            got = dynamics._apply_matrices(spec, pts[:m])
            expected = _apply_matrices_reference(spec, pts[:m])
            assert np.array_equal(got, expected)
            moved = got.view(np.uint64) != expected.view(np.uint64)
            assert (got[moved] == 0.0).all()


# ---------------------------------------------------------------- spectral norm


@pytest.mark.parametrize(
    "mat,expected",
    [
        ([[0.5, 0.0], [0.0, 0.25]], 0.5),
        ([[0.0, 1.0], [0.0, 0.0]], 1.0),
        ([[3.0, 4.0], [0.0, 0.0]], 5.0),  # sqrt(3^2 + 4^2) for the rank-1 row
    ],
)
def test_spectral_norm_known_values(mat, expected):
    assert spectral_norm(mat) == pytest.approx(expected, rel=1e-10)


def test_spectral_norm_dominates_random_directions():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    nrm = spectral_norm(a)
    dirs = rng.normal(size=(1000, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lengths = np.linalg.norm(dirs @ a.T, axis=1)
    assert np.all(lengths <= nrm * (1 + 1e-12))
    # polish the best sampled direction by power iteration on A^T A;
    # an independent route to the top singular value
    v = dirs[np.argmax(lengths)]
    for _ in range(200):
        v = a.T @ (a @ v)
        v /= np.linalg.norm(v)
    assert np.linalg.norm(a @ v) == pytest.approx(nrm, rel=1e-6)


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_norm([[1.0, 2.0]])
    with pytest.raises(ValueError):
        spectral_norm([[np.inf, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------- hypothesis check


def test_hypothesis_single_contractive_region_passes():
    spec = SystemSpec.slds([(Predicate(catch_all=True), [[0.5]])])
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.6, lipschitz=1.0)
    assert report.passed
    assert report.regions[0].classification == "contractive"


def test_hypothesis_expanding_catchall_fails():
    spec = SystemSpec.slds([(Predicate(catch_all=True), [[1.1]])])
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.9, lipschitz=2.0)
    assert not report.passed
    assert report.violations[0].region == 0


def test_hypothesis_contraction_bound_must_be_below_one():
    spec = SystemSpec.slds([(Predicate(catch_all=True), [[0.5]])])
    with pytest.raises(HypothesisError):
        check_slds_hypothesis(spec, radius=1.0, contraction=1.0, lipschitz=1.0)


def test_hypothesis_bounded_ball_region_analytic():
    spec = ball_then_catchall([[1.0]], [[0.5]])
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.5, lipschitz=1.0)
    assert report.passed
    inner = report.regions[0]
    assert inner.classification == "bounded"


def test_hypothesis_halfspace_region_checked_by_sampling():
    # slab |x_1| <= 0.5 inside the unit-radius hypothesis ball: contained
    slab = Predicate(
        halfspaces=(((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5))
    )
    spec = SystemSpec.slds(
        [(slab, [[0.9, 0.0], [0.0, 0.9]]), (Predicate(catch_all=True), np.zeros((2, 2)))]
    )
    # the slab is NOT contained in the unit ball (extends along x_2)
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.5, lipschitz=1.0)
    assert not report.passed
    # a ball_le bound inside the hypothesis radius settles containment
    spec2 = SystemSpec.slds(
        [
            (Predicate(ball_le=0.5, halfspaces=(((1.0, 0.0), 0.4),)), np.eye(2) * 0.9),
            (Predicate(catch_all=True), np.zeros((2, 2))),
        ]
    )
    report2 = check_slds_hypothesis(spec2, radius=1.0, contraction=0.5, lipschitz=1.0)
    assert report2.passed
    assert report2.regions[0].classification == "bounded"


def test_hypothesis_rejects_unbounded_region_outside_the_ball():
    # the half-plane x_1 <= 0 beyond radius 5 never meets the unit sphere,
    # yet it is unbounded and expanding: paths from (-6, 0) blow up
    outside = Predicate(ball_gt=5.0, halfspaces=(((1.0, 0.0), 0.0),))
    spec = SystemSpec.slds(
        [(outside, 1.5 * np.eye(2)), (Predicate(catch_all=True), 0.5 * np.eye(2))]
    )
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.5, lipschitz=2.0)
    assert not report.passed
    assert report.violations[0].region == 0
    with pytest.raises(HypothesisError):
        slds_exp_lyapunov(spec, 1.0, 0.5, 2.0, 0.25)
    assert np.linalg.norm(simulate(spec, [-6.0, 0.0], 30, seed=0).states[-1]) > 1e5


BOX_07 = Predicate(
    halfspaces=tuple((n, 0.7) for n in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))
)
# x, y >= 0 and x + y <= 1: vertex norms 0, 1 and 1, so it lies in the unit
# ball although the corner of its bounding box [0, 1]^2 does not
TRIANGLE = Predicate(halfspaces=(((1.0, 1.0), 1.0), ((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)))


@pytest.mark.parametrize(
    "pred, radius, contained",
    [
        (BOX_07, 1.0, True),  # corner norm 0.98995
        (BOX_07, 0.98, False),
        (TRIANGLE, 1.5, True),
        (TRIANGLE, 1.4, True),
        (Predicate(halfspaces=(((1.0, 0.0), -1.0), ((-1.0, 0.0), -1.0))), 0.0, True),  # empty
        (Predicate(halfspaces=(((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5))), 100.0, False),  # slab
        (Predicate(ball_gt=5.0), 100.0, False),
        (Predicate(catch_all=True), 100.0, False),
        (Predicate(ball_le=0.5, halfspaces=(((1.0, 0.0), 0.4),)), 0.5, True),
        (Predicate(ball_le=2.0, halfspaces=(((1.0, 0.0), 0.4),)), 1.0, False),
        (TRIANGLE, 0.99, False),
        (TRIANGLE, 1.0, False),  # the padding rejects a vertex on the sphere
        (Predicate(halfspaces=(((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0))), 100.0, False),  # wedge
        (Predicate(halfspaces=(((0.0, 0.0), -1.0), ((1.0, 0.0), 5.0))), 0.0, True),  # empty
        (Predicate(halfspaces=(((0.0, 0.0), 1.0),)), 100.0, False),  # the whole plane
    ],
)
def test_region_containment_is_exact_or_rejects(pred, radius, contained):
    assert dynamics._region_contained_in_ball(pred, radius, 2) is contained


def axis_halfspaces(dim, offset):
    """The box |x_i| <= offset as halfspaces."""
    return tuple(
        (tuple(sign * e for e in unit), offset) for unit in np.eye(dim) for sign in (1, -1)
    )


CUBE = Predicate(halfspaces=axis_halfspaces(3, 0.5))  # vertex norm sqrt(3) / 2 = 0.866025
# x, y, z >= 0 and x + y + z <= 1: vertex norms 0 and 1
SIMPLEX = Predicate(
    halfspaces=(((1.0, 1.0, 1.0), 1.0),) + tuple(((-e[0], -e[1], -e[2]), 0.0) for e in np.eye(3))
)

# -1 <= -x + y + z <= 0: HiGHS's presolve calls the program that maximises x
# over it infeasible, so the linprog caps took this slab for empty
SLAB_3D = Predicate(halfspaces=(((-1.0, 1.0, 1.0), 0.0), ((1.0, -1.0, -1.0), 1.0)))


@pytest.mark.parametrize(
    "pred, radius, contained",
    [
        (CUBE, 0.867, True),
        (CUBE, 0.866, False),
        (SIMPLEX, 1.001, True),
        (SIMPLEX, 0.999, False),
        (Predicate(halfspaces=CUBE.halfspaces[:4]), 100.0, False),  # a square prism
        (Predicate(halfspaces=SIMPLEX.halfspaces[1:]), 100.0, False),  # an octant
        # a slab of rank 1 contains lines
        (Predicate(halfspaces=(((1.0, 0.0, 0.0), 0.5), ((-1.0, 0.0, 0.0), 0.5))), 100.0, False),
        (SLAB_3D, 0.0, False),
    ],
)
def test_region_containment_in_three_dimensions(pred, radius, contained):
    assert dynamics._region_contained_in_ball(pred, radius, 3) is contained


def removed_lp_box(normals, offsets):
    """The verdict of the per-coordinate ``linprog`` caps that containment
    used before vertex enumeration: "empty", "unbounded", "undecided", or
    the padded norm of the caps' box corner.

    That check read "infeasible" on any coordinate program as an empty
    region, but HiGHS's presolve can report an unbounded program as
    infeasible (``SLAB_3D``), so emptiness is decided here by a program
    with no objective.
    """
    dim = normals.shape[1]
    if linprog(np.zeros(dim), A_ub=normals, b_ub=offsets, bounds=(None, None)).status == 2:
        return "empty"
    caps = np.zeros(dim)
    for i in range(dim):
        for sign in (1.0, -1.0):
            objective = np.zeros(dim)
            objective[i] = -sign
            res = linprog(objective, A_ub=normals, b_ub=offsets, bounds=(None, None))
            if res.status == 3:
                return "unbounded"
            if res.status != 0:
                return "undecided"
            caps[i] = max(caps[i], abs(res.fun))
    return float(np.linalg.norm(caps + 1e-7 * (1.0 + caps)))


@given(
    dim=st.sampled_from([2, 3]),
    data=st.data(),
    radius=st.floats(0.0, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_region_containment_agrees_with_linear_programs(dim, data, radius):
    k = data.draw(st.integers(1, 7), label="halfspaces")
    normals = np.array(
        data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                           min_size=k, max_size=k), label="normals"),
        dtype=float,
    )
    offsets = np.array(
        data.draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k), label="offsets")
    ) / 4.0
    if data.draw(st.booleans(), label="boxed"):
        # few random cuts bound a region, so half the regions are cut from a box
        box = axis_halfspaces(dim, data.draw(st.integers(1, 8), label="box") / 4.0)
        normals = np.vstack([normals, [normal for normal, _ in box]])
        offsets = np.concatenate([offsets, [offset for _, offset in box]])
        k = len(offsets)
    pred = Predicate(halfspaces=tuple(zip(map(tuple, normals), offsets)))
    contained = dynamics._region_contained_in_ball(pred, radius, dim)
    verdict = removed_lp_box(normals, offsets)
    if verdict == "unbounded":
        assert not contained
    if verdict == "empty" or (isinstance(verdict, float) and verdict <= radius):
        assert contained
    if contained:
        rng = np.random.Generator(np.random.PCG64(dim * 1000 + k))
        pts = rng.uniform(-radius - 1.0, radius + 1.0, size=(4000, dim))
        inside = pts[pred.matches_batch(pts)]
        assert (np.linalg.norm(inside, axis=1) <= radius).all()


BOX_05 = tuple((n, 0.5) for n in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))


def test_ball_bound_above_the_radius_falls_through_to_the_halfspaces():
    # ball_le 5 only shrinks the box |x_i| <= 0.5, which lies in the unit ball
    boxed = Predicate(ball_le=5.0, halfspaces=BOX_05)
    assert dynamics._region_contained_in_ball(boxed, 1.0, 2)
    spec = SystemSpec.slds([(boxed, np.eye(2)), (Predicate(catch_all=True), 0.5 * np.eye(2))])
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.6, lipschitz=1.0)
    assert report.passed
    assert report.regions[0].classification == "bounded"
    # with no halfspaces a ball larger than the radius is not contained
    ball = Predicate(ball_le=5.0)
    assert not dynamics._region_contained_in_ball(ball, 1.0, 2)
    spec = SystemSpec.slds([(ball, np.eye(2)), (Predicate(catch_all=True), 0.5 * np.eye(2))])
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.6, lipschitz=1.0)
    assert [c.region for c in report.violations] == [0]


def test_hypothesis_box_region_bounded():
    spec = SystemSpec.slds(
        [(BOX_07, np.eye(2)), (Predicate(catch_all=True), 0.5 * np.eye(2))]
    )
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.6, lipschitz=1.0)
    assert report.passed
    assert report.regions[0].classification == "bounded"


def test_hypothesis_rejects_an_expanding_unbounded_slab_in_three_dimensions():
    # the linprog caps took SLAB_3D for empty, which passed this system
    spec = SystemSpec.slds(
        [(SLAB_3D, 1.5 * np.eye(3)), (Predicate(catch_all=True), 0.5 * np.eye(3))]
    )
    report = check_slds_hypothesis(spec, radius=1.0, contraction=0.6, lipschitz=2.0)
    assert [c.region for c in report.violations] == [0]


# ---------------------------------------------------------------- serialization


def test_system_json_roundtrip_lds():
    spec = SystemSpec.lds([[0.5, 0.1], [0.0, 0.3]])
    obj = system_to_dict(spec)
    assert obj["type"] == "lds"
    clone = system_from_dict(obj)
    assert np.array_equal(clone.matrices[0], spec.matrices[0])


def test_system_json_roundtrip_slds():
    spec = SystemSpec.slds(
        [
            (Predicate(ball_le=1.0), [[1.0]]),
            (Predicate(ball_gt=5.0), [[0.1]]),
            (Predicate(catch_all=True), [[0.5]]),
        ]
    )
    obj = system_to_dict(spec)
    clone = system_from_dict(obj)
    assert clone.kind == "slds"
    assert len(clone.regions) == 3
    for a, b in zip(clone.matrices, spec.matrices):
        assert np.array_equal(a, b)
    assert clone.regions.predicates == spec.regions.predicates


def test_predicate_rejects_halfspace_normals_of_different_lengths():
    # the normals are stacked into one array when the predicate is built
    with pytest.raises(ValueError, match=r"lengths \[2, 3\]"):
        Predicate(halfspaces=(((1.0, 0.0), 0.5), ((1.0, 0.0, 0.0), 0.5)))


def test_system_from_dict_rejects_unknown_type():
    with pytest.raises(ValueError):
        system_from_dict({"type": "ctmc"})


def test_slds_rejects_halfspace_normal_of_wrong_length():
    with pytest.raises(ValueError, match="length 3, but the system has dimension 2"):
        SystemSpec.slds(
            [
                (Predicate(halfspaces=(((1.0, 0.0, 0.0), 0.5),)), np.eye(2)),
                (Predicate(catch_all=True), 0.5 * np.eye(2)),
            ]
        )
    with pytest.raises(ValueError, match="length 1"):
        system_from_dict(
            {
                "type": "slds",
                "regions": [
                    {"predicate": {"halfspaces": [{"normal": [1.0], "offset": 0.0}]},
                     "A": [[0.5, 0.0], [0.0, 0.5]]},
                    {"predicate": {"catch_all": True}, "A": [[0.5, 0.0], [0.0, 0.5]]},
                ],
            }
        )


def test_trajectory_csv_layout(tmp_path):
    spec = SystemSpec.lds(np.eye(2) * 0.5)
    traj = simulate(spec, [1.0, -1.0], 3, seed=9)
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,x_1,x_2"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(1.0)


# ---------------------------------------------------------------- seeds


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(123, 0) == derive_seed(123, 0)
    seeds = {derive_seed(123, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert derive_seed(123, 0) != derive_seed(124, 0)
    assert all(0 <= s < 2**64 for s in list(seeds)[:100])


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def _splitmix64_reference(master_seed, index):
    """The seed derivation on Python integers, as first written."""
    mask = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    return mix(mix((master_seed + (index + 1) * 0x9E3779B97F4A7C15) & mask))


EDGE_MASTERS = [0, 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("master", EDGE_MASTERS)
def test_derive_seeds_match_scalar_derivation(master):
    expected = [_splitmix64_reference(master, i) for i in range(5, 40)]
    assert derive_seeds(master, 5, 40).tolist() == expected
    assert [derive_seed(master, i) for i in range(5, 40)] == expected
    assert derive_seed(master, 2**70) == _splitmix64_reference(master, 2**70)
    assert derive_seeds(master, 3, 3).shape == (0,)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _first_draws(seeds, n_steps, dim):
    """(len(seeds), n_steps, dim) noise: row i is PCG64(seeds[i])'s first draws."""
    noise = np.empty((len(seeds), n_steps, dim))
    for row, seed in zip(noise, seeds):
        np.random.Generator(np.random.PCG64(int(seed))).standard_normal(out=row)
    return noise


def test_simulate_batch_noise_is_per_seed_pcg64_draws():
    # with A = 0 and a zero start every state is the noise
    spec = SystemSpec.lds(np.zeros((2, 2)))
    seeds = [0, 2**32, 2**64 - 1, 77]
    batch = simulate_batch(spec, [0.0, 0.0], 30, seeds)
    for row, seed in zip(batch, seeds):
        draws = np.random.Generator(np.random.PCG64(seed)).standard_normal((30, 2))
        assert np.array_equal(row, draws)


@pytest.fixture(scope="module")
def per_seed_draws():
    """The edge seeds and 10,000 derived ones, with each seed's first 51 normals."""
    seeds = EDGE_SEEDS + derive_seeds(2025, 0, 10_000).tolist()
    draws = [np.random.Generator(np.random.PCG64(s)).standard_normal(51) for s in seeds]
    return np.array(seeds, dtype=np.uint64), np.array(draws)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [0, 1, 17])
def test_noise_equals_per_seed_generator_draws(per_seed_draws, n_steps, dim):
    seeds, draws = per_seed_draws
    # standard_normal fills its output in order, so a shape takes the first draws
    expected = draws[:, : n_steps * dim].reshape(len(seeds), n_steps, dim)
    # with A = 0 and a zero start every state is the noise
    spec = SystemSpec.lds(np.zeros((dim, dim)))
    states = simulate_batch(spec, np.zeros(dim), n_steps, seeds)
    assert states.shape == (len(seeds), n_steps, dim)
    assert (states == expected).all()
    if n_steps:
        endpoints = simulate_endpoints(spec, np.zeros(dim), n_steps, seeds)
        assert (endpoints == expected[:, -1]).all()


def test_noise_of_no_seeds():
    spec = SystemSpec.lds(np.eye(2))
    assert simulate_batch(spec, [0.0, 0.0], 5, []).shape == (0, 5, 2)
    assert simulate_batch(spec, [0.0, 0.0], 5, [], per_seed=3).shape == (0, 5, 2)
    assert simulate_endpoints(spec, [0.0, 0.0], 5, []).shape == (0, 2)


def test_concurrent_simulate_endpoints_match_serial():
    # every call opens generators of its own; threads that shared one would
    # draw each other's streams
    spec = SystemSpec.slds(
        [
            (Predicate(ball_le=1.0), np.eye(2)),
            (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
        ]
    )
    seed_sets = [derive_seeds(master, 0, 3000) for master in range(4)]
    serial = [simulate_endpoints(spec, [2.0, 0.0], 20, seeds) for seeds in seed_sets]
    results = [None] * len(seed_sets)
    barrier = threading.Barrier(len(seed_sets))

    def run(i):
        barrier.wait(timeout=30)
        results[i] = simulate_endpoints(spec, [2.0, 0.0], 20, seed_sets[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(seed_sets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, expected in zip(results, serial):
        assert got is not None and (got == expected).all()


def _simulate_batch_reference(spec, x0, noise):
    """States after each step of the paths from ``x0`` driven by (m, n_steps,
    dim) noise, stepped in fresh contiguous arrays."""
    states = np.empty_like(noise)
    cur = np.tile(np.asarray(x0, dtype=float), (noise.shape[0], 1))
    for k in range(noise.shape[1]):
        cur = dynamics._apply_matrices(spec, cur) + noise[:, k]
        states[:, k] = cur
    return states


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_paths_stepped_in_place_equal_the_contiguous_reference(dim):
    rng = np.random.default_rng(300 + dim)
    for n_regions in (1, 2, 3):
        # contractive enough that the paths visit every region for a while
        mats = [0.9 * rng.normal(size=(dim, dim)) / np.sqrt(dim) for _ in range(n_regions)]
        if n_regions == 1:
            specs = [
                SystemSpec.lds(mats[0]),
                SystemSpec.slds([(Predicate(catch_all=True), mats[0])]),
            ]
        else:
            preds = [_random_predicate(rng, dim) for _ in range(n_regions - 1)]
            specs = [
                SystemSpec.slds(list(zip(preds + [Predicate(catch_all=True)], mats)))
            ]
        for spec in specs:
            for m in (1, 2, 7, 300):
                x0 = rng.normal(scale=2.0, size=dim)
                seeds = derive_seeds(int(rng.integers(2**63)), 0, m)
                noise = _first_draws(seeds, 25, dim)
                expected = _simulate_batch_reference(spec, x0, noise)
                assert np.array_equal(simulate_batch(spec, x0, 25, seeds), expected)


@pytest.mark.parametrize(
    "spec, x0",
    [
        (SystemSpec.lds([[0.9]]), [1.5]),
        (
            SystemSpec.slds(
                [
                    (Predicate(ball_le=1.0), np.eye(2)),
                    (Predicate(halfspaces=(((1.0, 0.0), -2.0),)), 0.3 * np.eye(2)),
                    (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
                ]
            ),
            [-3.0, 0.5],
        ),
        # linear, so no region holds a lone row
        (
            SystemSpec.lds([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]]),
            [2.0, -1.0, 0.5],
        ),
        (
            SystemSpec.lds(
                0.5 * np.eye(8) + 0.05 * np.eye(8, k=1) - 0.03 * np.eye(8, k=-2)
            ),
            np.linspace(-1.0, 1.0, 8),
        ),
    ],
)
@pytest.mark.parametrize("n_steps", [0, 1, 17])
def test_simulate_endpoints_equal_batch_final_states(spec, x0, n_steps, monkeypatch):
    # a budget of three trajectories per chunk leaves a partial last chunk;
    # from three dimensions on, numpy's product of a lone row can round
    # differently from the same row in a batch, so there four per chunk
    # leave a last chunk of two
    per_chunk = 3 if spec.dim < 3 else 4
    budget = per_chunk * max(1, n_steps * spec.dim * 8)
    monkeypatch.setattr(dynamics, "_NOISE_BUDGET_BYTES", budget)
    seeds = derive_seeds(5, 0, 10)
    endpoints = simulate_endpoints(spec, x0, n_steps, seeds)
    assert endpoints.shape == (10, spec.dim)
    paths = simulate_batch(spec, x0, n_steps, seeds)
    if n_steps:
        assert np.array_equal(endpoints, paths[:, -1])
    else:
        # no step: every endpoint is the start, and the paths hold no state
        assert paths.shape == (10, 0, spec.dim)
        assert (endpoints == np.asarray(x0, dtype=float)).all()


def test_simulate_endpoints_holds_one_noise_chunk():
    # 10,000 trajectories of 200 steps are 8 chunks of 2 MiB noise; drawing
    # a chunk while the previous one is still referenced would hold two
    seeds = derive_seeds(1, 0, 10_000)
    tracemalloc.start()
    try:
        simulate_endpoints(SystemSpec.lds([[0.5]]), [0.0], 200, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * dynamics._NOISE_BUDGET_BYTES


ENDPOINT_SYSTEMS = [
    (SystemSpec.lds([[0.9]]), [1.5]),
    (
        SystemSpec.slds(
            [
                (Predicate(ball_le=1.0), np.eye(2)),
                (Predicate(halfspaces=(((1.0, 0.0), -2.0),)), 0.3 * np.eye(2)),
                (Predicate(catch_all=True), [[0.5, 0.1], [-0.1, 0.5]]),
            ]
        ),
        [-3.0, 0.5],
    ),
    (SystemSpec.lds([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]]), [2.0, -1.0, 0.5]),
]


def _endpoints_in_chunks(spec, x0, noise):
    """Final states of the paths driven by ``noise``, stepped chunk by chunk."""
    chunk = dynamics._endpoint_chunk(noise.shape[1], spec.dim)
    x0v = np.asarray(x0, dtype=float)
    out = np.empty((len(noise), spec.dim))
    for lo in range(0, len(noise), chunk):
        out[lo : lo + chunk] = dynamics._run_steps(spec, x0v, noise[lo : lo + chunk])
    return out


@pytest.mark.parametrize("spec, x0", ENDPOINT_SYSTEMS)
@pytest.mark.parametrize("per_chunk", [1, 4, 7, 64])
def test_one_trajectory_per_seed_keeps_the_endpoint_bits(spec, x0, per_chunk, monkeypatch):
    # per_seed=1 is the endpoint run as it was before per_seed existed: each
    # chunk's noise drawn seed by seed from the start of every stream
    n_steps = 9
    monkeypatch.setattr(dynamics, "_NOISE_BUDGET_BYTES", per_chunk * n_steps * spec.dim * 8)
    seeds = derive_seeds(8, 0, 30)
    noise = _first_draws(seeds, n_steps, spec.dim)
    expected = _endpoints_in_chunks(spec, x0, noise)
    assert np.array_equal(simulate_endpoints(spec, x0, n_steps, seeds), expected)
    assert np.array_equal(simulate_endpoints(spec, x0, n_steps, seeds, per_seed=1), expected)


@pytest.mark.parametrize("spec, x0", ENDPOINT_SYSTEMS)
@pytest.mark.parametrize("n_steps", [0, 9])
@pytest.mark.parametrize("per_seed", [2, 3, 10])
@pytest.mark.parametrize("per_chunk", [1, 4, 7, 1000])
def test_trajectories_of_one_seed_continue_its_stream_across_chunks(
    spec, x0, n_steps, per_seed, per_chunk, monkeypatch
):
    # with 7 per chunk and 3 per seed, streams start and end inside a chunk
    # and chunk boundaries cut them; with 10 per seed one stream fills whole
    # chunks, and with 1000 per chunk no stream is cut
    monkeypatch.setattr(
        dynamics, "_NOISE_BUDGET_BYTES", per_chunk * max(1, n_steps * spec.dim * 8)
    )
    seeds = derive_seeds(9, 0, 11)
    noise = np.concatenate(
        [
            np.random.Generator(np.random.PCG64(seed)).standard_normal(
                (per_seed, n_steps, spec.dim)
            )
            for seed in seeds.tolist()
        ]
    )
    endpoints = simulate_endpoints(spec, x0, n_steps, seeds, per_seed=per_seed)
    assert endpoints.shape == (len(seeds) * per_seed, spec.dim)
    assert np.array_equal(endpoints, _endpoints_in_chunks(spec, x0, noise))
    # A = 0 from the origin: each endpoint is its last step's noise
    zero = SystemSpec.lds(np.zeros((spec.dim, spec.dim)))
    if n_steps:
        last = simulate_endpoints(zero, np.zeros(spec.dim), n_steps, seeds, per_seed=per_seed)
        assert np.array_equal(last, noise[:, -1])


@pytest.mark.parametrize("spec, x0", ENDPOINT_SYSTEMS)
@pytest.mark.parametrize("per_seed", [1, 3, 10])
def test_paths_of_one_seed_step_through_its_stream(spec, x0, per_seed):
    # path t takes block t % per_seed of seed t // per_seed's stream, the
    # layout of the endpoint runs
    n_steps, seeds = 9, derive_seeds(10, 0, 7)
    noise = np.concatenate(
        [
            np.random.Generator(np.random.PCG64(seed)).standard_normal(
                (per_seed, n_steps, spec.dim)
            )
            for seed in seeds.tolist()
        ]
    )
    paths = simulate_batch(spec, x0, n_steps, seeds, per_seed=per_seed)
    assert paths.shape == (len(seeds) * per_seed, n_steps, spec.dim)
    assert np.array_equal(paths, _simulate_batch_reference(spec, x0, noise))
    endpoints = simulate_endpoints(spec, x0, n_steps, seeds, per_seed=per_seed)
    assert np.array_equal(paths[:, -1], endpoints)


@pytest.mark.parametrize("spec, x0", ENDPOINT_SYSTEMS)
@pytest.mark.parametrize("per_seed", [1, 3])
def test_a_seed_listed_twice_opens_two_generators(spec, x0, per_seed, monkeypatch):
    # each listing opens Generator(PCG64(seed)) afresh, so the second copy
    # repeats the first copy's noise instead of continuing its stream
    n_steps, seeds = 9, [41, 41, 42]
    noise = np.concatenate(
        [
            np.random.Generator(np.random.PCG64(seed)).standard_normal(
                (per_seed, n_steps, spec.dim)
            )
            for seed in seeds
        ]
    )
    first, second = slice(0, per_seed), slice(per_seed, 2 * per_seed)
    paths = simulate_batch(spec, x0, n_steps, seeds, per_seed=per_seed)
    assert np.array_equal(paths, _simulate_batch_reference(spec, x0, noise))
    assert np.array_equal(paths[first], paths[second])
    assert not np.array_equal(paths[first], paths[2 * per_seed :])
    # chunks of per_seed + 1 trajectories: with per_seed = 3 the first chunk
    # boundary cuts the second copy after its first trajectory
    monkeypatch.setattr(
        dynamics, "_NOISE_BUDGET_BYTES", (per_seed + 1) * n_steps * spec.dim * 8
    )
    endpoints = simulate_endpoints(spec, x0, n_steps, seeds, per_seed=per_seed)
    assert np.array_equal(endpoints, _endpoints_in_chunks(spec, x0, noise))
    if spec.dim == 1:
        assert np.array_equal(endpoints[first], endpoints[second])
        assert np.array_equal(endpoints, paths[:, -1])
    # A = 0 from the origin: each endpoint is its last step's noise
    zero = SystemSpec.lds(np.zeros((spec.dim, spec.dim)))
    last = simulate_endpoints(zero, np.zeros(spec.dim), n_steps, seeds, per_seed=per_seed)
    assert np.array_equal(last, noise[:, -1])
    assert np.array_equal(last[first], last[second])


def test_per_seed_must_be_positive():
    for simulate_many in (simulate_batch, simulate_endpoints):
        with pytest.raises(ValueError, match="per_seed"):
            simulate_many(SystemSpec.lds([[0.5]]), [0.0], 3, [1], per_seed=0)
        with pytest.raises(ValueError, match="per_seed"):
            simulate_many(SystemSpec.lds([[0.5]]), [0.0], 3, [1], per_seed=-2)
    assert simulate_endpoints(SystemSpec.lds([[0.5]]), [0.0], 3, [], per_seed=5).shape == (0, 1)


def test_starts_per_trajectory_draw_the_single_start_noise():
    # one start per path changes no draw: in one dimension each path has the
    # bits of the single-start batch started at its own point
    spec = SystemSpec.lds([[0.5]])
    seeds, per_seed, n_steps = [11, 12], 3, 8
    starts = np.array([[-4.0], [0.0], [2.5], [7.0], [1e3], [-0.125]])
    paths = simulate_batch(spec, starts, n_steps, seeds, per_seed=per_seed)
    for i, start in enumerate(starts):
        alone = simulate_batch(spec, start, n_steps, seeds, per_seed=per_seed)
        assert np.array_equal(paths[i], alone[i])


def test_starts_per_trajectory_are_synchronously_coupled():
    # the same noise drives both runs, so for a linear system the states
    # after step n differ by A^n (x0 - y_i) up to rounding
    a = np.array([[0.5, 0.3], [0.0, 0.4]])
    spec = SystemSpec.lds(a)
    x0 = np.array([3.0, -2.0])
    starts = np.random.Generator(np.random.PCG64(8)).normal(size=(10, 2))
    seeds, n_steps = [21, 22], 6
    paths = simulate_batch(spec, x0, n_steps, seeds, per_seed=5)
    coupled = simulate_batch(spec, starts, n_steps, seeds, per_seed=5)
    assert paths.shape == coupled.shape == (10, n_steps, 2)
    for n in range(1, n_steps + 1):
        exact = (x0 - starts) @ np.linalg.matrix_power(a, n).T
        assert np.allclose(paths[:, n - 1] - coupled[:, n - 1], exact, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("shape", [(5, 2), (7, 2), (6, 3), (2, 6), (6,), (1, 6, 2)])
def test_starts_of_the_wrong_shape_are_rejected(shape):
    spec = SystemSpec.lds(0.5 * np.eye(2))
    with pytest.raises(ValueError, match="x0"):
        simulate_batch(spec, np.zeros(shape), 4, [1, 2], per_seed=3)


def test_long_streams_hold_one_noise_chunk():
    # two seeds' 10,000 trajectories of 200 steps span 8 chunks of 2 MiB
    # noise; a cut stream continues in the next chunk without holding two
    tracemalloc.start()
    try:
        endpoints = simulate_endpoints(
            SystemSpec.lds([[0.5]]), [0.0], 200, [7, 8], per_seed=5_000
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * dynamics._NOISE_BUDGET_BYTES
    # the stationary variance of x' = x/2 + noise is 4/3
    assert endpoints.var() == pytest.approx(4.0 / 3.0, rel=0.05)


def test_simulate_batch_holds_one_path_array():
    # the noise is drawn into the paths, so no second array of their size exists
    seeds = derive_seeds(2, 0, 512)
    tracemalloc.start()
    try:
        states = simulate_batch(SystemSpec.lds([[0.5]]), [0.0], 200, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * states.nbytes


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_64_bits_are_rejected(seed):
    spec = SystemSpec.lds([[0.5]])
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        simulate(spec, [0.0], 3, seed)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        simulate_batch(spec, [0.0], 3, [1, seed])
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        simulate_endpoints(spec, [0.0], 3, [seed])
