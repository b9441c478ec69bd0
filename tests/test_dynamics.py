"""Tests for system definitions, simulation, and seed derivation."""

import tracemalloc

import numpy as np
import pytest

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
    step,
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
    assert step(spec, [2.0], [0.0]) == pytest.approx([1.0])


def test_step_slds_inner_region_applies():
    spec = ball_then_catchall([[2.0]], [[0.5]])
    assert step(spec, [0.5], [0.1]) == pytest.approx([1.1])


def test_step_identity_map():
    spec = SystemSpec.lds(np.eye(2))
    out = step(spec, [1.0, 2.0], [-1.0, -2.0])
    assert out == pytest.approx([0.0, 0.0])


def test_step_dimension_mismatch():
    spec = SystemSpec.lds(np.eye(2))
    with pytest.raises(ValueError):
        step(spec, [1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        step(spec, [1.0, 2.0], [0.0])


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
    for i, s in enumerate(seeds):
        assert np.array_equal(batch[i], simulate(spec, [0.0], 50, s).states)


def test_pure_noise_covariance_close_to_identity():
    spec = SystemSpec.lds(np.zeros((2, 2)))
    m = 100_000
    traj = simulate(spec, [0.0, 0.0], m, seed=3)
    samples = traj.states[1:]
    cov = samples.T @ samples / m
    assert np.all(np.abs(cov - np.eye(2)) < 5.0 * np.sqrt(2.0 / m))


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
    assert np.array_equal(step(spec, x, [0.0, 0.0]), batch_step)
    assert np.array_equal(batch_step, 0.5 * x)


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
        for m in (1, 2, 7, 64, 1001):
            pts = rng.normal(scale=float(rng.uniform(0.5, 4.0)), size=(m, dim))
            expected = _apply_matrices_reference(spec, pts)
            assert np.array_equal(dynamics._apply_matrices(spec, pts), expected)
    lds = SystemSpec.lds(rng.normal(size=(dim, dim)))
    pts = rng.normal(size=(50, dim))
    assert np.array_equal(
        dynamics._apply_matrices(lds, pts), _apply_matrices_reference(lds, pts)
    )


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
# x, y >= 0 and x + y <= 1: inside the unit ball, but judged by its box [0, 1]^2
TRIANGLE = Predicate(halfspaces=(((1.0, 1.0), 1.0), ((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)))


@pytest.mark.parametrize(
    "pred, radius, contained",
    [
        (BOX_07, 1.0, True),  # corner norm 0.98995
        (BOX_07, 0.98, False),
        (TRIANGLE, 1.5, True),
        (TRIANGLE, 1.4, False),
        (Predicate(halfspaces=(((1.0, 0.0), -1.0), ((-1.0, 0.0), -1.0))), 0.0, True),  # empty
        (Predicate(halfspaces=(((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5))), 100.0, False),  # slab
        (Predicate(ball_gt=5.0), 100.0, False),
        (Predicate(catch_all=True), 100.0, False),
        (Predicate(ball_le=0.5, halfspaces=(((1.0, 0.0), 0.4),)), 0.5, True),
        (Predicate(ball_le=2.0, halfspaces=(((1.0, 0.0), 0.4),)), 1.0, False),
    ],
)
def test_region_containment_is_exact_or_rejects(pred, radius, contained):
    assert dynamics._region_contained_in_ball(pred, radius, 2) is contained


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


def test_derive_seeds_over_an_array_of_masters():
    masters = np.array(EDGE_MASTERS, dtype=np.uint64)
    table = derive_seeds(masters, 0, 7)
    assert table.shape == (4, 7)
    assert table.tolist() == [
        [_splitmix64_reference(m, i) for i in range(7)] for m in EDGE_MASTERS
    ]


def _pcg64_carries(seed):
    """Whether PCG64 seeding carries out of the low limb in its two additions.

    The state is ``(inc + s) * mult + inc`` mod 2**128; the first sum and
    the final ``+ inc`` each carry when their low 64 bits wrap.
    """
    mask = (1 << 64) - 1
    s_hi, s_lo, seq_hi, seq_lo = (
        int(w) for w in np.random.SeedSequence(seed).generate_state(4, np.uint64)
    )
    inc_lo = ((seq_lo << 1) | 1) & mask
    sum_lo = inc_lo + s_lo
    product_lo = ((sum_lo & mask) * (dynamics._PCG_MULT_LO.item())) & mask
    return sum_lo > mask, product_lo + inc_lo > mask


def test_pcg64_states_match_numpy_seeding():
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds = edges + derive_seeds(2024, 0, 10_000).tolist()
    # every combination of the two low-limb carries is exercised
    carries = [_pcg64_carries(seed) for seed in seeds]
    for combination in [(False, False), (False, True), (True, False), (True, True)]:
        assert carries.count(combination) > 1000
    states = list(dynamics._pcg64_states(np.array(seeds, dtype=np.uint64)))
    assert len(states) == len(seeds)
    for seed, (state, inc) in zip(seeds, states):
        assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}


def test_simulate_batch_noise_is_per_seed_pcg64_draws():
    # with A = 0 and a zero start every state after the first is the noise
    spec = SystemSpec.lds(np.zeros((2, 2)))
    seeds = [0, 2**32, 2**64 - 1, 77]
    batch = simulate_batch(spec, [0.0, 0.0], 30, seeds)
    for row, seed in zip(batch, seeds):
        draws = np.random.Generator(np.random.PCG64(seed)).standard_normal((30, 2))
        assert np.array_equal(row[1:], draws)


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
    ],
)
@pytest.mark.parametrize("n_steps", [0, 1, 17])
def test_simulate_endpoints_equal_batch_final_states(spec, x0, n_steps, monkeypatch):
    # a budget of three trajectories per chunk leaves a partial last chunk
    budget = 3 * max(1, n_steps * spec.dim * 8)
    monkeypatch.setattr(dynamics, "_NOISE_BUDGET_BYTES", budget)
    seeds = derive_seeds(5, 0, 10)
    endpoints = simulate_endpoints(spec, x0, n_steps, seeds)
    assert endpoints.shape == (10, spec.dim)
    assert np.array_equal(endpoints, simulate_batch(spec, x0, n_steps, seeds)[:, -1])


def test_simulate_endpoints_holds_one_noise_chunk():
    # 10,000 trajectories of 200 steps are 16 chunks of 1 MiB noise; drawing
    # a chunk while the previous one is still referenced would hold 2 MiB
    seeds = derive_seeds(1, 0, 10_000)
    tracemalloc.start()
    try:
        simulate_endpoints(SystemSpec.lds([[0.5]]), [0.0], 200, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2**20


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_64_bits_are_rejected(seed):
    spec = SystemSpec.lds([[0.5]])
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        simulate(spec, [0.0], 3, seed)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        simulate_batch(spec, [0.0], 3, [1, seed])
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        simulate_endpoints(spec, [0.0], 3, [seed])
