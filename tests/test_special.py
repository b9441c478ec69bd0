"""The math-and-numpy special functions against scipy's, at stated bounds."""

import math

import numpy as np
import pytest
from scipy.special import ellipe as scipy_ellipe
from scipy.special import logsumexp as scipy_logsumexp

from concentrix._special import betaincinv, ellipe, logsumexp

# clopper_pearson's agreement with scipy.stats.beta.ppf is checked on the
# Clopper-Pearson grid in tests/test_montecarlo.py


def test_betaincinv_bits_are_pinned():
    # (a, b, p) -> quantile, one row per evaluation path: continued fraction
    # or binomial sum, exact or saddle-point prefactor, either tail
    table = [
        ((1, 5000, 0.005), 1.0025078621975135e-06),
        ((2, 4999, 0.995), 0.0014850707328473542),
        ((7, 594, 0.005), 0.0034068331494392446),
        ((197, 404, 0.005), 0.2796569591268982),
        ((198, 403, 0.995), 0.3797837249467948),
        ((4, 19997, 0.95), 0.000387636755786371),
        ((2500, 2501, 0.025), 0.48604437400092576),
        ((19998, 3, 0.0005), 0.9993975814200847),
    ]
    assert [betaincinv(*args) for args, _ in table] == [x for _, x in table]


@pytest.mark.parametrize("a", [1, 2, 7, 300, 5000, 100_000])
def test_betaincinv_power_law_quantiles_to_a_few_ulps(a):
    # I_x(1, a) = 1 - (1 - x)^a and I_x(a, 1) = x^a invert in closed form,
    # here also in tails far beyond any Clopper-Pearson level
    ps = (1e-300, 1e-100, 1e-16, 5.5e-17, 1e-3, 0.3, 0.5, 0.9, 0.999, 1 - 1e-10)
    cases = [((1, a, p), -math.expm1(math.log1p(-p) / a)) for p in ps]
    # p^(1/a) carries |log x| times the rounding of 1/a, so deep tails of
    # small a take exact powers of two instead
    cases += [((a, 1, p), p ** (1.0 / a)) for p in ps if abs(math.log(p)) <= 4 * a]
    exact = [j for j in (1, 3, 50, 140, 498, 996) if j * a <= 1022]
    cases += [((a, 1, 2.0 ** -(j * a)), 2.0**-j) for j in exact]
    for args, want in cases:
        got = betaincinv(*args)
        assert abs(got - want) <= 8 * math.ulp(want), (args, got, want)


def test_betaincinv_endpoints_and_range():
    assert betaincinv(3, 4, 0.0) == 0.0
    assert betaincinv(3, 4, 1.0) == 1.0
    # the quantile of a level that rounds 1 - p to its last bit stays in [0, 1]
    assert betaincinv(5000, 1, 1.0 - 2.0**-53) <= 1.0


@pytest.mark.parametrize(
    "a, b, p", [(0, 1, 0.5), (1, 0, 0.5), (1.5, 2, 0.5), (2, 2.5, 0.5), (1, 1, -0.1),
                (1, 1, 1.1), (1, 1, math.nan)]
)
def test_betaincinv_rejects_arguments_outside_its_domain(a, b, p):
    with pytest.raises(ValueError, match="betaincinv"):
        betaincinv(a, b, p)


def test_ellipe_agrees_with_scipy():
    # worst measured 6.4e-16 relative (3 ulps) near m = 0.97
    m = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-300, 1.0 - 2.0**-53, 1.0 - 1e-12]])
    got = np.array([ellipe(float(v)) for v in m])
    assert np.abs(got - scipy_ellipe(m)).max() <= 1e-15 * scipy_ellipe(m).min()
    assert ellipe(1.0) == 1.0
    assert abs(ellipe(0.0) - math.pi / 2) <= 2 * math.ulp(math.pi / 2)


@pytest.mark.parametrize("m", [-1e-9, 1.0 + 1e-9, math.nan, math.inf])
def test_ellipe_rejects_parameters_outside_unit_interval(m):
    with pytest.raises(ValueError, match="ellipe"):
        ellipe(m)


def test_logsumexp_gives_scipys_floats():
    rng = np.random.Generator(np.random.PCG64(23))
    for size in (1, 2, 7, 8, 9, 100, 4097):
        for scale in (1e-3, 1.0, 700.0, 1e5):
            v = rng.normal(size=size) * scale
            assert logsumexp(v) == float(scipy_logsumexp(v))
            # ties at the maximum are counted apart from the rest
            v[: size // 2] = v.max()
            assert logsumexp(v) == float(scipy_logsumexp(v))


@pytest.mark.parametrize(
    "values, want",
    [
        ([-math.inf], -math.inf),
        ([-math.inf, -math.inf], -math.inf),
        ([], -math.inf),
        ([-math.inf, 0.0], 0.0),
        ([math.inf, 1.0], math.inf),
        ([math.inf, -math.inf], math.inf),
        ([math.nan, 1.0], math.nan),
        ([math.nan, math.inf], math.nan),
        ([1e308, 1e308], 1e308),
    ],
)
def test_logsumexp_edge_values(values, want):
    got = logsumexp(np.array(values))
    assert got == want or (math.isnan(got) and math.isnan(want))
    if values:
        scipy_value = float(scipy_logsumexp(np.array(values)))
        assert got == scipy_value or (math.isnan(got) and math.isnan(scipy_value))
