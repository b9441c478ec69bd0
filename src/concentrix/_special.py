"""Three special functions of the deviation pipeline, in ``math`` and numpy.

``scipy.special`` costs a deviation run about 0.26 s and 28 MB of start-up
for three calls, so they live here:

- :func:`betaincinv`, the beta quantiles of the Clopper-Pearson interval
  (Clopper and Pearson, Biometrika 1934);
- :func:`ellipe`, the complete elliptic integral of the norm reward's 2-D
  closed form;
- :func:`logsumexp`, the log moment generating function of the dual gap
  check.

Each function's error against scipy is measured in
``tests/test_special.py`` and stated in its docstring.
"""

from __future__ import annotations

import math

import numpy as np

_TINY = 1e-300
_EPS = 2.0**-52

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) at n = 0, 1, ..., 15,
# evaluated from log-gamma in 50-digit arithmetic (index 0 is unused)
_STIRLERR_SMALL = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# Stirling series coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(n: float) -> float:
    """``log(n!) - log(sqrt(2 pi n) (n / e)^n)`` at integer n (Loader 2000)."""
    if n <= 15.0:
        return _STIRLERR_SMALL[int(n)]
    nn = n * n
    if n > 500.0:
        return (_S0 - _S1 / nn) / n
    if n > 80.0:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35.0:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mu: float, delta: float) -> float:
    """Loader's deviance ``x log(x / mu) + mu - x``, given ``delta = x - mu``.

    Near ``mu = x`` it sums a series in ``delta``, which stays exact where
    ``mu`` is formed from a rounded ``1 - x``; far from it the logarithm
    takes ``mu`` itself, which ``x - delta`` would lose to cancellation.
    """
    total = x + mu
    if abs(delta) < 0.1 * total:
        v = delta / total
        s = delta * v
        term = 2.0 * x * v
        v *= v
        j = 3.0
        while True:
            term *= v
            nxt = s + term / j
            if nxt == s:
                return s
            s = nxt
            j += 2.0
    return x * math.log(x / mu) - delta


def _beta_front(a: float, b: float, x: float) -> float:
    """``x^a (1 - x)^b / B(a, b)`` from Loader's saddle-point binomial density.

    It equals ``(a b / n)`` times the binomial probability of ``a`` successes
    in ``n = a + b`` trials at success rate ``x``.  The ``lgamma`` route,
    ``exp(a log x + b log1p(-x) - lbeta)``, loses 2e-12 to 7e-12 at n = 5000.
    """
    if a <= 16.0:
        # a few exact factors: in a deep lower tail, the logarithms below
        # would lose |log front| ulps to exp
        front = a * math.exp(b * math.log1p(-x))
        for i in range(1, int(a) + 1):
            front *= x * (b + i - 1.0) / i
        return front
    n = a + b
    delta = a - n * x  # = n (1 - x) - b, without rounding 1 - x
    log_core = (
        _stirlerr(n) - _stirlerr(a) - _stirlerr(b)
        - _bd0(a, n * x, delta) - _bd0(b, n * (1.0 - x), -delta)
    )
    return math.sqrt(a * b / (2.0 * math.pi * n)) * math.exp(log_core)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b)`` by the modified Lentz method.

    ``I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * _betacf(a, b, x)``; it
    converges fast for ``x < (a + 1) / (a + b + 2)`` (Numerical Recipes,
    section 6.4).
    """
    apb, ap1, am1 = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - apb * x / ap1
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for coeff in (
            m * (b - m) * x / ((am1 + m2) * (a + m2)),
            -(a + m) * (apb + m) * x / ((a + m2) * (ap1 + m2)),
        ):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + coeff / c
            c = c if abs(c) >= _TINY else _TINY
            step = d * c
            h *= step
        if abs(step - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _binomial_head(a: float, b: float, x: float) -> float:
    """``(1 - I_x(a, b)) b x / (x^a (1 - x)^b / B(a, b))`` for integer a.

    ``1 - I_x(a, b)`` is the chance of fewer than ``a`` successes in
    ``a + b - 1`` trials at rate x, a finite sum, here summed down from its
    largest index until the terms no longer count.  The continued fraction of
    ``I_(1-x)(b, a)`` would give the same tail, but for small x its terms
    cancel and it loses up to 1e-12 to the rounding of ``1 - x``.
    """
    ratio = (1.0 - x) / x
    term = total = 1.0
    for i in range(1, int(a)):
        term *= (a - i) / (b + i) * ratio
        nxt = total + term
        if nxt == total:
            break
        total = nxt
    return total


def _beta_tail(a: float, b: float, x: float, upper: bool) -> tuple[float, float]:
    """``I_x(a, b)``, or ``1 - I_x(a, b)`` when ``upper``, and the density at x."""
    front = _beta_front(a, b, x)
    if x < (a + 1.0) / (a + b + 2.0):
        tail, flip = front * _betacf(a, b, x) / a, upper
    else:
        tail, flip = front * _binomial_head(a, b, x) / (b * x), not upper
    return (1.0 - tail if flip else tail), front / (x * (1.0 - x))


def _start(a: float, b: float, p: float) -> float:
    """First guess at the p-quantile for ``a, b >= 1`` (Numerical Recipes
    ``invbetai``: Abramowitz and Stegun 26.5.22 with a normal quantile)."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
    if p < 0.5:
        z = -z
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = z * math.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
        al + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    return a / (a + b * math.exp(min(2.0 * w, 700.0)))


def betaincinv(a: int, b: int, p: float) -> float:
    """The x with ``I_x(a, b) = p``: the p-quantile of the Beta(a, b) law.

    For positive integers a and b, the Clopper-Pearson case.  Halley steps
    on ``log I_x`` from the ``invbetai`` start (Numerical Recipes, section
    6.14), kept inside a bracket that each evaluation narrows; a step that
    would leave it is retaken on a log scale or, failing that, goes to the
    bracket's midpoint.  ``I_x`` is the continued fraction of
    :func:`_betacf` below the mean and the binomial sum of
    :func:`_binomial_head` above it, both with the saddle-point prefactor of
    :func:`_beta_front` (DiDonato and Morris, ACM TOMS 1992, survey the
    ways to evaluate the incomplete beta).  For ``p > 1/2`` the iteration
    matches the upper tail ``1 - I_x`` to ``1 - p``, which is exact there,
    so neither tail loses digits to cancellation.

    Measured on the Clopper-Pearson grid of ``tests/test_montecarlo.py``
    (trials up to 20,000, levels 0.9 to 0.999): at most 6.3e-15 relative
    (36 ulps) from ``scipy.special.betaincinv``, at a point where scipy is
    37 ulps from a 50-digit reference, and 1 ulp in the median; at most 4
    ulps from the 50-digit reference.  The closed-form cases ``b = 1`` and
    ``a = 1`` hold to a few ulps for p down to 1e-300.
    """
    if not (a >= 1 and b >= 1 and a == int(a) and b == int(b) and 0.0 <= p <= 1.0):
        raise ValueError(f"betaincinv needs integers a, b >= 1 and 0 <= p <= 1, got {a}, {b}, {p}")
    if p == 0.0 or p == 1.0:
        return float(p)
    a, b = float(a), float(b)
    upper = p > 0.5
    sign = -1.0 if upper else 1.0  # the matched tail falls with x when upper
    target = 1.0 - p if upper else p
    low, high = 0.0, 1.0
    x = min(max(_start(a, b, p), _TINY), 1.0 - _EPS)
    for _ in range(100):
        tail, density = _beta_tail(a, b, x, upper)
        # Newton on log(tail / target), which stays near linear deep in a
        # tail, where the tail itself moves by orders of magnitude per step
        ratio = tail / target
        if tail <= 0.0:
            miss = -math.inf
        elif 0.5 < ratio < 2.0:
            miss = math.log1p((tail - target) / target)
        else:
            miss = math.log(ratio)
        if miss == 0.0:
            return x
        if sign * miss > 0.0:
            high = x
        else:
            low = x
        step = math.nan
        if density > 0.0 and math.isfinite(miss):
            slope = sign * density / tail
            u = miss / slope
            curve = u * ((a - 1.0) / x - (b - 1.0) / (1.0 - x) - slope)
            step = u / (1.0 - 0.5 * min(1.0, max(-1.0, curve)))  # Halley
            if abs(step) <= max(1e-9 * min(x, 1.0 - x), 4.0 * _EPS * x):
                # Halley converges cubically: from this close, one step is
                # as near as the residual's rounding lets any step come
                return min(max(x - step, low), high)
        # a step that leaves the bracket is retaken in log x (log(1 - x) for
        # the upper tail), where a power-law tail is linear, and else halved
        if upper:
            moved = (x - step, 1.0 - (1.0 - x) * math.exp(min(step / (1.0 - x), 700.0)))
        else:
            moved = (x - step, x * math.exp(min(-step / x, 700.0)))
        x = next((m for m in moved if low < m < high), 0.5 * (low + high))
        if not low < x < high:  # the bracket is two neighbouring floats
            return x
    raise ArithmeticError(f"betaincinv did not converge at a={a}, b={b}, p={p}")


def _carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral ``R_D(x, y, z)`` by duplication.

    Carlson, Numerical Algorithms 10 (1995), algorithm for R_D: duplicate
    until the arguments agree to ``(r / 4)^(1/6)`` for ``r = 2^-53``, then
    sum the fifth-order Taylor series (DLMF 19.36.2).
    """
    a0 = (x + y + 3.0 * z) / 5.0
    spread = max(abs(a0 - x), abs(a0 - y), abs(a0 - z)) * (2.0**-55) ** (-1.0 / 6.0)
    xm, ym, zm, am = x, y, z, a0
    scale, total = 1.0, 0.0
    while scale * spread >= abs(am):
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * sy + sx * sz + sy * sz
        total += scale / (sz * (zm + lam))
        scale *= 0.25
        xm, ym, zm, am = (xm + lam) / 4.0, (ym + lam) / 4.0, (zm + lam) / 4.0, (am + lam) / 4.0
    dx = (a0 - x) * scale / am
    dy = (a0 - y) * scale / am
    dz = -(dx + dy) / 3.0
    e2 = dx * dy - 6.0 * dz * dz
    e3 = (3.0 * dx * dy - 8.0 * dz * dz) * dz
    e4 = 3.0 * (dx * dy - dz * dz) * dz * dz
    e5 = dx * dy * dz * dz * dz
    series = (
        1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
        - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
    )
    return scale * series / (am * math.sqrt(am)) + 3.0 * total


def ellipe(m: float) -> float:
    """Complete elliptic integral of the second kind ``E(m)``, ``0 <= m <= 1``.

    ``E = (1 - m) / 3 * (R_D(0, 1 - m, 1) + R_D(0, 1, 1 - m))`` (DLMF
    19.25.1), a sum of positive terms: unlike the AGM or the
    ``R_F - m R_D / 3`` form it cancels nothing as m approaches 1.

    Measured on 1001 points of [0, 1] (``tests/test_special.py``): at
    most 6.4e-16 relative (3 ulps, near m = 0.97) from
    ``scipy.special.ellipe``, and 3 ulps from a 50-digit reference.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"ellipe needs 0 <= m <= 1, got {m!r}")
    if m == 1.0:
        return 1.0
    y = 1.0 - m
    return y / 3.0 * (_carlson_rd(0.0, y, 1.0) + _carlson_rd(0.0, 1.0, y))


def logsumexp(values) -> float:
    """``log(sum(exp(values)))`` over a flat array, without overflow.

    Shifted by the maximum, whose terms are counted apart and enter through
    ``log1p`` as scipy's ``logsumexp`` does, so for real input it returns
    scipy's floats (``tests/test_special.py`` checks them to the bit).  A
    ``nan`` entry gives ``nan``, a ``+inf`` entry ``inf``, and all ``-inf``
    (or no entries) ``-inf``.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size == 0:
        return -math.inf
    top = v.max()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not np.isfinite(top):
            return float(np.log(np.sum(np.exp(v))))
        peak = v == top
        count = np.float64(np.count_nonzero(peak))
        rest = np.sum(np.exp(np.where(peak, -np.inf, v - top))) / count
        return float(np.log1p(rest) + np.log(count) + top)
