"""The closed-form statistics of the adversarial density under the geometric
law, which replaced the one-pass Gauss-Kronrod rule behind that oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from vegas_restart import analysis, distx, verify
from vegas_restart.distx import RuntimeModel, adversarial_density, runtime_stats
from vegas_restart.schedules import (
    fixed_schedule,
    specific_e_schedule,
    two_threshold_schedule,
    universal_schedule,
)

_ULP = 2.0**-53


def _stats(E, b):
    return runtime_stats(RuntimeModel(adversarial_density(E), "geometric"), b)


def _model_constants(E):
    """a and z = a/(1+a) = e^-t_max in mpmath, from the double a the model holds."""
    a = mpmath.mpf(math.exp(-(E + 1.0)))
    return a, a / (1 + a)


def _rel(got, ref):
    return float(abs(mpmath.mpf(got) / ref - 1))


# ---------------------------------------------------------------------------
# Independent references.  With u = e^-x an attempt of n steps has
# q = a int_z^1 (1-u)^n u^-2 du, m = a int_z^1 (1 - (1-u)^n) u^-3 du and
# p = a int_z^1 (1 - (1-u)^n) u^-2 du.


def _binomial_references(E, ns):
    """(q, m, p) for each n in ns from the binomial expansion of (1-u)^n,
    exact but for the 1000-digit rounding that absorbs its cancellation
    (n <= 2000)."""
    with mpmath.workdps(1000):
        a, z = _model_constants(E)
        # power[j + 3] = int_z^1 u^j du for j = -3, ..., max(ns) - 2
        power, z_j = [], 1 / z**2
        for j in range(-3, max(ns) - 1):
            power.append(-mpmath.log(z) if j == -1 else (1 - z_j) / (j + 1))
            z_j *= z
        out = []
        for n in ns:
            q = m = p = mpmath.mpf(0)
            for k in range(n + 1):
                c = math.comb(n, k) * (-1) ** k
                q += c * power[k + 1]
                if k:
                    p -= c * power[k + 1]
                    m -= c * power[k]
            out.append((a * q, a * m, a * p))
        return out


def _quad_reference(E, n):
    """(q, m, p) by 50-digit mpmath.quad in u, with breakpoints at z 4^k and
    z + k/n.  Each integrand is scaled to about 1 at u = z, since quad's
    stopping rule is absolute; its own error estimate must be negligible."""
    with mpmath.workdps(50):
        a, z = _model_constants(E)
        n = mpmath.mpf(n)
        points = {z * 4**k for k in range(300) if z * 4**k < 1}
        points |= {z + k / n for k in range(1, 33) if z + k / n < 1}
        points = sorted(points | {mpmath.mpf(1)})
        log_fail_z = n * mpmath.log1p(-z)
        out = []
        for integrand, scale in (
            (lambda u: mpmath.exp(n * mpmath.log1p(-u) - log_fail_z) * (z / u) ** 2,
             mpmath.exp(log_fail_z) / z**2),
            (lambda u: -mpmath.expm1(n * mpmath.log1p(-u)) * (z / u) ** 3, 1 / z**3),
            (lambda u: -mpmath.expm1(n * mpmath.log1p(-u)) * (z / u) ** 2, 1 / z**2),
        ):
            value, error = mpmath.quad(integrand, points, error=True)
            assert error <= 1e-30 * value
            out.append(a * scale * value)
        return tuple(out)


def _assert_q_close(E, n, q, ref_q):
    # (1+a)^-n is e^-w with w = n ln(1+a); rounding ln(1+a) moves it by up to
    # about w ulps, and q carries that factor where it is small.  A subnormal
    # q keeps what its spacing allows.
    w = n * math.log1p(math.exp(-(E + 1.0)))
    error = abs(mpmath.mpf(q) - ref_q)
    assert error <= 16 * _ULP * (1.0 + w) * ref_q + 2 * math.ulp(0.0), (E, n, q, float(ref_q))


def _assert_close(E, n, got, ref):
    (q, m, p), (ref_q, ref_m, ref_p) = got, ref
    assert _rel(p, ref_p) <= 16 * _ULP, (E, n, p, float(ref_p))
    assert _rel(m, ref_m) <= 16 * _ULP, (E, n, m, float(ref_m))
    _assert_q_close(E, n, q, ref_q)


REFERENCE_ES = (0.1, 1.0, 5.0, 25.0, 120.0, 299.0)
# Every branch: J by its short sum (n <= 6) and by its series, q as 1 - p
# (n < 8 or p <= 1/2) and by its series.
_BINOMIAL_NS = (*range(1, 21), 30, 100, 300, 1000, 2000)


@pytest.mark.parametrize("E", REFERENCE_ES)
def test_stats_match_exact_binomial_sums(E):
    for n, ref in zip(_BINOMIAL_NS, _binomial_references(E, _BINOMIAL_NS)):
        _assert_close(E, n, _stats(E, float(n)), ref)


# w = n ln(1+a) of about 0.5, 25, 1270 and 24 800; q underflows at the last two.
_QUAD_GRID = ((1.0, 1e4), (5.0, 1e4), (5.0, 1e7), (25.0, 1e11))


@pytest.mark.parametrize("E, n", _QUAD_GRID)
def test_stats_match_mpmath_quadrature_at_large_n(E, n):
    _assert_close(E, n, _stats(E, n), _quad_reference(E, n))


# w = 551 at E = 230.86, and a subnormal q, at n and n + 7 steps.
@pytest.mark.parametrize("E, b", [
    (230.86113346776378, math.exp(238.17351514475055)),
    (1.3598981906631684, 8103.0),
    (1.3598981906631684, 8110.0),
])
def test_tiny_q_matches_the_integral_in_s(E, b):
    # An independent reference in 1 - u = e^-s with s = s_z + v/n and
    # s_z = ln(1+a), where q = a n e^-(n+1)s_z times
    # int_0^inf e^-(1+1/n)v / (n (1 - e^-(s_z + v/n)))^2 dv.
    n = math.floor(b)
    with mpmath.workdps(60):
        a, _ = _model_constants(E)
        s_z = mpmath.log1p(a)
        integral, error = mpmath.quad(
            lambda v: mpmath.exp(-(1 + mpmath.mpf(1) / n) * v) / (n * -mpmath.expm1(-(s_z + v / n))) ** 2,
            [0, 1, 4, 16, 64, 256, mpmath.inf], error=True)
        assert error <= 1e-30 * integral
        ref_q = a * n * mpmath.exp(-(n + 1) * s_z) * integral
    _assert_q_close(E, n, _stats(E, b)[0], ref_q)


@pytest.mark.parametrize("d", range(23))
def test_kronrod_rule_integrates_monomials_exactly(d):
    # The Gauss-Kronrod 7/15 rule the closed form replaced was exact for
    # polynomials up to degree 22.  The closed form must integrate each
    # polynomial (1-u)^d it meets exactly too: at n = d + 1 steps
    # p = 1 - (1-z)^d + a n J_d with J_d = int_z^1 (1-u)^d / u du
    # = -ln z - sum_{i<=d} (1-z)^i / i, J by its short sum for d < 6 and by
    # its series above.
    n = d + 1
    for E in REFERENCE_ES:
        with mpmath.workdps(60):
            a, z = _model_constants(E)
            j_d = -mpmath.log(z) - mpmath.fsum((1 - z) ** i / i for i in range(1, d + 1))
            ref_p = -mpmath.expm1(d * mpmath.log1p(-z)) + a * n * j_d
        assert _rel(_stats(E, float(n))[2], ref_p) <= 16 * _ULP, (E, d)


@pytest.mark.parametrize("E", REFERENCE_ES)
def test_stats_identities(E):
    dist = adversarial_density(E)
    a = math.exp(-(E + 1.0))
    # One step: success with probability e^-x, charged exactly 1.
    q, m, p = _stats(E, 1.0)
    assert abs(m - 1.0) <= 2 * _ULP
    assert abs(p / (a * distx.support_max(dist)) - 1.0) <= 4 * _ULP
    assert abs(p + q - 1.0) <= 2 * 2.0**-52
    # Unbounded steps: every run finishes, charged E[e^X].
    q, m, p = _stats(E, 1e300)
    assert (q, p) == (0.0, 1.0)
    assert abs(m / distx.expectation_exp(dist) - 1.0) <= 4 * _ULP


@settings(max_examples=300, deadline=None)
@given(
    E=st.floats(min_value=0.01, max_value=300.0),
    ln_b=st.floats(min_value=0.0, max_value=700.0),
    ln_ratio=st.floats(min_value=0.0, max_value=20.0),
    step=st.integers(min_value=1, max_value=10),
)
def test_q_falls_and_m_rises_with_the_budget(E, ln_b, ln_ratio, step):
    # Neighbouring and distant budgets; where q or m has converged, or q is
    # subnormal, rounding may reverse the order by an ulp or two.
    lo = float(math.floor(math.exp(ln_b)))
    for hi in (lo + step, float(math.floor(math.exp(min(ln_b + ln_ratio, 709.0))) + step)):
        (q_lo, m_lo, p_lo), (q_hi, m_hi, p_hi) = _stats(E, lo), _stats(E, hi)
        assert q_hi <= q_lo + 4 * math.ulp(q_lo)
        assert m_hi >= m_lo * (1.0 - 4 * _ULP)
        for q, m, p, n in ((q_lo, m_lo, p_lo, lo), (q_hi, m_hi, p_hi, hi)):
            assert 0.0 <= q <= 1.0 and 0.0 <= p <= 1.0
            assert m <= n
            assert abs(p + q - 1.0) <= 2 * 2.0**-52


# ---------------------------------------------------------------------------
# runtime_stats against scipy


def _scipy_reference(E, b):
    """(q, m) as scipy.integrate.quad computes them, one integral at a time,
    with the arguments the package passed before it had its own rule."""
    e1 = E + 1.0
    t_max = e1 + math.log1p(math.exp(-e1))
    n = math.floor(b)

    def q_integrand(x):
        return math.exp(n * math.log1p(-math.exp(-x))) * math.exp(x - e1) if x > 0.0 else 0.0

    def m_integrand(x):
        y = n * math.log1p(-math.exp(-x)) if x > 0.0 else -math.inf
        return -math.expm1(y) * math.exp(x) * math.exp(x - e1)

    pts = [math.log(n)] if 0.0 < math.log(n) < t_max else None
    kw = dict(points=pts, epsabs=1e-280, epsrel=1e-11, limit=300)
    return min(1.0, scipy_quad(q_integrand, 0.0, t_max, **kw)[0]), scipy_quad(m_integrand, 0.0, t_max, **kw)[0]


EXTREME_ES = (5.0, 25.0, 120.0, 299.0)


def _extreme_budgets(E):
    """ln b from 0.5 to E + 40, past the top of the support, and b < 2."""
    return [math.exp(ln_b) for ln_b in np.linspace(0.5, E + 40.0, 17)] + [1.0, 1.5, 1.99]


@pytest.mark.parametrize("E", EXTREME_ES)
def test_adversarial_geometric_stats_match_scipy(E):
    model = RuntimeModel(adversarial_density(E), "geometric")
    for b in _extreme_budgets(E):
        q, m, _ = runtime_stats(model, b)
        got, ref = (q, m), _scipy_reference(E, b)
        for value, reference in zip(got, ref):
            # The reference promises max(1e-11 * |value|, 1e-280).
            assert math.isclose(value, reference, rel_tol=1e-11, abs_tol=1e-280), (E, b, got, ref)


# ---------------------------------------------------------------------------
# Every zoo, benchmark, extreme and random input closes in one pass: one
# closed-form evaluation, never refused, with valid statistics.


def _assert_valid(E, b):
    q, m, p = _stats(E, b)
    n = math.floor(b)
    assert 0.0 <= q <= 1.0 and 0.0 <= p <= 1.0 and abs(p + q - 1.0) <= 2 * 2.0**-52, (E, b)
    assert 0.0 < m <= min(n, distx.expectation_exp(adversarial_density(E)) * (1 + 4 * _ULP)), (E, b)


def test_every_input_closes_in_one_pass():
    for E in EXTREME_ES:
        for b in _extreme_budgets(E):
            if b >= 1.0:
                _assert_valid(E, b)
    # E in (0, 300] and ln b in [0, 709]: the whole range the oracle accepts
    # with a finite budget.
    rng = np.random.default_rng(20261018)
    for E, ln_b in zip(300.0 - rng.uniform(0.0, 300.0, 2000), rng.uniform(0.0, 709.0, 2000)):
        _assert_valid(E, math.exp(ln_b))
    # The zoo's adversarial E values and the oracle benchmark's E range.
    for E in sorted(set(distx.ZOO_ADVERSARIAL_ES) | set(np.linspace(5.0, 25.0, 41))):
        model = RuntimeModel(adversarial_density(E), "geometric")
        ex = distx.expectation(model.dist)
        for schedule in (fixed_schedule(ex), two_threshold_schedule(ex), specific_e_schedule(ex),
                         universal_schedule()):
            est = analysis.analytic_cost(model, schedule)
            assert math.isfinite(est.expected_cost) and est.expected_cost > 0.0
    assert all(v.holds for v in verify.run_scope("all"))
