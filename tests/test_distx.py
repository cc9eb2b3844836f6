import math
import pickle
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from vegas_restart import distx
from vegas_restart.distx import (
    RuntimeModel,
    adversarial_density,
    build_distribution,
    cdf,
    cdf_strict,
    constant,
    discrete,
    expectation,
    expectation_exp,
    fixed_t_counterexample,
    runtime_stats,
    sample_t,
    sample_x,
    two_point,
    variance_counterexample,
    zoo_distributions,
    zoo_models,
)
from vegas_restart.streams import CounterStream, stream_key


def stream(*words):
    return CounterStream(stream_key(*words))


# ---------------------------------------------------------------------------
# Construction


def test_two_point_atoms_and_mean():
    d = two_point(4.0)
    assert d.atoms == ((0.0, 0.2), (5.0, 0.8))
    assert expectation(d) == pytest.approx(4.0, abs=1e-12)


def test_fixed_t_counterexample_atoms():
    d = fixed_t_counterexample(5.0, 10.0)
    assert d.atoms[0][0] == 0.0 and d.atoms[0][1] == pytest.approx(6.0 / 11.0)
    assert d.atoms[1][0] == 11.0 and d.atoms[1][1] == pytest.approx(5.0 / 11.0)
    assert expectation(d) == pytest.approx(5.0, abs=1e-12)


def test_variance_counterexample_atoms_and_moments():
    d = variance_counterexample(5.0, 10.0)
    xs = [x for x, _ in d.atoms]
    ps = [p for _, p in d.atoms]
    assert xs[0] == 0.0 and xs[1] == 5.0
    assert xs[2] == pytest.approx(296.826, abs=1e-2)
    assert ps[0] == pytest.approx(0.006738, abs=1e-6)
    assert ps[1] == pytest.approx(0.993146, abs=1e-6)
    assert ps[2] == pytest.approx(1.1545e-4, abs=1e-8)
    mean = sum(p * x for x, p in d.atoms)
    var = sum(p * x * x for x, p in d.atoms) - mean * mean
    assert mean == pytest.approx(5.0, abs=1e-9)
    assert var == pytest.approx(10.0, abs=1e-6)
    assert cdf_strict(d, 5.0) == math.exp(-5.0)


def test_constructor_domain_errors():
    with pytest.raises(ValueError):
        two_point(0.0)
    with pytest.raises(ValueError):
        fixed_t_counterexample(5.0, 4.0)  # t < E
    with pytest.raises(ValueError):
        variance_counterexample(5.0, 0.3)  # V below 2 E^2 exp(-E)
    with pytest.raises(ValueError):
        adversarial_density(0.0)
    with pytest.raises(ValueError):
        adversarial_density(301.0)
    with pytest.raises(ValueError):
        constant(-1.0)
    with pytest.raises(ValueError):
        discrete([(0.0, 0.5), (1.0, 0.6)])  # sums past 1
    with pytest.raises(ValueError):
        discrete([(0.0, 0.5), (0.0, 0.5)])  # duplicate positions
    with pytest.raises(ValueError):
        discrete([(1.0, 1.5)])  # probability outside (0, 1]
    with pytest.raises(ValueError, match="^a discrete distribution needs at least one atom$"):
        discrete([])


def test_runtime_model_refuses_an_unknown_law():
    with pytest.raises(ValueError, match="unknown runtime law 'bogus'"):
        RuntimeModel(two_point(4.0), "bogus")


@pytest.mark.parametrize("dist", [two_point(4.0), adversarial_density(5.0)], ids=["atoms", "density"])
def test_runtime_model_survives_a_pickle_round_trip(dist):
    model = RuntimeModel(dist, "geometric")
    back = pickle.loads(pickle.dumps(model))
    assert back == model
    assert hash(back) == hash(model)


def test_even_bernoulli_constants_are_the_rounded_rationals():
    # B_j / j! from the Taylor series of s / (e^s - 1), in exact rationals:
    # sum_{i<=j} B_i / (j + 1 - i)! = 0 for j >= 1.  Each even term is
    # rounded once.
    b = [Fraction(1)]
    for j in range(1, 37):
        b.append(-sum(bi / math.factorial(j + 1 - i) for i, bi in enumerate(b)))
    reference = tuple(float(x) for x in b[::2])
    assert len(distx._EVEN_BERNOULLI) == len(reference) == 19
    assert [repr(x) for x in distx._EVEN_BERNOULLI] == [repr(x) for x in reference]


def test_build_distribution_dispatch_and_validation():
    d = build_distribution({"kind": "two_point", "E": 4})
    assert d.atoms == two_point(4.0).atoms
    assert build_distribution({"kind": "constant", "c": 7}).atoms == ((7.0, 1.0),)
    with pytest.raises(ValueError):
        build_distribution({"kind": "two_point", "E": 4, "t": 2})
    with pytest.raises(ValueError):
        build_distribution({"kind": "two_point", "E": 4, "bogus": 1})
    with pytest.raises(ValueError):
        build_distribution({"kind": "nope"})


# ---------------------------------------------------------------------------
# CDF and moments


def test_cdf_strict_two_point():
    d = two_point(4.0)
    assert cdf_strict(d, 5.0) == 0.2
    assert cdf_strict(d, 0.0) == 0.0
    assert cdf_strict(d, 5.0 + 1e-9) == 1.0
    assert cdf(d, 5.0) == 1.0
    assert cdf(d, 0.0) == 0.2


def test_cdf_adversarial_closed_form():
    d = adversarial_density(10.0)
    assert cdf_strict(d, 11.0) == pytest.approx(1.0 - math.exp(-11.0), rel=1e-12)
    assert cdf_strict(d, 0.0) == 0.0
    assert cdf_strict(d, -1.0) == 0.0
    t_max = distx.support_max(d)
    assert cdf_strict(d, t_max) == 1.0
    assert cdf_strict(d, t_max + 1.0) == 1.0


def test_cdf_adversarial_full_precision_against_mpmath():
    # exp(t - (E+1)) - a cancels for small t; the CDF must not.
    d = adversarial_density(10.0)
    t_max = distx.support_max(d)
    ts = [1.1e-8, 1e-12, 0.5, 10.0, t_max - 1e-6, t_max - 1e-9, math.nextafter(t_max, 0.0)]
    with mpmath.workdps(40):
        e1 = mpmath.mpf(d.E) + 1
        for t in ts:
            exact = mpmath.exp(mpmath.mpf(t) - e1) - mpmath.exp(-e1)
            for got in (cdf_strict(d, t), cdf(d, t)):
                assert abs(mpmath.mpf(got) / exact - 1) <= 1e-15, t


def test_runtime_stats_adversarial_deterministic_against_mpmath():
    # q = 1 - a*expm1(ln b) and m = a*expm1(2 ln b)/2 + b*q at E = 10.  Next to
    # t_max, q is about 1e-9 and moves by about -1 per unit of ln b, so the
    # rounding of log(b) alone (half an ulp of t_max) bounds its absolute error.
    d = adversarial_density(10.0)
    model = RuntimeModel(d, "deterministic")
    t_max = distx.support_max(d)
    with mpmath.workdps(40):
        a = mpmath.exp(-(mpmath.mpf(d.E) + 1))
        for ln_b in (1.1e-8, 1e-6, 0.5, t_max - 1e-9):
            b = math.exp(ln_b)
            x = mpmath.log(mpmath.mpf(b))
            q_exact = 1 - a * mpmath.expm1(x)
            m_exact = a * mpmath.expm1(2 * x) / 2 + mpmath.mpf(b) * q_exact
            q, m, _ = runtime_stats(model, b)
            assert abs(mpmath.mpf(m) / m_exact - 1) <= 1e-15, ln_b
            if ln_b < t_max - 1.0:
                assert abs(mpmath.mpf(q) / q_exact - 1) <= 1e-15, ln_b
            else:
                assert abs(mpmath.mpf(q) - q_exact) <= math.ulp(t_max), ln_b


def test_cdf_strict_nondecreasing():
    for d in zoo_distributions():
        hi = distx.support_max(d) + 2.0
        ts = np.linspace(-1.0, hi, 400)
        vals = [cdf_strict(d, t) for t in ts]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


@st.composite
def _atom_sets(draw, max_atoms=50):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    xs = draw(st.lists(st.floats(min_value=0.0, max_value=300.0), min_size=n, max_size=n,
                       unique=True))
    # Weights over six decades, so that the prefixes need fsum's rounding.
    weights = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    return discrete([(x, w / total) for x, w in zip(xs, weights)])


# Ten atoms of 0.1: a running float sum reads 0.7999999999999999 at 7 and
# 0.9999999999999999 at 9, where fsum reads 0.8 and 1.0.
@given(_atom_sets(), st.lists(st.floats(min_value=-1.0, max_value=301.0), max_size=20))
@example(discrete([(float(i), 0.1) for i in range(10)]), [7.5, -1.0, 10.0])
@settings(max_examples=200, deadline=None)
def test_cdf_atom_prefixes_are_exact_sums(d, extra):
    probs = [p for _, p in d.atoms]
    assert d.atom_prefixes[1] == tuple(math.fsum(probs[:i]) for i in range(len(probs) + 1))
    ts = [x for x, _ in d.atoms] + extra
    for fn, below in ((cdf_strict, lambda y, t: y < t), (cdf, lambda y, t: y <= t)):
        expected = [math.fsum(p for y, p in d.atoms if below(y, t)) for t in ts]
        assert [fn(d, t) for t in ts] == expected


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_discrete_accepts_many_equal_weight_atoms(n):
    # A running += sum misses 1 by 1.9e-12 at 1e5 atoms and by 7.9e-12 at 1e6,
    # past the 1e-12 tolerance; fsum does not.
    d = discrete([(i * 1e-4, 1.0 / n) for i in range(n)])
    assert len(d.atoms) == n
    if n == 100_000:
        assert cdf(d, d.atoms[-1][0]) == math.fsum(p for _, p in d.atoms)
        assert cdf_strict(d, 5.0) == math.fsum([1.0 / n] * 50_000)


def test_expectation_examples():
    assert expectation(constant(7.0)) == 7.0
    assert expectation(two_point(4.0)) == pytest.approx(4.0, abs=1e-12)


def test_adversarial_expectation_closed_form_vs_quadrature():
    for e in (5.0, 10.0, 20.0):
        d = adversarial_density(e)
        t_max = distx.support_max(d)
        oracle, _ = quad(lambda x: x * math.exp(x - (e + 1.0)), 0.0, t_max, epsrel=1e-12)
        assert expectation(d) == pytest.approx(oracle, rel=1e-10)
    # the mean exceeds the family parameter by roughly (E+2) * exp(-(E+1))
    d = adversarial_density(10.0)
    delta = expectation(d) - 10.0
    assert delta == pytest.approx(2.0042054895519357e-4, rel=1e-9)
    assert 0.0 < delta < 13.0 * math.exp(-11.0)


def test_adversarial_mass_is_one():
    for e in (5.0, 10.0, 20.0):
        d = adversarial_density(e)
        t_max = distx.support_max(d)
        mass, _ = quad(lambda x: math.exp(x - (e + 1.0)), 0.0, t_max, epsrel=1e-12)
        assert mass == pytest.approx(1.0, rel=1e-10)


def test_jensen_gap_zoo_wide():
    for d in zoo_distributions():
        assert expectation_exp(d) >= math.exp(expectation(d)) - 1e-9


def test_two_point_meets_mean_tail_bound_with_equality():
    for e in (1.0, 4.0, 16.0):
        d = two_point(e)
        # Pr(X > E+1-eps) = 1 - 1/(E+1) and Pr(X >= E+1) equals E/(E+1).
        assert 1.0 - cdf_strict(d, e + 1.0 - 1e-9) == pytest.approx(1.0 - 1.0 / (e + 1.0))
        assert 1.0 - cdf_strict(d, e + 1.0) == pytest.approx(e / (e + 1.0))


# ---------------------------------------------------------------------------
# Sampling


def test_sample_x_constant():
    d = constant(7.0)
    rng = stream(1)
    assert all(sample_x(d, rng) == 7.0 for _ in range(100))


def _check_draw_follows_the_cdf(d, u):
    xs, prefixes = d.atom_prefixes
    x = sample_x(d, SimpleNamespace(random=lambda: u))
    if u >= prefixes[-1]:
        assert x == xs[-1]
    else:
        assert cdf_strict(d, x) <= u < cdf(d, x)


# A running float sum of these weights reads 0.6000000000000001 after three
# atoms, where cdf(2) reads 0.6, so a running-sum draw at u = 0.6 returns 2.
_FOUR_ATOMS = discrete([(0.0, 0.1), (1.0, 0.2), (2.0, 0.3), (3.0, 0.4)])


@pytest.mark.parametrize("u", sorted({v for p in _FOUR_ATOMS.atom_prefixes[1]
                                      for v in (p, math.nextafter(p, 0.0)) if v < 1.0}))
def test_sample_x_draws_the_atom_whose_cdf_step_holds_u(u):
    _check_draw_follows_the_cdf(_FOUR_ATOMS, u)


# The example's weights total 1 - 1e-13, so u past the total draws the last atom.
@given(_atom_sets(max_atoms=8), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@example(discrete([(0.0, 0.5), (1.0, 0.4999999999999)]), 0.99999999999995)
@settings(max_examples=200, deadline=None)
def test_sample_x_follows_the_cdf_on_random_atom_sets(d, u):
    edges = [v for p in d.atom_prefixes[1] for v in (p, math.nextafter(p, 0.0)) if v < 1.0]
    for v in edges + [u]:
        _check_draw_follows_the_cdf(d, v)


def test_sample_x_two_point_mean():
    d = two_point(4.0)
    rng = stream(2)
    n = 1_000_000
    total = sum(sample_x(d, rng) for _ in range(n))
    mean = total / n
    sd = math.sqrt(sum(p * x * x for x, p in d.atoms) - 16.0)
    assert abs(mean - 4.0) <= 5.0 * sd / math.sqrt(n)


def test_sample_x_adversarial_ks():
    d = adversarial_density(5.0)
    rng = stream(3)
    n = 1_000_000
    draws = np.array([sample_x(d, rng) for _ in range(n)])
    result = kstest(draws, lambda ts: np.array([cdf_strict(d, t) for t in ts]))
    assert result.statistic < 0.005


def test_sample_t_deterministic_support():
    model = RuntimeModel(two_point(4.0), "deterministic")
    rng = stream(4)
    draws = {sample_t(model, rng) for _ in range(200)}
    assert draws <= {1.0, math.exp(5.0)}
    assert len(draws) == 2


def test_sample_t_constant_zero():
    model = RuntimeModel(constant(0.0), "deterministic")
    rng = stream(5)
    assert all(sample_t(model, rng) == 1.0 for _ in range(50))
    model = RuntimeModel(constant(0.0), "geometric")
    assert all(sample_t(model, rng) == 1.0 for _ in range(50))


def test_sample_t_geometric_mean():
    model = RuntimeModel(constant(math.log(2.0)), "geometric")
    rng = stream(6)
    n = 1_000_000
    total = sum(sample_t(model, rng) for _ in range(n))
    mean = total / n
    sd = math.sqrt(0.5 / 0.25)  # geometric variance (1-p)/p^2 at p = 1/2
    assert abs(mean - 2.0) <= 5.0 * sd / math.sqrt(n)


def test_sample_t_geometric_is_integer_valued():
    model = RuntimeModel(two_point(2.0), "geometric")
    rng = stream(7)
    for _ in range(200):
        t = sample_t(model, rng)
        assert t >= 1.0 and t == math.floor(t)


# ---------------------------------------------------------------------------
# Truncated-attempt statistics


def test_runtime_stats_two_point_deterministic():
    model = RuntimeModel(two_point(4.0), "deterministic")
    q, m, _ = runtime_stats(model, 2.0)
    assert q == pytest.approx(0.8, abs=1e-15)
    assert m == pytest.approx(1.8, abs=1e-15)


def test_runtime_stats_geometric_small_budget():
    model = RuntimeModel(constant(math.log(2.0)), "geometric")
    q, m, _ = runtime_stats(model, 3.0)
    assert q == pytest.approx(0.125, rel=1e-12)
    assert m == pytest.approx(1.75, rel=1e-12)


def test_runtime_stats_budget_above_support():
    model = RuntimeModel(two_point(4.0), "deterministic")
    q, m, _ = runtime_stats(model, math.exp(5.0))  # equal to the largest run cost
    assert q == 0.0
    assert m == pytest.approx(expectation_exp(model.dist), rel=1e-12)


def test_runtime_stats_budget_boundary_counts_as_success():
    model = RuntimeModel(constant(2.0), "deterministic")
    q, _, _ = runtime_stats(model, math.exp(2.0))
    assert q == 0.0
    q, _, _ = runtime_stats(model, math.exp(2.0) - 1e-9)
    assert q == 1.0


def test_runtime_stats_zero_step_budget_geometric():
    model = RuntimeModel(constant(1.0), "geometric")
    q, m, _ = runtime_stats(model, 0.5)
    assert (q, m) == (1.0, 0.0)


# Weights that sum to 1 + 1 ulp in plain addition: unclamped, the
# deterministic law gave q = 1.0000000000000002 and m = b * (1 + 2**-52) below
# e**37, and the geometric law m = 1.0000000000000002 at one whole step.
_PAST_ONE = discrete([(37.0, 0.49751243781094534), (38.0, 0.49751243781094534),
                      (39.0, 0.0049751243781094535)])


def test_runtime_stats_holds_weights_past_one_to_their_bounds():
    assert 0.49751243781094534 + 0.49751243781094534 + 0.0049751243781094535 > 1.0
    det, geo = (RuntimeModel(_PAST_ONE, law) for law in ("deterministic", "geometric"))
    assert repr(runtime_stats(det, 1.5)) == repr((1.0, 1.5, 0.0))
    assert repr(runtime_stats(det, 1e10)) == repr((1.0, 1e10, 0.0))
    assert repr(runtime_stats(geo, 1.0)) == repr((1.0, 1.0, 5.812800319385628e-17))
    assert repr(runtime_stats(geo, 2.5)) == repr((0.9999999999999999, 2.0, 1.1625600638771255e-16))
    budgets = [math.exp(k / 4.0) for k in range(-8, 4 * 45)]
    budgets += [w for x in (37.0, 38.0, 39.0) for w in (math.floor(math.exp(x)), math.exp(x))]
    for model in (det, geo):
        for b in budgets:
            q, m, _ = runtime_stats(model, b)
            effective = b if model.law == "deterministic" else float(math.floor(b))
            assert 0.0 <= q <= 1.0 and 0.0 <= m <= effective, (model.law, b, q, m)
            assert type(m) is float


def test_expected_runtime_recovered_at_huge_budget():
    for model in zoo_models():
        q, m, _ = runtime_stats(model, 1e300)
        assert q == pytest.approx(0.0, abs=1e-15)
        assert m == pytest.approx(expectation_exp(model.dist), rel=1e-9)


@pytest.mark.parametrize("law", distx.LAWS)
@pytest.mark.parametrize("dist", [two_point(4.0), adversarial_density(5.0), constant(0.0)],
                         ids=lambda d: d.label)
def test_runtime_stats_at_an_infinite_budget_runs_to_completion(dist, law):
    q, m, p = runtime_stats(RuntimeModel(dist, law), math.inf)
    assert q == 0.0 and p == 1.0
    assert m == pytest.approx(expectation_exp(dist), rel=1e-12)


def test_runtime_stats_adversarial_geometric_vs_riemann():
    e = 5.0
    model = RuntimeModel(adversarial_density(e), "geometric")
    b = 40.0
    q, m, _ = runtime_stats(model, b)
    n = math.floor(b)
    xs = np.linspace(1e-9, distx.support_max(model.dist), 400_001)
    dens = np.exp(xs - (e + 1.0))
    fail = np.exp(n * np.log1p(-np.exp(-xs)))
    q_ref = np.trapezoid(fail * dens, xs)
    m_ref = np.trapezoid((1.0 - fail) * np.exp(xs) * dens, xs)
    assert q == pytest.approx(q_ref, rel=1e-6)
    assert m == pytest.approx(m_ref, rel=1e-6)


def test_runtime_stats_rejects_nonpositive_budget():
    model = RuntimeModel(constant(1.0), "deterministic")
    with pytest.raises(ValueError):
        runtime_stats(model, 0.0)
    for dist in (distx.two_point(4.0), distx.adversarial_density(5.0)):
        for law in distx.LAWS:
            with pytest.raises(ValueError, match="budget must be positive, got nan"):
                runtime_stats(RuntimeModel(dist, law), math.nan)


def test_zoo_composition():
    dists = zoo_distributions()
    kinds = {d.kind for d in dists}
    assert kinds == {
        "two_point",
        "fixed_t_counterexample",
        "adversarial_density",
        "variance_counterexample",
        "constant",
    }
    assert len(zoo_models()) == 2 * len(dists)
