"""The one-pass Gauss-Kronrod 7/15 rule behind the adversarial x geometric oracle."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from vegas_restart import analysis, distx, verify
from vegas_restart.cli import main
from vegas_restart.distx import IntegrationLimitError, RuntimeModel, adversarial_density, runtime_stats
from vegas_restart.schedules import (
    fixed_schedule,
    specific_e_schedule,
    two_threshold_schedule,
    universal_schedule,
)

# ---------------------------------------------------------------------------
# The rule


def test_gauss_part_is_the_7_point_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(distx.GK_NODES[1::2], nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(distx.GK_WEIGHTS[1::2, 1], weights, rtol=0.0, atol=1e-15)
    assert np.all(distx.GK_WEIGHTS[0::2, 1] == 0.0)


@pytest.mark.parametrize("d", range(23))
def test_kronrod_rule_integrates_monomials_exactly(d):
    exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
    assert distx.GK_WEIGHTS[:, 0] @ distx.GK_NODES**d == pytest.approx(exact, rel=0.0, abs=1e-15)


def test_kronrod_rule_misses_degree_24():
    # 23 is odd, so symmetry integrates it; 24 is the first degree it gets wrong.
    assert abs(distx.GK_WEIGHTS[:, 0] @ distx.GK_NODES**24 - 2.0 / 25.0) > 1e-9


def test_quad_closes_cos_in_one_pass():
    (cosine,), (err,) = distx.quad(lambda x: np.cos(x)[None], [0.0, 1.0])
    assert cosine == pytest.approx(math.sin(1.0), rel=1e-14)
    assert err <= distx.QUAD_RTOL * cosine


def test_quad_refuses_an_endpoint_singularity():
    # One pass cannot resolve sqrt(x) at 0; the rule refuses instead of
    # returning a value outside its tolerance, for the vector integrand too.
    with pytest.raises(IntegrationLimitError, match="misses its tolerance in one pass"):
        distx.quad(lambda x: np.sqrt(x)[None], [0.0, 1.0])
    with pytest.raises(IntegrationLimitError):
        distx.quad(lambda x: np.stack([np.cos(x), np.sqrt(x)]), [0.0, 1.0])


def test_quad_raises_when_one_pass_misses_the_tolerance(monkeypatch):
    monkeypatch.setattr(distx, "QUAD_RTOL", 1e-30)
    with pytest.raises(IntegrationLimitError, match="misses its tolerance in one pass"):
        distx.quad(lambda x: np.cos(x)[None], [0.0, 1.0])


def test_quad_refuses_a_nan_integrand():
    with pytest.raises(IntegrationLimitError):
        distx.quad(lambda x: np.stack([np.cos(x), np.where(x > 0.5, np.nan, x)]), [0.0, 1.0])


def test_limit_refuses_adversarial_geometric_stats(monkeypatch):
    model = RuntimeModel(adversarial_density(5.0), "geometric")
    monkeypatch.setattr(distx, "QUAD_RTOL", 1e-30)
    with pytest.raises(IntegrationLimitError):
        runtime_stats(model, 20.0)
    with pytest.raises(IntegrationLimitError):
        analysis.analytic_cost(model, universal_schedule())


def test_cli_maps_the_integration_limit_to_exit_3(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "adv.json"
    cfg.write_text(json.dumps({
        "distribution": {"kind": "adversarial_density", "E": 5},
        "law": "geometric",
        "schedule": {"kind": "universal"},
    }))
    monkeypatch.setattr(distx, "QUAD_RTOL", 1e-30)
    assert main(["analyze", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: quad")


# ---------------------------------------------------------------------------
# runtime_stats against an independent reference


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
        got, ref = runtime_stats(model, b), _scipy_reference(E, b)
        for value, reference in zip(got, ref):
            # The reference promises max(1e-11 * |value|, 1e-280).
            assert math.isclose(value, reference, rel_tol=1e-11, abs_tol=1e-280), (E, b, got, ref)


# ---------------------------------------------------------------------------
# Every zoo, benchmark, extreme and random input closes in one pass.


def test_every_input_closes_in_one_pass():
    for E in EXTREME_ES:
        for b in _extreme_budgets(E):
            runtime_stats(RuntimeModel(adversarial_density(E), "geometric"), b)
    # E in (0, 300] and ln b in [0, 709]: the whole range the oracle accepts
    # with a finite budget.
    rng = np.random.default_rng(20261018)
    for E, ln_b in zip(300.0 - rng.uniform(0.0, 300.0, 2000), rng.uniform(0.0, 709.0, 2000)):
        runtime_stats(RuntimeModel(adversarial_density(E), "geometric"), math.exp(ln_b))
    # The zoo's adversarial E values and the oracle benchmark's E range.
    for E in sorted(set(distx.ZOO_ADVERSARIAL_ES) | set(np.linspace(5.0, 25.0, 41))):
        model = RuntimeModel(adversarial_density(E), "geometric")
        ex = distx.expectation(model.dist)
        for schedule in (fixed_schedule(ex), two_threshold_schedule(ex), specific_e_schedule(ex),
                         universal_schedule()):
            analysis.analytic_cost(model, schedule)
    assert all(v.holds for v in verify.run_scope("all"))
