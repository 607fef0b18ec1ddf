"""Planted defects: each one must make a named battery fail.

A battery that still passes with a deliberately broken rate or cap would not
notice the same fault in the code.  Each defect is applied with monkeypatch
on a reduced battery, so the real code is untouched between tests; the
intact batteries pass in tests/test_acceptance.py.
"""

import numpy as np
import pytest

from eqtracer import applications, prd, solve_equilibrium, tatonnement, verify

# Battery 4 size that reaches trace 13, a budget trace that each defect below
# pushes over the runner's bound.
_TRACES = 14


def test_doubled_contraction_rate_fails_battery_4(monkeypatch):
    fit = verify.fit_contraction

    def doubled(*args, **kwargs):
        delta, prices = fit(*args, **kwargs)
        return 2.0 * delta, prices

    monkeypatch.setattr(verify, "fit_contraction", doubled)
    result = verify.check_dynamic_tracing(traces=_TRACES)
    assert not result.passed
    assert "violations" in result.detail


def test_halved_jump_caps_fail_battery_4(monkeypatch):
    cap = tatonnement.jump_cap
    monkeypatch.setattr(
        tatonnement, "jump_cap", lambda *args, **kwargs: 0.5 * cap(*args, **kwargs)
    )
    result = verify.check_dynamic_tracing(traces=_TRACES)
    assert not result.passed
    assert "violations" in result.detail


def test_bound_one_round_late_fails_battery_4(monkeypatch):
    # Round t is judged against b_{t-1}; trace 3, a supply trace, then fails.
    bound = tatonnement.running_bound
    monkeypatch.setattr(
        tatonnement,
        "running_bound",
        lambda a, r, j: np.concatenate([[a], bound(a, r, j)])[: len(j)],
    )
    result = verify.check_dynamic_tracing(traces=4)
    assert not result.passed
    assert "violations" in result.detail


# Battery 3 keeps its default 200 trials: the first trial to catch the halved
# cpf budget cap is trial 28.
@pytest.mark.parametrize(
    "cap_name", ["delta_ms_supply", "delta_ms_budget", "delta_cpf_budget"]
)
def test_halved_market_cap_fails_battery_3(monkeypatch, cap_name):
    cap = getattr(tatonnement, cap_name)
    monkeypatch.setattr(
        tatonnement, cap_name, lambda *args, **kwargs: 0.5 * cap(*args, **kwargs)
    )
    result = verify.check_delta_domination()
    assert not result.passed
    assert "> cap" in result.detail


def test_stale_cpf_equilibrium_fails_battery_3(monkeypatch):
    # A cpf potential that keeps the first market's psi_star and never
    # re-solves: budget events move psi_star, so measured jumps overshoot
    # their caps (40 of the default 200 cpf/budget trials, from trial 2).
    dynamics = tatonnement.dynamics

    def stale(market, config):
        update, potential = dynamics(market, config)
        if config.variant != tatonnement.CPF:
            return update, potential
        psi_star = solve_equilibrium(market).psi_star
        return update, lambda profile: profile.cpf - psi_star

    for module in (tatonnement, verify):
        monkeypatch.setattr(module, "dynamics", stale)
    result = verify.check_delta_domination(trials=10)
    assert not result.passed
    assert "cpf/budget-additive trial" in result.detail


def test_squared_second_eigenvalue_fails_battery_9(monkeypatch):
    lam2 = applications.second_eigenvalue
    monkeypatch.setattr(applications, "second_eigenvalue", lambda P: lam2(P) ** 2)
    result = verify.check_diffusion()
    assert not result.passed
    assert "contraction=False" in result.detail


def test_squared_prd_rate_fails_battery_6(monkeypatch):
    # q1 = rho_max^2 claims a faster rate than bid dynamics have.  Drifting
    # traces cannot show it (their jumps dwarf q1 KL); the static premise
    # fails on every market.
    monkeypatch.setattr(
        prd.PrdBoundConfig,
        "closed_form",
        classmethod(lambda cls, market: cls(q1=float(market.rho.max()) ** 2, q2=1.0)),
    )
    result = verify.check_prd_convergence(markets=3, horizon=50)
    assert not result.passed
    assert "static recurrence" in result.detail
