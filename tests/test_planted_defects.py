"""Planted defects: each one must make a named battery or test fail.

A battery that still passes with a deliberately broken rate or cap would not
notice the same fault in the code.  Each defect is applied with monkeypatch
on a reduced battery, or on the solver a named test calls, so the real code
is untouched between tests; the intact batteries pass in
tests/test_acceptance.py and the intact tests in their own files.
"""

import inspect
import textwrap

import numpy as np
import pytest
import test_equilibrium

from eqtracer import applications, equilibrium, prd, solve_equilibrium, tatonnement, verify

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


def _mutant(monkeypatch, target, source, name, original, mutated):
    """Bind `target.<name>` to a copy of `source.<name>` whose module source
    has `original` replaced by `mutated` (each must occur exactly once)."""
    text = inspect.getsource(source)
    assert text.count(original) == 1
    namespace = {"__name__": source.__name__, "__package__": "eqtracer"}
    exec(compile(text.replace(original, mutated), source.__file__, "exec"), namespace)
    monkeypatch.setattr(target, name, namespace[name])


def _solver_with(monkeypatch, module, original, mutated):
    """Bind `module.solve_equilibrium` to a mutated copy of the solver."""
    _mutant(monkeypatch, module, equilibrium, "solve_equilibrium", original, mutated)


def test_reduction_without_rho_fails_battery_7(monkeypatch):
    # Supply w folded in as a w, not a w^rho: the reduced market's bids
    # drift away from the original's (the runner reads supply events through
    # this same reduction).
    factors = "np.exp(market.rho[:, None] * np.log(market.supplies)[None, :])"
    _mutant(monkeypatch, verify, prd, "reduce_supply_to_utility", factors,
            "np.exp(np.log(market.supplies)[None, :])")
    result = verify.check_supply_reduction(instances=3, rounds=100)
    assert not result.passed
    assert "max entrywise gap" in result.detail


_FULL_STEP = """\
            spare = inverse = None  # H is built and inverted beside the weights alone
            g, inverse = _gradient_hessian(market, p, weights)
            if complements:  # K = H - diag(g)
                inverse.flat[:: p.size + 1] -= g
            scale = 1.0 / np.sqrt(inverse.diagonal())
            inverse *= np.outer(scale, scale)
            inverse = np.linalg.inv(inverse)
            inverse *= np.outer(scale, scale)
"""


@pytest.mark.parametrize(
    "original, mutated",
    [
        # Never refreshes: a full step keeps stepping with the kept inverse.
        (_FULL_STEP, "            if inverse is None:\n" + textwrap.indent(_FULL_STEP, "    ")),
        # Takes every chord step, without the acceptance test.
        (
            "step = search(inverse @ overspend, 1)",
            "step = p * np.exp(inverse @ overspend), evaluate(p * np.exp(inverse @ overspend), spare)",
        ),
    ],
    ids=["never-refreshes", "unchecked-chord-step"],
)
def test_chord_step_defects_fail_the_retry_test(monkeypatch, original, mutated):
    _solver_with(monkeypatch, test_equilibrium, original, mutated)
    with pytest.raises(AssertionError):
        test_equilibrium.test_a_failed_chord_step_is_retried_as_a_newton_step()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_complements_step_without_the_gradient_term_fails(monkeypatch):
    # Without -diag(g) a complements step inverts the log-price Hessian,
    # which is indefinite at this market's uniform start: its unit-diagonal
    # scale is not real, and no step is found.  (The mutated copy defines
    # its own ConvergenceError, a RuntimeError.)
    _solver_with(monkeypatch, test_equilibrium, "inverse.flat[:: p.size + 1] -= g", "pass")
    with pytest.raises(RuntimeError, match="after 0 Newton and 0 chord steps"):
        test_equilibrium.test_every_newton_step_inverts_once(monkeypatch, 7)
