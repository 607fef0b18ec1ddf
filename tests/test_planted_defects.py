"""Planted defects: each one must make a named battery fail.

A battery that still passes with a deliberately broken rate or cap would not
notice the same fault in the code.  Each defect is applied with monkeypatch
on a reduced battery, so the real code is untouched between tests; the
intact batteries pass in tests/test_acceptance.py.
"""

from eqtracer import tatonnement, verify

# Battery 4 size that reaches trace 13, a budget trace that each defect below
# pushes over the runner's bound.
_TRACES = 14


def test_doubled_contraction_rate_fails_battery_4(monkeypatch):
    fit = verify.fit_contraction

    def doubled(*args, **kwargs):
        delta, prices, phi0 = fit(*args, **kwargs)
        return 2.0 * delta, prices, phi0

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
