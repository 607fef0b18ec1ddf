"""Acceptance gate: every exit criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines,
or from the command line as `eqtracer verify --suite all`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from eqtracer import verify


# Each battery's detail string is pinned: a change that keeps every byte keeps
# these, and one that moves a figure re-pins it and says why in CHANGES.md.
CRITERIA = [
    (
        "1 static misspending contraction",
        verify.check_static_misspending,
        30.0,
        "50 markets, worst convergence 618 rounds",
    ),
    (
        "2 static convex-potential contraction",
        verify.check_static_cpf,
        None,
        "50 markets, worst convergence 474 rounds",
    ),
    (
        "3 perturbation jump caps dominate",
        verify.check_delta_domination,
        None,
        "200 trials x 6 pairs, worst margin -3.61e-16, calibrated C' up to 1.505",
    ),
    (
        "4 dynamic tracing under the running bound",
        verify.check_dynamic_tracing,
        None,
        "20 traces x 2000 rounds, fitted contraction rates",
    ),
    (
        "5 extremal shares equal exhaustive search",
        verify.check_extremal_shares,
        None,
        "500 instances vs exhaustive search, worst gap 0.00e+00",
    ),
    (
        "6 bid dynamics convergence and recurrence",
        verify.check_prd_convergence,
        None,
        (
            "30 markets"
            "; closed-form static premise on 593 rounds, worst slack -9.76e-04 KL"
            "; recurrence fraction min 1.000"
        ),
    ),
    (
        "7 supply perturbations reduce to utility",
        verify.check_supply_reduction,
        None,
        "20 drifting-supply instances x 500 rounds, worst gap 1.11e-15",
    ),
    (
        "8 gradient descent tracking",
        verify.check_gd_tracking,
        5.0,
        "50 drifting quadratics x 600 rounds",
    ),
    (
        "9 diffusion load balancing",
        verify.check_diffusion,
        None,
        (
            "path-16: common drift plain, per-machine plain"
            "; cycle-16: common drift plain, per-machine plain"
            "; complete-16: common drift plain, per-machine unbounded"
            "; path-7: common drift plain, per-machine plain"
        ),
    ),
    (
        "10 byte-identical reruns",
        verify.check_determinism,
        None,
        "5 kinds x (2 runs + 1 batch copy)",
    ),
]


@pytest.mark.parametrize("label,check,budget,detail", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(label, check, budget, detail):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  criterion {label}  [{result.seconds:.2f}s]  {result.detail}")
    assert result.passed, f"criterion {label}: {result.detail}"
    assert result.detail == detail
    if budget is not None:
        assert result.seconds < budget, (
            f"criterion {label} took {result.seconds:.1f}s, budget {budget}s"
        )


def test_delta_domination_instances_ignore_hash_salt():
    # Battery 3 must test the same instances in every process, whatever
    # Python's per-process string-hash salt.
    code = (
        "from eqtracer.verify import check_delta_domination; "
        "print(check_delta_domination(trials=5).detail)"
    )
    package_root = str(Path(verify.__file__).resolve().parents[1])
    details = []
    for salt in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": package_root}
        run = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        details.append(run.stdout)
    assert details[0].startswith("5 trials x 6 pairs")
    assert details[0] == details[1]


def test_determinism_battery_prints_nothing(capsys):
    result = verify.check_determinism()
    assert result.passed, result.detail
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("check", [verify.check_static_misspending, verify.check_static_cpf])
def test_static_batteries_evaluate_demand_once_per_round(monkeypatch, check):
    # One demand at each starting point, then one per round: the profile that
    # measures the potential also drives the next update.
    demands, updates = [], []
    real_demand, real_dynamics = verify.demand, verify.dynamics

    def counted_demand(*args):
        demands.append(1)
        return real_demand(*args)

    def counted_dynamics(market, config):
        update, potential = real_dynamics(market, config)

        def counted_update(profile, lam):
            updates.append(1)
            return update(profile, lam)

        return counted_update, potential

    monkeypatch.setattr(verify, "demand", counted_demand)
    monkeypatch.setattr(verify, "dynamics", counted_dynamics)
    assert check(markets=2).passed
    assert updates
    assert len(demands) == 2 + len(updates)
