"""Acceptance batteries: one check per exit criterion, runnable as suites.

Each check builds its own seeded instances, runs the relevant dynamics or
bound, and returns a CheckResult; nothing here prints.  The command-line
`verify` subcommand and the test suite both drive these functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .applications import (
    balanced_state,
    diffusion_step,
    gd_regret_bound,
    gd_steady_state,
    simulate_diffusion,
    simulate_shifting_quadratic,
)
from .equilibrium import solve_equilibrium
from .instances import (
    drifting_quadratic,
    drifting_speeds,
    make_network,
    random_market,
    uniform_prices,
)
from .lyapunov import meta_bound
from .market import demand
from .perturbation import (
    BUDGET,
    SUPPLY,
    UTILITY,
    ScheduleColumn,
    apply_row,
    calibrate_c_prime,
    extremize_shares,
    generate_schedule,
    share_deviation,
)
from .prd import (
    SOLVER_TOLERANCE,
    PrdBoundConfig,
    kl_divergence,
    prd_potential_g,
    prd_step,
    proportional_bids,
    reduce_supply_to_utility,
    run_prd_trace,
)
from .tatonnement import (
    CPF,
    CPF_STEP_SIZE,
    MISSPENDING,
    TatonnementConfig,
    default_step_size,
    dynamics,
    fit_contraction,
    jump_cap,
    run_tatonnement_trace,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _result(name: str, detail: str, failures: list[str], t0: float) -> CheckResult:
    """Pass when nothing failed; the first three failures extend the detail."""
    if failures:
        detail += "; " + "; ".join(failures[:3])
    return CheckResult(name, not failures, detail, time.perf_counter() - t0)


def _sizes(rng) -> tuple[int, int]:
    return int(rng.integers(2, 9)), int(rng.integers(2, 9))


def _descend(step, potential, state, target: float, limit: int, scale=None):
    """Apply `step` until `potential` is at most `target`, or `limit` times.

    Returns (monotone, reached, rounds, potential).  A step that raises the
    potential by more than 1e-12 * scale (default max(1, |start|)) stops the
    run as not monotone.
    """
    phi = potential(state)
    slack = 1e-12 * (scale or max(1.0, abs(phi)))
    for rounds in range(1, limit + 1):
        state = step(state)
        nxt = potential(state)
        if nxt > phi + slack:
            return False, False, rounds, phi
        phi = nxt
        if phi <= target:
            return True, True, rounds, phi
    return True, False, limit, phi


def _descend_prices(market, config, target: float, limit: int, scale=None):
    """`_descend` from uniform prices, one `demand` per round, through `dynamics`."""
    update, potential = dynamics(market, config)
    return _descend(
        lambda profile: demand(market, update(profile, config.lam)), potential,
        demand(market, uniform_prices(market)), target, limit, scale,
    )


def check_static_misspending(markets: int = 50) -> CheckResult:
    """Misspending falls monotonically to 1e-6 of the budget within 5000 rounds."""
    t0 = time.perf_counter()
    failures = []
    worst_rounds = 0
    for seed in range(markets):
        rng = np.random.default_rng(seed)
        m, n = _sizes(rng)
        market = random_market(rng, m, n, 0.2, 0.8)
        config = TatonnementConfig(lam=default_step_size(market))
        total = market.total_budget
        monotone, reached, rounds, phi = _descend_prices(
            market, config, 1e-6 * total, 5000, scale=total
        )
        worst_rounds = max(worst_rounds, rounds)
        if not (monotone and reached):
            failures.append(f"seed {seed}: monotone={monotone} final={phi:.2e}")
    detail = f"{markets} markets, worst convergence {worst_rounds} rounds"
    return _result("static contraction, misspending", detail, failures, t0)


def check_static_cpf(markets: int = 50) -> CheckResult:
    """Convex potential falls monotonically below 1e-6 within 20000 rounds.

    Half the markets live in the complements regime (rho in [-2, -0.5]),
    where the misspending analysis does not apply but this rule still
    contracts.
    """
    t0 = time.perf_counter()
    failures = []
    worst_rounds = 0
    config = TatonnementConfig(lam=CPF_STEP_SIZE, variant=CPF)
    for seed in range(markets):
        rng = np.random.default_rng(1000 + seed)
        m, n = _sizes(rng)
        lo, hi = (0.2, 0.8) if seed % 2 == 0 else (-2.0, -0.5)
        market = random_market(rng, m, n, lo, hi)
        monotone, reached, rounds, phi = _descend_prices(market, config, 1e-6, 20_000)
        worst_rounds = max(worst_rounds, rounds)
        if not (monotone and reached):
            failures.append(
                f"seed {seed} rho[{lo},{hi}]: monotone={monotone} final={phi:.2e}"
            )
    detail = f"{markets} markets, worst convergence {worst_rounds} rounds"
    return _result("static contraction, cpf", detail, failures, t0)


def _random_event(rng, market, channel):
    """A one-row `ScheduleColumn` on `channel`."""
    if channel == UTILITY:
        logs = rng.uniform(-0.1, 0.1, market.coefficients.shape)
        return ScheduleColumn(UTILITY, [1], np.exp(logs)[None])
    eps = rng.uniform(-1.0, 1.0, market.num_goods if channel == SUPPLY else market.num_buyers)
    eps *= 0.1 / max(np.abs(eps).sum(), 1.0)
    if channel == BUDGET:
        eps = np.maximum(eps, -0.4 * market.budgets)
    return ScheduleColumn(channel, [1], eps[None])


def check_delta_domination(trials: int = 200) -> CheckResult:
    """Measured potential jumps at fixed prices never exceed the closed forms.

    Six (potential, channel) pairs; supply events for the convex potential
    run on supplies at least one so equilibrium prices stay under the total
    budget, its validity domain.  Each jump is the runners' own potential,
    from `dynamics`, read on the market and then on the perturbed market, so
    the cpf potential's warm re-solve supplies the new psi_star.  The budget
    pair calibrates the unit-cost log-ratio constant per trial and reports
    the largest value used.
    """
    t0 = time.perf_counter()
    failures = []
    worst_margin = -np.inf
    c_prime_max = 0.0
    cases = list(product((MISSPENDING, CPF), (SUPPLY, BUDGET, UTILITY)))
    for case, (potential_kind, channel) in enumerate(cases):
        config = TatonnementConfig(lam=CPF_STEP_SIZE, variant=potential_kind)
        for trial in range(trials):
            # Integer entropy only: hash() of strings is salted per process.
            rng = np.random.default_rng(np.random.SeedSequence((case, trial)))
            m, n = _sizes(rng)
            market = random_market(rng, m, n, 0.2, 0.8)
            if potential_kind == CPF and channel == SUPPLY:
                market = market.replace(supplies=rng.uniform(1.2, 2.0, n))
            prices = uniform_prices(market) * rng.uniform(0.3, 3.0, n)
            event = _random_event(rng, market, channel)
            perturbed = apply_row(market, channel, event.rows(market)[0])
            _, potential = dynamics(market, config)
            phi = potential(demand(market, prices))  # market first: it anchors psi_star
            measured = potential(demand(perturbed, prices)) - phi
            c_prime = None
            if potential_kind == CPF and channel == BUDGET:
                before = solve_equilibrium(market)
                after = solve_equilibrium(perturbed, previous=before)
                c_prime = calibrate_c_prime(market, [before.prices, after.prices], [prices])
                c_prime_max = max(c_prime_max, c_prime)
            # The same cap dispatch the trace runners use.
            cap = jump_cap(
                event, market.rho, market.total_budget, potential_kind,
                float(prices.max()), c_prime,
            )[0]
            margin = measured - cap
            worst_margin = max(worst_margin, margin)
            if margin > 1e-9:
                failures.append(
                    f"{potential_kind}/{channel} trial {trial}: "
                    f"measured {measured:.3e} > cap {cap:.3e}"
                )
    detail = (
        f"{trials} trials x {len(cases)} pairs, worst margin {worst_margin:.2e}, "
        f"calibrated C' up to {c_prime_max:.3f}"
    )
    return _result("perturbation jump caps dominate", detail, failures, t0)


def check_dynamic_tracing(traces: int = 20, horizon: int = 2000) -> CheckResult:
    """Dynamic tatonnement stays under the runner's running bound at every round.

    Twenty traces cycling through supply, budget and utility channels at
    per-round magnitude 0.01, each with a contraction rate fitted from a
    100-round static warm-up.
    """
    t0 = time.perf_counter()
    failures = []
    for i in range(traces):
        rng = np.random.default_rng(2000 + i)
        m, n = _sizes(rng)
        market = random_market(rng, m, n, 0.2, 0.8)
        lam = default_step_size(market)
        cap = 2.0 * market.total_budget
        config = TatonnementConfig(lam=lam, variant=MISSPENDING, price_cap=cap)
        channel = (SUPPLY, BUDGET, UTILITY)[i % 3]
        magnitude = 0.01
        if channel == UTILITY:
            magnitude *= 1.0 - float(market.rho.max())
        schedule = generate_schedule(market, horizon, channel, magnitude, seed=3000 + i)

        delta_hat, warmed = fit_contraction(
            market, uniform_prices(market), config, rounds=100
        )
        trace = run_tatonnement_trace(
            market, warmed, config, schedule, delta_hat, horizon
        )
        violations = trace.violations()
        cap_ok = bool(trace.assumption1_ok.all())
        if violations or not cap_ok:
            failures.append(
                f"trace {i} ({channel}): {violations} violations, cap ok={cap_ok}"
            )
    detail = f"{traces} traces x {horizon} rounds, fitted contraction rates"
    return _result("dynamic tracing under the running bound", detail, failures, t0)


def check_extremal_shares(trials: int = 500) -> CheckResult:
    """The extremal rescaling matches exhaustive search and the closed cap."""
    t0 = time.perf_counter()
    failures = []
    worst_gap = 0.0
    rng = np.random.default_rng(7)
    for trial in range(trials):
        n = int(rng.integers(2, 11))
        alpha = rng.random(n)
        alpha /= alpha.sum()
        mu = float(rng.uniform(1.0, 5.0))
        beta = rng.uniform(1.0 / mu, mu, n)
        beta_prime, value = extremize_shares(alpha, beta, mu)
        brute = max(
            share_deviation(alpha, np.array(pattern))
            for pattern in product((mu, 1.0 / mu), repeat=n)
        )
        gap = abs(value - brute)
        worst_gap = max(worst_gap, gap)
        cap = 2.0 * (mu - 1.0) / (mu + 1.0)
        if gap > 1e-12 or value > cap + 1e-12:
            failures.append(f"trial {trial}: gap {gap:.2e}, value {value:.6f} cap {cap:.6f}")
        if value < share_deviation(alpha, beta) - 1e-12:
            failures.append(f"trial {trial}: input deviation not dominated")
    detail = f"{trials} instances vs exhaustive search, worst gap {worst_gap:.2e}"
    return _result("extremal shares match exhaustive search", detail, failures, t0)


def check_prd_convergence(markets: int = 30, horizon: int = 400) -> CheckResult:
    """Static bid dynamics contract to 1e-8; drifting ones stay under their bound.

    Static rounds with KL_{t-1} above a hundred times the solve's target obey
    gap_t <= q1 KL_{t-1} - q2 KL_t with `PrdBoundConfig.closed_form`'s
    constants (a wrong rate shows only here: drifting jumps dwarf q1 KL).
    Under utility drift 0.005, from warmed-up bids, the recurrence holds and
    the gap stays under the runner's bound at every round.
    """
    t0 = time.perf_counter()
    failures = []
    fractions = []
    worst_slack, checked = -np.inf, 0
    for seed in range(markets):
        rng = np.random.default_rng(4000 + seed)
        m, n = _sizes(rng)
        market = random_market(rng, m, n, 0.2, 0.8, unit_supplies=True)
        eq = solve_equilibrium(market, tolerance=SOLVER_TOLERANCE)
        g_star = prd_potential_g(market, eq.bids)
        bound = PrdBoundConfig.closed_form(market)
        path = []  # (gap, KL) of every bid matrix the descent visits

        def gap_and_kl(bids):
            path.append((prd_potential_g(market, bids) - g_star, kl_divergence(eq.bids, bids)))
            return path[-1][0]

        monotone, reached, _, gap = _descend(
            lambda b: prd_step(b, market), gap_and_kl, proportional_bids(market), 1e-8, 10_000,
        )
        if not (monotone and reached):
            failures.append(f"seed {seed}: monotone={monotone} final gap={gap:.2e}")
            continue
        slack = [  # (gap_t - (q1 KL_{t-1} - q2 KL_t)) / KL_{t-1}, above the floor
            (gap - bound.q1 * kl_prev + bound.q2 * kl) / kl_prev
            for (_, kl_prev), (gap, kl) in zip(path, path[1:])
            if kl_prev > 100 * SOLVER_TOLERANCE * market.total_budget
        ]
        checked += len(slack)
        worst_slack = max([worst_slack, *slack])
        if max(slack, default=0.0) > 0:
            failures.append(f"seed {seed}: static recurrence fails by {max(slack):.2e} KL")
        schedule = generate_schedule(market, horizon, UTILITY, 0.005, seed=5000 + seed)
        warmed = prd_step(proportional_bids(market), market, rounds=200)
        trace = run_prd_trace(market, warmed, schedule, bound, horizon)
        fraction = float(trace.recurrence_ok.mean())
        fractions.append(fraction)
        if fraction < 1.0:
            failures.append(f"seed {seed}: recurrence fraction {fraction:.3f}")
        violations = trace.violations()
        if violations:
            failures.append(f"seed {seed}: {violations} rounds above the bound")
    detail = (
        f"{markets} markets; closed-form static premise on {checked} rounds, "
        f"worst slack {worst_slack:+.2e} KL; "
        f"recurrence fraction min {min(fractions, default=0):.3f}"
    )
    return _result("bid dynamics converge and satisfy the recurrence", detail, failures, t0)


def check_supply_reduction(instances: int = 20, rounds: int = 500) -> CheckResult:
    """Bid trajectories agree entrywise after folding supplies into coefficients."""
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for seed in range(instances):
        rng = np.random.default_rng(6000 + seed)
        m, n = _sizes(rng)
        market = random_market(rng, m, n, 0.2, 0.8)
        drift = rng.uniform(-0.002, 0.002, size=(rounds, n))
        supplies = ScheduleColumn(SUPPLY, np.arange(1, rounds + 1), drift).rows(market)
        bids_a = proportional_bids(market)
        bids_b = bids_a.copy()
        market_a = market
        market_b = reduce_supply_to_utility(market)
        err = 0.0
        for t in range(rounds):
            bids_a = prd_step(bids_a, market_a)
            bids_b = prd_step(bids_b, market_b)
            err = max(err, float(np.abs(bids_a - bids_b).max()))
            market_a = apply_row(market, SUPPLY, supplies[t])
            market_b = reduce_supply_to_utility(market_a)
        worst = max(worst, err)
        if err > 1e-9:
            failures.append(f"seed {seed}: max entrywise gap {err:.2e}")
    detail = f"{instances} drifting-supply instances x {rounds} rounds, worst gap {worst:.2e}"
    return _result("supply perturbations reduce to utility ones", detail, failures, t0)


def check_gd_tracking(instances: int = 50, horizon: int = 600) -> CheckResult:
    """Descent stays under the drift envelope, its radius, and the regret cap."""
    t0 = time.perf_counter()
    failures = []
    shift = 0.01
    for seed in range(instances):
        problem, x0 = drifting_quadratic(7000 + seed, horizon=horizon, shift=shift)
        trace, regret = simulate_shifting_quadratic(problem, x0)
        enveloped = trace.violations() == 0
        closed = meta_bound(trace.initial, np.sqrt(1.0 - problem.delta), trace.delta)
        radius = gd_steady_state(problem.delta, shift)
        settled = bool(trace.potential[-1] <= radius + 1e-9)
        regret_cap = gd_regret_bound(
            trace.initial, problem.delta, shift, problem.beta_smooth, horizon
        )
        regret_ok = regret <= regret_cap
        consistent = abs(closed - trace.bound[-1]) <= 1e-9 * max(1.0, closed)
        if not (enveloped and settled and regret_ok and consistent):
            failures.append(
                f"seed {seed}: envelope={enveloped} radius={settled} regret={regret_ok}"
            )
    detail = f"{instances} drifting quadratics x {horizon} rounds"
    return _result("gradient descent tracks the drifting optimum", detail, failures, t0)


def check_diffusion(horizon: int = 400) -> CheckResult:
    """Eigenvalue contraction, conservation, fixed point, and trace domination.

    The asserted traces drift all machine speeds by a common per-round factor
    (the regime the speed-jump cap prices exactly); per-machine drift
    verdicts are reported in the detail string but not asserted, since the
    cap omits the finishing-time jump of mix-changing speed moves.
    """
    t0 = time.perf_counter()
    failures = []
    reports = []
    for graph, n in (("path", 16), ("cycle", 16), ("complete", 16), ("path", 7)):
        net = make_network(graph, n, loads=None, seed=n, load_total=float(n))
        _, lam, contractions = simulate_diffusion(net, [net.speeds] * 201, 200)
        contraction_ok = bool(np.nanmax(contractions) <= lam + 1e-9)

        het = net.with_speeds(np.linspace(0.8, 1.25, n))
        after = diffusion_step(het)
        conserved = abs(after.total_load - het.total_load) <= 1e-12 * het.total_load
        non_negative = bool(np.all(after.loads >= 0))

        balanced, _ = balanced_state(het)
        times = balanced / het.speeds
        residual = float(np.abs(het.diffusivity @ times - times).max())
        fixed_ok = residual <= 1e-12

        path = drifting_speeds(100 + n, n, horizon, 0.002, 0.9, 1.1, mode="common")
        trace, _, _ = simulate_diffusion(net, path, horizon)
        plain = trace.violations() == 0
        slacked = trace.violations(np.sqrt(n)) == 0
        per_machine, _, _ = simulate_diffusion(
            net, drifting_speeds(200 + n, n, horizon, 0.002, 0.9, 1.1, "per-machine"),
            horizon,
        )
        pm_plain = per_machine.violations() == 0
        pm_slack = per_machine.violations(np.sqrt(n)) == 0
        reports.append(
            f"{graph}-{n}: common drift {'plain' if plain else 'sqrt-n' if slacked else 'FAIL'},"
            f" per-machine {'plain' if pm_plain else 'sqrt-n' if pm_slack else 'unbounded'}"
        )
        if not (contraction_ok and conserved and non_negative and fixed_ok and slacked):
            failures.append(
                f"{graph}-{n}: contraction={contraction_ok} conserved={conserved} "
                f"loads>=0={non_negative} fixed={fixed_ok} dominated={slacked}"
            )
    return _result(
        "diffusion contracts, conserves, and is dominated", "; ".join(reports), failures, t0
    )


_UTILITY_DRIFT = {"channel": "utility-multiplicative", "magnitude": 0.005}

# One small seeded config per simulate kind, for the determinism battery.
_DETERMINISM_CONFIGS = {
    "tatonnement-ms": {
        "horizon": 300,
        "market": {"random": {"m": 4, "n": 5, "seed": 11}},
        "schedule": {
            "generator": {"channel": "supply-additive", "magnitude": 0.01, "seed": 12}
        },
    },
    "tatonnement-cpf": {
        "horizon": 100,
        "market": {"random": {"m": 3, "n": 4, "seed": 13}},
        "schedule": {"generator": {**_UTILITY_DRIFT, "seed": 14}},
    },
    "prd": {
        "horizon": 100,
        "market": {"random": {"m": 3, "n": 4, "seed": 15, "unit_supplies": True}},
        "schedule": {"generator": {**_UTILITY_DRIFT, "seed": 16}},
        "bounds": {"fit_rounds": 100},
    },
    "gd-shifting": {"horizon": 200, "quadratic": {"dims": 5, "shift": 0.01, "seed": 17}},
    "diffusion": {
        "horizon": 200,
        "network": {"graph": "cycle", "n": 8, "seed": 18, "drift": {"magnitude": 0.01, "seed": 19}},
    },
}


def check_determinism() -> CheckResult:
    """Each kind's trace.csv is byte-identical over two runs and a batch copy.

    The CLI's summary lines are swallowed, so the battery prints nothing.
    """
    import contextlib
    import io
    import json
    import tempfile
    from pathlib import Path

    from .cli import main
    from .trace import file_sha256

    t0 = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        configs = root / "configs"
        configs.mkdir()
        for kind, config in _DETERMINISM_CONFIGS.items():
            (configs / f"{kind}.json").write_text(json.dumps({"kind": kind, **config}))
        code = main(["simulate", "--batch", str(configs), "--out", str(root / "batch")])
        for kind in _DETERMINISM_CONFIGS:
            argv = ["simulate", "--config", str(configs / f"{kind}.json"), "--out"]
            outs = [root / f"{kind}-{run}" for run in range(2)]
            code = max([code] + [main([*argv, str(out)]) for out in outs])
            if code:
                failures.append(f"simulate exited {code}")
                break
            outs.append(root / "batch" / kind)
            if len({file_sha256(out / "trace.csv") for out in outs}) > 1:
                failures.append(f"{kind} trace files differ")
    detail = f"{len(_DETERMINISM_CONFIGS)} kinds x (2 runs + 1 batch copy)"
    return _result("byte-identical reruns", detail, failures, t0)


ALL_CHECKS = (
    check_static_misspending,
    check_static_cpf,
    check_delta_domination,
    check_dynamic_tracing,
    check_extremal_shares,
    check_prd_convergence,
    check_supply_reduction,
    check_gd_tracking,
    check_diffusion,
    check_determinism,
)

SUITES = {
    "invariants": (
        check_static_misspending,
        check_static_cpf,
        check_determinism,
    ),
    "domination": (
        check_delta_domination,
        check_dynamic_tracing,
        check_prd_convergence,
        check_gd_tracking,
        check_diffusion,
    ),
    "oracles": (
        check_extremal_shares,
        check_supply_reduction,
    ),
    "all": ALL_CHECKS,
}


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    return [check() for check in SUITES[suite]]
