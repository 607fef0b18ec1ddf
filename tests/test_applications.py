from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtracer import (
    LoadNetwork,
    ShiftingQuadratic,
    balanced_state,
    diffusion_step,
    gd_contraction,
    gd_regret_bound,
    gd_steady_state,
    meta_bound,
    second_eigenvalue,
    simulate_diffusion,
    simulate_shifting_quadratic,
)
from eqtracer.instances import (
    complete_edges,
    cycle_edges,
    default_diffusivity,
    drifting_speeds,
    make_network,
    path_edges,
)
from eqtracer.trace import Trace


class TestGdStep:
    def test_isotropic_lands_on_optimum_in_one_step(self):
        curv = np.full(4, 3.0)
        problem = ShiftingQuadratic(
            curvatures=curv, optima=np.zeros((2, 4)), eta=1 / 3.0
        )
        trace, _ = simulate_shifting_quadratic(problem, np.array([1.0, 2.0, -1.0, 0.5]))
        assert trace.potential[0] == 0.0

    def test_per_axis_contraction_matches_rate(self):
        # Starting on an extreme-curvature axis attains the worst-case factor
        # sqrt(1 - delta) = (beta - alpha) / (alpha + beta) exactly.
        alpha, beta = 1.0, 4.0
        eta = 2.0 / (alpha + beta)
        delta = gd_contraction(alpha, beta, eta)
        for axis_curv in (alpha, beta):
            x = np.array([1.0 if axis_curv == alpha else 0.0,
                          1.0 if axis_curv == beta else 0.0])
            moved = x - eta * (np.array([alpha, beta]) * x)
            ratio = np.linalg.norm(moved) / np.linalg.norm(x)
            assert ratio == pytest.approx((1 - delta) ** 0.5, abs=1e-9)

    def test_contraction_rate_bounds_random_quadratics(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            curv = rng.uniform(0.5, 4.0, 6)
            eta = 2.0 / (curv.min() + curv.max())
            delta = gd_contraction(curv.min(), curv.max(), eta)
            x = rng.normal(size=6)
            moved = x - eta * (curv * x)
            assert np.linalg.norm(moved) <= (1 - delta) ** 0.5 * np.linalg.norm(x) + 1e-12

    def test_step_size_domain(self):
        with pytest.raises(ValueError):
            gd_contraction(1.0, 2.0, 1.0)

    @pytest.mark.parametrize("field", ["curvatures", "optima"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_quadratic_fields_must_be_finite(self, field, value):
        arrays = {"curvatures": np.ones(2), "optima": np.zeros((3, 2))}
        arrays[field].flat[1] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ShiftingQuadratic(eta=1.0, **arrays)


class TestGdBounds:
    def test_zero_shifts_pure_decay(self):
        # Descent's rate is sqrt(1 - delta): the contraction acts on squares.
        assert meta_bound(2.0, (1 - 0.36) ** 0.5, [0.0] * 4) == pytest.approx(
            2.0 * 0.8**4
        )

    def test_steady_state_radius(self):
        assert gd_steady_state(0.75, 1.0) == pytest.approx(8.0 / 3.0 / 2.0 * 2.0)
        assert gd_steady_state(0.75, 0.5) == pytest.approx(4.0 / 3.0)

    def test_constant_shift_sum_below_radius_plus_decay(self):
        phi0, delta, d, T = 3.0, 0.4, 0.05, 200
        bound = meta_bound(phi0, (1 - delta) ** 0.5, [d] * T)
        assert bound <= (1 - delta) ** (T / 2) * phi0 + gd_steady_state(delta, d) + 1e-12

    def test_regret_zero_when_static_from_optimum(self):
        assert gd_regret_bound(0.0, 0.5, 0.0, 2.0, 100) == 0.0
        problem = ShiftingQuadratic(
            curvatures=np.array([1.0, 2.0]), optima=np.zeros((51, 2)), eta=2 / 3.0
        )
        _, regret = simulate_shifting_quadratic(problem, np.zeros(2))
        assert regret == 0.0

    def test_regret_linear_in_horizon(self):
        r1 = gd_regret_bound(1.0, 0.5, 0.1, 2.0, 100)
        r2 = gd_regret_bound(1.0, 0.5, 0.1, 2.0, 200)
        tail = gd_regret_bound(0.0, 0.5, 0.1, 2.0, 100)
        assert r2 - r1 == pytest.approx(tail)

    def test_drifting_simulation_within_bounds(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            curv = rng.uniform(0.5, 3.0, 5)
            steps = rng.normal(size=(301, 5))
            steps /= np.linalg.norm(steps, axis=1, keepdims=True)
            optima = np.cumsum(0.01 * steps, axis=0)
            problem = ShiftingQuadratic(
                curvatures=curv, optima=optima, eta=2.0 / (curv.min() + curv.max())
            )
            trace, regret = simulate_shifting_quadratic(
                problem, optima[0] + rng.normal(size=5)
            )
            assert np.all(trace.potential <= trace.bound + 1e-9)
            cap = gd_regret_bound(
                trace.initial, problem.delta, 0.01, problem.beta_smooth, 300
            )
            assert regret <= cap


class TestNetworkValidation:
    def test_rejects_asymmetric_matrix(self):
        P = np.array([[0.8, 0.2], [0.3, 0.7]])
        with pytest.raises(ValueError, match="symmetric"):
            LoadNetwork(speeds=np.ones(2), loads=np.ones(2), diffusivity=P)

    def test_rejects_light_diagonal(self):
        P = np.array([[0.4, 0.6], [0.6, 0.4]])
        with pytest.raises(ValueError, match="diagonal"):
            LoadNetwork(speeds=np.ones(2), loads=np.ones(2), diffusivity=P)

    @pytest.mark.parametrize(
        "edges", [[(0, 1), (2, 3)], [(0, 1), (1, 2)]], ids=["two-pairs", "isolated-node"]
    )
    def test_rejects_disconnected_support(self, edges):
        P = default_diffusivity(4, edges)
        # A disconnected matrix repeats the eigenvalue one; the connectivity
        # test names it before any envelope could use |lambda2| = 1.
        assert second_eigenvalue(P) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="the diffusion matrix must mix"):
            LoadNetwork(speeds=np.ones(4), loads=np.ones(4), diffusivity=P)

    def test_single_machine_is_connected(self):
        net = LoadNetwork(speeds=[1.0], loads=[2.0], diffusivity=[[1.0]])
        assert net.total_load == 2.0

    @pytest.mark.parametrize("edge", [(0, 5), (3, 1), (0, -1), (0, 1.5)])
    def test_default_diffusivity_rejects_edges_off_the_machines(self, edge):
        with pytest.raises(ValueError, match="must join machine indices 0..2"):
            default_diffusivity(3, [edge, (1, 2)])

    def test_default_diffusivity_properties(self):
        for edges, n in ((path_edges(7), 7), (cycle_edges(8), 8), (complete_edges(5), 5)):
            P = default_diffusivity(n, edges)
            assert np.allclose(P, P.T)
            assert np.allclose(P.sum(axis=1), 1.0)
            assert np.all(np.diag(P) >= 0.5 - 1e-15)


class TestDiffusion:
    def test_two_machines_balance_in_one_step(self):
        net = make_network("complete", 2, speeds=[1.0, 1.0], loads=[2.0, 0.0])
        stepped = diffusion_step(net)
        assert stepped.loads == pytest.approx([1.0, 1.0])
        assert second_eigenvalue(net.diffusivity) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_state_plugin(self):
        net = make_network("complete", 2, speeds=[1.0, 3.0], loads=[2.0, 2.0])
        loads, finish = balanced_state(net)
        assert loads == pytest.approx([1.0, 3.0])
        assert finish == pytest.approx(1.0)
        assert loads.sum() == pytest.approx(net.total_load, rel=1e-15)

    def test_balanced_state_is_fixed_point(self):
        net = make_network("cycle", 6, speeds=np.linspace(0.5, 2.0, 6), loads=np.ones(6))
        loads, finish = balanced_state(net)
        balanced = LoadNetwork(speeds=net.speeds, loads=loads, diffusivity=net.diffusivity)
        stepped = diffusion_step(balanced)
        assert np.allclose(stepped.loads, loads, atol=1e-12)
        times = loads / net.speeds
        assert np.abs(net.diffusivity @ times - times).max() <= 1e-12

    def test_conservation_heterogeneous_speeds(self):
        net = make_network(
            "path", 9, speeds=np.linspace(0.5, 2.0, 9), loads=None, seed=2,
            load_total=7.0,
        )
        for _ in range(100):
            net = diffusion_step(net)
            assert net.total_load == pytest.approx(7.0, rel=1e-12)
            assert np.all(net.loads >= 0)

    def test_l2_contraction_uniform_speeds(self):
        for graph in ("path", "cycle", "complete"):
            net = make_network(graph, 10, loads=None, seed=3, load_total=10.0)
            lam = second_eigenvalue(net.diffusivity)
            _, returned, contractions = simulate_diffusion(net, [net.speeds] * 101)
            assert returned == lam
            assert np.nanmax(contractions) <= lam + 1e-9

    @pytest.mark.parametrize("n", [3, 7, 11, 16])
    def test_second_eigenvalue_matches_closed_form_spectra(self, n):
        # Half-lazy P = I - L / (2 max degree) on graphs with known spectra.
        closed_forms = {
            "path": (1 + np.cos(np.pi / n)) / 2,
            "cycle": (1 + np.cos(2 * np.pi / n)) / 2,
            "complete": 1 - n / (2 * (n - 1)),
        }
        for graph, want in closed_forms.items():
            got = second_eigenvalue(make_network(graph, n).diffusivity)
            assert abs(got - want) <= 1e-12 * want, graph

    def test_second_eigenvalue_of_one_machine_is_zero(self):
        assert second_eigenvalue([[1.0]]) == 0.0

    def test_static_bound_is_pure_decay(self):
        net = make_network("cycle", 6, loads=None, seed=5, load_total=3.0)
        lam = second_eigenvalue(net.diffusivity)
        trace, _, _ = simulate_diffusion(net, [net.speeds] * 51)
        assert not trace.delta.any()
        assert trace.bound[-1] == pytest.approx(lam**50 * trace.initial, rel=1e-9)
        assert meta_bound(trace.initial, lam, trace.delta) == pytest.approx(
            trace.bound[-1], rel=1e-9
        )

    def test_complete_mixing_bound_is_last_jump(self):
        # lambda2 = 0 on two fully mixed machines: only the newest speed
        # change survives in the envelope.
        net = make_network("complete", 2, speeds=[1.0, 1.0], loads=[2.0, 0.0])
        path = [np.array([1.0, 1.0]), np.array([1.1, 1.1])]
        trace, lam, _ = simulate_diffusion(net, path)
        expected = net.total_load * 2 * abs(1 / 2.2 - 1 / 2.0)
        assert trace.delta[0] == pytest.approx(expected, rel=1e-12)
        assert trace.bound[-1] == pytest.approx(expected, rel=1e-12)
        assert meta_bound(5.0, lam, trace.delta) == pytest.approx(expected, rel=1e-12)

    def test_common_drift_traces_dominated(self):
        for graph in ("path", "cycle", "complete"):
            net = make_network(graph, 8, loads=None, seed=6, load_total=5.0)
            path = drifting_speeds(7, 8, 300, 0.002, 0.9, 1.1, mode="common")
            trace, _, _ = simulate_diffusion(net, path)
            assert np.all(trace.potential <= np.sqrt(8) * trace.bound + 1e-9)

    @pytest.mark.parametrize("mode", ["common", "per-machine"])
    def test_drifting_speeds_is_one_array_from_unit_speeds(self, mode):
        path = drifting_speeds(3, 5, 40, 0.01, mode=mode)
        assert path.shape == (41, 5)
        assert (path[0] == 1.0).all()
        assert (path[:, 1:] == path[:, :1]).all() == (mode == "common")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        low=st.floats(0.05, 1.0),
        high=st.floats(1.0, 20.0),
        share=st.floats(0.0, 1.0),
        mode=st.sampled_from(["common", "per-machine"]),
    )
    def test_admissible_drift_keeps_every_speed_in_band(self, seed, low, high, share, mode):
        # Any magnitude up to ln(high / low) / 2 reflects back into the band.
        magnitude = share * np.log(high / low) / 2
        path = drifting_speeds(seed, 4, 60, magnitude, low, high, mode=mode)
        assert ((path >= low) & (path <= high)).all()

    def test_speed_path_must_match_network(self):
        net = make_network("path", 4, seed=8)
        with pytest.raises(ValueError, match="match"):
            simulate_diffusion(net, [np.full(4, 2.0)] * 11)


class TestValidateOnce:
    """A network is validated at construction; its successors check only the
    field they replace and share the diffusivity."""

    def test_diffusion_step_rejects_negative_loads(self):
        net = make_network("complete", 2, loads=[1.0, 0.0])
        # Planted past validation: off-diagonal mass 2 sends twice the load.
        object.__setattr__(net, "diffusivity", np.array([[0.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(
            ValueError, match="^loads must be a non-negative vector of matching length$"
        ):
            diffusion_step(net)

    @pytest.mark.parametrize(
        "path, message",
        [
            ([[1.0, 1.0, 1.0], [1.0, 1.0]], "speed_path must be a 2-d array of rows of 3 speeds"),
            ([[1.0, 1.0]] * 2, "speed_path must be a 2-d array of rows of 3 speeds"),
            ([[1.0] * 4] * 2, "speed_path must be a 2-d array of rows of 3 speeds"),
            ([1.0, 1.0, 1.0], "speed_path must be a 2-d array of rows of 3 speeds"),
            (np.empty((0, 3)), "speed_path must be a 2-d array of rows of 3 speeds"),
            ([[1.0] * 3, [1.0, 0.0, 1.0]], "speed_path must hold positive, finite speeds"),
            ([[1.0] * 3, [1.0, -2.0, 1.0]], "speed_path must hold positive, finite speeds"),
            ([[1.0] * 3, [1.0, np.nan, 1.0]], "speed_path must hold positive, finite speeds"),
            ([[1.0] * 3, [1.0, np.inf, 1.0]], "speed_path must hold positive, finite speeds"),
        ],
        ids=["ragged", "narrow", "wide", "one-row", "no-rows", "zero", "negative", "nan", "inf"],
    )
    def test_simulate_diffusion_rejects_bad_speed_paths(self, path, message):
        net = make_network("path", 3, seed=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_diffusion(net, path)

    @pytest.mark.parametrize("field", ["speeds", "loads"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_network_fields_must_be_finite(self, field, value):
        arrays = {"speeds": np.ones(3), "loads": np.ones(3)}
        arrays[field][1] = value
        P = make_network("path", 3).diffusivity
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            LoadNetwork(diffusivity=P, **arrays)

    def test_derived_networks_share_diffusivity_and_are_read_only(self):
        net = make_network("cycle", 5, speeds=np.linspace(0.5, 2.0, 5), seed=2)
        stepped = diffusion_step(net)
        assert stepped.diffusivity is net.diffusivity
        for field in ("speeds", "loads", "diffusivity"):
            assert not getattr(stepped, field).flags.writeable
        assert stepped.speeds is net.speeds
        with pytest.raises(ValueError):
            stepped.loads[0] = 1.0

    def test_simulate_diffusion_validates_no_network_of_its_own(self, monkeypatch):
        original = LoadNetwork.__post_init__
        calls = []

        def counted(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(LoadNetwork, "__post_init__", counted)
        net = make_network("path", 6, speeds=np.linspace(0.8, 1.2, 6), seed=3)
        assert len(calls) == 1
        path = drifting_speeds(9, 6, 40, 0.01, mode="per-machine")
        simulate_diffusion(net, [net.speeds * p for p in path])
        assert len(calls) == 1

    def test_caller_arrays_stay_writable(self):
        speeds, loads = np.ones(4), np.ones(4)
        P = make_network("cycle", 4).diffusivity.copy()
        LoadNetwork(speeds=speeds, loads=loads, diffusivity=P)
        made = make_network("cycle", 4, speeds=speeds, loads=loads)
        path = [made.speeds.copy()] + [np.full(4, 1.0 + t / 10) for t in range(1, 4)]
        simulate_diffusion(made, path)
        for array in (speeds, loads, P, *path):
            assert array.flags.writeable

    @pytest.mark.parametrize("graph", ["path", "cycle", "complete"])
    def test_simulate_diffusion_bit_equal_to_rebuilding_loop(self, graph):
        net = make_network(graph, 7, speeds=np.linspace(0.5, 2.0, 7), seed=4)
        path = [net.speeds * p for p in drifting_speeds(5, 7, 60, 0.02, mode="per-machine")]
        trace, lam, contractions = simulate_diffusion(net, path)
        want_trace, want_lam, want_contractions = _rebuilding_diffusion(net, path, 60)
        for field in fields(Trace):
            name = field.name
            assert np.array_equal(getattr(trace, name), getattr(want_trace, name)), name
        assert lam == want_lam
        assert np.array_equal(contractions, want_contractions, equal_nan=True)


def _rebuilding_diffusion(network, path, T):
    """simulate_diffusion written with a fully validated LoadNetwork per step."""
    lam = second_eigenvalue(network.diffusivity)
    M, n = network.total_load, network.speeds.size

    def rebuilt(speeds, loads):
        return LoadNetwork(speeds=speeds, loads=loads, diffusivity=network.diffusivity)

    def imbalance(net):
        _, finish = balanced_state(net)
        return float(np.abs(net.finishing_times - finish).sum())

    potentials, bounds = np.empty(T + 1), np.empty(T + 1)
    jumps, contractions = np.empty(T), np.empty(T)
    potentials[0] = bounds[0] = imbalance(network)
    for t in range(1, T + 1):
        _, finish = balanced_state(network)
        error_before = np.linalg.norm(network.finishing_times - finish)
        f = network.finishing_times
        gap = np.maximum(f[:, None] - f[None, :], 0.0)
        sent = network.diffusivity * gap * network.speeds[:, None]
        loads = network.loads - sent.sum(axis=1) + sent.sum(axis=0)
        network = rebuilt(network.speeds, loads)
        error_after = np.linalg.norm(network.finishing_times - finish)
        noise_floor = 1e-7 * max(1.0, finish)
        contractions[t - 1] = (
            error_after / error_before if error_before > noise_floor else np.nan
        )
        jumps[t - 1] = M * n * abs(1.0 / float(path[t].sum()) - 1.0 / float(path[t - 1].sum()))
        network = rebuilt(np.asarray(path[t], dtype=float), network.loads)
        potentials[t] = imbalance(network)
        bounds[t] = lam * bounds[t - 1] + jumps[t - 1]
    trace = Trace(
        initial=potentials[0], potential=potentials[1:], delta=jumps, bound=bounds[1:]
    )
    return trace, lam, contractions


@settings(max_examples=60, deadline=None)
@given(
    graph=st.sampled_from(["path", "cycle", "complete"]),
    n=st.integers(2, 12),
    seed=st.integers(0, 10_000),
    speed_high=st.floats(1.0, 20.0),
    load_total=st.floats(1e-3, 1e3),
)
def test_diffusion_conserves_load_and_stays_non_negative(
    graph, n, seed, speed_high, load_total
):
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(0.05, speed_high, size=n)
    net = make_network(graph, n, speeds=speeds, seed=seed, load_total=load_total)
    total = net.total_load
    for _ in range(25):
        net = diffusion_step(net)
        assert abs(net.total_load - total) <= 1e-12 * total
        assert (net.loads >= 0).all()
