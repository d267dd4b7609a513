import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qdp import gaussian_loader as gl
from qdp.gaussian_loader import (
    RyCnotAnsatz,
    digitize,
    discretized_hamiltonian,
    linf_loss,
    simulate_ansatz,
    train,
)
from qdp.market_model import GridSpec


class TestAnsatz:
    def test_parameter_count(self):
        assert RyCnotAnsatz(n=4, L=6).n_params == 28
        with pytest.raises(ValueError):
            RyCnotAnsatz(n=13, L=2)
        with pytest.raises(ValueError):
            RyCnotAnsatz(n=4, L=-1)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: RyCnotAnsatz(n=4.5, L=2), "n must be an integer, got 4.5"),
            (lambda: RyCnotAnsatz(n=True, L=2), "n must be an integer, got True"),
            (lambda: RyCnotAnsatz(n=4, L=1.5), "L must be an integer, got 1.5"),
            (lambda: GridSpec(n=4.0), "n must be an integer, got 4.0"),
            (lambda: GridSpec(n=4, w=math.nan), "w must be finite, got nan"),
            (lambda: GridSpec(n=4, w=math.inf), "w must be finite, got inf"),
        ],
    )
    def test_invalid_inputs_name_the_field(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()

    def test_identity_rotations_keep_ground_state(self):
        state = simulate_ansatz(RyCnotAnsatz(n=3, L=0), np.zeros(3))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert state == pytest.approx(expected)

    def test_single_qubit_hadamard_like_rotation(self):
        state = simulate_ansatz(RyCnotAnsatz(n=1, L=0), np.array([math.pi / 2]))
        assert state == pytest.approx(np.array([1.0, 1.0]) / math.sqrt(2))

    def test_cnot_ladder_flips_target(self):
        # Ry(pi) on qubit 0 prepares |10>; the ladder CNOT maps it to |11>.
        ansatz = RyCnotAnsatz(n=2, L=1)
        params = np.array([math.pi, 0.0, 0.0, 0.0])
        state = simulate_ansatz(ansatz, params)
        assert np.abs(state) == pytest.approx(np.array([0.0, 0.0, 0.0, 1.0]))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_real_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        ansatz = RyCnotAnsatz(n=4, L=3)
        state = simulate_ansatz(ansatz, rng.uniform(-math.pi, math.pi, 16))
        assert state.dtype == np.float64
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_parameter_count_guard(self):
        with pytest.raises(ValueError):
            simulate_ansatz(RyCnotAnsatz(n=2, L=1), np.zeros(3))

    @pytest.mark.parametrize("n,L", [(1, 0), (3, 2), (4, 6), (7, 3)])
    def test_matches_elementwise_reference(self, n, L):
        # The layer kernel does the textbook update's arithmetic, so the
        # states (and everything digitize reads off them) agree bit for bit.
        def reference(params):
            layers = params.reshape(L + 1, n)
            state = np.zeros(2**n)
            state[0] = 1.0
            for block in range(L + 1):
                if block:
                    permuted = np.empty_like(state)
                    permuted[gl._cnot_ladder_permutation(n)] = state
                    state = permuted
                for q in range(n):
                    c, s = math.cos(layers[block, q] / 2), math.sin(layers[block, q] / 2)
                    view = state.reshape(2**q, 2, 2 ** (n - q - 1))
                    v0, v1 = view[:, 0, :].copy(), view[:, 1, :].copy()
                    view[:, 0, :] = c * v0 - s * v1
                    view[:, 1, :] = s * v0 + c * v1
            return state

        rng = np.random.default_rng(n * 10 + L)
        ansatz = RyCnotAnsatz(n=n, L=L)
        for _ in range(10):
            theta = rng.uniform(-math.pi, math.pi, ansatz.n_params)
            assert np.array_equal(simulate_ansatz(ansatz, theta), reference(theta))

    @pytest.mark.parametrize("n,L", [(1, 0), (3, 2), (4, 6)])
    def test_batched_rows_match_single_calls(self, n, L):
        ansatz = RyCnotAnsatz(n=n, L=L)
        rng = np.random.default_rng(n + L)
        batch = rng.uniform(-2 * math.pi, 2 * math.pi, (3, 4, ansatz.n_params))
        batch[0, 0] = -0.0
        batch[1, :, ::2] = -0.0
        batch[2, 1, -1] = 0.0
        states = simulate_ansatz(ansatz, batch)
        assert states.shape == (3, 4, 2**n)
        for index in np.ndindex(3, 4):
            single = simulate_ansatz(ansatz, batch[index])
            assert single.shape == (2**n,)
            assert states[index].tobytes() == single.tobytes()

    def test_gather_tables_are_cached_and_read_only(self):
        gathers = gl._paired_gathers(3)
        assert gathers is gl._paired_gathers(3)
        for table in (gathers.first, gathers.entangled, gathers.signs):
            with pytest.raises(ValueError):
                table.flat[0] = 1

    def test_cnot_permutation_cache_is_read_only(self):
        perm = gl._cnot_ladder_permutation(3)
        assert perm is gl._cnot_ladder_permutation(3)
        with pytest.raises(ValueError):
            perm[0] = 1
        assert sorted(perm) == list(range(8))


def _energy_loss(target):
    def loss_grad(psi):
        h_psi = gl._apply_hamiltonian(psi, 0.5, 0.0, target.coords)
        return float(psi @ h_psi), 2.0 * h_psi

    return loss_grad


def _l2_loss(target):
    masses = target.masses

    def loss_grad(psi):
        diff = masses - psi**2
        return float(np.sum(diff * diff)), -4.0 * diff * psi

    return loss_grad


class TestAdjointGradient:
    SHAPES = [(1, 0), (3, 2), (4, 6), (5, 6)]

    @pytest.mark.parametrize("n,L", SHAPES)
    @pytest.mark.parametrize("make_loss", [_energy_loss, _l2_loss])
    def test_matches_central_differences(self, n, L, make_loss):
        ansatz = RyCnotAnsatz(n=n, L=L)
        loss_grad = make_loss(GridSpec(n=n))
        theta = np.random.default_rng(n + L).uniform(-math.pi, math.pi, ansatz.n_params)
        loss, grad = gl._loss_and_gradient(theta, ansatz, loss_grad)
        assert loss == loss_grad(simulate_ansatz(ansatz, theta))[0]
        h = 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            up = loss_grad(simulate_ansatz(ansatz, theta + e))[0]
            down = loss_grad(simulate_ansatz(ansatz, theta - e))[0]
            fd[i] = (up - down) / (2 * h)
        scale = float(np.max(np.abs(fd)))
        assert grad == pytest.approx(fd, rel=1e-6, abs=1e-6 * scale)

    @pytest.mark.parametrize("n,L", SHAPES)
    def test_jacobian_matches_central_differences(self, n, L):
        ansatz = RyCnotAnsatz(n=n, L=L)
        theta = np.random.default_rng(n * L + 7).uniform(
            -math.pi, math.pi, ansatz.n_params
        )
        psi = simulate_ansatz(ansatz, theta)
        jac = gl._backward_sweep(ansatz, theta, psi, np.eye(2**n))
        assert jac.shape == (2**n, ansatz.n_params)
        h = 1e-6
        fd = np.empty_like(jac)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            up = simulate_ansatz(ansatz, theta + e)
            down = simulate_ansatz(ansatz, theta - e)
            fd[:, i] = (up - down) / (2 * h)
        scale = float(np.max(np.abs(fd)))
        assert jac == pytest.approx(fd, rel=1e-6, abs=1e-6 * scale)

    @pytest.mark.parametrize("n,L", SHAPES)
    def test_gradient_is_adjoint_times_jacobian(self, n, L):
        # The gradient sweep is the one-row case of the Jacobian sweep.
        ansatz = RyCnotAnsatz(n=n, L=L)
        loss_grad = _l2_loss(GridSpec(n=n))
        theta = np.random.default_rng(n + 2 * L).uniform(
            -math.pi, math.pi, ansatz.n_params
        )
        psi = simulate_ansatz(ansatz, theta)
        g = loss_grad(psi)[1]
        jac = gl._backward_sweep(ansatz, theta, psi, np.eye(2**n))
        grad = gl._loss_and_gradient(theta, ansatz, loss_grad)[1]
        assert grad == pytest.approx(g @ jac, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n,L", [(1, 0), (3, 2), (4, 6), (5, 6), (7, 3)])
    def test_matches_einsum_sweep(self, n, L):
        # The per-qubit einsum sweep the paired-gather kernel replaced: the
        # Jacobian and gradients must not move by a bit.
        def einsum_layer(state, angles):
            shape = state.shape
            for q in range(n):
                c, s = math.cos(angles[q] / 2.0), math.sin(angles[q] / 2.0)
                view = state.reshape(-1, 2, 2 ** (n - q - 1))
                state = np.einsum("ij,ajb->aib", np.array([[c, -s], [s, c]]), view)
            return state.reshape(shape)

        def einsum_sweep(params, psi, adjoints):
            layers = params.reshape(L + 1, n)
            stack = np.vstack([psi, adjoints])
            perm = gl._cnot_ladder_permutation(n)
            rows = np.empty((len(adjoints), L + 1, n))
            half_generator = np.array([[-0.5], [0.5]])
            derivatives = np.empty((n, psi.size))
            for block in range(L, -1, -1):
                for q in range(n):
                    v = stack[0].reshape(-1, 2, 2 ** (n - q - 1))
                    derivatives[q] = (v[:, ::-1] * half_generator).ravel()
                rows[:, block] = stack[1:] @ derivatives.T
                if block:
                    stack = einsum_layer(stack, -layers[block])[:, perm]
            return rows.reshape(len(adjoints), -1)

        ansatz = RyCnotAnsatz(n=n, L=L)
        rng = np.random.default_rng(10 * n + L)
        for _ in range(3):
            theta = rng.uniform(-2 * math.pi, 2 * math.pi, ansatz.n_params)
            psi = simulate_ansatz(ansatz, theta)
            for adjoints in (np.eye(2**n), rng.normal(size=(1, 2**n)),
                             rng.normal(size=(3, 2**n))):
                new = gl._backward_sweep(ansatz, theta, psi, adjoints)
                assert new.tobytes() == einsum_sweep(theta, psi, adjoints).tobytes()

    def test_no_entangler_gradient_is_per_qubit(self):
        # L = 0 has no permutation: the state is a product of single-qubit
        # rotations, so the overlap with |0...0> is prod cos(theta_q / 2).
        ansatz = RyCnotAnsatz(n=3, L=0)
        theta = np.array([0.3, -1.1, 2.0])
        target = np.zeros(8)
        target[0] = 1.0

        def overlap(psi):
            return float(psi @ target), target

        value, grad = gl._loss_and_gradient(theta, ansatz, overlap)
        cosines = np.cos(theta / 2)
        assert value == pytest.approx(np.prod(cosines), abs=1e-15)
        expected = [
            -0.5 * np.sin(theta[q] / 2) * np.prod(np.delete(cosines, q))
            for q in range(3)
        ]
        assert grad == pytest.approx(expected, abs=1e-15)


class TestLoaderTarget:
    def test_loader_target_is_the_register_grid(self):
        assert gl.LoaderTarget is GridSpec
        assert GridSpec(n=4) == GridSpec(n=4, w=5.0)

    def test_mesh_convention(self):
        target = GridSpec(n=2, w=4.0)
        assert target.coords == pytest.approx(np.array([-3.0, -1.0, 1.0, 3.0]))

    def test_tail_mass_small_at_default_width(self):
        target = GridSpec(n=5, w=5.0)
        assert 0.0 < 1.0 - target.masses.sum() < 1e-5

    def test_linf_zero_at_target(self):
        target = GridSpec(n=4)
        state = np.sqrt(target.masses)
        assert linf_loss(state, target) == pytest.approx(0.0, abs=1e-15)

    def test_linf_of_ground_state(self):
        target = GridSpec(n=3)
        state = np.zeros(8)
        state[0] = 1.0
        expected = max(abs(target.masses[0] - 1.0), float(np.max(target.masses[1:])))
        assert linf_loss(state, target) == pytest.approx(expected)


def oscillator_energy(psi, x0, coords):
    """<H> of the discretized oscillator (m = 1/2) from its dense matrix."""
    return float(np.real(psi @ discretized_hamiltonian(0.5, x0, coords) @ psi))


class TestHarmonicEnergy:
    def test_gaussian_state_near_ground_energy(self):
        target = GridSpec(n=7, w=6.0)
        psi = np.sqrt(target.masses)
        psi /= np.linalg.norm(psi)
        assert oscillator_energy(psi, 0.0, target.coords) == pytest.approx(0.5, abs=1e-3)

    def test_variational_principle(self):
        target = GridSpec(n=5, w=5.0)
        H = discretized_hamiltonian(0.5, 0.0, target.coords)
        lam_min = float(np.linalg.eigvalsh(H)[0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            psi = rng.normal(size=32)
            psi /= np.linalg.norm(psi)
            h_psi = gl._apply_hamiltonian(psi, 0.5, 0.0, target.coords)
            assert float(psi @ h_psi) >= lam_min - 1e-10

    def test_matrix_matches_quadratic_form(self):
        target = GridSpec(n=4, w=5.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            psi = rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            h_psi = gl._apply_hamiltonian(psi, 0.5, 0.0, target.coords)
            assert float(psi @ h_psi) == pytest.approx(
                oscillator_energy(psi, 0.0, target.coords)
            )

    @pytest.mark.parametrize("n,x0", [(1, 0.0), (3, 0.0), (4, 0.7), (6, -1.5)])
    def test_hamiltonian_action_matches_matrix(self, n, x0):
        target = GridSpec(n=n, w=5.0)
        H = discretized_hamiltonian(0.5, x0, target.coords)
        psi = np.random.default_rng(n).normal(size=2**n)
        psi /= np.linalg.norm(psi)
        h_psi = gl._apply_hamiltonian(psi, 0.5, x0, target.coords)
        assert h_psi == pytest.approx(H.real @ psi, rel=0, abs=1e-12)
        assert float(psi @ h_psi) == pytest.approx(
            oscillator_energy(psi, x0, target.coords), rel=0, abs=1e-12
        )

    def test_center_shift(self):
        target = GridSpec(n=6, w=5.0)
        psi = np.sqrt(target.masses)
        psi /= np.linalg.norm(psi)
        centered = oscillator_energy(psi, 0.0, target.coords)
        shifted = oscillator_energy(psi, 2.0, target.coords)
        assert shifted > centered

    def test_train_reports_energy_of_best_state(self):
        result = train(3, 1, restarts=1, seed=0)
        target = GridSpec(n=3)
        psi = simulate_ansatz(RyCnotAnsatz(n=3, L=1), result.best_params)
        H = discretized_hamiltonian(0.5, 0.0, target.coords)
        assert result.energy == pytest.approx(
            oscillator_energy(psi, 0.0, target.coords), rel=0, abs=1e-12
        )
        assert result.energy >= float(np.linalg.eigvalsh(H)[0]) - 1e-12


class TestTraining:
    def test_small_instance_reaches_low_loss(self):
        result = train(3, 4, restarts=2, seed=0)
        assert result.l_inf <= 5e-3

    def test_minimax_refinement_beats_l2_surrogate(self):
        # The L2 surrogate alone stops at 2.41e-4 here and a simplex
        # search from it at 2.28e-4; the exact minimax solve reaches 2.05e-4.
        assert train(4, 2, restarts=1, seed=0).l_inf <= 2.1e-4

    # At (1, 4, 5) the minimax solve itself ends 6e-14 above its start,
    # so only the guard that keeps the start passes that case.
    @pytest.mark.parametrize("n,L,seed", [(1, 4, 5), (3, 1, 0), (4, 2, 1), (4, 6, 2)])
    def test_refinement_never_ends_above_its_l2_start(self, n, L, seed, monkeypatch):
        # Record the L2 descent's end point, the start of the minimax solve.
        starts = []

        def spy(*args, **kwargs):
            res = minimize(*args, **kwargs)
            if kwargs["method"] == "BFGS":
                starts.append(res.x)
            return res

        monkeypatch.setattr(gl, "minimize", spy)
        ansatz = RyCnotAnsatz(n=n, L=L)
        target = GridSpec(n=n)
        theta0 = np.random.default_rng(seed).uniform(-math.pi, math.pi, ansatz.n_params)
        refined = gl._refine_linf(ansatz, theta0, target)
        (start,) = starts
        assert linf_loss(simulate_ansatz(ansatz, refined), target) <= linf_loss(
            simulate_ansatz(ansatz, start), target
        )

    def test_reproducible_per_seed(self):
        a = train(3, 2, restarts=1, seed=3)
        b = train(3, 2, restarts=1, seed=3)
        assert a.l_inf == b.l_inf
        assert a.best_params == pytest.approx(b.best_params)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_empty_restart_pool_rejected(self, restarts):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            train(2, 1, restarts=restarts)

    def test_warm_start_alone_is_a_pool(self):
        base = train(2, 1, restarts=1, seed=0)
        warmed = train(2, 1, restarts=0, warm_start=base.best_params)
        assert warmed.l_inf <= base.l_inf * (1 + 1e-9)

    @pytest.mark.parametrize(
        "warm_start",
        [np.zeros(9), np.zeros(4), np.zeros(7), np.zeros((2, 3))],
        ids=["longer", "partial-layer", "partial-last-layer", "2-D"],
    )
    def test_malformed_warm_start_rejected(self, warm_start):
        # n=3, L=1 has 6 angles: two layers of 3.
        with pytest.raises(ValueError, match="warm_start"):
            train(3, 1, restarts=0, warm_start=warm_start)

    def test_shorter_warm_start_pads_whole_layers(self):
        one_layer = train(3, 1, restarts=0, warm_start=np.full(3, 0.5))
        padded = train(3, 1, restarts=0, warm_start=[0.5, 0.5, 0.5, 0.0, 0.0, 0.0])
        assert one_layer.l_inf == padded.l_inf
        assert np.array_equal(one_layer.best_params, padded.best_params)

    def test_warm_start_joins_pool(self):
        # Seed 1's own restart ends at 7.3e-3; warm-started from seed 0's
        # optimum at the same depth, the pool keeps that optimum's loss
        # (up to the minimax solve's rounding).
        base = train(5, 2, restarts=1, seed=0)
        warmed = train(5, 2, restarts=1, seed=1, warm_start=base.best_params)
        assert warmed.l_inf <= base.l_inf * (1 + 1e-9)


class TestDigitize:
    def test_fine_grid_recovers_continuous(self):
        result = train(3, 2, restarts=1, seed=0)
        ansatz = RyCnotAnsatz(n=3, L=2)
        target = GridSpec(n=3)
        fine = digitize(result.best_params, 2**24, ansatz, target)
        assert fine["l_inf"] <= result.l_inf + 1e-6

    def test_coarse_grid_degrades(self):
        result = train(3, 2, restarts=1, seed=0)
        ansatz = RyCnotAnsatz(n=3, L=2)
        target = GridSpec(n=3)
        coarse = digitize(result.best_params, 16, ansatz, target)
        fine = digitize(result.best_params, 2**16, ansatz, target)
        assert coarse["l_inf"] >= fine["l_inf"]

    def test_grid_membership(self):
        result = train(3, 2, restarts=1, seed=0)
        ansatz = RyCnotAnsatz(n=3, L=2)
        target = GridSpec(n=3)
        M = 256
        out = digitize(result.best_params, M, ansatz, target)
        steps = out["params"] / (2 * math.pi / M)
        assert steps == pytest.approx(np.round(steps), abs=1e-9)

    def test_m_digit_guard(self):
        with pytest.raises(ValueError):
            digitize(np.zeros(6), 2, RyCnotAnsatz(n=3, L=1), GridSpec(n=3))

    @pytest.mark.parametrize("n,L,seed", [(3, 2, 0), (4, 6, 1)])
    @pytest.mark.parametrize("M", [16, 1_000, 100_000])
    @pytest.mark.parametrize("batch_floats", [None, 3])
    def test_matches_sequential_search(self, n, L, seed, M, batch_floats, monkeypatch):
        # The one-trial-at-a-time search the batched one replaced, from a
        # start whose small negative angles snap to -0.0.
        def sequential(params):
            step = 2.0 * math.pi / M
            theta = np.round(np.asarray(params, dtype=float) / step) * step

            def loss(t):
                return linf_loss(simulate_ansatz(ansatz, t), target)

            current = loss(theta)
            for _ in range(50):
                improved = False
                for i in range(theta.size):
                    for delta in (step, -step):
                        trial = theta.copy()
                        trial[i] += delta
                        val = loss(trial)
                        if val < current - 1e-15:
                            theta, current = trial, val
                            improved = True
                if not improved:
                    break
            return theta, current

        ansatz = RyCnotAnsatz(n=n, L=L)
        target = GridSpec(n=n)
        if batch_floats is not None:
            # Three trials per batch, so a pass spans several batches.
            width = (L + 1) * n * 2 ** (n + 1)
            monkeypatch.setattr(gl, "_DIGITIZE_BATCH_FLOATS", batch_floats * width)
        params = train(n, L, restarts=1, seed=seed).best_params.copy()
        params[::3] = -1e-9
        assert np.signbit(np.round(params / (2.0 * math.pi / M))[::3]).all()
        theta, current = sequential(params)
        out = digitize(params, M, ansatz, target)
        assert out["params"].tobytes() == theta.tobytes()
        assert type(out["l_inf"]) is float
        assert out["l_inf"].hex() == current.hex()
