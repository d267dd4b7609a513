import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.stats import multivariate_normal, norm

from qdp.cli_report import load_benchmark_config
from qdp.error_budget import riemann_pmax, truncation_error
from qdp.market_model import (
    GBMParams,
    GridSpec,
    build_covariance,
    check_integer,
    cholesky_factor,
    lattice,
    sigma_max,
    standard_normal_cells,
    step_map,
)


def make_params(r=0.0, sigmas=(0.2,), rho=None, dt=1.0, n_steps=1, s0=None):
    d = len(sigmas)
    if rho is None:
        rho = tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))
    if s0 is None:
        s0 = (1.0,) * d
    return GBMParams(r=r, sigmas=sigmas, rho=rho, dt=dt, n_steps=n_steps, s0=s0)


def step_returns_and_pmf(law):
    """Every register tuple of one step of ``law`` as (returns, mass).

    Tuples run in C order, the first asset's register most significant;
    ``returns`` has shape (2^{n d}, d) and holds mu + L @ z, ``mass`` the
    product of the registers' masses.
    """
    d, cells = len(law.mu), len(law.coords)
    registers = np.indices((cells,) * d).reshape(d, -1)
    returns = law.mu + law.coords[registers].T @ law.chol.T
    return returns, np.prod(law.masses[registers], axis=0)


def return_cell_volume(law):
    """Return-space volume of one register cell: |det L| * dz^d."""
    dz = law.coords[1] - law.coords[0]
    return float(np.prod(np.diag(law.chol))) * dz ** len(law.mu)


class TestGBMParams:
    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_params(sigmas=(0.2, -0.1), rho=((1.0, 0.0), (0.0, 1.0)), s0=(1.0, 1.0))
        with pytest.raises(ValueError):
            make_params(dt=0.0)
        with pytest.raises(ValueError):
            make_params(sigmas=(0.2, 0.3), rho=((1.0, 0.5), (0.4, 1.0)), s0=(1.0, 1.0))
        with pytest.raises(ValueError):
            make_params(n_steps=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["r", "sigmas", "rho", "dt", "s0"])
    def test_rejects_non_finite_values(self, field, value):
        non_finite = {
            "r": value,
            "sigmas": (0.2, value),
            "rho": ((1.0, value), (value, 1.0)),
            "dt": value,
            "s0": (value, 1.0),
        }
        args = {"sigmas": (0.2, 0.3), "rho": ((1.0, 0.0), (0.0, 1.0)), "s0": (1.0, 1.0)}
        args[field] = non_finite[field]
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make_params(**args)

    def test_step_means(self):
        params = make_params(r=0.05, sigmas=(0.2,), dt=0.5)
        assert params.step_means() == pytest.approx([(0.05 - 0.02) * 0.5])

    def test_from_dict_rejects_inconsistent_d(self):
        doc = {
            "r": 0.0, "sigmas": [0.2], "rho": [[1.0]], "dt": 1.0, "T": 1,
            "s0": [1.0], "d": 2,
        }
        with pytest.raises(ValueError):
            GBMParams.from_dict(doc)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: GridSpec(n=3, w=math.nan), "w"),
            (lambda: GridSpec(n=3, w=math.inf), "w"),
            (lambda: GridSpec(n=2.5, w=5.0), "n"),
            (lambda: GridSpec(n=3.0, w=5.0), "n"),
            (lambda: GridSpec(n=True, w=5.0), "n"),
            (lambda: make_params(n_steps=2.5), "n_steps"),
            (lambda: make_params(n_steps=2.0), "n_steps"),
        ],
    )
    def test_rejects_non_finite_width_and_non_integer_counts(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build()

    def test_horizon(self):
        assert make_params(dt=0.05, n_steps=20).horizon == pytest.approx(1.0)


class TestCovariance:
    def test_single_asset(self):
        cov = build_covariance(make_params(sigmas=(0.2,), dt=0.5))
        assert cov == pytest.approx(np.array([[0.02]]))

    def test_uncorrelated_pair_is_diagonal(self):
        params = make_params(sigmas=(0.1, 0.3), s0=(1.0, 1.0))
        cov = build_covariance(params)
        assert cov == pytest.approx(np.diag([0.01, 0.09]))

    def test_perfect_correlation_rejected(self):
        params = make_params(
            sigmas=(0.2, 0.2), rho=((1.0, 1.0), (1.0, 1.0)), s0=(1.0, 1.0)
        )
        with pytest.raises(ValueError):
            build_covariance(params)

    def test_cholesky_examples(self):
        assert cholesky_factor(np.array([[0.04]])) == pytest.approx(
            np.array([[0.2]])
        )
        assert cholesky_factor(np.diag([0.01, 0.09])) == pytest.approx(
            np.diag([0.1, 0.3])
        )

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cholesky_round_trip_random_pd(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.1 * np.eye(3)
        L = cholesky_factor(cov)
        assert np.max(np.abs(L @ L.T - cov)) <= 1e-12 * np.max(np.abs(cov))

    def test_sigma_max_conventions(self):
        cov = np.diag([0.01, 0.09])
        assert sigma_max(cov) == pytest.approx(0.3)


class TestDensities:
    """The step law's mass against closed-form return densities."""

    def test_uncorrelated_transition_density_factorizes(self):
        pair = make_params(sigmas=(0.2, 0.3), s0=(1.0, 1.0))
        grid = GridSpec(n=4, w=5.0)
        joint = lattice(grid, pair)
        a = lattice(grid, make_params(sigmas=(0.2,)))
        b = lattice(grid, make_params(sigmas=(0.3,)))
        # Independent assets: a diagonal factor, so each asset's returns
        # read only its own register, which carries that asset's d=1 law.
        assert np.array_equal(joint.chol, np.diag(np.diag(joint.chol)))
        for j, single in enumerate((a, b)):
            assert joint.mu[j] == single.mu[0]
            assert joint.chol[j, j] == single.chol[0, 0]
        _, pmf = step_returns_and_pmf(joint)
        outer = np.multiply.outer(a.masses, b.masses)
        assert np.array_equal(pmf.reshape(16, 16), outer)

    def test_joint_density_matches_quadratic_form(self):
        params = make_params(
            sigmas=(0.2, 0.4), rho=((1.0, 0.5), (0.5, 1.0)), s0=(1.0, 1.0)
        )
        law = lattice(GridSpec(n=3, w=5.0), params)
        cov = build_covariance(params)
        inv, det = np.linalg.inv(cov), np.linalg.det(cov)
        volume = return_cell_volume(law)
        for i, j in [(0, 0), (3, 4), (5, 2), (7, 7)]:
            z = np.array([law.coords[i], law.coords[j]])
            x = law.chol @ z
            density = math.exp(-0.5 * x @ inv @ x) / (2 * math.pi * math.sqrt(det))
            mass = law.masses[i] * law.masses[j]
            assert mass == pytest.approx(density * volume, rel=1e-12)


class TestScipyReference:
    """The package computes normal densities without scipy.stats and
    factors covariances without scipy.linalg; these tests keep both as
    the references they must reproduce."""

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("model", ["correlated d=2", "shipped d=3"])
    def test_step_pmf_matches_multivariate_normal(self, model, n):
        if model == "shipped d=3":
            params = GBMParams.from_dict(load_benchmark_config("autocallable")["model"])
        else:
            params = make_params(
                sigmas=(0.2, 0.4), rho=((1.0, 0.5), (0.5, 1.0)), s0=(1.0, 1.0)
            )
        law = lattice(GridSpec(n=n, w=5.0), params)
        returns, pmf = step_returns_and_pmf(law)
        density = multivariate_normal(
            mean=params.step_means(), cov=build_covariance(params)
        ).pdf(returns)
        np.testing.assert_allclose(
            pmf, density * return_cell_volume(law), rtol=1e-13, atol=0
        )

    @staticmethod
    def solve_triangular_pmf(law, cov):
        """The step law's mass at each register tuple, recomputed in return
        space: the N(mu, cov) density at mu + L @ z, whitened by
        ``scipy.linalg.solve_triangular`` with scipy's own Cholesky factor,
        times the return-space cell volume."""
        ref = cholesky(cov, lower=True)
        returns, _ = step_returns_and_pmf(law)
        white = solve_triangular(ref, (returns - law.mu).T, lower=True)
        d = len(law.mu)
        logpdf = -0.5 * (np.sum(white**2, axis=0) + d * math.log(2 * math.pi))
        logpdf -= np.sum(np.log(np.diag(ref)))
        return np.exp(logpdf) * return_cell_volume(law)

    @staticmethod
    def assert_pmf_close(pmf, expected):
        # Whitening mu + L z back to z moves it by ulps, so the log-density
        # moves by a few ulps of its own size: the bound grows with |log p|.
        assert np.array_equal(pmf == 0, expected == 0)
        live = expected > 0
        bound = 8 * np.finfo(float).eps * (1 + np.abs(np.log(expected[live])))
        assert np.all(np.abs(pmf[live] / expected[live] - 1) <= bound)

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda d: st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)
        ),
        st.floats(-0.1, 0.2),
        st.floats(0.001, 2.0),
        st.floats(1.0, 8.0),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_step_pmf_matches_solve_triangular_for_diagonal_factors(
        self, sigmas, r, dt, w, n
    ):
        params = make_params(r=r, sigmas=tuple(sigmas), dt=dt)
        law = lattice(GridSpec(n=n, w=w), params)
        cov = build_covariance(params)
        assert np.array_equal(law.chol, cholesky(cov, lower=True))
        self.assert_pmf_close(
            step_returns_and_pmf(law)[1], self.solve_triangular_pmf(law, cov)
        )

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("contract", ["autocallable", "tarf"])
    def test_shipped_step_pmf_matches_solve_triangular(self, contract, n):
        params = GBMParams.from_dict(load_benchmark_config(contract)["model"])
        law = lattice(GridSpec(n=n, w=5.0), params)
        cov = build_covariance(params)
        coords, masses = standard_normal_cells(5.0, n)
        assert np.array_equal(law.coords, coords)
        assert np.array_equal(law.masses, masses)
        assert np.array_equal(law.mu, params.step_means())
        assert np.array_equal(law.chol, cholesky(cov, lower=True))
        self.assert_pmf_close(
            step_returns_and_pmf(law)[1], self.solve_triangular_pmf(law, cov)
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_correlated_step_pmf_matches_solve_triangular(self, seed):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        factor = rng.normal(size=(d, d))
        cov = factor @ factor.T + 0.1 * np.eye(d)
        scale = np.sqrt(np.diag(cov))
        rho = tuple(map(tuple, cov / np.outer(scale, scale)))
        params = make_params(
            r=0.02, sigmas=tuple(rng.uniform(0.05, 0.6, d)), rho=rho, dt=0.05
        )
        law = lattice(GridSpec(n=5 if d == 2 else 3, w=5.0), params)
        cov = build_covariance(params)
        ref = cholesky(cov, lower=True)
        assert np.max(np.abs(law.chol - ref)) <= 4 * np.finfo(float).eps * np.max(ref)
        self.assert_pmf_close(
            step_returns_and_pmf(law)[1], self.solve_triangular_pmf(law, cov)
        )

    @given(
        st.floats(min_value=0.1, max_value=40.0),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_standard_normal_cells_bit_identical_to_norm_pdf(self, w, n):
        coords, masses = standard_normal_cells(w, n)
        dx = 2 * w / 2**n
        assert np.array_equal(coords, -w + (np.arange(2**n) + 0.5) * dx)
        assert np.array_equal(masses, norm.pdf(coords) * dx)

    @given(
        st.floats(min_value=0.1, max_value=40.0),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_picked_cells_bit_identical_to_full_grid(self, w, n, seed):
        # Any index array, of any shape: the enumerator asks for a slice of
        # register tuples at a time.
        coords, masses = standard_normal_cells(w, n)
        cells = np.random.default_rng(seed).integers(0, 2**n, size=(2, 37))
        picked_coords, picked_masses = standard_normal_cells(w, n, cells)
        assert np.array_equal(picked_coords, coords[cells])
        assert np.array_equal(picked_masses, masses[cells])


class TestGridCells:
    @pytest.mark.parametrize("n, w", [(1, 5.0), (4, 3.0), (7, 5.0)])
    def test_cells_are_the_standard_normal_cells(self, n, w):
        grid = GridSpec(n=n, w=w)
        coords, masses = standard_normal_cells(w, n)
        assert np.array_equal(grid.coords, coords)
        assert np.array_equal(grid.masses, masses)

    def test_cells_built_once_and_read_only(self):
        grid = GridSpec(n=3)
        assert grid.w == 5.0
        assert grid.coords is grid.coords and grid.masses is grid.masses
        for cells in (grid.coords, grid.masses):
            with pytest.raises(ValueError, match="read-only"):
                cells[0] = 0.0

    def test_law_reads_the_grid_cells(self):
        grid = GridSpec(n=4)
        law = lattice(grid, make_params())
        assert law.coords is grid.coords and law.masses is grid.masses


class TestCheckInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3)])
    def test_integers_pass_as_int(self, value):
        assert check_integer("k", value) == 3
        assert type(check_integer("k", value)) is int

    @pytest.mark.parametrize("value", [3.0, 2.5, True, "3", None])
    def test_others_name_the_field(self, value):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {value!r}$"):
            check_integer("k", value)


def diagonal_factor(d: int) -> np.ndarray:
    return np.diag([0.3, 0.7, 1.9][:d])


def correlated_factor() -> np.ndarray:
    cov = build_covariance(
        make_params(
            sigmas=(0.1, 0.25, 0.4),
            rho=((1.0, 0.3, -0.2), (0.3, 1.0, 0.5), (-0.2, 0.5, 1.0)),
            dt=0.05,
        )
    )
    return cholesky_factor(cov)


class TestStepMap:
    """``step_map`` is the one mu + L z: bit for bit the matmul it replaces."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diagonal_factor_matches_matmul_in_place(self, d):
        rng = np.random.default_rng(d)
        mu = rng.normal(size=d)
        L = diagonal_factor(d)
        z = rng.normal(size=(64, 5, d))
        expected = mu + z @ L.T
        out = step_map(z, mu, L)
        assert out is z
        assert np.array_equal(out, expected)

    def test_correlated_factor_is_the_matmul(self):
        rng = np.random.default_rng(7)
        mu = rng.normal(size=3)
        L = correlated_factor()
        z = rng.normal(size=(64, 5, 3))
        before = z.copy()
        out = step_map(z, mu, L)
        assert np.array_equal(out, mu + z @ L.T)
        assert np.array_equal(z, before)

    def test_transposed_view(self):
        # The enumerator maps register slices held asset-major, (d, width).
        rng = np.random.default_rng(3)
        mu, L = rng.normal(size=3), correlated_factor()
        coords = rng.normal(size=(3, 40))
        assert np.array_equal(step_map(coords.T, mu, L), mu + coords.T @ L.T)

    @pytest.mark.parametrize(
        "sigmas, rho",
        [
            ((0.2,), ((1.0,),)),
            ((0.2, 0.3), ((1.0, 0.0), (0.0, 1.0))),
            ((0.2, 0.3), ((1.0, 0.6), (0.6, 1.0))),
        ],
    )
    def test_sample_returns_keep_their_bits(self, sigmas, rho):
        # The formula sample_returns used before the step map was shared.
        law = lattice(GridSpec(n=4), make_params(r=0.03, sigmas=sigmas, rho=rho, dt=0.25))
        gen = np.random.Generator(np.random.Philox(key=11))
        pmf = law.masses / law.masses.sum()
        idx = gen.choice(len(law.coords), size=(300, len(sigmas)), p=pmf)
        expected = law.mu + law.coords[idx] @ law.chol.T
        assert np.array_equal(law.sample_returns(300, seed=11), expected)


class TestLattice:
    def test_two_cell_midpoints(self):
        params = make_params(r=0.5, sigmas=(2.0,), dt=1.0)
        law = lattice(GridSpec(n=1, w=5.0), params)
        assert law.coords == pytest.approx([-2.5, 2.5])
        # Returns are mu + L z: drift r - sigma^2 / 2 = -1.5, factor 2.
        assert law.mu + law.chol[0, 0] * law.coords == pytest.approx([-6.5, 3.5])

    def test_standard_normal_tail_mass(self):
        params = make_params(r=0.5, sigmas=(1.0,), dt=1.0)
        law = lattice(GridSpec(n=5, w=5.0), params)
        alpha = 1.0 - float(law.masses.sum())
        assert alpha == pytest.approx(5e-7, rel=0.5)

    @pytest.mark.parametrize("w", [2.0, 3.0, 4.0, 5.0])
    def test_retained_mass_within_tail_bound(self, w):
        params = make_params(r=0.5, sigmas=(1.0,), dt=1.0)
        law = lattice(GridSpec(n=7, w=w), params)
        total = float(law.masses.sum())
        assert 1.0 - 2.0 * math.exp(-0.5 * w * w) <= total <= 1.0 + 1e-12

    def test_joint_pmf_properties_d2(self):
        params = make_params(
            sigmas=(0.2, 0.3), rho=((1.0, 0.4), (0.4, 1.0)), s0=(1.0, 1.0)
        )
        law = lattice(GridSpec(n=4, w=5.0), params)
        assert law.coords.shape == law.masses.shape == (16,)
        assert law.mu.shape == (2,) and law.chol.shape == (2, 2)
        # L is lower triangular with a positive diagonal and L L^T = Sigma.
        assert law.chol[0, 1] == 0.0 and np.all(np.diag(law.chol) > 0)
        cov = build_covariance(params)
        np.testing.assert_allclose(law.chol @ law.chol.T, cov, rtol=1e-14)
        _, pmf = step_returns_and_pmf(law)
        joint = pmf.reshape(16, 16)
        assert np.all(joint >= 0)
        assert joint.sum() <= 1.0 + 1e-12
        for j in range(2):
            marg = joint.sum(axis=1 - j)
            assert marg.shape == (16,)
            assert marg.sum() == pytest.approx(joint.sum())

    def test_returns_centered_on_drift(self):
        params = make_params(r=0.01, sigmas=(0.4,), dt=0.05)
        grid = GridSpec(n=5, w=5.0)
        law = lattice(grid, params)
        returns = law.mu[0] + law.chol[0, 0] * law.coords
        mu = params.step_means()[0]
        half = 5.0 * 0.4 * math.sqrt(0.05)
        cell = 2 * half / 2**grid.n
        # The return cells tile mu +- w * sigma * sqrt(dt).
        assert returns[0] == pytest.approx(mu - half + cell / 2)
        assert returns[-1] == pytest.approx(mu + half - cell / 2)
        assert np.diff(returns) == pytest.approx(np.full(2**grid.n - 1, cell))

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda d: st.tuples(
                st.sampled_from((3, 4) if d == 3 else (4, 5)),
                st.lists(
                    st.floats(min_value=0.05, max_value=0.5), min_size=d, max_size=d
                ),
                st.floats(min_value=0.0, max_value=0.5),
            )
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_step_keeps_mass_and_box_sets_pmax(self, case):
        n, sigmas, rho_ij = case
        d, w = len(sigmas), 5.0
        rho = tuple(
            tuple(1.0 if i == j else rho_ij for j in range(d)) for i in range(d)
        )
        params = make_params(r=0.02, sigmas=tuple(sigmas), rho=rho, dt=0.25)
        mass = float(lattice(GridSpec(n=n, w=w), params).masses.sum()) ** d
        assert mass >= 1.0 - truncation_error(d, 1, w)
        # P_max is the peak step density times the volume of the per-asset
        # box mu_j +- w * sqrt(Sigma_jj).
        cov = build_covariance(params)
        mu = params.step_means()
        box = np.prod(2.0 * w * np.sqrt(np.diag(cov)))
        peak = multivariate_normal(mean=mu, cov=cov).pdf(mu) * box
        assert riemann_pmax(d, w, cov) == pytest.approx(peak, rel=1e-12)

    def test_marginal_pmf_matches_univariate_density(self):
        # Independent assets: the d=2 marginal of asset 0 is its own
        # register's law, a discretized N(mu_0, 0.2^2).
        pair = make_params(sigmas=(0.2, 0.3), s0=(1.0, 1.0))
        grid = GridSpec(n=4, w=5.0)
        law = lattice(grid, pair)
        returns, pmf = step_returns_and_pmf(law)
        coords = returns[:: 2**grid.n, 0]
        marginal = pmf.reshape(2**grid.n, 2**grid.n).sum(axis=1)
        dx = 0.2 * (law.coords[1] - law.coords[0])
        expected = norm.pdf(coords, loc=pair.step_means()[0], scale=0.2) * dx
        # The joint marginal loses only the other register's tail mass.
        assert np.max(np.abs(marginal - expected)) <= 1e-6
        assert sigma_max(build_covariance(pair)) == 0.3
