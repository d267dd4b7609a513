import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal, norm

from qdp.cli_report import load_benchmark_config
from qdp.error_budget import riemann_pmax, truncation_error
from qdp.market_model import (
    GBMParams,
    GridSpec,
    build_covariance,
    cell_midpoints,
    cholesky_factor,
    lattice,
    sigma_max,
    standard_normal_cells,
)


def make_params(r=0.0, sigmas=(0.2,), rho=None, dt=1.0, n_steps=1, s0=None):
    d = len(sigmas)
    if rho is None:
        rho = tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))
    if s0 is None:
        s0 = (1.0,) * d
    return GBMParams(r=r, sigmas=sigmas, rho=rho, dt=dt, n_steps=n_steps, s0=s0)


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
    """The lattice's one-step mass against closed-form return densities."""

    def test_uncorrelated_transition_density_factorizes(self):
        pair = make_params(sigmas=(0.2, 0.3), s0=(1.0, 1.0))
        grid = GridSpec(n=4, w=5.0)
        joint = lattice(grid, pair).step_pmf
        a = lattice(grid, make_params(sigmas=(0.2,))).step_pmf
        b = lattice(grid, make_params(sigmas=(0.3,))).step_pmf
        assert joint == pytest.approx(np.multiply.outer(a, b), rel=1e-12)

    def test_joint_density_matches_quadratic_form(self):
        params = make_params(
            sigmas=(0.2, 0.4), rho=((1.0, 0.5), (0.5, 1.0)), s0=(1.0, 1.0)
        )
        grid = GridSpec(n=3, w=5.0)
        lat = lattice(grid, params)
        cov = build_covariance(params)
        inv, det = np.linalg.inv(cov), np.linalg.det(cov)
        volume = float(np.prod(cell_midpoints(*grid.bounds(params), grid.n)[1]))
        for i, j in [(0, 0), (3, 4), (5, 2), (7, 7)]:
            x = np.array([lat.coords[0, i], lat.coords[1, j]]) - params.step_means()
            density = math.exp(-0.5 * x @ inv @ x) / (2 * math.pi * math.sqrt(det))
            assert lat.step_pmf[i, j] == pytest.approx(density * volume, rel=1e-12)


class TestScipyReference:
    """The package computes normal densities without scipy.stats and
    whitens without scipy.linalg; these tests keep both as the references
    they must reproduce."""

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("model", ["correlated d=2", "shipped d=3"])
    def test_step_pmf_matches_multivariate_normal(self, model, n):
        if model == "shipped d=3":
            params = GBMParams.from_dict(load_benchmark_config("autocallable")["model"])
        else:
            params = make_params(
                sigmas=(0.2, 0.4), rho=((1.0, 0.5), (0.5, 1.0)), s0=(1.0, 1.0)
            )
        grid = GridSpec(n=n, w=5.0)
        lat = lattice(grid, params)
        mesh = np.meshgrid(*lat.coords, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        volume = np.prod(cell_midpoints(*grid.bounds(params), grid.n)[1])
        density = multivariate_normal(
            mean=params.step_means(), cov=build_covariance(params)
        ).pdf(points)
        expected = (density * volume).reshape(lat.step_pmf.shape)
        np.testing.assert_allclose(lat.step_pmf, expected, rtol=1e-13, atol=0)

    @staticmethod
    def solve_triangular_pmf(grid, params):
        """``lattice``'s step pmf with the whitening done by
        ``scipy.linalg.solve_triangular``, the reference for its forward
        substitution."""
        chol = cholesky_factor(build_covariance(params))
        coords, dx = cell_midpoints(*grid.bounds(params), grid.n)
        mesh = np.meshgrid(*coords, indexing="ij")
        dev = np.stack([m.ravel() for m in mesh]) - params.step_means()[:, None]
        white = solve_triangular(chol, dev, lower=True)
        logpdf = -0.5 * (np.sum(white**2, axis=0) + params.d * math.log(2 * math.pi))
        logpdf -= np.sum(np.log(np.diag(chol)))
        pmf = np.exp(logpdf + float(np.sum(np.log(dx))))
        return pmf.reshape((2**grid.n,) * params.d)

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
    def test_step_pmf_bit_equal_to_solve_triangular_for_diagonal_factors(
        self, sigmas, r, dt, w, n
    ):
        params = make_params(r=r, sigmas=tuple(sigmas), dt=dt)
        grid = GridSpec(n=n, w=w)
        assert np.array_equal(
            lattice(grid, params).step_pmf, self.solve_triangular_pmf(grid, params)
        )

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("contract", ["autocallable", "tarf"])
    def test_shipped_step_pmf_bit_equal_to_solve_triangular(self, contract, n):
        params = GBMParams.from_dict(load_benchmark_config(contract)["model"])
        grid = GridSpec(n=n, w=5.0)
        assert np.array_equal(
            lattice(grid, params).step_pmf, self.solve_triangular_pmf(grid, params)
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
        grid = GridSpec(n=5 if d == 2 else 3, w=5.0)
        pmf = lattice(grid, params).step_pmf
        expected = self.solve_triangular_pmf(grid, params)
        # The whitened deviations move by ulps, so the log-density moves by a
        # few ulps of its own size: 1e-13 relative wherever the pmf exceeds
        # about 1e-24, more in far tails (some of these models pass 1e-13 in
        # cells below 1e-63).
        assert np.array_equal(pmf == 0, expected == 0)
        live = expected > 0
        bound = 8 * np.finfo(float).eps * (1 + np.abs(np.log(expected[live])))
        assert np.all(np.abs(pmf[live] / expected[live] - 1) <= bound)

    @given(
        st.floats(min_value=0.1, max_value=40.0),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_standard_normal_cells_bit_identical_to_norm_pdf(self, w, n):
        coords, masses = standard_normal_cells(w, n)
        dx = cell_midpoints(-w, w, n)[1]
        assert np.array_equal(masses, norm.pdf(coords) * dx)


class TestLattice:
    def test_two_cell_midpoints(self):
        params = make_params(r=0.5, sigmas=(1.0,), dt=1.0)
        grid = GridSpec(n=1, w=5.0)
        lat = lattice(grid, params)
        assert lat.coords[0] == pytest.approx([-2.5, 2.5])
        assert cell_midpoints(*grid.bounds(params), grid.n)[1] == pytest.approx([5.0])

    def test_standard_normal_tail_mass(self):
        params = make_params(r=0.5, sigmas=(1.0,), dt=1.0)
        lat = lattice(GridSpec(n=5, w=5.0), params)
        alpha = 1.0 - float(lat.step_pmf.sum())
        assert alpha == pytest.approx(5e-7, rel=0.5)

    @pytest.mark.parametrize("w", [2.0, 3.0, 4.0, 5.0])
    def test_retained_mass_within_tail_bound(self, w):
        params = make_params(r=0.5, sigmas=(1.0,), dt=1.0)
        lat = lattice(GridSpec(n=7, w=w), params)
        total = float(lat.step_pmf.sum())
        assert 1.0 - 2.0 * math.exp(-0.5 * w * w) <= total <= 1.0 + 1e-12

    def test_joint_pmf_properties_d2(self):
        params = make_params(
            sigmas=(0.2, 0.3), rho=((1.0, 0.4), (0.4, 1.0)), s0=(1.0, 1.0)
        )
        lat = lattice(GridSpec(n=4, w=5.0), params)
        assert lat.step_pmf.shape == (16, 16)
        assert np.all(lat.step_pmf >= 0)
        assert lat.step_pmf.sum() <= 1.0 + 1e-12
        for j in range(2):
            marg = lat.step_pmf.sum(axis=1 - j)
            assert marg.shape == (16,)
            assert marg.sum() == pytest.approx(lat.step_pmf.sum())

    def test_bounds_centered_on_drift(self):
        params = make_params(r=0.01, sigmas=(0.4,), dt=0.05)
        grid = GridSpec(n=5, w=5.0)
        b_l, b_u = grid.bounds(params)
        mu = params.step_means()
        half = 5.0 * 0.4 * math.sqrt(0.05)
        assert b_l == pytest.approx(mu - half)
        assert b_u == pytest.approx(mu + half)

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
    def test_per_asset_box_keeps_mass_and_sets_pmax(self, case):
        n, sigmas, rho_ij = case
        d, w = len(sigmas), 5.0
        rho = tuple(
            tuple(1.0 if i == j else rho_ij for j in range(d)) for i in range(d)
        )
        params = make_params(r=0.02, sigmas=tuple(sigmas), rho=rho, dt=0.25)
        grid = GridSpec(n=n, w=w)
        mass = float(lattice(grid, params).step_pmf.sum())
        assert mass >= 1.0 - truncation_error(d, 1, w)
        # P_max is the peak step density times the volume of the box built.
        cov = build_covariance(params)
        b_l, b_u = grid.bounds(params)
        mu = params.step_means()
        peak = multivariate_normal(mean=mu, cov=cov).pdf(mu) * np.prod(b_u - b_l)
        assert riemann_pmax(d, w, cov) == pytest.approx(peak, rel=1e-12)

    def test_marginal_pmf_matches_univariate_density(self):
        # Independent assets: the d=2 marginal equals the d=1 lattice pmf.
        pair = make_params(sigmas=(0.2, 0.3), s0=(1.0, 1.0))
        grid = GridSpec(n=4, w=5.0)
        lat2 = lattice(grid, pair)
        sig_max = 0.3
        dx = cell_midpoints(*grid.bounds(pair), grid.n)[1][0]
        coords = lat2.coords[0]
        mu = pair.step_means()[0]
        expected = norm.pdf(coords, loc=mu, scale=0.2) * dx
        # The joint marginal loses only the other dimension's tail mass.
        assert np.max(np.abs(lat2.step_pmf.sum(axis=1) - expected)) <= 1e-6
        assert sig_max == sigma_max(build_covariance(pair))
