import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from qdp import error_budget as eb
from qdp.circuit_estimator import end_to_end
from qdp.cli_report import _estimate, load_benchmark_config
from qdp.contracts import AutocallableSpec, payoff_bounds
from qdp.market_model import GBMParams, build_covariance
from qdp.qarith_resources import FixedPointFormat

FMT = FixedPointFormat(n=34, p=2)


class TestTruncation:
    def test_unit_case(self):
        assert eb.truncation_error(1, 1, math.pi / math.sqrt(2)) == pytest.approx(
            2.0 * math.exp(-math.pi**2 / 4.0)
        )
        assert eb.truncation_error(1, 1, math.pi / math.sqrt(2)) == pytest.approx(
            0.170, abs=5e-3
        )

    def test_benchmark_case(self):
        assert eb.truncation_error(3, 20, 5.0) == pytest.approx(
            120.0 * math.exp(-12.5)
        )
        assert eb.truncation_error(3, 20, 5.0) == pytest.approx(4.5e-4, rel=0.05)

    def test_vanishes_for_wide_box(self):
        assert eb.truncation_error(3, 20, 40.0) < 1e-300

    @pytest.mark.parametrize("w", [2.0, 3.0, 4.0, 5.0])
    def test_bounds_measured_tail_mass(self, w):
        # Numerically integrate the standard normal outside [-w, w].
        measured = 2.0 * float(norm.cdf(-w))
        assert measured <= eb.truncation_error(1, 1, w)


class TestDiscretization:
    def test_extra_qubit_quarters_the_bound(self):
        a = eb.discretization_error(17.0, 5.0, 0.09, 1, 2, 6)
        b = eb.discretization_error(17.0, 5.0, 0.09, 1, 2, 7)
        assert a / b == pytest.approx(4.0)

    def test_midpoint_rule_obeys_bound_and_rate(self):
        # One-dimensional analogue: integrate x^2 over [-1, 1] (beta = 2).
        exact = 2.0 / 3.0
        errors = []
        for n in (4, 6, 8):
            cells = 2**n
            dx = 2.0 / cells
            mid = -1.0 + (np.arange(cells) + 0.5) * dx
            approx = float(np.sum(mid**2) * dx)
            err = abs(approx - exact)
            # Summed per-cell midpoint bound: beta * (b-a) * dx^2 / 24.
            assert err <= 2.0 * 2.0 * dx * dx / 24.0 + 1e-15
            errors.append(err)
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.05)
        assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.05)

    def test_gaussian_integrand_rate(self):
        # Midpoint error on the normal density shrinks about 4x per qubit.
        exact = float(norm.cdf(2.0) - norm.cdf(-2.0))
        errors = []
        for n in (3, 4, 5, 6):
            cells = 2**n
            dx = 4.0 / cells
            mid = -2.0 + (np.arange(cells) + 0.5) * dx
            errors.append(abs(float(np.sum(norm.pdf(mid)) * dx) - exact))
        for a, b in zip(errors, errors[1:]):
            assert a / b == pytest.approx(4.0, rel=0.3)


class TestRiemannScale:
    def test_pmax_uncorrelated_benchmark(self):
        p = eb.riemann_pmax(3, 5.0)
        assert p == pytest.approx((10.0 / math.sqrt(2 * math.pi)) ** 3)
        assert p == pytest.approx(63.45, rel=0.01)

    def test_pmax_unit_crossing(self):
        assert eb.riemann_pmax(1, math.sqrt(2 * math.pi) / 2.0) == pytest.approx(1.0)

    def test_pmax_correlated_matches_determinant_form(self):
        cov = np.array([[0.04, 0.012], [0.012, 0.09]])
        w, d = 5.0, 2
        sig = np.sqrt(np.diag(cov))
        expected = (
            (2 * w) ** d
            * float(np.prod(sig))
            / ((2 * math.pi) ** (d / 2) * math.sqrt(float(np.linalg.det(cov))))
        )
        assert eb.riemann_pmax(d, w, cov) == pytest.approx(expected)

    def test_pmax_correlated_reduces_to_uncorrelated(self):
        cov = np.diag([0.04, 0.09])
        assert eb.riemann_pmax(2, 5.0, cov) == pytest.approx(eb.riemann_pmax(2, 5.0))


class TestSumError:
    def test_d1_collapses_binomial(self):
        one = eb.riemann_sum_error(FMT, 5.0, 0.09, 1, 1)
        many = eb.riemann_sum_error(FMT, 5.0, 0.09, 1, 26)
        assert many == pytest.approx(26.0 * one)

    def test_term_count(self):
        d = 3
        base = eb.riemann_sum_error(FMT, 5.0, 0.09, 1, 1)
        assert eb.riemann_sum_error(FMT, 5.0, 0.09, d, 1) == pytest.approx(
            (d + math.comb(d, 2)) * base
        )

    @given(
        st.integers(2, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        st.floats(0.5, 8.0),
        st.floats(1e-3, 3.0),
        st.integers(1, 12),
        st.integers(1, 500),
    )
    @settings(max_examples=300, deadline=None)
    def test_direct_evaluation(self, n_p, w, sigma, d, T):
        # The bound is built from eps_mul and eps_add, and gives the bits of
        # the closed form it replaced.
        n, p = n_p
        frac = n - p
        expected = ((2 * w * sigma + n) / 2.0**frac + 4.0**-frac) * (d + math.comb(d, 2)) * T
        fmt = FixedPointFormat(n=n, p=p)
        assert eb.riemann_sum_error(fmt, w, sigma, d, T) == expected


class TestDensityError:
    """The Riemann density bound, composed from the propagation rules."""

    def test_zero_components(self):
        # Only the square root's own roundoff is left.
        roundoff = 2.0 ** (-(FMT.n - FMT.p) / 2.0)
        assert eb.riemann_density_error(0.0, FMT, 0.0, 0.0) == pytest.approx(
            math.asin(0.5) - math.asin(0.5 - roundoff)
        )

    def test_monotone_in_each_component(self):
        base = dict(eps_sum=1e-8, eps_exp0=1e-8, eps_arcsin0=1e-8)
        reference = eb.riemann_density_error(fmt=FMT, **base)
        for key in base:
            bumped = dict(base)
            bumped[key] = 1e-6
            assert eb.riemann_density_error(fmt=FMT, **bumped) > reference

    def test_term_by_term(self):
        eps_sum, eps_exp0, eps_arcsin0 = 1e-6, 1e-7, 1e-7
        inner = 2.0 ** (-(FMT.n - FMT.p) / 2.0) + math.sqrt(eps_exp0 + eps_sum)
        expected = eps_arcsin0 + math.asin(0.5) - math.asin(0.5 - inner)
        assert eb.riemann_density_error(eps_sum, FMT, eps_exp0, eps_arcsin0) == expected

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            eb.riemann_density_error(1.0, FMT, 0.0, 0.0)

    @pytest.mark.parametrize(
        "name, eps_arith",
        [("autocallable", 0.0013144789666599376), ("tarf", 0.0007610952567416284)],
    )
    def test_shipped_configs_pin_eps_arith(self, name, eps_arith):
        # The table1 riemann rows depend on these values bit for bit.
        config = load_benchmark_config(name)
        report = _estimate(config, method="riemann")
        assert report.budget.eps_arith == eps_arith


class TestReparamArith:
    def test_linear_terms(self):
        # 2 w d T eps_dens + eps_f at the benchmark shape.
        assert eb.reparam_arith_error(5.0, 3, 20, 2e-6, 1e-4) == pytest.approx(
            2.0 * 5.0 * 3 * 20 * 2e-6 + 1e-4
        )

    def test_zero_density_error(self):
        assert eb.reparam_arith_error(5.0, 3, 20, 0.0, 1e-4) == pytest.approx(1e-4)

    def test_linear_in_T(self):
        a = eb.reparam_arith_error(5.0, 1, 10, 1e-6, 0.0)
        b = eb.reparam_arith_error(5.0, 1, 20, 1e-6, 0.0)
        assert b == pytest.approx(2.0 * a)


class TestPropagationRules:
    def test_trivial_reductions(self):
        assert eb.eps_mul(1.0, 0.0, 0.0, FMT) == pytest.approx(eb.eps_mul_roundoff(FMT))
        assert eb.eps_sqrt(0.0, FMT) == pytest.approx(2.0 ** (-(FMT.n - FMT.p) / 2.0))
        assert eb.eps_add(FMT) == pytest.approx(2.0 ** -(FMT.n - FMT.p))
        assert eb.eps_exp(1e-6, 1e-7) == pytest.approx(1.1e-6)
        assert eb.eps_arcsin(0.0, 1e-7) == pytest.approx(1e-7)

    def test_arcsin_guard(self):
        with pytest.raises(ValueError):
            eb.eps_arcsin(0.6, 0.0)


def truncate(x, fmt):
    """Fixed-point representation: round toward zero at resolution 2^-(n-p)."""
    scale = 2.0 ** (fmt.n - fmt.p)
    return np.trunc(x * scale) / scale


class TestFixedPointSimulation:
    """Simulated fixed-point evaluation stays within the propagated bounds."""

    N_CASES = 1000

    def test_addition(self):
        fmt = FixedPointFormat(n=16, p=2)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, self.N_CASES)
        y = rng.uniform(-1.0, 1.0, self.N_CASES)
        computed = truncate(truncate(x, fmt) + truncate(y, fmt), fmt)
        input_err = 2.0 * eb.eps_add(fmt)  # both operands carry one ulp
        assert np.max(np.abs(computed - (x + y))) <= input_err + eb.eps_add(fmt)

    def test_multiplication(self):
        fmt = FixedPointFormat(n=16, p=2)
        rng = np.random.default_rng(1)
        b = 1.0
        x = rng.uniform(-b, b, self.N_CASES)
        y = rng.uniform(-b, b, self.N_CASES)
        ulp = eb.eps_add(fmt)
        computed = truncate(truncate(x, fmt) * truncate(y, fmt), fmt)
        bound = eb.eps_mul(b, ulp, ulp, fmt)
        assert np.max(np.abs(computed - x * y)) <= bound

    def test_square_root(self):
        fmt = FixedPointFormat(n=16, p=2)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 2.0, self.N_CASES)
        ulp = eb.eps_add(fmt)
        computed = truncate(np.sqrt(truncate(x, fmt)), fmt)
        bound = eb.eps_sqrt(ulp, fmt) + ulp
        assert np.max(np.abs(computed - np.sqrt(x))) <= bound

    def test_exponential(self):
        fmt = FixedPointFormat(n=16, p=2)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 3.0, self.N_CASES)
        ulp = eb.eps_add(fmt)
        computed = truncate(np.exp(-truncate(x, fmt)), fmt)
        # exp(-x) is 1-Lipschitz on x >= 0; truncation is the poly error here.
        bound = eb.eps_exp(ulp, ulp)
        assert np.max(np.abs(computed - np.exp(-x))) <= bound

    def test_arcsine(self):
        fmt = FixedPointFormat(n=16, p=2)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 0.45, self.N_CASES)
        ulp = eb.eps_add(fmt)
        computed = truncate(np.arcsin(truncate(x, fmt)), fmt)
        bound = eb.eps_arcsin(ulp, ulp)
        assert np.max(np.abs(computed - np.arcsin(x))) <= bound

    def test_composed_pipeline(self):
        # exp then sqrt then arcsin, mirroring the density loading chain.
        fmt = FixedPointFormat(n=20, p=2)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.5, 4.0, self.N_CASES)
        ulp = eb.eps_add(fmt)
        stage1 = truncate(np.exp(-truncate(x, fmt)), fmt)
        stage2 = truncate(np.sqrt(stage1), fmt)
        # Keep the argument inside arcsine's [0, 1/2] slope bound regime.
        stage3 = truncate(np.arcsin(stage2 / 2.0), fmt)
        e1 = eb.eps_exp(ulp, ulp)
        e2 = eb.eps_sqrt(e1, fmt) + ulp
        e3 = eb.eps_arcsin(e2 / 2.0 + ulp, ulp)
        exact = np.arcsin(np.sqrt(np.exp(-x)) / 2.0)
        assert np.max(np.abs(stage3 - exact)) <= e3


class TestBudgets:
    """The per-method budget scale, as ``end_to_end`` builds it."""

    def test_riemann_scale(self, autocall_params, autocall_contract):
        report = end_to_end("riemann", autocall_params, autocall_contract, FMT, 2e-3)
        p_max = eb.riemann_pmax(3, 5.0, build_covariance(autocall_params))
        f_delta = payoff_bounds(autocall_contract, autocall_params.r).f_delta
        budget = report.budget
        assert budget.scale == pytest.approx(p_max**20 * f_delta, rel=1e-12)
        assert budget.eps_total == pytest.approx(budget.scale * budget.components_sum)

    def test_pmax_one_reduces_to_f_delta(self):
        # w = sqrt(2 pi) / 2 makes the one-asset P_max exactly 1, so the
        # normalized Riemann scale P_max^T * f_delta is f_delta alone.
        w = math.sqrt(2.0 * math.pi) / 2.0
        assert eb.riemann_pmax(1, w) == pytest.approx(1.0, rel=1e-15)
        params = GBMParams(
            r=0.0, sigmas=(0.2,), rho=((1.0,),), dt=1.0, n_steps=1, s0=(1.0,)
        )
        spec = AutocallableSpec(
            binaries=((1.1, 1.0, 6.0),), k_put=1.0, barrier=0.7, notional=18.0,
            barrier_dates=(1.0,),
        )
        report = end_to_end("riemann", params, spec, FMT, 0.95, w=w)
        assert report.budget.scale == pytest.approx(24.0, rel=1e-12)

    def test_reparam_total(self, tarf_params, tarf_contract):
        budget = eb.ErrorBudget(1e-4, 1e-5, 1e-3, 1e-3, 24.0)
        assert budget.components_sum == pytest.approx(2.11e-3)
        assert budget.eps_total == pytest.approx(24.0 * 2.11e-3)
        f_delta = payoff_bounds(tarf_contract, tarf_params.r).f_delta
        for method in ("reparam", "riemann-no-norm"):
            report = end_to_end(method, tarf_params, tarf_contract, FMT, 2e-3)
            assert report.budget.scale == f_delta

    def test_all_zero_components(self):
        budget = eb.ErrorBudget(0.0, 0.0, 0.0, 0.0, 24.0)
        assert budget.eps_total == 0.0

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            eb.ErrorBudget(-1e-4, 0.0, 0.0, 0.0, 24.0)
