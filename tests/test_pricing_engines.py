import copy
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdp.cli_report import load_benchmark_config
from qdp.contracts import (
    AutocallableSpec,
    EuropeanCallSpec,
    TARFSpec,
    autocall_payoff,
    contract_from_dict,
    discount_and_sum,
    payoff_bounds,
    tarf_payoff,
)
from qdp.gaussian_loader import LoaderTarget
from qdp.market_model import GBMParams, GridSpec, lattice
from qdp.pricing_engines import (
    MAX_LATTICE_PATHS,
    _enumerate_lattice,
    black_scholes_call,
    exact_lattice_price,
    mc_price,
    reparam_distribution,
)


def small_params(sigma=0.3, r=0.02, dt=1.0 / 3.0, n_steps=3, s0=1.0):
    return GBMParams(
        r=r, sigmas=(sigma,), rho=((1.0,),), dt=dt, n_steps=n_steps, s0=(s0,)
    )


def small_autocall():
    return AutocallableSpec(
        binaries=((1.1, 1.0 / 3.0, 2.0), (1.1, 2.0 / 3.0, 4.0), (1.1, 1.0, 6.0)),
        k_put=1.0,
        barrier=0.7,
        notional=18.0,
        barrier_dates=(1.0 / 3.0, 2.0 / 3.0, 1.0),
    )


def fixture_tarf(tarf_fixture, n_dates=3):
    """The fixture TARF paying on the first ``n_dates`` steps of dt = 1/3."""
    doc = dict(tarf_fixture["contract"])
    doc["payment_times"] = [k / 3.0 for k in range(1, n_dates + 1)]
    return contract_from_dict(doc)


def brute_force_lattice_price(params, contract, grid):
    """Independent enumerator: per-path pmf products and scalar payoffs.

    Returns (price, total mass) of a one-asset autocallable or TARF.
    """
    lat = lattice(grid, params)
    coords = lat.coords[0]
    pmf = np.asarray(lat.step_pmf)
    times = params.dt * np.arange(1, params.n_steps + 1)
    price = mass = 0.0
    for combo in itertools.product(range(len(coords)), repeat=params.n_steps):
        prob = 1.0
        for i in combo:
            prob *= pmf[i]
        cum = np.exp(np.cumsum(coords[list(combo)]))
        if isinstance(contract, TARFSpec):
            payments = tarf_payoff(params.s0[0] * cum, contract)
        else:
            payments = autocall_payoff(times, cum, contract)
        price += prob * discount_and_sum(payments, params.r)
        mass += prob
    return price, mass


class TestMonteCarlo:
    def test_reproducible_across_runs(self):
        params = small_params()
        contract = small_autocall()
        a = mc_price(params, contract, 10_000, seed=42)
        b = mc_price(params, contract, 10_000, seed=42)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_seed_changes_estimate(self):
        params = small_params()
        contract = small_autocall()
        a = mc_price(params, contract, 10_000, seed=1)
        b = mc_price(params, contract, 10_000, seed=2)
        assert a.estimate != b.estimate

    def test_zero_volatility_limit(self):
        params = small_params(sigma=1e-8, r=0.0, dt=1.0, n_steps=1)
        contract = EuropeanCallSpec(strike=0.9, expiry=1.0)
        result = mc_price(params, contract, 1000, seed=0)
        assert result.estimate == pytest.approx(0.1, abs=1e-6)
        assert result.stderr <= 1e-6

    def test_european_matches_black_scholes(self):
        params = small_params(sigma=0.25, r=0.03, dt=0.25, n_steps=4, s0=1.0)
        contract = EuropeanCallSpec(strike=1.05, expiry=1.0)
        result = mc_price(params, contract, 200_000, seed=0)
        ref = black_scholes_call(1.0, 1.05, 0.03, 0.25, 1.0)
        assert abs(result.estimate - ref) <= 3.0 * result.stderr

    def test_stderr_scaling(self):
        params = small_params()
        contract = small_autocall()
        small = mc_price(params, contract, 20_000, seed=0)
        large = mc_price(params, contract, 80_000, seed=0)
        # Quadrupling the paths halves the standard error within 20%.
        assert large.stderr == pytest.approx(small.stderr / 2.0, rel=0.2)

    def test_path_count_guard(self):
        with pytest.raises(ValueError):
            mc_price(small_params(), small_autocall(), 1)

    def test_path_count_must_be_an_integer(self, tarf_fixture):
        params = small_params(sigma=0.4, r=0.01, s0=20.0)
        contract = fixture_tarf(tarf_fixture)
        for bad in (5000.0, 5000.5, "5000", True):
            with pytest.raises(ValueError, match="n_paths"):
                mc_price(params, contract, bad)
        reference = mc_price(params, contract, 5000)
        for n in (np.int64(5000), np.int32(5000), np.uint16(5000)):
            result = mc_price(params, contract, n)
            assert (result.estimate, result.stderr) == (reference.estimate, reference.stderr)
            assert type(result.n_paths) is int


class TestExactLattice:
    def test_matches_independent_enumerator(self):
        params = small_params()
        contract = small_autocall()
        grid = GridSpec(n=3, w=5.0)
        result = exact_lattice_price(params, contract, grid)
        reference, _ = brute_force_lattice_price(params, contract, grid)
        assert result.price == pytest.approx(reference, abs=1e-12)

    def test_price_recomposes_from_normalized_expectation(self):
        params = small_params()
        contract = small_autocall()
        result = exact_lattice_price(params, contract, GridSpec(n=3, w=5.0))
        bounds = payoff_bounds(contract, params.r)
        recomposed = bounds.f_delta * result.a_hat + bounds.f_min * result.total_mass
        assert result.price == pytest.approx(recomposed, abs=1e-12)

    def test_total_mass_within_truncation_bounds(self):
        params = small_params()
        contract = small_autocall()
        for w in (3.0, 5.0):
            result = exact_lattice_price(params, contract, GridSpec(n=5, w=w))
            d_t = params.n_steps
            lower = (1.0 - 2.0 * math.exp(-0.5 * w * w)) ** d_t
            assert lower <= result.total_mass <= 1.0 + 1e-12

    def test_mc_agrees_with_lattice(self):
        params = small_params()
        contract = small_autocall()
        exact = exact_lattice_price(params, contract, GridSpec(n=6, w=5.0))
        mc = mc_price(params, contract, 200_000, seed=3)
        # Allow the truncation/discretization gap on top of sampling noise.
        allowance = 0.02
        assert abs(mc.estimate - exact.price) <= 3.0 * mc.stderr + allowance

    def test_size_guard(self, tarf_fixture):
        # The TARF is enumerated and keeps the path cap; the autocallable is
        # priced by induction, whose work is polynomial in T.
        grid = GridSpec(n=3, w=5.0)
        params = small_params(sigma=0.4, r=0.01, n_steps=10, s0=20.0)
        with pytest.raises(ValueError, match="2\\^26") as excinfo:
            exact_lattice_price(params, fixture_tarf(tarf_fixture, 10), grid)
        for part in ("n=3", "d=1", "T=10"):
            assert part in str(excinfo.value)
        assert MAX_LATTICE_PATHS == 2**26
        result = exact_lattice_price(small_params(n_steps=10), small_autocall(), grid)
        assert result.n_lattice_paths == 8**10
        bounds = payoff_bounds(small_autocall(), 0.02)
        assert bounds.f_min <= result.price <= bounds.f_max

    def test_chunking_does_not_change_result(self, tarf_fixture):
        params = small_params(sigma=0.4, r=0.01, s0=20.0)
        contract = fixture_tarf(tarf_fixture)
        grid = GridSpec(n=3, w=5.0)
        a = exact_lattice_price(params, contract, grid, chunk_size=64)
        b = exact_lattice_price(params, contract, grid, chunk_size=1 << 16)
        assert a.price == pytest.approx(b.price, abs=1e-15)

    # Chunks of 100 or 7 paths cut through the 64-path two-step subtrees of
    # the 8-cell lattice, and 5 is fewer than one step's cells.  Only the
    # summation order changes, by a few ulps.
    @pytest.mark.parametrize("chunk_size", [100, 7, 5])
    def test_chunks_that_split_subtrees(self, tarf_fixture, chunk_size):
        params = small_params(sigma=0.4, r=0.01, s0=20.0)
        contract = fixture_tarf(tarf_fixture)
        grid = GridSpec(n=3, w=5.0)
        a = exact_lattice_price(params, contract, grid, chunk_size=chunk_size)
        b = exact_lattice_price(params, contract, grid, chunk_size=1 << 16)
        assert a.price == pytest.approx(b.price, rel=1e-14)
        assert a.total_mass == pytest.approx(b.total_mass, rel=1e-14)

    @pytest.mark.parametrize("n_steps, n", [(1, 3), (2, 2), (3, 3), (4, 1), (4, 3)])
    def test_tarf_matches_independent_enumerator(self, tarf_fixture, n_steps, n):
        # At sigma 0.6 the 8-cell lattice reaches the knock-out barrier, the
        # loss band and the cap.
        params = small_params(sigma=0.6, r=0.03, n_steps=n_steps, s0=20.0)
        contract = fixture_tarf(tarf_fixture, n_steps)
        grid = GridSpec(n=n, w=3.0)
        exact = exact_lattice_price(params, contract, grid)
        price, mass = brute_force_lattice_price(params, contract, grid)
        assert abs(exact.price - price) <= 1e-12
        assert abs(exact.total_mass - mass) <= 1e-12

    def test_tarf_fixture_prices(self, tarf_fixture):
        contract = fixture_tarf(tarf_fixture)
        params = small_params(sigma=0.4, r=0.01, dt=1.0 / 3.0, n_steps=3, s0=20.0)
        exact = exact_lattice_price(params, contract, GridSpec(n=6, w=5.0))
        mc = mc_price(params, contract, 200_000, seed=5)
        assert abs(mc.estimate - exact.price) <= 3.0 * mc.stderr + 0.05

    def test_tarf_misaligned_payment_date_rejected(self, tarf_fixture):
        doc = dict(tarf_fixture["contract"])
        doc["payment_times"] = [1.0 / 3.0, 0.7, 1.0]
        contract = contract_from_dict(doc)
        params = small_params(sigma=0.4, r=0.01, dt=1.0 / 3.0, n_steps=3, s0=20.0)
        with pytest.raises(ValueError, match="0.7"):
            mc_price(params, contract, 100, seed=0)
        with pytest.raises(ValueError, match="0.7"):
            exact_lattice_price(params, contract, GridSpec(n=2, w=5.0))


@st.composite
def induction_instances(draw):
    """Small (params, contract, grid) with at most 2^12 lattice paths.

    Autocallables over d in {1, 2, 3} with random binary and barrier date
    subsets (so the horizon may fall before step T), either basket, and
    European calls at d = 1.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3 if d == 1 else 2))
    T = draw(st.integers(1, min(4, 12 // (n * d))))
    corr = draw(st.floats(-0.3, 0.6))
    params = GBMParams(
        r=draw(st.floats(0.0, 0.05)),
        sigmas=tuple(draw(st.lists(st.floats(0.1, 0.5), min_size=d, max_size=d))),
        rho=tuple(tuple(1.0 if i == j else corr for j in range(d)) for i in range(d)),
        dt=draw(st.sampled_from([0.25, 1.0 / 3.0, 0.5])),
        n_steps=T,
        s0=(1.0,) * d,
    )
    grid = GridSpec(n=n, w=draw(st.floats(2.0, 5.0)))
    if d == 1 and draw(st.booleans()):
        call = EuropeanCallSpec(strike=draw(st.floats(0.7, 1.4)), expiry=params.horizon)
        return params, call, grid
    times = [float(t) for t in params.dt * np.arange(1, T + 1)]
    steps = st.sets(st.integers(0, T - 1), min_size=1)
    k_put = draw(st.floats(0.8, 1.2))
    contract = AutocallableSpec(
        binaries=tuple(
            (draw(st.floats(0.9, 1.3)), times[k], draw(st.floats(0.0, 10.0)))
            for k in sorted(draw(steps))
        ),
        k_put=k_put,
        barrier=k_put * draw(st.floats(0.5, 1.0)),
        notional=draw(st.floats(0.5, 20.0)),
        barrier_dates=tuple(times[k] for k in sorted(draw(steps))),
        basket=draw(st.sampled_from(["worst_of", "best_of"])),
    )
    return params, contract, grid


@given(induction_instances())
@settings(max_examples=60, deadline=None)
def test_induction_matches_enumeration(instance):
    params, contract, grid = instance
    exact = exact_lattice_price(params, contract, grid)
    price, total_mass = _enumerate_lattice(params, contract, grid)
    assert abs(exact.price - price) <= 1e-12
    assert abs(exact.total_mass - total_mass) <= 1e-12
    if params.d == 1 and isinstance(contract, AutocallableSpec):
        reference, _ = brute_force_lattice_price(params, contract, grid)
        assert abs(exact.price - reference) <= 1e-12


class TestGoldenPrices:
    """Seeded MC estimates and an exact TARF price, pinned as float.hex."""

    GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "seeded_prices.json").read_text("utf-8")
    )

    @staticmethod
    def build(case):
        if "config" in case:
            cfg = load_benchmark_config(case["config"])
            model, contract = cfg["model"], copy.deepcopy(cfg["contract"])
            contract.update(case.get("contract_overrides", {}))
        else:
            model, contract = case["model"], case["contract"]
        return GBMParams.from_dict(model), contract_from_dict(contract)

    @pytest.mark.parametrize(
        "case", GOLDEN["mc"]["cases"], ids=lambda case: case["name"]
    )
    def test_mc_estimates(self, case):
        params, contract = self.build(case)
        mc = self.GOLDEN["mc"]
        result = mc_price(params, contract, mc["paths"], seed=mc["seed"])
        assert result.estimate.hex() == case["estimate"]
        assert result.stderr.hex() == case["stderr"]

    def test_exact_tarf(self):
        case = self.GOLDEN["exact_tarf"]
        params, contract = self.build(case)
        result = exact_lattice_price(params, contract, GridSpec(**case["grid"]))
        assert result.price.hex() == case["price"]
        assert result.total_mass.hex() == case["total_mass"]


class TestReparamDistribution:
    @pytest.mark.parametrize("n, w", [(2, 4.0), (3, 5.0), (5, 5.0), (6, 3.0)])
    def test_d1_loader_reparam_and_lattice_share_one_grid(self, n, w):
        # The loader is trained on the cells the reparam pricer reads, and
        # for one asset the affine map carries them onto the pricing lattice.
        params = small_params(sigma=0.4, dt=0.25)
        loader = LoaderTarget(n, w).masses
        reparam = reparam_distribution(GridSpec(n, w), params).std_pmf
        lat = lattice(GridSpec(n, w), params).step_pmf
        assert np.array_equal(loader, reparam)
        assert np.max(np.abs(lat - reparam)) <= 1e-12

    def test_independent_joint_is_outer_product(self):
        params = GBMParams(
            r=0.0, sigmas=(0.2, 0.3), rho=((1.0, 0.0), (0.0, 1.0)),
            dt=1.0, n_steps=1, s0=(1.0, 1.0),
        )
        # Independent registers load the product law, which is the pricing
        # lattice's joint pmf on the per-asset boxes.
        rp = reparam_distribution(GridSpec(n=4, w=5.0), params)
        joint = lattice(GridSpec(n=4, w=5.0), params).step_pmf
        outer = np.multiply.outer(rp.std_pmf, rp.std_pmf)
        assert np.max(np.abs(joint - outer)) <= 1e-15

    def test_sampled_correlation(self):
        rho = 0.6
        params = GBMParams(
            r=0.0, sigmas=(0.2, 0.3), rho=((1.0, rho), (rho, 1.0)),
            dt=1.0, n_steps=1, s0=(1.0, 1.0),
        )
        rp = reparam_distribution(GridSpec(n=6, w=5.0), params)
        samples = rp.sample_returns(200_000, seed=0)
        corr = np.corrcoef(samples.T)[0, 1]
        assert corr == pytest.approx(rho, abs=3.0 / math.sqrt(200_000) + 0.01)

    def test_transformed_coords_cover_affine_map(self):
        params = GBMParams(
            r=0.0, sigmas=(0.2, 0.3), rho=((1.0, 0.5), (0.5, 1.0)),
            dt=1.0, n_steps=1, s0=(1.0, 1.0),
        )
        rp = reparam_distribution(GridSpec(n=3, w=5.0), params)
        returns = rp.sample_returns(500, seed=0)
        assert returns.shape == (500, 2)
        # Every sample is mu + L z for a z on the standard register grid.
        z = np.linalg.solve(rp.chol, (returns - rp.mu).T).T
        nearest = np.abs(z[..., None] - rp.std_coords).min(axis=-1)
        assert np.max(nearest) <= 1e-12


def test_black_scholes_zero_expiry_intrinsic():
    assert black_scholes_call(1.2, 1.0, 0.05, 0.2, 0.0) == pytest.approx(0.2)
