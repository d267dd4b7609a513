import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from payoff_oracle import autocall_payoff, discount_and_sum, normalize, tarf_payoff
from qdp.contracts import (
    AutocallableSpec,
    EuropeanCallSpec,
    PayoffBounds,
    TARFSpec,
    autocall_payoff_batch,
    contract_from_dict,
    date_columns,
    payoff_bounds,
    tarf_payoff_batch,
)


def assert_payments_equal(result, expected, name):
    assert len(result) == len(expected), name
    for (t_got, f_got), (t_exp, f_exp) in zip(result, expected):
        assert t_got == pytest.approx(t_exp), name
        assert f_got == pytest.approx(f_exp), name


class TestFixtureTraces:
    def test_autocall_traces(self, autocall_fixture):
        spec = contract_from_dict(autocall_fixture["contract"])
        times = autocall_fixture["observation_times"]
        for trace in autocall_fixture["traces"]:
            result = autocall_payoff(times, trace["cum_returns"], spec)
            assert_payments_equal(result, trace["expected"], trace["name"])

    def test_tarf_traces(self, tarf_fixture):
        spec = contract_from_dict(tarf_fixture["contract"])
        for trace in tarf_fixture["traces"]:
            result = tarf_payoff(trace["prices"], spec)
            assert_payments_equal(result, trace["expected"], trace["name"])

    def test_autocall_bounds_at_zero_rate(self, autocall_fixture):
        spec = contract_from_dict(autocall_fixture["contract"])
        bounds = payoff_bounds(spec, r=0.0)
        ref = autocall_fixture["bounds_at_zero_rate"]
        assert bounds.f_min == pytest.approx(ref["f_min"])
        assert bounds.f_max == pytest.approx(ref["f_max"])

    @pytest.mark.parametrize(
        "spec",
        [
            AutocallableSpec(
                binaries=((1.1, 1.0, 2.0),), k_put=10.0, barrier=0.7,
                notional=1e308, barrier_dates=(1.0,),
            ),
            TARFSpec(
                forward=10.0, payment_times=(0.5, 1.0), k_upper=10.0, k_lower=5.0,
                barrier=20.0, alpha=1e308, cap=5.0,
            ),
        ],
        ids=["autocall_notional", "tarf_alpha"],
    )
    def test_overflowing_payoff_range_is_refused(self, spec):
        # Finite term sheets whose loss floor overflows to -inf.
        with pytest.raises(ValueError, match="f_min must be finite, got -inf"):
            payoff_bounds(spec, r=0.0)

    def test_bounds_name_the_non_finite_field(self):
        with pytest.raises(ValueError, match="f_max must be finite, got inf"):
            PayoffBounds(f_min=0.0, f_max=math.inf)
        with pytest.raises(ValueError, match="f_min must be finite, got nan"):
            PayoffBounds(f_min=math.nan, f_max=1.0)

    def test_tarf_cap_dominates_f_max(self, tarf_fixture):
        spec = contract_from_dict(tarf_fixture["contract"])
        bounds = payoff_bounds(spec, r=0.0)
        assert bounds.f_max == pytest.approx(tarf_fixture["bounds_at_zero_rate"]["f_max"])


class TestSpecs:
    def test_autocall_validation(self):
        with pytest.raises(ValueError):
            AutocallableSpec(
                binaries=((1.1, 2.0, 2.0), (1.1, 1.0, 4.0)),
                k_put=1.0, barrier=0.7, notional=18.0, barrier_dates=(1.0,),
            )
        with pytest.raises(ValueError):
            AutocallableSpec(
                binaries=((1.1, 1.0, 2.0),),
                k_put=1.0, barrier=1.2, notional=18.0, barrier_dates=(1.0,),
            )
        with pytest.raises(ValueError, match="binaries must not be empty"):
            AutocallableSpec(
                binaries=(), k_put=1.0, barrier=0.7, notional=18.0, barrier_dates=(1.0,),
            )

    def test_tarf_validation(self):
        with pytest.raises(ValueError):
            TARFSpec(
                forward=20.0, payment_times=(1.0,), k_upper=19.0, k_lower=15.0,
                barrier=30.0, alpha=2.0, cap=5.0,
            )
        with pytest.raises(ValueError):
            TARFSpec(
                forward=20.0, payment_times=(1.0,), k_upper=20.0, k_lower=15.0,
                barrier=20.0, alpha=2.0, cap=5.0,
            )

    def test_contract_dispatch(self, autocall_fixture, tarf_fixture):
        assert isinstance(
            contract_from_dict(autocall_fixture["contract"]), AutocallableSpec
        )
        assert isinstance(contract_from_dict(tarf_fixture["contract"]), TARFSpec)
        with pytest.raises(ValueError):
            contract_from_dict({"type": "swaption"})

    def test_missing_observation_date_rejected(self, autocall_fixture):
        spec = contract_from_dict(autocall_fixture["contract"])
        with pytest.raises(ValueError):
            autocall_payoff([1.0, 2.0], [1.0, 1.0], spec)

    def test_missing_key_names_it(self, autocall_fixture, tarf_fixture):
        for fixture, key in ((autocall_fixture, "k_put"), (tarf_fixture, "cap")):
            doc = dict(fixture["contract"])
            del doc[key]
            with pytest.raises(ValueError, match=key):
                contract_from_dict(doc)


def valid_fields(cls):
    """Keyword arguments of a valid instance of a contract spec class."""
    return {
        AutocallableSpec: dict(
            binaries=((1.1, 1.0, 2.0), (1.1, 2.0, 4.0)),
            k_put=1.0, barrier=0.7, notional=18.0, barrier_dates=(1.0, 2.0),
        ),
        TARFSpec: dict(
            forward=20.0, payment_times=(1.0, 2.0), k_upper=20.0, k_lower=15.0,
            barrier=30.0, alpha=2.0, cap=5.0,
        ),
        EuropeanCallSpec: dict(strike=1.0, expiry=1.0),
    }[cls]


def with_non_finite(fields, name, bad):
    """``fields`` with ``bad`` in place of field ``name``, or of the last
    number of its last entry when the field is a tuple."""
    value = fields[name]
    if isinstance(value, tuple):
        last = value[-1]
        last = last[:-1] + (bad,) if isinstance(last, tuple) else bad
        value = value[:-1] + (last,)
    else:
        value = bad
    return {**fields, name: value}


class TestNonFiniteFields:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cls, name",
        [
            (cls, name)
            for cls in (AutocallableSpec, TARFSpec, EuropeanCallSpec)
            for name in valid_fields(cls)
        ],
    )
    def test_rejected_by_name(self, cls, name, bad):
        fields = valid_fields(cls)
        cls(**fields)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**with_non_finite(fields, name, bad))


class TestDateColumns:
    def test_rounded_grid_times_match(self):
        # 0.05 * arange gives 0.6000000000000001 for the date 0.6.
        times = 0.05 * np.arange(1, 21)
        dates = [0.05 * k for k in range(1, 21)] + [0.6, 0.35, 1.0]
        cols = date_columns(times, [round(t, 2) for t in dates])
        assert cols.tolist() == list(range(20)) + [11, 6, 19]

    def test_missing_date_named(self):
        with pytest.raises(ValueError, match="missing observation date 0.62"):
            date_columns([0.2, 0.4, 0.6], [0.2, 0.62])

    def test_nan_date_is_missing(self):
        with pytest.raises(ValueError, match="missing observation date nan"):
            date_columns([0.5, 1.0], [math.nan])

    def test_batch_width_must_match_dates(self, autocall_fixture, tarf_fixture):
        autocall = contract_from_dict(autocall_fixture["contract"])
        with pytest.raises(ValueError, match="expected 3 observations, got 2"):
            autocall_payoff_batch([1.0, 2.0, 3.0], np.ones((4, 2)), autocall, 0.0)
        tarf = contract_from_dict(tarf_fixture["contract"])
        with pytest.raises(ValueError, match="expected 3 price observations, got 2"):
            tarf_payoff_batch(np.ones((4, 2)), tarf, 0.0)

    def test_scalar_and_batch_agree_on_rounded_times(self):
        spec = AutocallableSpec(
            binaries=((1.1, 0.3, 2.0), (1.1, 0.6, 4.0)),
            k_put=1.0, barrier=0.7, notional=18.0, barrier_dates=(0.3, 0.6),
        )
        times = 0.1 * np.arange(1, 7)  # 0.30000000000000004, ...
        assert times[2] != 0.3
        rng = np.random.default_rng(2)
        paths = np.exp(np.cumsum(rng.normal(0.0, 0.2, (64, 6)), axis=1))
        batch = autocall_payoff_batch(times, paths, spec, 0.02)
        scalar = [discount_and_sum(autocall_payoff(times, p, spec), 0.02) for p in paths]
        assert batch == pytest.approx(scalar, abs=1e-12)


class TestDiscounting:
    def test_zero_rate_plain_sum(self):
        assert discount_and_sum([(1.0, 2.0), (2.0, 3.0)], 0.0) == pytest.approx(5.0)

    def test_half_life_rate(self):
        assert discount_and_sum([(1.0, 100.0)], math.log(2.0)) == pytest.approx(50.0)

    def test_matches_term_by_term(self):
        payoffs = [(0.5, 2.0), (1.5, -3.0), (2.0, 7.0)]
        r = 0.03
        expected = sum(math.exp(-r * t) * f for t, f in payoffs)
        assert discount_and_sum(payoffs, r) == pytest.approx(expected)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            discount_and_sum([(-1.0, 1.0)], 0.0)


class TestNormalization:
    def test_endpoints_and_midpoint(self):
        bounds = PayoffBounds(f_min=-18.0, f_max=6.0)
        assert normalize(-18.0, bounds) == pytest.approx(0.0)
        assert normalize(6.0, bounds) == pytest.approx(1.0)
        assert normalize(-6.0, bounds) == pytest.approx(0.5)

    def test_out_of_range_rejected(self):
        bounds = PayoffBounds(f_min=0.0, f_max=1.0)
        with pytest.raises(ValueError):
            normalize(2.0, bounds)

    @given(st.floats(min_value=-18.0, max_value=6.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, f):
        bounds = PayoffBounds(f_min=-18.0, f_max=6.0)
        assert bounds.f_min + bounds.f_delta * normalize(f, bounds) == pytest.approx(f)


def random_autocall_paths(n, seed):
    rng = np.random.default_rng(seed)
    return np.exp(np.cumsum(rng.normal(0.0, 0.15, size=(n, 3)), axis=1))


class TestAutocallProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_at_most_one_payment(self, seed):
        spec = AutocallableSpec(
            binaries=((1.1, 1.0, 2.0), (1.1, 2.0, 4.0), (1.1, 3.0, 6.0)),
            k_put=1.0, barrier=0.7, notional=18.0, barrier_dates=(1.0, 2.0, 3.0),
        )
        path = random_autocall_paths(1, seed)[0]
        result = autocall_payoff([1.0, 2.0, 3.0], path, spec)
        assert len(result) <= 1
        if result and result[0][1] > 0:
            # A positive payment is one of the declared coupons.
            assert result[0][1] in {2.0, 4.0, 6.0}

    def test_batch_matches_scalar(self, autocall_fixture):
        spec = contract_from_dict(autocall_fixture["contract"])
        times = [1.0, 2.0, 3.0]
        r = 0.02
        paths = random_autocall_paths(500, 7)
        batch = autocall_payoff_batch(times, paths, spec, r)
        for i in range(paths.shape[0]):
            scalar = discount_and_sum(autocall_payoff(times, paths[i], spec), r)
            assert batch[i] == pytest.approx(scalar, abs=1e-12)

    def test_worst_of_basket(self):
        spec = AutocallableSpec(
            binaries=((1.1, 1.0, 2.0),),
            k_put=1.0, barrier=0.7, notional=18.0, barrier_dates=(1.0,),
        )
        # Worst-of uses the minimum across assets: 1.05 < 1.1, no coupon.
        path = np.array([[1.2, 1.05]])
        assert autocall_payoff([1.0], path, spec) == []
        best = AutocallableSpec(
            binaries=((1.1, 1.0, 2.0),),
            k_put=1.0, barrier=0.7, notional=18.0, barrier_dates=(1.0,),
            basket="best_of",
        )
        assert autocall_payoff([1.0], path, best) == [(1.0, 2.0)]


class TestTarfProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_cumulative_gains_capped(self, seed):
        spec = TARFSpec(
            forward=20.0, payment_times=tuple(float(t) for t in range(1, 9)),
            k_upper=20.0, k_lower=15.0, barrier=30.0, alpha=2.0, cap=5.0,
        )
        rng = np.random.default_rng(seed)
        prices = 20.0 * np.exp(rng.normal(0.0, 0.2, size=8))
        payments = tarf_payoff(prices, spec)
        total = sum(f for _, f in payments)
        assert total <= spec.cap + 1e-12
        # After a barrier breach no further dates appear.
        for i, s in enumerate(prices):
            if s >= spec.barrier:
                assert all(t <= spec.payment_times[i] for t, _ in payments)
                break

    def test_batch_matches_scalar(self, tarf_fixture):
        spec = contract_from_dict(tarf_fixture["contract"])
        r = 0.02
        rng = np.random.default_rng(11)
        prices = 20.0 * np.exp(rng.normal(0.0, 0.25, size=(500, 3)))
        batch = tarf_payoff_batch(prices, spec, r)
        for i in range(prices.shape[0]):
            scalar = discount_and_sum(tarf_payoff(prices[i], spec), r)
            assert batch[i] == pytest.approx(scalar, abs=1e-12)

    def test_monotone_on_quiet_subpaths(self, tarf_fixture):
        # Away from barrier and cap, raising a price weakly raises its payoff.
        spec = contract_from_dict(tarf_fixture["contract"])
        base = [18.0, 21.0, 16.0]
        for i in range(3):
            bumped = list(base)
            bumped[i] += 0.5
            f0 = dict(tarf_payoff(base, spec)).get(spec.payment_times[i], 0.0)
            f1 = dict(tarf_payoff(bumped, spec)).get(spec.payment_times[i], 0.0)
            assert f1 >= f0 - 1e-12

    def test_sampled_payoffs_stay_in_bounds(self, tarf_fixture):
        spec = contract_from_dict(tarf_fixture["contract"])
        r = 0.01
        bounds = payoff_bounds(spec, r)
        rng = np.random.default_rng(3)
        prices = 20.0 * np.exp(rng.normal(0.0, 0.3, size=(2000, 3)))
        payoffs = tarf_payoff_batch(prices, spec, r)
        assert np.all(payoffs >= bounds.f_min - 1e-9)
        assert np.all(payoffs <= bounds.f_max + 1e-9)
