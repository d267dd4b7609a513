import copy
import dataclasses
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import qdp.pricing_engines as pe
from payoff_oracle import brute_force_lattice_price
from qdp.cli_report import load_benchmark_config
from qdp.contracts import (
    AutocallableSpec,
    EuropeanCallSpec,
    TARFSpec,
    _fold_paths,
    _payoff_fold,
    autocall_payoff_batch,
    contract_from_dict,
    payoff_bounds,
    tarf_payoff_batch,
)
from qdp.market_model import (
    GBMParams,
    GridSpec,
    build_covariance,
    cholesky_factor,
    lattice,
)
from qdp.pricing_engines import (
    MAX_LATTICE_PATHS,
    _chunk_normals,
    _enumerate_lattice,
    black_scholes_call,
    exact_lattice_price,
    mc_price,
)


def fold_returns(params, contract, returns):
    """Discounted payoffs of log-return paths (batch, T, d) under the contract's fold."""
    times = params.dt * np.arange(1, params.n_steps + 1)
    fold = _payoff_fold(times, contract, params.r, params.s0)
    return _fold_paths(fold, np.exp(np.cumsum(returns, axis=1)))


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

    def test_seed_must_be_an_integer(self, tarf_fixture):
        # int() would truncate seed=1.9 to seed 1's stream while the result
        # reported seed 1.9.
        params = small_params(sigma=0.4, r=0.01, s0=20.0)
        contract = fixture_tarf(tarf_fixture)
        for bad in (1.9, 1.0, True, "1", None):
            with pytest.raises(ValueError, match="seed"):
                mc_price(params, contract, 100, seed=bad)
        reference = mc_price(params, contract, 100, seed=1)
        result = mc_price(params, contract, 100, seed=np.int64(1))
        assert (result.estimate, result.stderr) == (reference.estimate, reference.stderr)
        assert type(result.seed) is int


def serial_mc_reference(params, contract, n_paths, seed):
    """The single-threaded loop ``mc_price`` replaced: per chunk, returns
    ``mu + z @ L.T`` and out-of-place payoffs; chunk sums added in order.
    The batch payoffs run the engine's own fold, so this checks chunking
    and threading; ``test_batch_matches_scalar`` checks the payoff.

    Returns (estimate, stderr).
    """
    T = params.n_steps
    times = params.dt * np.arange(1, T + 1)
    mu = params.step_means()
    L = cholesky_factor(build_covariance(params))
    total = total_sq = 0.0
    for c in range(math.ceil(n_paths / pe._CHUNK_PATHS)):
        m = min(pe._CHUNK_PATHS, n_paths - c * pe._CHUNK_PATHS)
        returns = mu + _chunk_normals(seed, c, (m, T, params.d)) @ L.T
        if isinstance(contract, AutocallableSpec):
            cum = np.exp(np.cumsum(returns, axis=1))
            payoffs = autocall_payoff_batch(times, cum, contract, params.r)
        else:
            prices = params.s0[0] * np.exp(np.cumsum(returns[:, :, 0], axis=1))
            payoffs = tarf_payoff_batch(prices, contract, params.r)
        total += float(np.sum(payoffs))
        total_sq += float(np.sum(payoffs * payoffs))
    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0) * n_paths / (n_paths - 1)
    return mean, math.sqrt(var / n_paths)


def correlated_d2_model():
    return GBMParams(
        r=0.01, sigmas=(0.2, 0.35), rho=((1.0, 0.4), (0.4, 1.0)),
        dt=0.25, n_steps=4, s0=(1.0, 1.0),
    )


def correlated_d2_autocall():
    times = (0.25, 0.5, 0.75, 1.0)
    return AutocallableSpec(
        binaries=tuple((1.05, t, 0.05 * (k + 1)) for k, t in enumerate(times)),
        k_put=1.0,
        barrier=0.75,
        notional=1.0,
        barrier_dates=times,
    )


def set_cpus(monkeypatch, cpus):
    """Make ``mc_price`` see ``cpus`` CPUs, whatever the machine has."""
    monkeypatch.setattr(pe.os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestThreadedChunks:
    """``mc_price`` splits chunks over threads and still gives the serial bits."""

    # Four full chunks and a short fifth one.
    N_PATHS = 4 * 4096 + 100

    @pytest.fixture(
        params=["shipped-autocallable", "shipped-tarf", "correlated-d2-autocallable"]
    )
    def case(self, request, autocall_params, autocall_contract, tarf_params, tarf_contract):
        return {
            "shipped-autocallable": (autocall_params, autocall_contract),
            "shipped-tarf": (tarf_params, tarf_contract),
            "correlated-d2-autocallable": (correlated_d2_model(), correlated_d2_autocall()),
        }[request.param]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_bit_identical_to_serial_loop(self, monkeypatch, case, cpus):
        params, contract = case
        set_cpus(monkeypatch, cpus)
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        before = threading.active_count()
        switch = sys.getswitchinterval()
        # Frequent thread switches interleave the chunks as much as possible.
        sys.setswitchinterval(1e-6)
        try:
            result = mc_price(params, contract, self.N_PATHS, seed=11)
        finally:
            sys.setswitchinterval(switch)
        # The pool starts a worker per chunk it queues while none is idle,
        # up to min(CPUs, chunks), and joins them all before return.
        assert 1 <= len(started) <= min(cpus, math.ceil(self.N_PATHS / 4096))
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in started)
        estimate, stderr = serial_mc_reference(params, contract, self.N_PATHS, seed=11)
        assert result.estimate.hex() == estimate.hex()
        assert result.stderr.hex() == stderr.hex()

    def test_worker_exception_reaches_caller(self, monkeypatch, tarf_params, tarf_contract):
        set_cpus(monkeypatch, 2)
        failed_on = []
        real = pe._chunk_normals

        class ChunkFailure(Exception):
            pass

        def normals(seed, chunk_index, shape):
            if chunk_index == 2:
                failed_on.append(threading.current_thread())
                raise ChunkFailure("worker chunk")
            return real(seed, chunk_index, shape)

        monkeypatch.setattr(pe, "_chunk_normals", normals)
        before = threading.active_count()
        with pytest.raises(ChunkFailure, match="worker chunk"):
            mc_price(tarf_params, tarf_contract, 8 * 4096, seed=0)
        assert len(failed_on) == 1
        assert failed_on[0] is not threading.main_thread()
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_lowest_failing_chunk_is_raised(self, monkeypatch, tarf_params, tarf_contract, cpus):
        set_cpus(monkeypatch, cpus)
        real = pe._chunk_normals
        chunk_5_failed = threading.Event()

        def normals(seed, chunk_index, shape):
            if chunk_index == 5:
                chunk_5_failed.set()
                raise ValueError("chunk 5")
            if chunk_index == 3:
                if cpus > 1:
                    # Let another thread fail on chunk 5 first.
                    chunk_5_failed.wait(timeout=30)
                raise ValueError("chunk 3")
            return real(seed, chunk_index, shape)

        monkeypatch.setattr(pe, "_chunk_normals", normals)
        before = threading.active_count()
        with pytest.raises(ValueError, match="chunk 3"):
            mc_price(tarf_params, tarf_contract, 8 * 4096, seed=0)
        assert threading.active_count() == before


class TestChunkWindows:
    """``mc_price`` hands the pool a bounded window of chunks at a time."""

    @staticmethod
    def peak_bytes(n_chunks):
        params = GBMParams(r=0.01, sigmas=(0.2,), rho=((1.0,),), dt=1.0, n_steps=1, s0=(1.0,))
        call = EuropeanCallSpec(strike=1.0, expiry=1.0)
        tracemalloc.start()
        try:
            mc_price(params, call, 2 * n_chunks, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_queued_chunks_stay_bounded(self, monkeypatch):
        # Two-path chunks make the queue, not the paths, the memory.  One
        # map over every chunk holds a future per chunk, about 1.8 KB
        # each, so its peak grows about 4x from 500 to 2000 chunks.
        monkeypatch.setattr(pe, "_CHUNK_PATHS", 2)
        set_cpus(monkeypatch, 2)
        small, large = self.peak_bytes(500), self.peak_bytes(2000)
        assert large < 2 * small

    def test_windows_keep_serial_bits(self, monkeypatch, tarf_params, tarf_contract):
        # 151 chunks: two full windows and a partial third.
        monkeypatch.setattr(pe, "_CHUNK_PATHS", 64)
        set_cpus(monkeypatch, 2)
        n_paths = 150 * 64 + 7
        assert math.ceil(n_paths / 64) > 2 * pe._WINDOW_CHUNKS
        result = mc_price(tarf_params, tarf_contract, n_paths, seed=5)
        estimate, stderr = serial_mc_reference(tarf_params, tarf_contract, n_paths, seed=5)
        assert result.estimate.hex() == estimate.hex()
        assert result.stderr.hex() == stderr.hex()


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

    def test_size_guard_precedes_the_lattice(self, tarf_fixture):
        # One register of 2^40 cells would take terabytes; the path cap
        # refuses the TARF before any cell is built.
        params = small_params(sigma=0.4, r=0.01, n_steps=2, s0=20.0)
        contract = fixture_tarf(tarf_fixture, 2)
        with pytest.raises(ValueError, match="2\\^26") as excinfo:
            exact_lattice_price(params, contract, GridSpec(n=40, w=5.0))
        for part in ("n=40", "d=1", "T=2"):
            assert part in str(excinfo.value)

    def test_shipped_autocallable_at_its_grid_is_refused(self):
        # The d=3, T=20 benchmark autocallable at n=5 is past the induction
        # work guard; the message names the grid and model sizes.
        cfg = load_benchmark_config("autocallable")
        params = GBMParams.from_dict(cfg["model"])
        contract = contract_from_dict(cfg["contract"])
        with pytest.raises(ValueError, match="2\\^32") as excinfo:
            exact_lattice_price(params, contract, GridSpec(**cfg["grid"]))
        for part in ("n=5", "d=3", "T=20"):
            assert part in str(excinfo.value)

    def test_chunking_does_not_change_result(self, tarf_fixture):
        params = small_params(sigma=0.4, r=0.01, s0=20.0)
        contract = fixture_tarf(tarf_fixture)
        grid = GridSpec(n=3, w=5.0)
        a, _ = _enumerate_lattice(params, contract, grid, chunk_size=64)
        b, _ = _enumerate_lattice(params, contract, grid, chunk_size=1 << 16)
        assert a == pytest.approx(b, rel=1e-14)

    # Chunks of 100 paths take blocks of 12 prefixes, which cut through the
    # 8-prefix groups of one parent, and chunks of 7 or 5, fewer than one
    # step's 8 cells, take one prefix per block.  Only the summation order
    # changes, by a few ulps.
    @pytest.mark.parametrize("chunk_size", [100, 7, 5, pe._BLOCK])
    def test_chunks_that_split_subtrees(self, tarf_fixture, chunk_size):
        params = small_params(sigma=0.4, r=0.01, s0=20.0)
        contract = fixture_tarf(tarf_fixture)
        grid = GridSpec(n=3, w=5.0)
        a_price, a_mass = _enumerate_lattice(params, contract, grid, chunk_size=chunk_size)
        b_price, b_mass = _enumerate_lattice(params, contract, grid, chunk_size=1 << 16)
        assert a_price == pytest.approx(b_price, rel=1e-14)
        assert a_mass == pytest.approx(b_mass, rel=1e-14)

    # Prefixes whose payoff is final retire before step T and stand for
    # their whole subtree, mass times m^(T-1-t).  On w = 2.5 one step keeps
    # m = 0.988 of the mass, so a retired prefix that dropped that factor
    # would move the price and the mass far past 1e-12.
    def test_autocallable_paid_at_step_one_retires(self):
        params = small_params(n_steps=4, dt=0.25)
        contract = AutocallableSpec(
            binaries=((0.9, 0.25, 2.0), (1.1, 0.5, 4.0), (1.1, 1.0, 6.0)),
            k_put=1.0,
            barrier=0.8,
            notional=18.0,
            barrier_dates=(0.5, 0.75, 1.0),
        )
        grid = GridSpec(n=3, w=2.5)
        law = lattice(grid, params)
        paid = np.exp(law.mu[0] + law.chol[0, 0] * law.coords) >= 0.9
        assert law.masses[paid].sum() > 0.5 * law.masses.sum()
        price, mass = _enumerate_lattice(params, contract, grid)
        ref_price, ref_mass = brute_force_lattice_price(params, contract, grid)
        assert abs(price - ref_price) <= 1e-12
        assert abs(mass - ref_mass) <= 1e-12
        exact = exact_lattice_price(params, contract, grid)
        assert abs(price - exact.price) <= 1e-12
        assert abs(mass - exact.total_mass) <= 1e-12

    def test_tarf_capped_at_step_one_retires(self, tarf_fixture):
        # A cap of 1 binds once the first price reaches 21, below the
        # barrier at 30: on 4 of the 8 first-step cells.
        params = small_params(sigma=0.3, r=0.03, n_steps=4, s0=20.0)
        contract = dataclasses.replace(fixture_tarf(tarf_fixture, 4), cap=1.0)
        grid = GridSpec(n=3, w=2.5)
        law = lattice(grid, params)
        first = 20.0 * np.exp(law.mu[0] + law.chol[0, 0] * law.coords)
        assert np.sum((first >= 21.0) & (first < 30.0)) == 4
        price, mass = _enumerate_lattice(params, contract, grid)
        ref_price, ref_mass = brute_force_lattice_price(params, contract, grid)
        assert abs(price - ref_price) <= 1e-12
        assert abs(mass - ref_mass) <= 1e-12

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

    @pytest.mark.parametrize("expiry", [5.0, 1.5, 2.0 + 1e-8])
    def test_call_expiry_off_the_horizon_rejected(self, expiry):
        # T=2, dt=1: paths end at 2, so another expiry would be priced at 2
        # and discounted at the expiry.
        params = small_params(dt=1.0, n_steps=2)
        contract = EuropeanCallSpec(strike=1.0, expiry=expiry)
        message = re.escape(f"call expiry {expiry} is not the model horizon dt * T = 2.0")
        with pytest.raises(ValueError, match=message):
            mc_price(params, contract, 100, seed=0)
        with pytest.raises(ValueError, match=message):
            exact_lattice_price(params, contract, GridSpec(n=2, w=5.0))

    def test_call_expiry_within_date_tolerance_prices(self):
        params = small_params(dt=0.1, n_steps=3)
        assert params.horizon != 0.3
        contract = EuropeanCallSpec(strike=1.0, expiry=0.3)
        assert mc_price(params, contract, 100, seed=0).estimate > 0
        assert exact_lattice_price(params, contract, GridSpec(n=2, w=5.0)).price > 0


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


def assert_induction_matches(params, contract, grid):
    """Induction against the enumerator, and at d = 1 the brute enumerator,
    to 1e-12; returns the induction's price."""
    exact = exact_lattice_price(params, contract, grid)
    price, total_mass = _enumerate_lattice(params, contract, grid)
    assert abs(exact.price - price) <= 1e-12
    assert abs(exact.total_mass - total_mass) <= 1e-12
    if params.d == 1 and isinstance(contract, AutocallableSpec):
        reference, _ = brute_force_lattice_price(params, contract, grid)
        assert abs(exact.price - reference) <= 1e-12
    return exact.price


@given(induction_instances())
@settings(max_examples=60, deadline=None)
def test_induction_matches_enumeration(instance):
    assert_induction_matches(*instance)


def horizon_returns(params, grid):
    """Every cumulative return a one-asset lattice reaches at step T."""
    law = lattice(grid, params)
    T, cells = params.n_steps, len(law.coords)
    dz = (law.coords[-1] - law.coords[0]) / (cells - 1)
    index = T * law.coords[0] + np.arange(T * (cells - 1) + 1) * dz
    return np.exp(T * law.mu[0] + law.chol[0, 0] * index)


class TestInductionDates:
    """Dates on which the induction's per-row payoff sum must get one rule right."""

    def test_first_knock_in_on_the_horizon_settles_the_put(self):
        # The horizon is the only barrier date and every coupon is zero, so
        # the whole price is the put, settled by mass that row 0 knocks in
        # on the horizon step itself.
        params = small_params()
        contract = dataclasses.replace(
            small_autocall(),
            binaries=tuple((K, t, 0.0) for K, t, _ in small_autocall().binaries),
            barrier_dates=(1.0,),
        )
        price = assert_induction_matches(params, contract, GridSpec(n=3, w=4.0))
        assert price < -1e-3

    def test_coupon_and_put_share_the_horizon(self):
        # The horizon coupon's strike is below k_put and the barrier is
        # k_put, so mass ending in [0.85, 1) is knocked in and paid at once:
        # it takes the coupon and must not settle the put too.
        params = small_params()
        contract = AutocallableSpec(
            binaries=((1.2, 1.0 / 3.0, 2.0), (0.85, 1.0, 6.0)),
            k_put=1.0,
            barrier=1.0,
            notional=18.0,
            barrier_dates=(1.0 / 3.0, 2.0 / 3.0, 1.0),
        )
        grid = GridSpec(n=3, w=4.0)
        final = horizon_returns(params, grid)
        assert np.any((final >= 0.85) & (final < 1.0))
        assert_induction_matches(params, contract, grid)

    def test_best_of_basket_d2(self):
        params = GBMParams(
            r=0.02, sigmas=(0.2, 0.35), rho=((1.0, 0.4), (0.4, 1.0)),
            dt=1.0 / 3.0, n_steps=3, s0=(1.0, 1.0),
        )
        worst = AutocallableSpec(
            binaries=((1.05, 1.0 / 3.0, 1.0), (1.05, 2.0 / 3.0, 2.0), (1.05, 1.0, 3.0)),
            k_put=1.0,
            barrier=0.8,
            notional=5.0,
            barrier_dates=(1.0 / 3.0, 2.0 / 3.0, 1.0),
        )
        best = dataclasses.replace(worst, basket="best_of")
        grid = GridSpec(n=2, w=4.0)
        assert assert_induction_matches(params, best, grid) > (
            assert_induction_matches(params, worst, grid) + 0.1
        )


def dated_tarf(T):
    """A one-asset model of T steps of dt = 1/T and a TARF paying on each."""
    params = GBMParams(
        r=0.01, sigmas=(0.4,), rho=((1.0,),), dt=1.0 / T, n_steps=T, s0=(20.0,)
    )
    contract = TARFSpec(
        forward=20.0, payment_times=tuple(k / T for k in range(1, T + 1)),
        k_upper=21.0, k_lower=18.0, barrier=26.0, alpha=2.0, cap=4.0,
    )
    return params, contract


class TestEnumerationAccuracy:
    """The enumerator against exact rationals, within 4 eps relative."""

    REL = 4 * Fraction(2) ** -52

    @pytest.mark.parametrize("n, T", [(1, 16), (1, 24), (2, 12), (3, 8)])
    def test_total_mass(self, n, T):
        params, contract = dated_tarf(T)
        grid = GridSpec(n=n, w=4.0)
        _, mass = _enumerate_lattice(params, contract, grid)
        exact = sum(map(Fraction, lattice(grid, params).masses)) ** T
        assert abs(Fraction(mass) - exact) <= self.REL * exact

    def test_price(self):
        # Each path's exact-rational mass times the fold's float payoff.
        T = 12
        params, contract = dated_tarf(T)
        grid = GridSpec(n=1, w=4.0)
        law = lattice(grid, params)
        steps = law.mu + law.coords[:, None] @ law.chol.T
        paths = np.array(list(itertools.product(range(len(law.masses)), repeat=T)))
        payoffs = fold_returns(params, contract, steps[paths])
        masses = [Fraction(m) for m in law.masses]
        exact = sum(
            Fraction(f) * math.prod(masses[i] for i in path)
            for path, f in zip(paths, payoffs)
        )
        price, _ = _enumerate_lattice(params, contract, grid)
        assert abs(Fraction(price) - exact) <= self.REL * abs(exact)


class TestEnumerationMemory:
    """The enumerator holds about one block of children per step, whatever
    n and d are: a step wider than one block is taken in slices."""

    # A level's block and the payoff fold's temporaries come to about 16
    # arrays of ``chunk_size`` floats.  Arrays sized to a whole step would
    # take 2^{nd} floats each: 64 blocks and 4 blocks in these tests.
    BLOCKS_PER_STEP = 32

    def peak_bytes(self, params, contract, grid, **kwargs):
        tracemalloc.start()
        try:
            _enumerate_lattice(params, contract, grid, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_step_of_many_blocks(self):
        # 2^18 states, 64 blocks of the default size.
        params, contract = dated_tarf(1)
        peak = self.peak_bytes(params, contract, GridSpec(n=18, w=4.0))
        assert peak <= self.BLOCKS_PER_STEP * pe._BLOCK * 8

    def test_two_steps_wider_than_a_block(self):
        # 2^12 states per step in blocks of 2^10.  The cap binds at step 1
        # once the price reaches 7, on all but 211 states, which keeps the
        # run short; those are extended by step 2 in four slices each.
        params = GBMParams(
            r=0.01, sigmas=(0.4,), rho=((1.0,),), dt=0.5, n_steps=2, s0=(20.0,)
        )
        contract = TARFSpec(
            forward=6.0, payment_times=(0.5, 1.0), k_upper=6.0, k_lower=3.0,
            barrier=40.0, alpha=2.0, cap=1.0,
        )
        chunk_size = 1 << 10
        grid = GridSpec(n=12, w=4.0)
        peak = self.peak_bytes(params, contract, grid, chunk_size=chunk_size)
        assert peak <= self.BLOCKS_PER_STEP * 2 * chunk_size * 8
        price, mass = _enumerate_lattice(params, contract, grid, chunk_size=chunk_size)
        assert (price, mass) == pytest.approx(
            _enumerate_lattice(params, contract, grid), rel=1e-14
        )


@st.composite
def payoff_instances(draw):
    """Small autocallables (d in {1, 2}) and TARFs (d = 1) with T <= 4,
    on independent or correlated assets."""
    d = draw(st.integers(1, 2))
    T = draw(st.integers(1, 4))
    corr = draw(st.sampled_from([0.0, draw(st.floats(-0.5, 0.8))]))
    params = GBMParams(
        r=draw(st.floats(0.0, 0.05)),
        sigmas=tuple(draw(st.lists(st.floats(0.05, 0.8), min_size=d, max_size=d))),
        rho=tuple(tuple(1.0 if i == j else corr for j in range(d)) for i in range(d)),
        dt=draw(st.sampled_from([0.25, 1.0 / 3.0, 0.5])),
        n_steps=T,
        s0=(1.0,) * d,
    )
    times = tuple(float(t) for t in params.dt * np.arange(1, T + 1))
    if d == 1 and draw(st.booleans()):
        k_lower = draw(st.floats(0.7, 1.0))
        k_upper = draw(st.floats(1.0, 1.2))
        contract = TARFSpec(
            forward=1.0,
            payment_times=times,
            k_upper=k_upper,
            k_lower=k_lower,
            barrier=k_upper + draw(st.floats(0.01, 0.5)),
            alpha=draw(st.floats(0.5, 3.0)),
            cap=draw(st.floats(0.01, 1.0)),
        )
        return params, contract
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
    return params, contract


@given(payoff_instances(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_mc_payoffs_within_payoff_bounds(instance, seed):
    params, contract = instance
    L = cholesky_factor(build_covariance(params))
    returns = params.step_means() + _chunk_normals(seed, 0, (512, params.n_steps, params.d)) @ L.T
    payoffs = fold_returns(params, contract, returns)
    bounds = payoff_bounds(contract, params.r)
    assert payoffs.shape == (512,)
    assert np.all(payoffs >= bounds.f_min)
    assert np.all(payoffs <= bounds.f_max)


def test_capped_tarf_payment_within_payoff_bounds():
    # After earlier losses, the payment that reaches the cap,
    # paid + disc * (cap - running), rounds one ulp past the cap on one of
    # these 512 paths; the TARF bounds' rounding margin still holds it.
    params = GBMParams(
        r=0.0, sigmas=(0.5,), rho=((1.0,),), dt=0.25, n_steps=3, s0=(1.0,)
    )
    contract = TARFSpec(
        forward=1.0, payment_times=(0.25, 0.5, 0.75), k_upper=1.0, k_lower=1.0,
        barrier=1.5, alpha=1.125, cap=0.0625,
    )
    L = cholesky_factor(build_covariance(params))
    returns = params.step_means() + _chunk_normals(0, 0, (512, 3, 1)) @ L.T
    payoffs = fold_returns(params, contract, returns)
    bounds = payoff_bounds(contract, params.r)
    assert payoffs.max() > contract.cap
    assert np.all(payoffs >= bounds.f_min)
    assert np.all(payoffs <= bounds.f_max)


def fold_cases(tarf_fixture):
    """(params, contract, grid) for the fold-against-exact-engines check."""
    d1 = small_params()

    def d2(rho):
        return GBMParams(
            r=0.02, sigmas=(0.2, 0.35), rho=((1.0, rho), (rho, 1.0)),
            dt=1.0 / 3.0, n_steps=3, s0=(1.0, 1.0),
        )

    d2_autocall = AutocallableSpec(
        binaries=((1.05, 1.0 / 3.0, 1.0), (1.05, 2.0 / 3.0, 2.0), (1.05, 1.0, 3.0)),
        k_put=1.0,
        barrier=0.8,
        notional=5.0,
        barrier_dates=(1.0 / 3.0, 2.0 / 3.0, 1.0),
    )

    def d3(rho):
        return GBMParams(
            r=0.02, sigmas=(0.2, 0.3, 0.25),
            rho=((1.0, rho, rho / 2), (rho, 1.0, rho), (rho / 2, rho, 1.0)),
            dt=0.5, n_steps=2, s0=(1.0, 1.0, 1.0),
        )

    def d3_autocall(basket):
        strike = 1.0 if basket == "worst_of" else 1.15
        return AutocallableSpec(
            binaries=((strike, 0.5, 1.0), (strike, 1.0, 2.0)),
            k_put=1.0, barrier=0.85, notional=5.0, barrier_dates=(0.5, 1.0),
            basket=basket,
        )

    return {
        "autocallable-d1": (d1, small_autocall(), GridSpec(n=3, w=4.0)),
        "tarf-d1": (
            small_params(sigma=0.4, r=0.01, s0=20.0),
            fixture_tarf(tarf_fixture),
            GridSpec(n=3, w=4.0),
        ),
        "call-d1": (
            d1, EuropeanCallSpec(strike=1.05, expiry=d1.horizon), GridSpec(n=3, w=4.0)
        ),
        "autocallable-d2-independent": (d2(0.0), d2_autocall, GridSpec(n=2, w=4.0)),
        "autocallable-d2-correlated": (d2(0.5), d2_autocall, GridSpec(n=2, w=4.0)),
        "worst-of-d3-independent": (d3(0.0), d3_autocall("worst_of"), GridSpec(n=2, w=4.0)),
        "worst-of-d3-correlated": (d3(0.4), d3_autocall("worst_of"), GridSpec(n=2, w=4.0)),
        "best-of-d3-independent": (d3(0.0), d3_autocall("best_of"), GridSpec(n=2, w=4.0)),
        "best-of-d3-correlated": (d3(0.4), d3_autocall("best_of"), GridSpec(n=2, w=4.0)),
    }


@pytest.mark.parametrize(
    "case",
    [
        "autocallable-d1",
        "tarf-d1",
        "call-d1",
        "autocallable-d2-independent",
        "autocallable-d2-correlated",
        "worst-of-d3-independent",
        "worst-of-d3-correlated",
        "best-of-d3-independent",
        "best-of-d3-correlated",
    ],
)
def test_fold_on_lattice_paths_matches_exact_engines(tarf_fixture, case):
    # Paths drawn from the step law itself carry no discretization bias,
    # so the MC payoff fold must average to the exact engine's normalized
    # price: forward induction for autocallables and calls, enumeration
    # for the TARF.  With correlated assets this holds only if the exact
    # engines price the registers' law, not a return-space discretization.
    params, contract, grid = fold_cases(tarf_fixture)[case]
    n_paths, T, d = 20_000, params.n_steps, params.d
    returns = lattice(grid, params).sample_returns(n_paths * T, seed=5)
    payoffs = fold_returns(params, contract, returns.reshape(n_paths, T, d))
    stderr = float(np.std(payoffs, ddof=1)) / math.sqrt(n_paths)
    exact = exact_lattice_price(params, contract, grid)
    assert stderr > 0
    assert abs(float(np.mean(payoffs)) - exact.price / exact.total_mass) <= 4.0 * stderr


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


class TestStepLaw:
    @pytest.mark.parametrize("n, w", [(2, 4.0), (3, 5.0), (5, 5.0), (6, 3.0)])
    def test_loader_masses_are_the_law_masses(self, n, w):
        # The loader is trained on the cells every register of the law loads.
        params = small_params(sigma=0.4, dt=0.25)
        loader = GridSpec(n, w)
        law = lattice(GridSpec(n, w), params)
        assert np.array_equal(loader.masses, law.masses)
        assert np.array_equal(loader.coords, law.coords)

    def test_independent_joint_is_outer_product(self):
        # Independent registers: T induction steps on a d=2 grid carry the
        # outer product of two d=1 inductions, each a T-fold convolution.
        masses = lattice(GridSpec(n=3, w=5.0), small_params()).masses
        one, two = np.ones((1, 1)), np.ones((1, 1, 1))
        single = np.ones(1)
        for _ in range(3):
            one = pe._convolve_step(one, masses)
            two = pe._convolve_step(two, masses)
            single = np.convolve(single, masses)
        np.testing.assert_allclose(one[0], single, rtol=1e-14, atol=0)
        outer = np.multiply.outer(one[0], one[0])
        np.testing.assert_allclose(two[0], outer, rtol=1e-14, atol=0)

    def test_sampled_correlation(self):
        rho = 0.6
        params = GBMParams(
            r=0.0, sigmas=(0.2, 0.3), rho=((1.0, rho), (rho, 1.0)),
            dt=1.0, n_steps=1, s0=(1.0, 1.0),
        )
        law = lattice(GridSpec(n=6, w=5.0), params)
        samples = law.sample_returns(200_000, seed=0)
        corr = np.corrcoef(samples.T)[0, 1]
        assert corr == pytest.approx(rho, abs=3.0 / math.sqrt(200_000) + 0.01)

    def test_transformed_coords_cover_affine_map(self):
        params = GBMParams(
            r=0.0, sigmas=(0.2, 0.3), rho=((1.0, 0.5), (0.5, 1.0)),
            dt=1.0, n_steps=1, s0=(1.0, 1.0),
        )
        law = lattice(GridSpec(n=3, w=5.0), params)
        returns = law.sample_returns(500, seed=0)
        assert returns.shape == (500, 2)
        # Every sample is mu + L z for a z on the standard register grid.
        z = np.linalg.solve(law.chol, (returns - law.mu).T).T
        nearest = np.abs(z[..., None] - law.coords).min(axis=-1)
        assert np.max(nearest) <= 1e-12


def test_black_scholes_zero_expiry_intrinsic():
    assert black_scholes_call(1.2, 1.0, 0.05, 0.2, 0.0) == pytest.approx(0.2)


# Unchecked, sigma=-0.2 prices to -0.0744, a NaN sigma to NaN, and zero or
# negative s0, strike or sigma raise ZeroDivisionError or a math domain error.
@pytest.mark.parametrize(
    "name, bad",
    [
        ("sigma", -0.2),
        ("sigma", 0.0),
        ("sigma", math.nan),
        ("sigma", math.inf),
        ("s0", 0.0),
        ("s0", -1.0),
        ("s0", math.nan),
        ("strike", 0.0),
        ("strike", -1.05),
        ("strike", math.inf),
        ("r", math.nan),
        ("r", -math.inf),
        ("expiry", math.nan),
        ("expiry", math.inf),
    ],
)
def test_black_scholes_rejects_invalid_inputs(name, bad):
    args = {"s0": 1.0, "strike": 1.05, "r": 0.03, "sigma": 0.25, "expiry": 1.0}
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be"):
        black_scholes_call(**args)


@given(
    st.floats(min_value=0.01, max_value=1e3),
    st.floats(min_value=0.01, max_value=1e3),
    st.floats(min_value=-0.1, max_value=0.2),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=1e-3, max_value=30.0),
)
@settings(max_examples=300, deadline=None)
def test_black_scholes_bit_identical_to_norm_cdf(s0, strike, r, sigma, expiry):
    # scipy.stats stays the reference; the package calls ndtr directly.
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * expiry) / (
        sigma * math.sqrt(expiry)
    )
    d2 = d1 - sigma * math.sqrt(expiry)
    expected = float(
        s0 * norm.cdf(d1) - strike * math.exp(-r * expiry) * norm.cdf(d2)
    )
    assert black_scholes_call(s0, strike, r, sigma, expiry) == expected
