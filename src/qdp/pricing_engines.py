"""
Classical pricing oracles: Monte Carlo and exact lattice summation.

The Monte Carlo engine is the classical baseline: sample d*T i.i.d.
standard normals per path, correlate them through the Cholesky factor,
add the drift, exponentiate, and average discounted payoffs.  Paths are
generated from a counter-based RNG keyed by (seed, chunk index) with a
fixed chunk size, so serial and parallel runs produce bit-identical
estimates.

The exact lattice pricer sums pmf * discounted payoff over every path of
the truncated midpoint lattice.  Up to the truncation/discretization
error this is the quantity an ideal amplitude-estimation run measures
(after undoing the payoff normalization).  Autocallables and European
calls are summed by forward induction on the cumulative-return lattice,
in work polynomial in T: an autocallable's state after t steps is its
cumulative return plus one knocked-in flag.  TARFs are summed by
enumerating the (2^{n d})^T paths, because the running accrual is
continuous and so has no exact finite state.  Both engines weight every
path over all T steps of the unnormalized step pmf, whose mass is m:
mass that stops paying at step t carries m^(T - t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import norm

from . import contracts
from .contracts import (
    AutocallableSpec,
    EuropeanCallSpec,
    TARFSpec,
    payoff_bounds,
)
from .market_model import (
    GBMParams,
    GridSpec,
    build_covariance,
    cholesky_factor,
    lattice,
    standard_normal_cells,
)

_CHUNK_PATHS = 4096
MAX_LATTICE_PATHS = 2**26
MAX_INDUCTION_WORK = 2**32


@dataclass(frozen=True)
class PriceEstimate:
    """Monte Carlo price with its standard error."""

    estimate: float
    stderr: float
    n_paths: int
    seed: int


@dataclass(frozen=True)
class LatticePrice:
    """Exact lattice price with the normalized expectation it derives from."""

    price: float
    a_hat: float
    total_mass: float
    n_lattice_paths: int


def _chunk_normals(seed: int, chunk_index: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals for one path chunk from a counter-based stream.

    Each chunk owns an independent Philox stream keyed by (seed, chunk
    index); normals come from inverting the CDF on uniforms so the draw
    count per path is fixed.
    """
    key = (int(seed) % 2**64) * 2**64 + chunk_index
    gen = np.random.Generator(np.random.Philox(key=key))
    # Keep uniforms strictly inside (0, 1) so the inverse CDF stays finite.
    u = np.clip(gen.random(shape), 2.0**-60, 1.0 - 2.0**-60)
    return ndtri(u)


def _payoff_times(params: GBMParams) -> np.ndarray:
    """Observation times of the model's uniform step grid."""
    return params.dt * np.arange(1, params.n_steps + 1)


def _batch_discounted_payoffs(
    contract, params: GBMParams, returns: np.ndarray
) -> np.ndarray:
    """Discounted payoffs for a batch of log-return paths (batch, T, d)."""
    times = _payoff_times(params)
    if isinstance(contract, AutocallableSpec):
        cum = np.exp(np.cumsum(returns, axis=1))
        if params.d == 1:
            cum = cum[:, :, 0]
        return contracts.autocall_payoff_batch(times, cum, contract, params.r)
    if isinstance(contract, TARFSpec):
        if params.d != 1:
            raise ValueError("TARF evaluation requires a single underlying")
        # Prices are observed at the model steps, so every payment date must
        # be one of them; a misaligned date would be discounted at the wrong time.
        contracts.date_columns(times, contract.payment_times)
        prices = np.asarray(params.s0)[0] * np.exp(np.cumsum(returns[:, :, 0], axis=1))
        return contracts.tarf_payoff_batch(prices, contract, params.r)
    if isinstance(contract, EuropeanCallSpec):
        if params.d != 1:
            raise ValueError("European call evaluation requires a single underlying")
        s_T = np.asarray(params.s0)[0] * np.exp(np.sum(returns[:, :, 0], axis=1))
        return math.exp(-params.r * contract.expiry) * np.maximum(
            s_T - contract.strike, 0.0
        )
    raise TypeError(f"unsupported contract type {type(contract).__name__}")


def mc_price(
    params: GBMParams, contract, n_paths: int, seed: int = 0
) -> PriceEstimate:
    """Monte Carlo price of a contract under correlated GBM.

    Parameters
    ----------
    params : GBMParams
    contract : AutocallableSpec | TARFSpec | EuropeanCallSpec
    n_paths : int
        Number of simulated paths, at least 2.
    seed : int
        Stream key; a fixed (seed, n_paths) pair is bit-reproducible
        regardless of how chunks are scheduled.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    d, T = params.d, params.n_steps
    mu = params.step_means()
    L = cholesky_factor(build_covariance(params))

    total = 0.0
    total_sq = 0.0
    n_chunks = math.ceil(n_paths / _CHUNK_PATHS)
    for c in range(n_chunks):
        m = min(_CHUNK_PATHS, n_paths - c * _CHUNK_PATHS)
        z = _chunk_normals(seed, c, (m, T, d))
        returns = mu + z @ L.T
        payoffs = _batch_discounted_payoffs(contract, params, returns)
        # Fixed reduction order: per-chunk sums accumulate serially.
        total += float(np.sum(payoffs))
        total_sq += float(np.sum(payoffs * payoffs))

    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0) * n_paths / (n_paths - 1)
    return PriceEstimate(
        estimate=mean,
        stderr=math.sqrt(var / n_paths),
        n_paths=n_paths,
        seed=seed,
    )


def black_scholes_call(
    s0: float, strike: float, r: float, sigma: float, expiry: float
) -> float:
    """Closed-form European call price for the MC sanity check."""
    if expiry <= 0:
        return max(s0 - strike, 0.0)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * expiry) / (
        sigma * math.sqrt(expiry)
    )
    d2 = d1 - sigma * math.sqrt(expiry)
    return float(s0 * norm.cdf(d1) - strike * math.exp(-r * expiry) * norm.cdf(d2))


def exact_lattice_price(
    params: GBMParams, contract, grid: GridSpec, chunk_size: int = 1 << 16
) -> LatticePrice:
    """Expected discounted payoff summed exactly over the return lattice.

    Autocallables (any d, either basket) and European calls are priced
    by forward induction on the cumulative-return lattice, in work
    polynomial in T.  TARFs are priced by enumerating all
    (2^{n d})^T paths in chunks of ``chunk_size``: the running accrual
    is continuous, so a TARF has no exact finite state to induct on.

    Both engines weight a path by its pmf over all T steps, so mass that
    stops paying at step t carries m^(T - t), where m is the one-step
    lattice mass, and ``total_mass`` is m^T.  The normalized expectation
    ``a_hat`` (what ideal amplitude estimation measures) is
    (price - f_min * total_mass) / f_delta; it is NaN for a European
    call, which has no payoff bounds.  ``n_lattice_paths`` is the path
    count under either engine.

    Raises
    ------
    ValueError
        If a TARF lattice has more than 2^26 paths, or if forward
        induction would take more than 2^32 multiply-adds (that message
        names n, d and T); reduce n, d, or T.
    """
    d, T = params.d, params.n_steps
    if isinstance(contract, TARFSpec):
        price, total_mass = _enumerate_lattice(params, contract, grid, chunk_size)
    else:
        price, total_mass = _induct_lattice(params, contract, grid)
    if isinstance(contract, EuropeanCallSpec):
        a_hat = float("nan")
    else:
        bounds = payoff_bounds(contract, params.r)
        a_hat = (price - bounds.f_min * total_mass) / bounds.f_delta
    return LatticePrice(
        price=price,
        a_hat=a_hat,
        total_mass=total_mass,
        n_lattice_paths=2 ** (grid.n * d * T),
    )


def _enumerate_lattice(
    params: GBMParams, contract, grid: GridSpec, chunk_size: int = 1 << 16
) -> tuple[float, float]:
    """(price, total mass) summed over every lattice path.

    Paths are decoded in mixed-radix order and summed with compensated
    per-chunk accumulation.
    """
    lat = lattice(grid, params)
    d, T = params.d, params.n_steps
    n_states = lat.n_cells**d
    n_paths = n_states**T
    if n_paths > MAX_LATTICE_PATHS:
        raise ValueError(
            f"lattice has {n_paths} paths (> 2^26); reduce n, d, or T"
        )

    log_pmf = np.log(lat.step_pmf.ravel())
    # Per-state return vectors, shape (n_states, d), mixed-radix over dims.
    state_returns = np.stack(
        np.meshgrid(*[lat.coords[j] for j in range(d)], indexing="ij"), axis=-1
    ).reshape(n_states, d)

    mass_parts: list[float] = []
    price_parts: list[float] = []
    radices = n_states ** np.arange(T - 1, -1, -1, dtype=np.int64)
    for start in range(0, n_paths, chunk_size):
        idx = np.arange(start, min(start + chunk_size, n_paths), dtype=np.int64)
        # Decode the path index into T per-step state indices.
        states = (idx[:, None] // radices[None, :]) % n_states
        probs = np.exp(np.sum(log_pmf[states], axis=1))
        returns = state_returns[states]  # (chunk, T, d)
        payoffs = _batch_discounted_payoffs(contract, params, returns)
        mass_parts.append(float(np.sum(probs)))
        price_parts.append(float(np.sum(probs * payoffs)))
    return math.fsum(price_parts), math.fsum(mass_parts)


def _induct_lattice(params: GBMParams, contract, grid: GridSpec) -> tuple[float, float]:
    """(price, total mass) of an autocallable or a call by forward induction.

    After t steps asset j's cumulative log-return is
    t * coords[j, 0] + k * dx_j for k in 0..t(2^n - 1).  The alive mass on
    that grid, split into (not knocked in, knocked in), is convolved with
    the step pmf once per step.  On each binary date the mass at or above
    the strike pays and leaves; on each barrier date the mass below the
    barrier moves to the knocked-in half; at the horizon the knocked-in
    mass settles the put.
    """
    d, T = params.d, params.n_steps
    if isinstance(contract, EuropeanCallSpec):
        if d != 1:
            raise ValueError("European call evaluation requires a single underlying")
        steps = T
    elif isinstance(contract, AutocallableSpec):
        binary_cols, barrier_cols, final_col = contracts._autocall_columns(
            _payoff_times(params), contract
        )
        steps = int(final_col) + 1
    else:
        raise TypeError(f"unsupported contract type {type(contract).__name__}")
    cells = 2**grid.n
    # Cumulative states times step cells, summed over steps: a bound on the
    # convolutions' multiply-adds per row, checked before anything is built.
    work = sum(((t * (cells - 1) + 1) * cells) ** d for t in range(1, steps + 1))
    if work > MAX_INDUCTION_WORK:
        raise ValueError(
            f"forward induction at n={grid.n}, d={d}, T={T} takes {work:.3g} "
            "multiply-adds (> 2^32); reduce n, d, or T"
        )

    lat = lattice(grid, params)
    pmf = lat.step_pmf
    m = float(np.sum(pmf))
    first = lat.coords[:, 0]
    dx = (lat.coords[:, -1] - first) / (cells - 1)

    def cumulative_returns(t: int) -> list[np.ndarray]:
        """Per-asset cumulative simple returns after t steps, one grid axis each."""
        return [
            np.exp(t * first[j] + np.arange(t * (cells - 1) + 1) * dx[j]).reshape(
                (-1,) + (1,) * (d - 1 - j)
            )
            for j in range(d)
        ]

    if isinstance(contract, EuropeanCallSpec):
        mass = np.ones((1, 1))
        for _ in range(T):
            mass = _convolve_step(mass, pmf)
        s_T = params.s0[0] * cumulative_returns(T)[0]
        payoff = np.maximum(s_T - contract.strike, 0.0)
        price = math.exp(-params.r * contract.expiry) * float(np.sum(mass[0] * payoff))
        return price, m**T

    reduce = np.minimum if contract.basket == "worst_of" else np.maximum
    # Rows: alive and not knocked in, alive and knocked in.
    mass = np.zeros((2,) + (1,) * d)
    mass[(0,) * (d + 1)] = 1.0
    parts: list[float] = []
    for t in range(1, steps + 1):
        mass = _convolve_step(mass, pmf)
        value = functools.reduce(reduce, cumulative_returns(t))
        later = m ** (T - t)
        for (strike, date, payout), col in zip(contract.binaries, binary_cols):
            if col == t - 1:
                hit = value >= strike
                paid = float(np.sum(mass[:, hit]))
                parts.append(math.exp(-params.r * date) * payout * paid * later)
                mass[:, hit] = 0.0
        if t - 1 in barrier_cols:
            below = value < contract.barrier
            mass[1, below] += mass[0, below]
            mass[0, below] = 0.0
    put = value < contract.k_put
    settled = float(np.sum(mass[1][put] * (value[put] - contract.k_put)))
    parts.append(
        math.exp(-params.r * contract.horizon) * contract.notional * settled * later
    )
    return math.fsum(parts), m**T


def _convolve_step(mass: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Convolve each row of ``mass`` (rows, *grid) with the d-dim ``pmf``."""
    if pmf.ndim == 1:
        return np.stack([np.convolve(row, pmf) for row in mass])
    grid = mass.shape[1:]
    out = np.zeros(mass.shape[:1] + tuple(g + c - 1 for g, c in zip(grid, pmf.shape)))
    for cell in np.ndindex(pmf.shape):
        window = tuple(slice(i, i + g) for i, g in zip(cell, grid))
        out[(slice(None),) + window] += pmf[cell] * mass
    return out


@dataclass(frozen=True)
class ReparamDistribution:
    """Path distribution factored as dT standard Gaussians plus an affine map.

    A lattice path is loaded as independent standard-normal registers
    R_bar on ``std_coords``; each step's correlated returns are
    mu + L @ R_bar_t.
    """

    std_coords: np.ndarray
    std_pmf: np.ndarray
    mu: np.ndarray
    chol: np.ndarray
    d: int

    def sample_returns(self, n_samples: int, seed: int = 0) -> np.ndarray:
        """Sample transformed per-step returns from the lattice pmf, (n, d)."""
        gen = np.random.Generator(np.random.Philox(key=int(seed)))
        pmf = self.std_pmf / self.std_pmf.sum()
        idx = gen.choice(len(self.std_coords), size=(n_samples, self.d), p=pmf)
        z = self.std_coords[idx]
        return self.mu + z @ self.chol.T


def reparam_distribution(grid: GridSpec, params: GBMParams) -> ReparamDistribution:
    """Standard-Gaussian lattice plus the affine map realizing the step law.

    Every register carries ``standard_normal_cells`` on [-w, w], the
    grid and masses the loader target uses.
    """
    coords, pmf = standard_normal_cells(grid.w, grid.n)
    cov = build_covariance(params)
    return ReparamDistribution(
        std_coords=coords,
        std_pmf=pmf,
        mu=params.step_means(),
        chol=cholesky_factor(cov),
        d=params.d,
    )


__all__ = [
    "PriceEstimate",
    "LatticePrice",
    "ReparamDistribution",
    "mc_price",
    "exact_lattice_price",
    "reparam_distribution",
    "black_scholes_call",
    "MAX_LATTICE_PATHS",
    "MAX_INDUCTION_WORK",
]
