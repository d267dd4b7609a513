"""
Classical pricing oracles: Monte Carlo and exact lattice summation.

The Monte Carlo engine is the classical baseline: sample d*T i.i.d.
standard normals per path, correlate them through the Cholesky factor,
add the drift, exponentiate, and average discounted payoffs.  Paths are
generated from a counter-based RNG keyed by (seed, chunk index) with a
fixed chunk size, so serial and parallel runs produce bit-identical
estimates.

The exact lattice pricer enumerates every path of the truncated midpoint
lattice and sums pmf * discounted payoff with compensated accumulation.
Up to the truncation/discretization error this is the quantity an ideal
amplitude-estimation run measures (after undoing the payoff
normalization).
"""

from __future__ import annotations

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
    """Expected discounted payoff by full enumeration of the return lattice.

    Sums pmf(path) * payoff(path) over all (2^{n d})^T lattice paths in
    mixed-radix order with compensated per-chunk accumulation.  The
    normalized expectation ``a_hat`` (what ideal amplitude estimation
    measures) is also reported; ``price`` equals
    f_delta * a_hat + f_min * total_mass.

    Raises
    ------
    ValueError
        If the path count exceeds 2^26; reduce n, d, or T.
    """
    lat = lattice(grid, params)
    d, T = params.d, params.n_steps
    n_states = lat.n_cells**d
    n_paths = n_states**T
    if n_paths > MAX_LATTICE_PATHS:
        raise ValueError(
            f"lattice has {n_paths} paths (> 2^26); reduce n, d, or T"
        )

    bounds = payoff_bounds(contract, params.r) if not isinstance(
        contract, EuropeanCallSpec
    ) else None
    log_pmf = np.log(lat.step_pmf.ravel())
    # Per-state return vectors, shape (n_states, d), mixed-radix over dims.
    state_returns = np.stack(
        np.meshgrid(*[lat.coords[j] for j in range(d)], indexing="ij"), axis=-1
    ).reshape(n_states, d)

    mass_parts: list[float] = []
    a_parts: list[float] = []
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
        if bounds is not None:
            normalized = (payoffs - bounds.f_min) / bounds.f_delta
            a_parts.append(float(np.sum(probs * normalized)))

    total_mass = math.fsum(mass_parts)
    price = math.fsum(price_parts)
    a_hat = math.fsum(a_parts) if bounds is not None else float("nan")
    return LatticePrice(
        price=price, a_hat=a_hat, total_mass=total_mass, n_lattice_paths=n_paths
    )


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
]
