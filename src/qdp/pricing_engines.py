"""
Classical pricing oracles: Monte Carlo and exact lattice summation.

The Monte Carlo engine is the classical baseline: sample d*T i.i.d.
standard normals per path, map them to log-returns by the step map
mu + L z, and average discounted payoffs.  Paths are generated in
fixed-size chunks from a counter-based RNG keyed by (seed, chunk index).
The chunks run on a ``concurrent.futures.ThreadPoolExecutor`` with one
worker per CPU the process may use, and each chunk's sums are added in
chunk order, so a (seed, n_paths) pair gives the same bit-identical
estimate at any CPU count.

This module keeps only the engines.  It reads the model from
``market_model``: the register grid (``GridSpec``), the step law
(``lattice``) and the one step map mu + L z (``step_map``), which Monte
Carlo chunks and the enumerator's register states both go through.  It
reads a contract only through its payoff fold, ``contracts._payoff_fold``:
a step per date over growth factors S_t / S_0, given asset-major, with
the contract's dates resolved to step columns once per call.  Monte
Carlo sums each chunk's log-returns along the path and exponentiates the
chunk once, in place; the enumerator exponentiates each block of
cumulative log-returns once; forward induction steps the fold on each
asset's growth over its mass grid.  So sampled paths, lattice paths and
the induction grid all pay by the same function.

The exact lattice pricer sums mass * discounted payoff over every path
of the step law that the re-parameterization circuit loads
(``market_model.lattice``): each step is d independent standard-normal
registers on the truncated midpoint grid, mapped to log-returns by
mu + L z.  Up to the truncation/discretization error this is the
quantity an ideal amplitude-estimation run measures (after undoing the
payoff normalization).  Autocallables and European calls are summed by
forward induction on the cumulative register index, in work polynomial
in T: an autocallable's state after t steps is that index plus one
knocked-in flag.  TARFs are summed by enumerating the (2^{n d})^T paths,
because the running accrual is continuous and so has no exact finite
state.  The enumeration walks the lattice depth first and shares
prefixes: each prefix carries its mass (a plain product of step
masses), cumulative return and payoff state, so a date's payoff step
runs once per prefix rather than once per path.  A prefix whose payoff
is final (knocked out or capped) is not extended: it is summed at once
for its whole subtree.  The walk works in blocks of at most 2^12
children, one block per step of the path, so its memory does not grow
with n or d.  Both engines weight every path over all T steps of the
unnormalized step law, whose mass is m: mass that stops paying at step
t carries m^(T - t).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import contracts
from .contracts import EuropeanCallSpec, TARFSpec, payoff_bounds
from .market_model import (
    GBMParams,
    GridSpec,
    build_covariance,
    check_integer,
    cholesky_factor,
    lattice,
    standard_normal_cells,
    step_map,
)

_CHUNK_PATHS = 4096
# Chunks handed to the pool at a time: the pool holds a future for each
# chunk it has been given, so a window keeps that memory bounded.
_WINDOW_CHUNKS = 64
MAX_LATTICE_PATHS = 2**26
MAX_INDUCTION_WORK = 2**32
# Children per enumeration block: small enough that a block's arrays stay
# in cache, large enough that numpy's per-call cost is spread over a block.
_BLOCK = 2**12


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
    u = gen.random(shape)
    # Keep uniforms strictly inside (0, 1) so the inverse CDF stays finite.
    np.clip(u, 2.0**-60, 1.0 - 2.0**-60, out=u)
    return ndtri(u, out=u)


def _step_times(params: GBMParams) -> np.ndarray:
    """The model's observation times dt, 2 dt, ..., T dt."""
    return params.dt * np.arange(1, params.n_steps + 1)


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def mc_price(
    params: GBMParams, contract, n_paths: int, seed: int = 0
) -> PriceEstimate:
    """Monte Carlo price of a contract under correlated GBM.

    Paths come in chunks of 4096, each with its own random stream.  The
    chunks run on a thread pool of ``min(CPUs, chunks)`` workers, where
    CPUs is the size of the process's affinity set (``os.cpu_count()``
    where that is not available).  The pool's ``map`` yields each chunk's
    sums of payoffs and squared payoffs in chunk order, and they are added
    in that order, so the estimate does not depend on the CPU count.  The
    chunks reach the pool in windows of 64, one ``map`` per window, so the
    queued futures stay bounded at any path count.  The first failing
    chunk in order raises in the caller, and the chunks of its window not
    yet started are cancelled.  Every worker is joined before return.

    Parameters
    ----------
    params : GBMParams
    contract : AutocallableSpec | TARFSpec | EuropeanCallSpec
    n_paths : int
        Number of simulated paths, an integer of at least 2.
    seed : int
        Stream key; a fixed (seed, n_paths) pair is bit-reproducible.

    Raises
    ------
    ValueError
        If ``n_paths`` or ``seed`` is not an integer (a float such as
        5000.0 or a bool included), or ``n_paths`` is below 2.
    """
    n_paths, seed = check_integer("n_paths", n_paths), check_integer("seed", seed)
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got n_paths={n_paths}")
    d, T = params.d, params.n_steps
    fold = contracts._payoff_fold(_step_times(params), contract, params.r, params.s0)
    mu = params.step_means()
    L = cholesky_factor(build_covariance(params))

    def chunk_sums(c: int) -> tuple[float, float]:
        m = min(_CHUNK_PATHS, n_paths - c * _CHUNK_PATHS)
        z = step_map(_chunk_normals(seed, c, (m, T, d)), mu, L)
        growth = np.exp(np.cumsum(z, axis=1, out=z), out=z)
        payoffs = contracts._fold_paths(fold, growth)
        return float(np.sum(payoffs)), float(np.sum(payoffs * payoffs))

    # Fixed reduction order: chunk sums accumulate serially in chunk order.
    total = 0.0
    total_sq = 0.0
    n_chunks = math.ceil(n_paths / _CHUNK_PATHS)
    with ThreadPoolExecutor(min(_cpu_count(), n_chunks)) as pool:
        for first in range(0, n_chunks, _WINDOW_CHUNKS):
            window = range(first, min(first + _WINDOW_CHUNKS, n_chunks))
            for chunk_total, chunk_sq in pool.map(chunk_sums, window):
                total += chunk_total
                total_sq += chunk_sq

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
    """Closed-form European call price for the MC sanity check.

    An expiry at or before zero gives the intrinsic value.

    Raises
    ------
    ValueError
        If any argument is not finite, or ``s0``, ``strike`` or ``sigma``
        is not positive; the message names the argument.
    """
    args = {"s0": s0, "strike": strike, "r": r, "sigma": sigma, "expiry": expiry}
    for name, x in args.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
        if name in ("s0", "strike", "sigma") and x <= 0:
            raise ValueError(f"{name} must be positive, got {x!r}")
    if expiry <= 0:
        return max(s0 - strike, 0.0)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * expiry) / (
        sigma * math.sqrt(expiry)
    )
    d2 = d1 - sigma * math.sqrt(expiry)
    return float(s0 * ndtr(d1) - strike * math.exp(-r * expiry) * ndtr(d2))


def exact_lattice_price(params: GBMParams, contract, grid: GridSpec) -> LatticePrice:
    """Expected discounted payoff summed exactly over the step law's paths.

    Autocallables (any d, either basket) and European calls are priced
    by forward induction on the cumulative register index, in work
    polynomial in T.  TARFs are priced by enumerating the (2^{n d})^T
    paths depth first, in blocks of at most 2^12 children, so memory
    stays at about T blocks whatever n and d are: the running accrual is
    continuous, so a TARF has no exact finite state to induct on.  A
    prefix knocked out or capped is summed at once for its whole subtree
    rather than extended to step T.

    Both engines weight a path by its mass over all T steps of the step
    law ``market_model.lattice``, so mass that stops paying at step t
    carries m^(T - t), where m is the one-step mass, and ``total_mass`` is
    m^T.  The normalized expectation ``a_hat`` (what ideal amplitude
    estimation measures) is (price - f_min * total_mass) / f_delta; it is
    NaN for a European call, which has no payoff bounds.
    ``n_lattice_paths`` is the path count under either engine.

    Raises
    ------
    ValueError
        If a TARF lattice has more than 2^26 paths, or if forward
        induction would take more than 2^32 multiply-adds; either message
        names n, d and T.  Reduce n, d, or T.
    """
    d, T = params.d, params.n_steps
    if isinstance(contract, TARFSpec):
        price, total_mass = _enumerate_lattice(params, contract, grid)
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
    params: GBMParams, contract, grid: GridSpec, chunk_size: int = _BLOCK
) -> tuple[float, float]:
    """(price, total mass) summed over every lattice path.

    A step is one register tuple z, the first asset most significant, with
    mass the product of its registers' masses and returns ``step_map`` of
    z.  The lattice is walked depth first: each prefix carries its mass
    (the plain product of its step masses), its per-asset cumulative
    log-return and its payoff state, so a date's payoff step runs once per
    prefix, on the block's growth factors, exponentiated once per block.

    A prefix whose payoff is final (``done`` of the payoff fold) after
    step t is retired there: its mass p adds p * m^(T-1-t) to the total
    mass and p * m^(T-1-t) * payoff to the price, where m is the one-step
    mass, and only live prefixes are extended.  Every array is bounded by
    one block of ``chunk_size`` children: a step's states are taken in
    slices of at most ``chunk_size``, generated lazily when one step has
    more states than that, and each slice extends ``chunk_size // slice``
    prefixes at a time.  Returns and growth are held asset-major, (d,
    prefixes), as the fold reads them.  The walk so holds at most one
    block per level, T blocks in all, whatever n and d are; only the
    per-block sums, which ``math.fsum`` adds at the end, grow with the
    number of blocks.
    """
    d, T = params.d, params.n_steps
    n_paths = 2 ** (grid.n * d * T)
    if n_paths > MAX_LATTICE_PATHS:
        raise ValueError(
            f"lattice enumeration at n={grid.n}, d={d}, T={T} has {n_paths} "
            "paths (> 2^26); reduce n, d, or T"
        )
    start, step, value, done = contracts._payoff_fold(
        _step_times(params), contract, params.r, params.s0
    )
    mu = params.step_means()
    chol = cholesky_factor(build_covariance(params))
    n_states = 2 ** (grid.n * d)
    width = min(n_states, chunk_size)
    block = chunk_size // width
    # The one-step mass, summed as ``_induct_lattice`` sums it.  Only steps
    # before the last retire prefixes, and at T >= 2 the path cap keeps the
    # register grid small.
    m = float(np.sum(grid.masses)) ** d if T > 1 else 1.0

    def state_slice(first: int):
        """Masses and (d, width) returns of the states first, ..., first + width - 1."""
        index = np.arange(first, min(first + width, n_states))
        registers = np.array(np.unravel_index(index, (2**grid.n,) * d))
        coords, masses = standard_normal_cells(grid.w, grid.n, registers)
        return np.prod(masses, axis=0), step_map(coords.T, mu, chol).T

    # A step that fits in one block is built once; a wider one is rebuilt
    # slice by slice wherever it is walked, so it never exists whole.
    whole = [state_slice(0)] if width == n_states else None
    mass_parts: list[float] = []
    price_parts: list[float] = []

    def retire(prob, growth, state, later: float) -> None:
        """Add finished prefixes, each standing for ``later`` times its mass."""
        mass_parts.append(later * float(np.sum(prob)))
        price_parts.append(later * float(np.sum(prob * value(state, growth))))

    def walk(prob, cum, state, t: int) -> None:
        """Extend the live prefixes by step t, block by block, down to step T."""
        later = m ** (T - 1 - t)
        for pmf, returns in whole or map(state_slice, range(0, n_states, width)):
            for first in range(0, len(prob), block):
                last = first + block
                child_prob = (prob[first:last, None] * pmf).reshape(-1)
                child_cum = (cum[:, first:last, None] + returns[:, None]).reshape(d, -1)
                growth = np.exp(child_cum)
                child_state = step(
                    tuple(np.repeat(a[first:last], len(pmf)) for a in state),
                    growth,
                    t,
                )
                if t + 1 == T:
                    retire(child_prob, growth, child_state, later)
                    continue
                finished = done(child_state)
                if finished.any():
                    out = np.flatnonzero(finished)
                    retire(
                        child_prob[out],
                        growth[:, out],
                        tuple(a[out] for a in child_state),
                        later,
                    )
                    live = np.flatnonzero(~finished)
                    if not len(live):
                        continue
                    child_prob, child_cum = child_prob[live], child_cum[:, live]
                    child_state = tuple(a[live] for a in child_state)
                walk(child_prob, child_cum, child_state, t + 1)

    walk(np.ones(1), np.zeros((d, 1)), start, 0)
    return math.fsum(price_parts), math.fsum(mass_parts)


def _induct_lattice(params: GBMParams, contract, grid: GridSpec) -> tuple[float, float]:
    """(price, total mass) of an autocallable or a call by forward induction.

    The state after t steps is the cumulative register index Z_t, the sum
    of t steps' register coordinates, which lies on t * coords[0] + k * dz
    for k in 0..t(2^n - 1) on every axis; the path's cumulative log-returns
    are t * mu + L @ Z_t.  The alive mass on that grid is convolved with
    the step law once per step.  An autocallable's mass has two rows, the
    fold's two live states: nothing paid and not knocked in, nothing paid
    and knocked in.  Each date is the fold's step on the per-asset growth
    of the grid, from one state per row: the mass it pays (a coupon, or at
    the horizon the settled put) adds to the price and leaves, and the
    row-0 mass it knocks in moves to row 1.  A call is the fold's value on
    the growth at T.
    """
    d, T = params.d, params.n_steps
    columns = contracts._resolve_dates(_step_times(params), contract, d)
    call = columns is None
    steps, rows = (T, 1) if call else (int(columns[2]) + 1, 2)
    cells = 2**grid.n
    # The multiply-adds of every ``_convolve_step``, checked before anything
    # is built: at step t its pass along axis k reads a grid whose first k
    # axes are already widened to width(t) and whose others are width(t - 1),
    # with ``cells`` multiply-adds per entry of each row.
    width = [t * (cells - 1) + 1 for t in range(steps + 1)]
    work = rows * cells * sum(
        width[t] ** k * width[t - 1] ** (d - k)
        for t in range(1, steps + 1)
        for k in range(d)
    )
    if work > MAX_INDUCTION_WORK:
        raise ValueError(
            f"forward induction at n={grid.n}, d={d}, T={T} takes {work:.3g} "
            "multiply-adds (> 2^32); reduce n, d, or T"
        )

    law = lattice(grid, params)
    m = float(np.sum(law.masses)) ** d
    first = law.coords[0]
    dz = (law.coords[-1] - first) / (cells - 1)

    def cumulative_returns(t: int) -> list[np.ndarray]:
        """Per-asset cumulative simple returns exp(t * mu + L @ Z_t).

        Asset j spans only the axes k with L[j, k] != 0, so an independent
        asset's array stays one-dimensional.
        """
        index = t * first + np.arange(width[t]) * dz
        axes = [index.reshape((-1,) + (1,) * (d - 1 - k)) for k in range(d)]
        return [
            np.exp(
                t * law.mu[j]
                + sum(law.chol[j, k] * axes[k] for k in range(j + 1) if law.chol[j, k])
            )
            for j in range(d)
        ]

    _, step, value, _ = contracts._payoff_fold(
        _step_times(params), contract, params.r, params.s0
    )
    if call:
        mass = np.ones((1, 1))
        for _ in range(T):
            mass = _convolve_step(mass, law.masses)
        return float(np.sum(mass[0] * value((), cumulative_returns(T)))), m**T

    mass = np.zeros((2,) + (1,) * d)
    mass[(0,) * (d + 1)] = 1.0
    # One payoff state per mass row: nothing paid, not knocked in or knocked in.
    row_state = (
        np.zeros(1), np.zeros(1, dtype=bool), np.array([False, True]).reshape(mass.shape)
    )
    parts: list[float] = []
    for t in range(1, steps + 1):
        mass = _convolve_step(mass, law.masses)
        payoff, paid, knocked = step(row_state, cumulative_returns(t), t - 1)
        parts.append(float(np.sum(mass * payoff)) * m ** (T - t))
        mass *= ~paid
        # Adds exact zeros outside the newly knocked-in cells.
        mass[1] += mass[0] * knocked[0]
        mass[0] *= ~knocked[0]
    return math.fsum(parts), m**T


def _convolve_step(mass: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Convolve each row of ``mass`` (rows, *grid) with one step of the law.

    The step's registers are independent, so the step convolves every grid
    axis in turn with the 1-D register ``masses``: ``len(masses)`` shifted
    adds per axis.
    """
    for axis in range(1, mass.ndim):
        size = mass.shape[axis]
        out = np.zeros(
            mass.shape[:axis] + (size + len(masses) - 1,) + mass.shape[axis + 1 :]
        )
        for i, weight in enumerate(masses):
            out[(slice(None),) * axis + (slice(i, i + size),)] += weight * mass
        mass = out
    return mass


# The name the benchmark's lattice sample check calls the step law by.
reparam_distribution = lattice


__all__ = [
    "PriceEstimate",
    "LatticePrice",
    "mc_price",
    "exact_lattice_price",
    "reparam_distribution",
    "black_scholes_call",
    "MAX_LATTICE_PATHS",
    "MAX_INDUCTION_WORK",
]
