"""Scalar payoffs of one observed path, an oracle for the package's payoff fold.

``qdp.contracts`` prices every contract with one fold per contract.  These
functions evaluate a single path with their own date matching, basket
reduction and discounting, and read nothing of ``qdp.contracts`` but the
term sheets, ``PayoffBounds`` and ``DATE_TOLERANCE``
(``tests/test_import_boundary.py`` holds them to that).  So a defect in
the fold's dates, basket or steps shows up as a disagreement with them.
``brute_force_lattice_price`` prices a one-asset register lattice path by
path with them, the reference the exact engines are checked against.
"""

import itertools
import math

import numpy as np

from qdp.contracts import DATE_TOLERANCE, AutocallableSpec, PayoffBounds, TARFSpec
from qdp.market_model import lattice

# The reduction of per-asset returns to an autocallable's basket value.
_BASKET = {"worst_of": np.min, "best_of": np.max}


def normalize(f: float, bounds: PayoffBounds) -> float:
    """Map a discounted payoff to [0, 1] via (f - f_min) / f_delta."""
    if f < bounds.f_min - 1e-9 or f > bounds.f_max + 1e-9:
        raise ValueError(
            f"payoff {f} outside declared bounds [{bounds.f_min}, {bounds.f_max}]"
        )
    return (f - bounds.f_min) / bounds.f_delta


def discount_and_sum(payoffs, r: float) -> float:
    """Present value sum(e^{-r t_i} f_i) of dated payoffs.

    Parameters
    ----------
    payoffs : iterable of (time, payoff)
    r : float
        Continuously compounded discount rate.
    """
    total = 0.0
    for t, f in payoffs:
        if t < 0:
            raise ValueError("payment times must be nonnegative")
        total += math.exp(-r * t) * f
    return total


def _column(times, date: float) -> int:
    """Index of the first of ``times`` within ``DATE_TOLERANCE`` of ``date``."""
    for i, t in enumerate(times):
        if abs(t - date) <= DATE_TOLERANCE:
            return i
    raise ValueError(f"path is missing observation date {date}")


def autocall_payoff(times, cum_returns, spec: AutocallableSpec):
    """Evaluate an autocallable on one observed cumulative-return path.

    Parameters
    ----------
    times : array_like, shape (m,)
        Observation dates; must cover all binary and barrier dates.
    cum_returns : array_like, shape (m,) or (m, d)
        Cumulative simple return R_c at each date (per asset when d > 1;
        reduced per ``spec.basket`` before evaluation).
    spec : AutocallableSpec

    Returns
    -------
    list of (time, undiscounted payoff)
        At most one entry: either a binary coupon or the put settlement
        (possibly negative).  Empty when nothing pays.
    """
    values = np.asarray(cum_returns, dtype=float)
    values = _BASKET[spec.basket](values.reshape(len(values), -1), axis=1)
    times = [float(t) for t in times]
    binary_cols = [_column(times, t) for _, t, _ in spec.binaries]
    barrier_cols = [_column(times, t) for t in spec.barrier_dates]
    final_col = _column(times, spec.horizon)
    for (strike, t, payout), col in zip(spec.binaries, binary_cols):
        if values[col] >= strike:
            return [(t, payout)]

    knocked_in = any(values[col] < spec.barrier for col in barrier_cols)
    final_r = float(values[final_col])
    if knocked_in and final_r < spec.k_put:
        return [(spec.horizon, spec.notional * (final_r - spec.k_put))]
    return []


def tarf_payoff(prices, spec: TARFSpec):
    """Evaluate a TARF on prices observed at the payment dates.

    Returns
    -------
    list of (time, undiscounted payoff)
        One entry per settled date, in order; the list stops at a
        knock-out or once the cap is reached.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.shape[0] != spec.n_dates:
        raise ValueError(
            f"expected {spec.n_dates} price observations, got {prices.shape[0]}"
        )
    out = []
    total = 0.0
    for t, s in zip(spec.payment_times, prices):
        s = float(s)
        if s >= spec.barrier:
            break
        if s > spec.k_upper:
            f = s - spec.forward
        elif s < spec.k_lower:
            f = spec.alpha * (s - spec.forward)
        else:
            f = 0.0
        if total + f >= spec.cap:
            out.append((t, spec.cap - total))
            break
        total += f
        out.append((t, f))
    return out


def brute_force_lattice_price(params, contract, grid):
    """Independent enumerator: per-path pmf products and the scalar payoffs.

    Visits every path of a one-asset model's register lattice, multiplies
    its step masses, and prices it with ``autocall_payoff`` or
    ``tarf_payoff``.  Returns (price, total mass) of an autocallable or
    TARF.
    """
    law = lattice(grid, params)
    coords = law.mu[0] + law.chol[0, 0] * law.coords
    pmf = law.masses
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
