"""
Term sheets and the one payoff fold for autocallables, TARFs and calls.

An autocallable is a strip of sequential binary options: the first strike
breach pays its coupon and knocks out everything after it, including the
short knock-in put that otherwise settles at the final date.  A TARF
(target accrual redemption forward) is a strip of conditional forwards
with a knock-out barrier and a cumulative-gain cap.

The term sheets reject non-finite fields.  Discounted payoffs lie in
contract-level bounds (f_min, f_max), the range the quantum estimators
normalize to [0, 1].

Each contract's discounted payoff on a batch of paths is one fold,
``_payoff_fold``, run by ``_fold_paths``: a step per observation date
over the paths' growth factors S_t / S_0, with the contract's dates
resolved to columns once (``_resolve_dates``).  The pricing engines and
both batch payoffs run it.  The package holds no other payoff; the
tests check the fold against scalar payoffs of their own
(``tests/payoff_oracle.py``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .market_model import check_finite, config_float, config_floats, config_list

# The elementwise op that reduces per-asset returns to an autocallable's
# basket value, by basket name.
_BASKET_OPS = {"worst_of": np.minimum, "best_of": np.maximum}


@dataclass(frozen=True)
class PayoffBounds:
    """Range [f_min, f_max] containing every discounted payoff.

    Both bounds must be finite: a finite term sheet whose payoff range
    overflows a float has no normalization to estimate.
    """

    f_min: float
    f_max: float

    def __post_init__(self):
        check_finite(self, ("f_min", "f_max"))
        if not self.f_max > self.f_min:
            raise ValueError("f_max must exceed f_min")

    @property
    def f_delta(self) -> float:
        return self.f_max - self.f_min


@dataclass(frozen=True)
class AutocallableSpec:
    """Autocallable term sheet.

    Parameters
    ----------
    binaries : tuple of (strike_return, time, payout)
        Sequential binary options sorted by time; the first one whose
        cumulative return reaches its strike pays and ends the contract.
    k_put : float
        Put strike on cumulative return.
    barrier : float
        Knock-in barrier on cumulative return; the put is live only if
        some barrier-date observation falls below it.
    notional : float
        Multiplier on the put payoff k * (R_T - k_put).
    barrier_dates : tuple of float
        Observation times for the knock-in barrier; the last one is the
        contract horizon at which the put settles.
    basket : str
        For d > 1 underlyings: "worst_of" (default) or "best_of"
        reduction of per-asset cumulative returns before evaluation.
    """

    binaries: tuple[tuple[float, float, float], ...]
    k_put: float
    barrier: float
    notional: float
    barrier_dates: tuple[float, ...]
    basket: str = "worst_of"

    def __post_init__(self):
        object.__setattr__(
            self,
            "binaries",
            tuple((float(K), float(t), float(p)) for K, t, p in self.binaries),
        )
        object.__setattr__(
            self, "barrier_dates", tuple(float(t) for t in self.barrier_dates)
        )
        check_finite(self, ("binaries", "k_put", "barrier", "notional", "barrier_dates"))
        if not self.binaries:
            raise ValueError("binaries must not be empty")
        times = [t for _, t, _ in self.binaries]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("binary payment times must be strictly increasing")
        if any(p < 0 for _, _, p in self.binaries):
            raise ValueError("binary payouts must be nonnegative")
        if any(K <= 0 for K, _, _ in self.binaries):
            raise ValueError("binary strikes must be positive")
        if not 0 < self.barrier <= self.k_put:
            raise ValueError("need 0 < barrier <= k_put")
        if self.notional <= 0:
            raise ValueError("notional must be positive")
        if not self.barrier_dates:
            raise ValueError("need at least one barrier date")
        bt = self.barrier_dates
        if any(t2 <= t1 for t1, t2 in zip(bt, bt[1:])):
            raise ValueError("barrier dates must be strictly increasing")
        if not isinstance(self.basket, str) or self.basket not in _BASKET_OPS:
            raise ValueError("basket must be 'worst_of' or 'best_of'")

    @property
    def horizon(self) -> float:
        return max(self.barrier_dates[-1], self.binaries[-1][1])

    @classmethod
    def from_dict(cls, doc: dict) -> "AutocallableSpec":
        _require_keys(doc, ("binaries", "k_put", "barrier", "notional", "barrier_dates"))
        return cls(
            binaries=tuple(config_list(doc["binaries"], "binaries", config_floats)),
            k_put=config_float(doc["k_put"], "k_put"),
            barrier=config_float(doc["barrier"], "barrier"),
            notional=config_float(doc["notional"], "notional"),
            barrier_dates=config_floats(doc["barrier_dates"], "barrier_dates"),
            basket=doc.get("basket", "worst_of"),
        )


@dataclass(frozen=True)
class TARFSpec:
    """Target accrual redemption forward term sheet.

    Parameters
    ----------
    forward : float
        Forward price F.
    payment_times : tuple of float
        Settlement dates, strictly increasing.
    k_upper, k_lower : float
        No-payment band: dates with k_lower <= S <= k_upper pay zero;
        above the band pays S - F, below pays alpha * (S - F).
    barrier : float
        Knock-out price; an observation at or above it ends the contract
        with no payment for that date.
    alpha : float
        Loss multiplier applied below the band.
    cap : float
        Cumulative-gain cap C; the payment that would push the running
        total past C is clipped to hit C exactly and ends the contract.
    """

    forward: float
    payment_times: tuple[float, ...]
    k_upper: float
    k_lower: float
    barrier: float
    alpha: float
    cap: float

    def __post_init__(self):
        object.__setattr__(
            self, "payment_times", tuple(float(t) for t in self.payment_times)
        )
        check_finite(
            self, ("forward", "payment_times", "k_upper", "k_lower", "barrier", "alpha", "cap")
        )
        if not self.payment_times:
            raise ValueError("need at least one payment date")
        ts = self.payment_times
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("payment times must be strictly increasing")
        if not (self.k_lower <= self.forward <= self.k_upper < self.barrier):
            raise ValueError("need k_lower <= forward <= k_upper < barrier")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    @property
    def n_dates(self) -> int:
        return len(self.payment_times)

    @classmethod
    def from_dict(cls, doc: dict) -> "TARFSpec":
        _require_keys(
            doc, ("forward", "payment_times", "k_upper", "k_lower", "barrier", "alpha", "cap")
        )
        return cls(
            forward=config_float(doc["forward"], "forward"),
            payment_times=config_floats(doc["payment_times"], "payment_times"),
            k_upper=config_float(doc["k_upper"], "k_upper"),
            k_lower=config_float(doc["k_lower"], "k_lower"),
            barrier=config_float(doc["barrier"], "barrier"),
            alpha=config_float(doc["alpha"], "alpha"),
            cap=config_float(doc["cap"], "cap"),
        )


@dataclass(frozen=True)
class EuropeanCallSpec:
    """Vanilla European call, used as an analytically priced sanity check."""

    strike: float
    expiry: float

    def __post_init__(self):
        check_finite(self, ("strike", "expiry"))
        if self.strike <= 0 or self.expiry <= 0:
            raise ValueError("strike and expiry must be positive")


def _require_keys(doc: dict, keys) -> None:
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"contract config missing keys: {missing}")


def contract_from_dict(doc: dict):
    """Dispatch a contract JSON document on its "type" key."""
    kind = doc.get("type")
    if kind == "autocallable":
        return AutocallableSpec.from_dict(doc)
    if kind == "tarf":
        return TARFSpec.from_dict(doc)
    if kind == "european_call":
        _require_keys(doc, ("strike", "expiry"))
        return EuropeanCallSpec(
            strike=config_float(doc["strike"], "strike"),
            expiry=config_float(doc["expiry"], "expiry"),
        )
    raise ValueError(f"unknown contract type: {kind!r}")


# Dates are matched to observation times within this many years, so a
# decimal date matches its dt * k grid time despite float rounding.
DATE_TOLERANCE = 1e-9


def date_columns(times, dates) -> np.ndarray:
    """Index into ``times`` of each date in ``dates``, matched within tolerance.

    Raises
    ------
    ValueError
        "missing observation date t" for the first date with no time
        within ``DATE_TOLERANCE``; a NaN date matches no time.
    """
    times = np.asarray(times, dtype=float)
    dates = np.asarray(dates, dtype=float)
    cols = np.abs(dates[:, None] - times[None, :]).argmin(axis=1)
    missed = ~(np.abs(times[cols] - dates) <= DATE_TOLERANCE)
    if missed.any():
        raise ValueError(f"path is missing observation date {dates[missed][0]}")
    return cols


def payoff_bounds(spec, r: float) -> PayoffBounds:
    """Discounted payoff bounds (f_min, f_max) for a contract at rate r.

    Autocallable: the best outcome is the single largest discounted
    coupon; the worst is the put settling with the return at zero.

    TARF: the best outcome accrues gains at the per-date maximum
    (barrier - forward, approached from below) until the cap binds, with
    a fractional final payment; the worst pays the loss floor
    alpha * forward on every date (a loose but safe bound, since the
    contract cannot lose more than alpha * F per date).  Both TARF bounds
    are then widened by 2 T^2 eps max(alpha * F, barrier - F) over T
    dates, eps = 2^-52.  That covers the rounding of the running sums a
    payoff and these bounds are added up in: at most T terms each, every
    term at most max(alpha * F, barrier - F) in magnitude for r >= 0.
    """
    if isinstance(spec, AutocallableSpec):
        f_max = max(math.exp(-r * t) * p for _, t, p in spec.binaries)
        f_min = -math.exp(-r * spec.horizon) * spec.notional * spec.k_put
        return PayoffBounds(f_min=f_min, f_max=f_max)
    if isinstance(spec, TARFSpec):
        gain_step = spec.barrier - spec.forward
        f_max = 0.0
        accrued = 0.0
        for t in spec.payment_times:
            step = min(gain_step, spec.cap - accrued)
            f_max += math.exp(-r * t) * step
            accrued += step
            if accrued >= spec.cap:
                break
        loss_step = spec.alpha * spec.forward
        f_min = -sum(math.exp(-r * t) * loss_step for t in spec.payment_times)
        margin = 2 * spec.n_dates**2 * math.ulp(1.0) * max(loss_step, gain_step)
        return PayoffBounds(f_min=f_min - margin, f_max=f_max + margin)
    raise TypeError(f"no payoff bounds for contract type {type(spec).__name__}")


def _resolve_dates(times, contract, d: int):
    """A contract's dates as columns of the observation ``times``, resolved once per fold.

    An autocallable's are (binary columns, barrier columns, horizon
    column).  A TARF's are its payment columns: it observes one price at
    each of ``times``, so it needs one payment date per time.  A European
    call observes only the last time, its horizon, which its expiry must
    match within ``DATE_TOLERANCE``, and has no columns (None).  A TARF
    and a call need a single underlying, ``d == 1``.
    """
    times = np.asarray(times, dtype=float)
    if isinstance(contract, AutocallableSpec):
        m, n_barrier = len(contract.binaries), len(contract.barrier_dates)
        dates = [t for _, t, _ in contract.binaries] + [*contract.barrier_dates, contract.horizon]
        cols = date_columns(times, dates)
        return cols[:m], cols[m : m + n_barrier], cols[-1]
    if isinstance(contract, TARFSpec):
        if d != 1:
            raise ValueError("TARF evaluation requires a single underlying")
        if contract.n_dates != len(times):
            raise ValueError(
                f"expected {contract.n_dates} price observations, got {len(times)}"
            )
        # A misaligned payment date would be discounted at the wrong time.
        return date_columns(times, contract.payment_times)
    if isinstance(contract, EuropeanCallSpec):
        if d != 1:
            raise ValueError("European call evaluation requires a single underlying")
        # Another expiry than the horizon would be discounted at the wrong time.
        if abs(contract.expiry - times[-1]) > DATE_TOLERANCE:
            raise ValueError(
                f"call expiry {contract.expiry} is not the model horizon "
                f"dt * T = {float(times[-1])}"
            )
        return None
    raise TypeError(f"unsupported contract type {type(contract).__name__}")


def _autocall_date(state, value, col: int, columns, spec: AutocallableSpec, r: float):
    """One observation column of an autocallable, on a batch of paths.

    ``state`` is (discounted payoff, paid, knocked in), ``value`` the
    basket-reduced growth at column ``col`` and ``columns`` the
    autocallable's ``_resolve_dates``.  A binary on this column pays if no
    earlier one did; a barrier date knocks the put in below the barrier;
    the horizon settles the put.
    """
    payoff, paid, knocked = state
    binary_cols, barrier_cols, final_col = columns
    for (strike, t, payout), c in zip(spec.binaries, binary_cols):
        if c == col:
            hit = ~paid & (value >= strike)
            payoff = np.where(hit, math.exp(-r * t) * payout, payoff)
            paid = paid | hit
    if col in barrier_cols:
        knocked = knocked | (value < spec.barrier)
    if col == final_col:
        put = ~paid & knocked & (value < spec.k_put)
        payoff = np.where(
            put, math.exp(-r * spec.horizon) * spec.notional * (value - spec.k_put), payoff
        )
    return payoff, paid, knocked


def _tarf_date(state, s: np.ndarray, spec: TARFSpec, disc: float):
    """One payment date of a TARF, on a batch of paths.

    ``state`` is (discounted total paid, running gain, alive), ``s`` the
    prices on this date and ``disc`` its discount factor.  A price at or
    above the barrier knocks the path out unpaid; the payment that reaches
    the cap is clipped to it and ends the path.
    """
    paid, running, alive = state
    alive = alive & (s < spec.barrier)
    gain = s - spec.forward
    f = np.where(
        s > spec.k_upper, gain, np.where(s < spec.k_lower, spec.alpha * gain, 0.0)
    )
    total = running + f
    capped = total >= spec.cap
    capped &= alive
    paid = np.where(alive, paid + disc * np.where(capped, spec.cap - running, f), paid)
    alive &= ~capped
    return paid, np.where(alive, total, running), alive


def _payoff_fold(times, contract, r: float, s0):
    """A contract's discounted payoff as a fold over observation dates: (start, step, value, done).

    ``start`` is the payoff state before the first date, a tuple of
    length-1 arrays that broadcast against any batch; ``step(state,
    growth, t)`` observes column t of ``times`` given each path's growth
    factors S_t / S_0 there, and ``value(state, growth)`` is the
    discounted payoff of complete paths given their final growth.
    ``growth`` is asset-major: a sequence of d per-asset arrays that
    broadcast together, such as the rows of a (d, P) array or the
    per-asset grids of forward induction.  ``done(state)`` marks the paths
    whose payoff no later date can change: paid for an autocallable,
    knocked out or capped for a TARF, never for a call; ``_fold_paths``
    ignores it and the lattice enumerator retires those paths early.  A
    TARF and a call pay on the prices ``s0[0] * growth[0]``; an
    autocallable reduces growth over its basket and ignores ``s0``.
    ``len(s0)`` is the asset count d.  One start serves every batch and
    thread, so a step returns new arrays and never writes its state in
    place.
    """
    columns = _resolve_dates(times, contract, len(s0))
    if isinstance(contract, AutocallableSpec):
        final_col = int(columns[2])
        basket_op = _BASKET_OPS[contract.basket]

        def step(state, growth, t):
            if t > final_col:
                return state
            value = functools.reduce(basket_op, growth)
            return _autocall_date(state, value, t, columns, contract, r)

        start = (np.zeros(1), np.zeros(1, dtype=bool), np.zeros(1, dtype=bool))
        return start, step, lambda state, growth: state[0], lambda state: state[1]
    spot = s0[0]
    if isinstance(contract, TARFSpec):
        discs = [math.exp(-r * t) for t in contract.payment_times]

        def step(state, growth, t):
            return _tarf_date(state, spot * growth[0], contract, discs[t])

        start = (np.zeros(1), np.zeros(1), np.ones(1, dtype=bool))
        return start, step, lambda state, growth: state[0], lambda state: ~state[2]
    return (
        (),
        lambda state, growth, t: state,
        lambda state, growth: _call_payoff(spot * growth[0], contract, r),
        lambda state: np.zeros(1, dtype=bool),
    )


def _fold_paths(fold, growth: np.ndarray) -> np.ndarray:
    """Discounted payoffs under ``fold`` of paths with growth factors ``growth``.

    ``growth`` is (batch, times, d), or (batch, times) for one asset or
    an autocallable whose assets are already reduced.  Each date's growth
    reaches the fold asset-major, as a (d, batch) view.
    """
    state, step, value, _ = fold
    by_asset = np.moveaxis(growth.reshape(growth.shape[:2] + (-1,)), -1, 0)
    for t in range(growth.shape[1]):
        state = step(state, by_asset[..., t], t)
    return value(state, by_asset[..., -1])


def autocall_payoff_batch(
    times, cum_returns: np.ndarray, spec: AutocallableSpec, r: float
) -> np.ndarray:
    """Discounted autocallable payoffs for a batch of paths, by ``_payoff_fold``.

    Parameters
    ----------
    times : array_like, shape (m,)
        Observation dates shared by all paths.
    cum_returns : np.ndarray, shape (batch, m) or (batch, m, d)
        Cumulative simple returns, the growth factors S_t / S_0.
    r : float
        Discount rate.

    Returns
    -------
    np.ndarray, shape (batch,)
    """
    values = np.asarray(cum_returns, dtype=float)
    if values.shape[1] != len(times):
        raise ValueError(f"expected {len(times)} observations, got {values.shape[1]}")
    return _fold_paths(_payoff_fold(times, spec, r, (1.0,)), values)


def tarf_payoff_batch(prices: np.ndarray, spec: TARFSpec, r: float) -> np.ndarray:
    """Discounted TARF payoffs for a batch of paths, by ``_payoff_fold``.

    Parameters
    ----------
    prices : np.ndarray, shape (batch, T)
        Prices at the T payment dates, read as growth from a start of 1.
    r : float
        Discount rate.

    Returns
    -------
    np.ndarray, shape (batch,)
    """
    prices = np.asarray(prices, dtype=float)
    if prices.shape[1] != spec.n_dates:
        raise ValueError(
            f"expected {spec.n_dates} price observations, got {prices.shape[1]}"
        )
    return _fold_paths(_payoff_fold(spec.payment_times, spec, r, (1.0,)), prices[:, :, None])


def _call_payoff(s_T: np.ndarray, spec: EuropeanCallSpec, r: float) -> np.ndarray:
    """Discounted European call payoffs on horizon prices ``s_T``."""
    return math.exp(-r * spec.expiry) * np.maximum(s_T - spec.strike, 0.0)
