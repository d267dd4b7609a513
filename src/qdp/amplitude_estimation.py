"""
Simulated iterative amplitude estimation and its oracle-call estimate.

A state-preparation operator A marks an amplitude sqrt(a); applying the
Grover operator Q k times rotates the marked probability to
sin^2((2k+1) theta_a) with theta_a = arcsin(sqrt(a)).  The simulator
samples these Bernoulli outcomes directly, so the adaptive estimation
loop can be exercised end to end without a statevector.

The iterative scheme keeps a confidence interval for theta, picks the
largest power k whose scaled interval still fits in a known half-plane,
measures in small batches, and tightens the interval with exact binomial
(Clopper-Pearson) bounds until the interval on a is narrower than
2*epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def oracle_call_bound(epsilon: float, alpha: float) -> float:
    """Typical Grover-oracle applications for accuracy epsilon, confidence 1-alpha.

    1.4/epsilon * ln(2/alpha * log2(pi/(4 epsilon))).  This is a typical
    count, not a worst-case bound: ``iqae_estimate`` can exceed it.  At
    epsilon=3e-2, alpha=0.32, 87 of 1000 runs did, by up to 1.33x, on
    amplitudes drawn uniformly by ``default_rng(0)`` with run i at seed i.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    log_term = math.log2(math.pi / (4.0 * epsilon))
    inner = 2.0 / alpha * log_term
    if inner <= 1.0:
        raise ValueError("epsilon too coarse for the bound's log term")
    return 1.4 / epsilon * math.log(inner)


def classical_call_bound(epsilon: float, alpha: float) -> int:
    """Samples a classical Bernoulli estimator needs for the same guarantee.

    Chernoff-Hoeffding: ln(2/alpha) / (2 epsilon^2).
    """
    if not 0 < epsilon < 1 or not 0 < alpha < 1:
        raise ValueError("epsilon and alpha must be in (0, 1)")
    return math.ceil(math.log(2.0 / alpha) / (2.0 * epsilon * epsilon))


@dataclass
class GroverOracleSim:
    """Bernoulli model of the Grover oracle for a marked amplitude a.

    Sampling at power k returns ones with probability
    sin^2((2k+1) theta_a).  ``call_counter`` accumulates k oracle
    applications per amplified shot plus one for the base preparation.
    """

    a: float
    call_counter: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must be in [0, 1]")

    @property
    def theta(self) -> float:
        return math.asin(math.sqrt(self.a))

    def outcome_probability(self, k: int) -> float:
        """P(measure 1) after k Grover applications."""
        return math.sin((2 * k + 1) * self.theta) ** 2

    def sample(self, k: int, shots: int, rng: np.random.Generator) -> int:
        """Number of 1-outcomes over ``shots`` measurements at power k."""
        if k < 0 or shots < 1:
            raise ValueError("need k >= 0 and shots >= 1")
        self.call_counter += shots * (k + 1)
        return int(rng.binomial(shots, self.outcome_probability(k)))


@dataclass(frozen=True)
class EstimationResult:
    a_hat: float
    interval: tuple[float, float]
    oracle_calls: int
    rounds: int


def _find_next_k(k: int, theta_l: float, theta_u: float, up: bool) -> tuple[int, bool]:
    """Largest usable Grover power given the current theta interval.

    Searches for K = 4k+2 such that the scaled interval
    [K theta_l, K theta_u] lies in one half-plane of the unit circle
    (where cos is invertible up to sign), requiring K to at least double;
    returns the old power when no better one exists.
    """
    K_max = int(math.floor(math.pi / (theta_u - theta_l)))
    K_cur = 4 * k + 2
    K = K_max - (K_max - 2) % 4  # largest K congruent to 2 mod 4
    while K >= 2.0 * K_cur:
        q = K * theta_l / math.pi
        if int(q) == int(K * theta_u / math.pi):
            return (K - 2) // 4, int(q) % 2 == 0
        K -= 4
    return k, up


def _clopper_pearson(ones: int, shots: int, alpha: float) -> tuple[float, float]:
    """Exact binomial confidence interval for the success probability."""
    # Imported here so that loading qdp does not load scipy.stats.
    from scipy.stats import beta as _beta_dist

    if ones == 0:
        lo = 0.0
    else:
        lo = float(_beta_dist.ppf(alpha / 2.0, ones, shots - ones + 1))
    if ones == shots:
        hi = 1.0
    else:
        hi = float(_beta_dist.ppf(1.0 - alpha / 2.0, ones + 1, shots - ones))
    return lo, hi


# Measurement batch size per round; small batches keep the total oracle
# consumption near ``oracle_call_bound``, which runs can still exceed.
SHOTS_PER_ROUND = 2


def iqae_estimate(
    oracle: GroverOracleSim,
    epsilon: float,
    alpha: float,
    seed: int = 0,
) -> EstimationResult:
    """Iteratively estimate the oracle's amplitude a to within epsilon.

    Parameters
    ----------
    oracle : GroverOracleSim
    epsilon : float
        Target half-width of the confidence interval on a.
    alpha : float
        Allowed failure probability (confidence 1 - alpha).
    seed : int
        Makes the run deterministic.

    Returns
    -------
    EstimationResult
        Point estimate, interval of width <= 2*epsilon, and the
        cumulative oracle applications consumed from this call.
    """
    if not 0 < epsilon < 1 or not 0 < alpha < 1:
        raise ValueError("epsilon and alpha must be in (0, 1)")
    rng = np.random.default_rng(seed)
    calls_before = oracle.call_counter

    theta_l, theta_u = 0.0, math.pi / 2.0
    k, up = 0, True
    # Confidence split across the worst-case number of power levels.
    n_levels = max(1, math.ceil(math.log2(math.pi / (4.0 * epsilon))))
    alpha_i = alpha / n_levels
    shots_at_k = 0
    ones_at_k = 0
    total_ones = 0
    rounds = 0

    while math.sin(theta_u) ** 2 - math.sin(theta_l) ** 2 > 2.0 * epsilon:
        rounds += 1
        k_next, up_next = _find_next_k(k, theta_l, theta_u, up)
        if k_next != k:
            k, up = k_next, up_next
            shots_at_k = 0
            ones_at_k = 0

        ones = oracle.sample(k, SHOTS_PER_ROUND, rng)
        shots_at_k += SHOTS_PER_ROUND
        ones_at_k += ones
        total_ones += ones

        p_min, p_max = _clopper_pearson(ones_at_k, shots_at_k, alpha_i)

        K = 4 * k + 2
        if up:
            phi_min = math.acos(1.0 - 2.0 * p_min)
            phi_max = math.acos(1.0 - 2.0 * p_max)
        else:
            phi_min = 2.0 * math.pi - math.acos(1.0 - 2.0 * p_max)
            phi_max = 2.0 * math.pi - math.acos(1.0 - 2.0 * p_min)
        # Both ends of the scaled interval share one 2*pi branch.
        branch = math.floor(K * theta_l / (2.0 * math.pi))
        theta_l = max(theta_l, (2.0 * math.pi * branch + phi_min) / K)
        theta_u = min(theta_u, (2.0 * math.pi * branch + phi_max) / K)
        if theta_u < theta_l:
            theta_l, theta_u = theta_u, theta_l

    a_l = math.sin(theta_l) ** 2
    a_u = math.sin(theta_u) ** 2
    if total_ones == 0 and a_l == 0.0:
        a_hat = 0.0
    else:
        a_hat = 0.5 * (a_l + a_u)
    return EstimationResult(
        a_hat=a_hat,
        interval=(a_l, a_u),
        oracle_calls=oracle.call_counter - calls_before,
        rounds=rounds,
    )
