import json
import math
from pathlib import Path

import numpy as np
import pytest

from qdp.amplitude_estimation import (
    GroverOracleSim,
    classical_call_bound,
    iqae_estimate,
    oracle_call_bound,
)


class TestOracleCallBound:
    def test_reference_point(self):
        value = oracle_call_bound(1e-3, 0.32)
        assert 5.0e3 <= value <= 6.0e3

    def test_inverse_epsilon_dominance(self):
        a = oracle_call_bound(1e-3, 0.32)
        b = oracle_call_bound(1e-4, 0.32)
        assert b == pytest.approx(10.0 * a, rel=0.10)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            oracle_call_bound(0.0, 0.32)
        with pytest.raises(ValueError):
            oracle_call_bound(1e-3, 1.5)
        # Coarse epsilon drives the inner log argument to <= 1.
        with pytest.raises(ValueError):
            oracle_call_bound(0.7, 0.999)

    def test_classical_bound(self):
        assert classical_call_bound(1e-2, 0.32) == math.ceil(
            math.log(2.0 / 0.32) / (2.0 * 1e-4)
        )


class TestGroverOracleSim:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroverOracleSim(a=1.5)

    def test_k1_quarter_amplitude_is_deterministic(self):
        # sin^2(3 * pi/6) = 1 exactly for a = 0.25.
        oracle = GroverOracleSim(a=0.25)
        assert oracle.outcome_probability(1) == pytest.approx(1.0)
        rng = np.random.default_rng(0)
        assert oracle.sample(1, 50, rng) == 50

    def test_shot_statistics_match_model(self):
        oracle = GroverOracleSim(a=0.3)
        rng = np.random.default_rng(1)
        shots = 20_000
        for k in (0, 2, 5):
            p = oracle.outcome_probability(k)
            ones = oracle.sample(k, shots, rng)
            sigma = math.sqrt(shots * p * (1 - p))
            assert abs(ones - shots * p) <= 3.0 * sigma + 1.0

    def test_call_counter_accounting(self):
        oracle = GroverOracleSim(a=0.3)
        rng = np.random.default_rng(2)
        oracle.sample(3, 10, rng)
        assert oracle.call_counter == 10 * (3 + 1)
        oracle.sample(0, 5, rng)
        assert oracle.call_counter == 40 + 5


class TestIqaeEstimate:
    def test_zero_amplitude_exact(self):
        oracle = GroverOracleSim(a=0.0)
        result = iqae_estimate(oracle, 1e-3, 0.32, seed=0)
        assert result.a_hat == 0.0
        assert result.oracle_calls < oracle_call_bound(1e-3, 0.32)

    def test_deterministic_per_seed(self):
        r1 = iqae_estimate(GroverOracleSim(a=0.3), 1e-3, 0.32, seed=7)
        r2 = iqae_estimate(GroverOracleSim(a=0.3), 1e-3, 0.32, seed=7)
        assert r1 == r2

    def test_interval_width_and_containment_of_point(self):
        result = iqae_estimate(GroverOracleSim(a=0.3), 1e-3, 0.32, seed=0)
        lo, hi = result.interval
        assert hi - lo <= 2e-3 + 1e-12
        assert lo <= result.a_hat <= hi

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_calls_within_worst_case_bound(self, epsilon):
        bound = oracle_call_bound(epsilon, 0.32)
        for seed in range(40):
            oracle = GroverOracleSim(a=0.3)
            result = iqae_estimate(oracle, epsilon, 0.32, seed=seed)
            assert result.oracle_calls <= bound
            assert oracle.call_counter == result.oracle_calls

    def test_coverage_quick_check(self):
        hits = 0
        n = 60
        for seed in range(n):
            result = iqae_estimate(GroverOracleSim(a=0.3), 3e-3, 0.32, seed=seed)
            hits += int(abs(result.a_hat - 0.3) <= 3e-3)
        assert hits / n >= 0.63

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            iqae_estimate(GroverOracleSim(a=0.3), 0.0, 0.32)
        with pytest.raises(ValueError):
            iqae_estimate(GroverOracleSim(a=0.3), 1e-3, 0.0)


class TestGoldenIqae:
    """Seeded ``iqae_estimate`` results, pinned bit for bit: a change to the
    quantile computation or the round loop must keep every one of them."""

    GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "seeded_iqae.json").read_text("utf-8")
    )

    @pytest.mark.parametrize(
        "case",
        GOLDEN["cases"],
        ids=lambda case: f"eps={case['epsilon']}-a={case['a']}-seed={case['seed']}",
    )
    def test_seeded_results(self, case):
        result = iqae_estimate(
            GroverOracleSim(a=case["a"]),
            case["epsilon"],
            self.GOLDEN["alpha"],
            seed=case["seed"],
        )
        assert result.a_hat.hex() == case["a_hat"]
        assert [end.hex() for end in result.interval] == case["interval"]
        assert result.oracle_calls == case["oracle_calls"]
        assert result.rounds == case["rounds"]
