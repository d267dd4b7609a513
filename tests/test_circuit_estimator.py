import dataclasses
import inspect
import math

import pytest

from qdp.amplitude_estimation import oracle_call_bound
from qdp.circuit_estimator import (
    INFEASIBLE_SCALE,
    EstimateBreakdown,
    RegisterPlan,
    autocall_payoff_resources,
    end_to_end,
    loader_gate_resources,
    reparam_loading_resources,
    riemann_loading_resources,
    tarf_payoff_resources,
)
from qdp.cli_report import _estimate, load_benchmark_config
from qdp.contracts import contract_from_dict, payoff_bounds
from qdp.market_model import GBMParams
from qdp.qarith_resources import FixedPointFormat, ResourceCount

FMT = FixedPointFormat(n=34, p=2)
G_FMT = FixedPointFormat(n=5, p=3)
# end_to_end's polynomial, interval and parallelization knobs, at its defaults.
KNOBS = {
    name: inspect.signature(end_to_end).parameters[name].default for name in ("k", "M", "z")
}


def plan(d, T):
    """The shipped configs' register plan for d assets and T steps."""
    return RegisterPlan(loader=G_FMT, price=FMT, d=d, T=T)


def within_factor(value, reference, factor=2.0):
    return reference / factor <= value <= reference * factor


class TestBreakdowns:
    @staticmethod
    def assert_recomposes(breakdown):
        total = breakdown.total()
        breakdown.assert_consistent(total)
        for field in ("toffoli_count", "t_count", "t_depth", "logical_qubits"):
            assert getattr(total, field) == sum(
                getattr(rc, field) for _, rc in breakdown.items
            )

    def test_riemann_breakdown_recomposes(self):
        self.assert_recomposes(riemann_loading_resources(plan(3, 20), 1e-4, **KNOBS))

    def test_reparam_breakdown_recomposes(self):
        self.assert_recomposes(reparam_loading_resources(plan(3, 20), 6, 1e-4, **KNOBS))

    def test_inconsistent_total_detected(self):
        breakdown = riemann_loading_resources(plan(1, 2), 1e-4, **KNOBS)
        total = breakdown.total()
        wrong = ResourceCount(
            toffoli_count=total.toffoli_count + 1,
            rotation_t_count=total.rotation_t_count,
            t_depth=total.t_depth,
            logical_qubits=total.logical_qubits,
        )
        with pytest.raises(AssertionError):
            breakdown.assert_consistent(wrong)

    def test_rows_shape(self):
        breakdown = riemann_loading_resources(plan(3, 20), 1e-4, **KNOBS)
        rows = breakdown.as_rows()
        assert all(
            set(r) == {"stage", "toffoli_count", "t_count", "t_depth", "logical_qubits"}
            for r in rows
        )


class TestRiemannLoading:
    def test_benchmark_q_iterate_magnitudes(self, autocall_params, autocall_contract):
        # The published loading figures describe the full Grover iterate,
        # which contains the state preparation twice.
        report = end_to_end(
            "riemann-no-norm", autocall_params, autocall_contract, FMT, 2e-3
        )
        assert within_factor(2 * report.oracle.t_depth, 26_000)
        assert within_factor(report.logical_qubits, 23_000)

    def test_d1_has_no_cross_terms(self):
        breakdown = riemann_loading_resources(plan(1, 4), 1e-4, **KNOBS)
        cross = dict(breakdown.items)["correlation cross terms"]
        assert cross.toffoli_count == 0
        assert cross.t_depth == 0


class TestReparamLoading:
    def test_width_guard_bits(self):
        wide = plan(3, 20).cumulative
        assert wide.n == 5 + 5 + 2
        assert wide.p == 3 + 5 + 2

    def test_width_trivial_case(self):
        assert plan(1, 1).cumulative == G_FMT

    def test_benchmark_q_iterate_magnitudes(self, autocall_params, autocall_contract):
        report = end_to_end(
            "reparam", autocall_params, autocall_contract, FMT, 2e-3
        )
        assert within_factor(2 * report.oracle.t_depth, 9_500)
        assert within_factor(report.logical_qubits, 8_000)

    def test_ansatz_item_is_loader_cost_per_register(self):
        breakdown = reparam_loading_resources(plan(3, 20), 6, 1e-4, **KNOBS)
        layers = dict(breakdown.items)["gaussian ansatz layers"]
        loader = loader_gate_resources(5, 6, 1e-4)
        assert layers.t_depth == loader.t_depth
        assert layers.t_count == 3 * 20 * loader.t_count
        assert layers.logical_qubits == 3 * 20 * loader.logical_qubits

    def test_depth_linear_in_ansatz_layers(self):
        d0 = reparam_loading_resources(plan(1, 2), 0, 1e-4, **KNOBS).total()
        d6 = reparam_loading_resources(plan(1, 2), 6, 1e-4, **KNOBS).total()
        layer = math.ceil(3 * 5 * math.log2(5 / 1e-4))
        assert d6.t_depth - d0.t_depth == 6 * layer

    def test_shallower_than_riemann_at_benchmarks(self):
        for d, T in ((3, 20), (1, 26)):
            reparam = reparam_loading_resources(plan(d, T), 6, 1e-4, **KNOBS).total()
            riemann = riemann_loading_resources(plan(d, T), 1e-4, **KNOBS).total()
            assert reparam.t_depth < riemann.t_depth


class TestLoaderResources:
    def test_single_layer_at_L0(self):
        rc = loader_gate_resources(5, 0, 1e-4)
        assert rc.t_depth == math.ceil(3 * 5 * math.log2(5 / 1e-4))
        # The layer's rotations run in series: T-count equals T-depth.
        assert rc.t_count == rc.t_depth
        assert rc.logical_qubits == 5

    def test_linear_in_depth(self):
        base = loader_gate_resources(5, 0, 1e-4)
        assert loader_gate_resources(5, 6, 1e-4).t_depth == 7 * base.t_depth
        assert loader_gate_resources(5, 6, 1e-4).t_count == 1645

    def test_epsilon_guard(self):
        with pytest.raises(ValueError):
            loader_gate_resources(5, 6, 0.0)


class TestPayoffCircuits:
    def test_autocall_benchmark_magnitudes(self, autocall_contract):
        total = autocall_payoff_resources(autocall_contract, plan(3, 20), 1e-4, **KNOBS).total()
        assert within_factor(total.t_depth, 3_200)
        assert within_factor(total.logical_qubits, 1_600)

    def test_autocall_rotation_count_matches_binaries(self, autocall_contract):
        breakdown = autocall_payoff_resources(autocall_contract, plan(3, 20), 1e-4, **KNOBS)
        m = len(autocall_contract.binaries)
        rot = dict(breakdown.items)["binary coupon rotations"]
        per = rot.t_count // m
        assert rot.t_count == per * m
        assert rot.logical_qubits == m

    def test_tarf_benchmark_magnitudes(self, tarf_contract):
        total = tarf_payoff_resources(tarf_contract, plan(1, 26), 1e-4, **KNOBS).total()
        assert within_factor(total.t_depth, 6_000)
        assert within_factor(total.logical_qubits, 9_000)

    def test_tarf_single_date_has_no_prefix_sums(self, tarf_fixture):
        from qdp.contracts import TARFSpec

        spec = TARFSpec(
            forward=20.0, payment_times=(1.0,), k_upper=20.0, k_lower=15.0,
            barrier=30.0, alpha=2.0, cap=5.0,
        )
        breakdown = tarf_payoff_resources(spec, plan(1, 1), 1e-4, **KNOBS)
        prefix = dict(breakdown.items)["running-total prefix sums"]
        assert prefix.t_depth == 0
        assert prefix.toffoli_count == 0


class TestEndToEnd:
    def test_n_oracle_matches_bound(self, autocall_params, autocall_contract):
        reports = {
            method: end_to_end(
                method, autocall_params, autocall_contract, FMT, 2e-3,
                confidence=0.68,
            )
            for method in ("riemann", "riemann-no-norm", "reparam")
        }
        for report in reports.values():
            eps_amp = report.budget.eps_amp
            assert report.n_oracle == math.ceil(oracle_call_bound(eps_amp, 0.32))
        # The normalized method resolves the amplitude P_max^T times finer.
        norm, raw = reports["riemann"], reports["riemann-no-norm"]
        assert norm.budget.eps_amp * norm.scale == pytest.approx(
            raw.budget.eps_amp, rel=1e-12
        )

    @pytest.mark.parametrize("name", ["autocallable", "tarf"])
    def test_defaults_match_cli(self, name):
        # The CLI forwards only the keys a config sets, so a library call
        # with no keywords reproduces it on the shipped configs.
        config = load_benchmark_config(name)
        params = GBMParams.from_dict(config["model"])
        contract = contract_from_dict(config["contract"])
        for method in ("riemann", "riemann-no-norm", "reparam"):
            library = end_to_end(method, params, contract, FixedPointFormat(34, 2), 2e-3)
            assert library.as_dict() == _estimate(config, method).as_dict()

    @pytest.mark.parametrize(
        "stage",
        [
            riemann_loading_resources,
            reparam_loading_resources,
            autocall_payoff_resources,
            tarf_payoff_resources,
        ],
    )
    def test_stage_models_take_no_defaults(self, stage):
        # end_to_end's defaults are the only ones, so a stage model called
        # without a knob fails rather than costing another circuit.  And a
        # register width, d or T reaches a stage model only through its plan.
        params = inspect.signature(stage).parameters.values()
        assert [p.name for p in params if p.default is not p.empty] == []
        widths = [
            p.name for p in params
            if p.name in ("d", "T") or "FixedPointFormat" in str(p.annotation)
        ]
        assert widths == []
        assert "RegisterPlan" in [str(p.annotation) for p in params]

    @pytest.mark.parametrize("name", ["autocallable", "tarf"])
    def test_budget_scale_per_method(self, name):
        config = load_benchmark_config(name)
        params = GBMParams.from_dict(config["model"])
        contract = contract_from_dict(config["contract"])
        f_delta = payoff_bounds(contract, params.r).f_delta
        riemann = end_to_end("riemann", params, contract, FMT, 2e-3)
        assert riemann.budget.scale == riemann.scale * f_delta
        for method in ("riemann-no-norm", "reparam"):
            report = end_to_end(method, params, contract, FMT, 2e-3)
            assert report.budget.scale == f_delta

    def test_totals_compose_from_oracle(self, tarf_params, tarf_contract):
        report = end_to_end(
            "reparam", tarf_params, tarf_contract, FMT, 2e-3
        )
        assert report.total_t_depth == 2 * report.oracle.t_depth * report.n_oracle
        assert report.total_t_count == 2 * report.oracle.t_count * report.n_oracle

    def test_report_stores_only_what_it_cannot_derive(self, tarf_params, tarf_contract):
        report = end_to_end("riemann", tarf_params, tarf_contract, FMT, 2e-3)
        assert [f.name for f in dataclasses.fields(report)] == [
            "method", "n_oracle", "budget", "scale",
            "loading_breakdown", "payoff_breakdown",
        ]
        loading, payoff = report.loading_breakdown, report.payoff_breakdown
        assert report.loading == loading.total()
        assert report.payoff == payoff.total()
        assert report.oracle == EstimateBreakdown(loading.items + payoff.items).total()
        assert report.logical_qubits == report.oracle.logical_qubits

    @pytest.mark.parametrize(
        "method, moves_with",
        [("reparam", "gaussian_fmt"), ("riemann", "fmt"), ("riemann-no-norm", "fmt")],
    )
    def test_eps_disc_reads_the_discretized_register(
        self, method, moves_with, autocall_params, autocall_contract
    ):
        # reparam discretizes each step on its loader registers, the Riemann
        # methods on price-format return registers.
        def eps_disc(fmt, gaussian_fmt):
            return end_to_end(
                method, autocall_params, autocall_contract, fmt, 2e-3,
                gaussian_fmt=gaussian_fmt,
            ).budget.eps_disc

        base = eps_disc(FMT, G_FMT)
        wider_price = eps_disc(FixedPointFormat(n=35, p=2), G_FMT)
        wider_loader = eps_disc(FMT, FixedPointFormat(n=6, p=3))
        if moves_with == "fmt":
            moved, kept = wider_price, wider_loader
        else:
            moved, kept = wider_loader, wider_price
        # One more bit halves the cell width, and the midpoint bound goes as
        # its square.
        assert moved == pytest.approx(base / 4)
        assert kept == base

    def test_reparam_eps_disc_at_loader_width(self, autocall_params, autocall_contract):
        report = end_to_end("reparam", autocall_params, autocall_contract, FMT, 2e-3)
        assert report.budget.eps_disc == pytest.approx(6.85e-7, rel=1e-3)

    def test_unachievable_target_names_binding_component(
        self, autocall_params, autocall_contract
    ):
        with pytest.raises(ValueError, match="binding component eps_"):
            end_to_end(
                "reparam", autocall_params, autocall_contract, FMT, 1e-6
            )

    def test_unknown_method_rejected(self, autocall_params, autocall_contract):
        with pytest.raises(ValueError):
            end_to_end("qmc", autocall_params, autocall_contract, FMT, 2e-3)

    def test_riemann_normalization_flag(self, autocall_params, autocall_contract):
        norm_report = end_to_end(
            "riemann", autocall_params, autocall_contract, FMT, 2e-3
        )
        raw_report = end_to_end(
            "riemann-no-norm", autocall_params, autocall_contract, FMT, 2e-3
        )
        assert norm_report.scale == raw_report.scale > INFEASIBLE_SCALE
        assert not norm_report.feasible
        assert raw_report.feasible

    def test_report_as_dict_round_trips_breakdowns(
        self, autocall_params, autocall_contract
    ):
        report = end_to_end(
            "reparam", autocall_params, autocall_contract, FMT, 2e-3
        )
        doc = report.as_dict()
        assert doc["total_t_depth"] == report.total_t_depth
        assert len(doc["loading_breakdown"]) == len(report.loading_breakdown.items)
        assert math.isclose(
            sum(r["t_depth"] for r in doc["loading_breakdown"]),
            report.loading.t_depth,
        )
