import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from qdp import cli_report
from qdp.circuit_estimator import end_to_end
from qdp.cli_report import REFERENCE_RESULTS, load_benchmark_config, main
from qdp.contracts import contract_from_dict, payoff_bounds
from qdp.error_budget import truncation_error
from qdp.market_model import GBMParams
from qdp.qarith_resources import FixedPointFormat


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text: str):
    """``json.loads`` that refuses NaN and infinities, as strict parsers do."""

    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def small_pricing_config(tmp_path, paths=2000):
    doc = {
        "model": {
            "r": 0.02, "sigmas": [0.3], "rho": [[1.0]], "dt": 1.0 / 3.0,
            "T": 3, "s0": [1.0],
        },
        "contract": {
            "type": "autocallable",
            "binaries": [[1.1, 1.0 / 3.0, 2.0], [1.1, 2.0 / 3.0, 4.0], [1.1, 1.0, 6.0]],
            "k_put": 1.0, "barrier": 0.7, "notional": 18.0,
            "barrier_dates": [1.0 / 3.0, 2.0 / 3.0, 1.0],
        },
        "grid": {"n": 3, "w": 5.0},
        "paths": paths,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBenchmarkConfigs:
    def test_autocallable_shape(self, autocall_config):
        model = autocall_config["model"]
        assert model["T"] == 20
        assert len(model["sigmas"]) == 3
        assert model["dt"] == pytest.approx(0.05)
        assert len(autocall_config["contract"]["binaries"]) == 5
        assert len(autocall_config["contract"]["barrier_dates"]) == 20

    def test_tarf_shape(self, tarf_config):
        model = tarf_config["model"]
        assert model["T"] == 26
        assert model["sigmas"] == [0.4]
        assert len(tarf_config["contract"]["payment_times"]) == 26

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            load_benchmark_config("swaption")


class TestPricingCommands:
    def test_price_mc_json(self, tmp_path, capsys):
        config = small_pricing_config(tmp_path)
        code, out, err = run_cli(capsys, "price-mc", "--config", config, "--seed", "3")
        assert code == 0, err
        doc = json.loads(out)
        assert set(doc) >= {"estimate", "stderr", "paths", "seed", "config_sha256"}
        assert doc["paths"] == 2000
        assert doc["seed"] == 3

    def test_price_mc_deterministic(self, tmp_path, capsys):
        config = small_pricing_config(tmp_path)
        _, out1, _ = run_cli(capsys, "price-mc", "--config", config, "--seed", "1")
        _, out2, _ = run_cli(capsys, "price-mc", "--config", config, "--seed", "1")
        assert out1 == out2

    def test_price_exact(self, tmp_path, capsys):
        config = small_pricing_config(tmp_path)
        code, out, err = run_cli(capsys, "price-exact", "--config", config)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["lattice_size"] == 8**3
        assert 0.9 <= doc["total_mass"] <= 1.0

    def test_price_exact_shipped_term_sheet_on_one_asset(
        self, tmp_path, capsys, autocall_config
    ):
        # 32^20 paths: far past enumeration, priced by forward induction.
        model = dict(autocall_config["model"], d=1, sigmas=[0.4], rho=[[1.0]], s0=[1.0])
        config = tmp_path / "autocallable_d1.json"
        config.write_text(json.dumps(dict(autocall_config, model=model)))
        code, out, err = run_cli(capsys, "price-exact", "--config", str(config))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["lattice_size"] == 32**20
        assert doc["total_mass"] >= 1.0 - truncation_error(1, 20, 5.0)
        bounds = payoff_bounds(contract_from_dict(autocall_config["contract"]), 0.01)
        assert bounds.f_min <= doc["estimate"] <= bounds.f_max

    def test_price_exact_shipped_autocallable_exceeds_work_guard(self, capsys):
        config = resources.files("qdp.configs").joinpath("autocallable_benchmark.json")
        code, _, err = run_cli(capsys, "price-exact", "--config", str(config))
        assert code == 2
        assert "forward induction at n=5, d=3, T=20" in err

    def test_price_exact_tarf_past_the_path_cap_is_refused(
        self, tmp_path, capsys, tarf_config
    ):
        # 2^40 cells per register: refused by the path cap, not by numpy's
        # allocator.
        model = dict(tarf_config["model"], T=2)
        contract = dict(
            tarf_config["contract"],
            payment_times=tarf_config["contract"]["payment_times"][:2],
        )
        grid = {"n": 40, "w": 5.0}
        config = tmp_path / "tarf_n40.json"
        config.write_text(
            json.dumps(dict(tarf_config, model=model, contract=contract, grid=grid))
        )
        code, out, err = run_cli(capsys, "price-exact", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "lattice enumeration at n=40, d=1, T=2" in err
        assert "2^26" in err

    @pytest.mark.parametrize("command", ["price-mc", "price-exact"])
    def test_call_expiry_off_the_horizon_is_config_error(self, tmp_path, capsys, command):
        doc = json.loads(Path(small_pricing_config(tmp_path)).read_text())
        doc["contract"] = {"type": "european_call", "strike": 1.0, "expiry": 5.0}
        config = tmp_path / "call.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert "call expiry 5.0 is not the model horizon dt * T = 1.0" in err

    def test_config_required(self, capsys):
        code, _, err = run_cli(capsys, "price-mc")
        assert code == 2
        assert "error:" in err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "price-mc", "--config", str(bad))
        assert code == 2
        assert "error:" in err

    def test_price_mc_shipped_autocallable(self, capsys):
        # Its decimal observation dates differ from the dt * k step times
        # by float rounding; the tolerant date lookup still matches them.
        config = resources.files("qdp.configs").joinpath("autocallable_benchmark.json")
        code, out, err = run_cli(capsys, "price-mc", "--config", str(config))
        assert code == 0, err
        doc = json.loads(out)
        cfg = load_benchmark_config("autocallable")
        bounds = payoff_bounds(contract_from_dict(cfg["contract"]), cfg["model"]["r"])
        assert bounds.f_min <= doc["estimate"] <= bounds.f_max

    def test_null_paths_reads_as_absent(self, tmp_path, capsys, tarf_config):
        config = tmp_path / "null_paths.json"
        config.write_text(json.dumps(dict(tarf_config, paths=None)))
        code, out, err = run_cli(capsys, "price-mc", "--config", str(config))
        assert code == 0, err
        assert json.loads(out)["paths"] == 100_000

    def test_null_required_key_reported(self, tmp_path, capsys, tarf_config):
        config = tmp_path / "null_target.json"
        config.write_text(json.dumps(dict(tarf_config, target_error=None)))
        code, _, err = run_cli(capsys, "estimate-resources", "--config", str(config))
        assert code == 2
        assert "target_error" in err

    def test_missing_contract_key_reported(self, tmp_path, capsys):
        doc = json.loads(Path(small_pricing_config(tmp_path)).read_text())
        del doc["contract"]["k_put"]
        config = tmp_path / "no_k_put.json"
        config.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "price-mc", "--config", str(config))
        assert code == 2
        assert "k_put" in err

    def test_internal_type_error_propagates(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("internal bug")

        monkeypatch.setattr(cli_report.pe, "mc_price", broken)
        config = small_pricing_config(tmp_path)
        with pytest.raises(TypeError, match="internal bug"):
            main(["price-mc", "--config", config])

    def test_missing_key_reported(self, tmp_path, capsys):
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text(json.dumps({"model": {
            "r": 0.0, "sigmas": [0.2], "rho": [[1.0]], "dt": 1.0, "T": 1, "s0": [1.0],
        }}))
        code, _, err = run_cli(capsys, "price-mc", "--config", str(incomplete))
        assert code == 2
        assert "contract" in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("price-mc", "model", 5),
            ("price-mc", "contract", []),
            ("price-exact", "grid", 3),
            ("estimate-resources", "grid", 3),
            ("estimate-resources", "fmt", 7),
            ("estimate-resources", "gaussian_fmt", [5, 3]),
        ],
    )
    def test_non_object_section_rejected(
        self, tmp_path, capsys, tarf_config, command, key, value
    ):
        if command == "estimate-resources":
            doc = dict(tarf_config)
        else:
            doc = json.loads(Path(small_pricing_config(tmp_path)).read_text())
        config = tmp_path / "section.json"
        config.write_text(json.dumps(dict(doc, **{key: value})))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config key '{key}' must be a JSON object" in err

    @pytest.mark.parametrize("command", ["price-mc", "qarith"])
    def test_non_object_config_rejected(self, tmp_path, capsys, command):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config {config} must be a JSON object" in err


    @pytest.mark.parametrize("command", ["price-mc", "price-exact", "estimate-resources"])
    def test_autocallable_without_binaries_is_config_error(
        self, tmp_path, capsys, autocall_config, command
    ):
        doc = json.loads(json.dumps(autocall_config))
        doc["contract"]["binaries"] = []
        config = tmp_path / "no_binaries.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert "binaries must not be empty" in err


class TestReportStamp:
    # A config per command: None is the small pricing config, a string a
    # shipped benchmark config.
    CONFIGS = {
        "price-mc": None, "price-exact": None, "estimate-resources": "tarf",
        "error-budget": "tarf", "qarith": {"n_values": [8]},
        "iqae-demo": {"epsilons": [1e-2], "n_seeds": 1},
        "train-loader": {"n": 2, "depths": [0], "restarts": 1}, "table1": {},
    }

    def write_config(self, tmp_path, command) -> Path:
        config = self.CONFIGS[command]
        if config is None:
            return Path(small_pricing_config(tmp_path, paths=100))
        doc = load_benchmark_config(config) if isinstance(config, str) else config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_every_report_ends_with_seed_and_config_hash(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path, command)
        code, out, err = run_cli(capsys, command, "--config", str(path), "--seed", "7")
        assert code == 0, err
        report = json.loads(out)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert list(report)[-2:] == ["seed", "config_sha256"]
        assert report["seed"] == 7
        assert report["config_sha256"] == digest

    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_every_report_is_strict_json(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path, command)
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 0, err
        strict_json(out)

    def test_call_has_no_normalized_expectation(self, tmp_path, capsys):
        doc = json.loads(Path(small_pricing_config(tmp_path)).read_text())
        doc["contract"] = {"type": "european_call", "strike": 1.0, "expiry": 1.0}
        config = tmp_path / "call.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "price-exact", "--config", str(config))
        assert code == 0, err
        assert strict_json(out)["normalized_expectation"] is None

    def test_emit_refuses_nan(self):
        with pytest.raises(ValueError, match="JSON compliant"):
            cli_report._emit({"estimate": float("nan")}, None, "json")


class TestEstimatorCommands:
    @pytest.mark.parametrize(
        "command, nulls, kept",
        [
            ("qarith", ("primitive", "p", "k", "M", "z"), {"n_values": [8, 10]}),
            ("iqae-demo", ("a", "alpha", "n_seeds"), {"epsilons": [1e-2]}),
            ("train-loader", ("n", "w"), {"depths": [0], "restarts": 1}),
        ],
    )
    def test_null_optional_keys_read_as_absent(
        self, tmp_path, capsys, command, nulls, kept
    ):
        rows = []
        for name, doc in (("kept", kept), ("nulls", dict.fromkeys(nulls, None) | kept)):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, command, "--config", str(config))
            assert code == 0, err
            rows.append(json.loads(out)["rows"])
        assert rows[0] == rows[1]

    def test_estimate_resources_benchmark(self, tmp_path, capsys):
        import importlib.resources as ir

        text = ir.files("qdp.configs").joinpath("autocallable_benchmark.json").read_text()
        config = tmp_path / "bench.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "estimate-resources", "--config", str(config))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["method"] == "reparam"
        assert doc["feasible"] is True
        assert doc["total_t_depth"] > 0
        assert len(doc["loading_breakdown"]) > 0

    def test_error_budget_command(self, tmp_path, capsys):
        import importlib.resources as ir

        text = ir.files("qdp.configs").joinpath("tarf_benchmark.json").read_text()
        config = tmp_path / "bench.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "error-budget", "--config", str(config))
        assert code == 0, err
        doc = json.loads(out)
        assert set(doc) >= {"eps_trunc", "eps_disc", "eps_arith", "eps_amp", "scale"}
        assert doc["eps_trunc"] + doc["eps_disc"] + doc["eps_arith"] < 2e-3

    @staticmethod
    def misfit_config(case: str) -> tuple[dict, str]:
        """A shipped config whose contract dates do not fit its model, and
        the error the date check gives."""
        if case == "tarf_26_dates_on_13_steps":
            doc = load_benchmark_config("tarf")
            doc["model"]["T"] = 13
            return doc, "expected 26 price observations, got 13"
        if case == "tarf_on_two_assets":
            doc = load_benchmark_config("tarf")
            doc["model"].update(
                d=2, sigmas=[0.4, 0.3], rho=[[1.0, 0.0], [0.0, 1.0]], s0=[20.0, 20.0]
            )
            return doc, "TARF evaluation requires a single underlying"
        doc = load_benchmark_config("autocallable")
        doc["contract"]["barrier_dates"][0] = 0.033
        return doc, "missing observation date 0.033"

    @pytest.mark.parametrize(
        "case",
        ["tarf_26_dates_on_13_steps", "tarf_on_two_assets", "autocall_barrier_off_grid"],
    )
    @pytest.mark.parametrize(
        "entry", ["end_to_end", "estimate-resources", "error-budget", "price-mc"]
    )
    def test_dates_that_do_not_fit_the_model_are_refused(
        self, tmp_path, capsys, case, entry
    ):
        # The estimate refuses what the pricing engines refuse, by the same
        # date check and with the same message.
        doc, message = self.misfit_config(case)
        if entry == "end_to_end":
            params = GBMParams.from_dict(doc["model"])
            contract = contract_from_dict(doc["contract"])
            for method in ("riemann", "riemann-no-norm", "reparam"):
                with pytest.raises(ValueError, match=message):
                    end_to_end(method, params, contract, FixedPointFormat(34, 2), 2e-3)
            return
        doc["paths"] = 100
        config = tmp_path / "misfit.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, entry, "--config", str(config))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("command", ["estimate-resources", "error-budget"])
    def test_loader_width_set_twice_must_agree(self, tmp_path, capsys, command):
        # grid.n sets price-exact's lattice and gaussian_fmt.n the estimate's
        # loader registers: a config that sets both to different widths
        # would price one lattice and cost another.
        doc = load_benchmark_config("autocallable")
        doc["gaussian_fmt"]["n"] = 4
        with pytest.raises(ValueError, match=r"'grid\.n' \(5\) and 'gaussian_fmt\.n' \(4\)"):
            cli_report._estimate(doc)
        config = tmp_path / "widths.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert "'grid.n' (5) and 'gaussian_fmt.n' (4)" in err
        # Without grid.n, gaussian_fmt.n sets the width: one bit fewer, four
        # times the discretization bound.
        del doc["grid"]["n"]
        assert cli_report._estimate(doc).budget.eps_disc == pytest.approx(
            4 * cli_report._estimate(load_benchmark_config("autocallable")).budget.eps_disc
        )

    def test_unsupported_contract_is_config_error(self, tmp_path, capsys):
        doc = load_benchmark_config("tarf")
        doc["contract"] = {"type": "european_call", "strike": 20.0, "expiry": 1.0}
        config = tmp_path / "call.json"
        config.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "estimate-resources", "--config", str(config))
        assert code == 2
        assert "autocallable or tarf" in err

    def test_qarith_csv(self, capsys):
        code, out, err = run_cli(capsys, "qarith", "--format", "csv")
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) > 5
        assert {"n", "toffoli_count", "t_depth"} <= set(rows[0])

    @pytest.mark.parametrize("primitive", ["mul", "exp", "arcsin_sqrt"])
    def test_qarith_rejects_z_zero(self, tmp_path, capsys, primitive):
        config = tmp_path / "qarith.json"
        config.write_text(json.dumps({"primitive": primitive, "z": 0, "n_values": [8]}))
        code, out, err = run_cli(capsys, "qarith", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "1 <= z <= n" in err

    @pytest.mark.parametrize("primitive", ["exp", "arcsin_sqrt"])
    def test_qarith_rejects_negative_degree(self, tmp_path, capsys, primitive):
        config = tmp_path / "qarith.json"
        config.write_text(json.dumps({"primitive": primitive, "k": -1, "n_values": [16]}))
        code, out, err = run_cli(capsys, "qarith", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "polynomial degree must be nonnegative" in err

    def test_table1_matches_golden(self, capsys):
        golden = Path(__file__).parent / "data" / "table1_golden.json"
        code, out, err = run_cli(capsys, "table1")
        assert code == 0, err
        assert out == golden.read_text(encoding="utf-8")

    def test_table1_rows(self, capsys):
        code, out, err = run_cli(capsys, "table1")
        assert code == 0, err
        doc = json.loads(out)
        rows = {(r["method"], r["contract"]): r for r in doc["rows"]}
        assert set(rows) == set(REFERENCE_RESULTS)
        for key, row in rows.items():
            ref_depth = REFERENCE_RESULTS[key][1]
            if key[0] == "riemann":
                assert row["feasible"] is False
                # The reference is an order-of-magnitude floor.
                assert row["t_depth"] >= ref_depth
            else:
                assert row["feasible"] is True
                assert ref_depth / 2 <= row["t_depth"] <= ref_depth * 2

    def test_iqae_demo_quick(self, tmp_path, capsys):
        config = tmp_path / "iqae.json"
        config.write_text(json.dumps({"epsilons": [1e-2], "n_seeds": 5}))
        code, out, err = run_cli(capsys, "iqae-demo", "--config", str(config))
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["calls_quantum"] > 0


def _set(doc: dict, dotted: str, value) -> dict:
    """A copy of ``doc`` with the (possibly nested) key ``dotted`` set."""
    doc = json.loads(json.dumps(doc))
    *parents, last = dotted.split(".")
    sub = doc
    for key in parents:
        sub = sub[key]
    sub[last] = value
    return doc


class TestIntegerKeys:
    """Integer config keys take integral numbers only; anything else exits 2."""

    @staticmethod
    def base(command, tmp_path):
        if command in ("price-mc", "price-exact"):
            return json.loads(Path(small_pricing_config(tmp_path)).read_text())
        if command == "estimate-resources":
            return load_benchmark_config("tarf")
        return {
            "qarith": {"n_values": [8]},
            "iqae-demo": {"epsilons": [1e-2], "n_seeds": 2},
            "train-loader": {"n": 2, "depths": [0], "restarts": 1},
        }[command]

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("price-mc", "paths", 5000.5),
            ("price-mc", "paths", "5000"),
            ("price-mc", "paths", True),
            ("price-mc", "model.T", 3.5),
            ("price-exact", "grid.n", 2.7),
            ("price-exact", "model.d", 1.5),
            ("estimate-resources", "fmt.n", 34.5),
            ("estimate-resources", "gaussian_fmt.p", 3.2),
            ("estimate-resources", "L", 6.5),
            ("estimate-resources", "z", 1.5),
            ("qarith", "p", 2.5),
            ("qarith", "k", 3.5),
            ("qarith", "M", 32.5),
            ("qarith", "n_values", [8.5]),
            ("iqae-demo", "n_seeds", 2.5),
            ("train-loader", "n", 2.5),
            ("train-loader", "restarts", 1.5),
            ("train-loader", "depths", [0.5]),
        ],
    )
    def test_non_integral_value_rejected(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(_set(self.base(command, tmp_path), key, value)))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        name = key.split(".", 1)[1] if key.startswith("model.") else key
        assert f"config key '{name}' must be an integer" in err

    @pytest.mark.parametrize(
        "command, key, value, field, expected",
        [
            ("price-mc", "paths", 2e3, "paths", 2000),
            ("price-exact", "grid.n", 3.0, "lattice_size", 8**3),
            ("price-exact", "model.T", 3.0, "lattice_size", 8**3),
        ],
    )
    def test_integral_float_accepted(
        self, tmp_path, capsys, command, key, value, field, expected
    ):
        reports = []
        for name, doc in (("int", self.base(command, tmp_path)),
                          ("float", _set(self.base(command, tmp_path), key, value))):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, command, "--config", str(config))
            assert code == 0, err
            reports.append(json.loads(out))
        assert reports[1][field] == expected
        assert reports[1]["estimate"] == reports[0]["estimate"]


class TestFloatKeys:
    """Float config keys take finite numbers only; anything else exits 2."""

    @staticmethod
    def base(command, tmp_path):
        if command == "price-exact":
            return json.loads(Path(small_pricing_config(tmp_path)).read_text())
        if command == "estimate-resources":
            return load_benchmark_config("tarf")
        return {
            "iqae-demo": {"epsilons": [1e-2], "n_seeds": 2},
            "train-loader": {"n": 2, "depths": [0], "restarts": 1},
        }[command]

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("price-exact", "grid.w", "5.0"),
            ("price-exact", "grid.w", True),
            ("price-exact", "grid.w", float("nan")),
            ("estimate-resources", "grid.w", float("inf")),
            ("estimate-resources", "target_error", "abc"),
            ("estimate-resources", "confidence", "0.68"),
            ("estimate-resources", "beta", True),
            ("estimate-resources", "eps_f", float("nan")),
            ("estimate-resources", "eps_dens", float("-inf")),
            ("estimate-resources", "synthesis_epsilon", "1e-10"),
            ("iqae-demo", "a", "0.3"),
            ("iqae-demo", "a", "abc"),
            ("iqae-demo", "alpha", False),
            ("iqae-demo", "epsilons", ["0.01"]),
            ("train-loader", "w", "5"),
            ("train-loader", "w", float("nan")),
            ("train-loader", "w", 10**400),
        ],
    )
    def test_non_number_rejected(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(_set(self.base(command, tmp_path), key, value)))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config key '{key}' must be a finite number" in err

    @pytest.mark.parametrize(
        "command, key", [("price-exact", "grid.w"), ("train-loader", "w")]
    )
    def test_integer_value_accepted(self, tmp_path, capsys, command, key):
        reports = []
        for value in (5, 5.0):
            config = tmp_path / f"{value!r}.json"
            config.write_text(json.dumps(_set(self.base(command, tmp_path), key, value)))
            code, out, err = run_cli(capsys, command, "--config", str(config))
            assert code == 0, err
            report = json.loads(out)
            report.pop("config_sha256")
            reports.append(report)
        assert reports[0] == reports[1]


class TestModelAndContractKeys:
    """Numeric model and contract keys take finite numbers only, list keys
    lists only; anything else exits 2 with a message naming the key."""

    @staticmethod
    def base(contract_type, tmp_path):
        doc = json.loads(Path(small_pricing_config(tmp_path)).read_text())
        if contract_type == "tarf":
            doc["model"]["s0"] = [20.0]
            doc["contract"] = {
                "type": "tarf", "forward": 20.0, "k_upper": 21.0, "k_lower": 19.0,
                "barrier": 25.0, "alpha": 2.0, "cap": 3.0,
                "payment_times": [1.0 / 3.0, 2.0 / 3.0, 1.0],
            }
        elif contract_type == "european_call":
            doc["contract"] = {"type": "european_call", "strike": 1.0, "expiry": 1.0}
        return doc

    @pytest.mark.parametrize(
        "contract_type, key, value",
        [
            ("autocallable", "model.r", "0.02"),
            ("autocallable", "model.dt", True),
            ("autocallable", "model.sigmas", ["0.3"]),
            ("autocallable", "model.s0", [float("nan")]),
            ("autocallable", "model.rho", [["1.0"]]),
            ("autocallable", "contract.k_put", "1.0"),
            ("autocallable", "contract.barrier", float("inf")),
            ("autocallable", "contract.notional", "18"),
            ("autocallable", "contract.binaries", [[1.1, "1", 2.0]]),
            ("autocallable", "contract.barrier_dates", ["1.0"]),
            ("tarf", "contract.forward", "20"),
            ("tarf", "contract.k_upper", False),
            ("tarf", "contract.k_lower", "19"),
            ("tarf", "contract.barrier", float("nan")),
            ("tarf", "contract.alpha", "2"),
            ("tarf", "contract.cap", "3"),
            ("tarf", "contract.payment_times", ["1.0"]),
            ("european_call", "contract.strike", "1.0"),
            ("european_call", "contract.expiry", True),
        ],
    )
    def test_non_number_rejected(self, tmp_path, capsys, contract_type, key, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(_set(self.base(contract_type, tmp_path), key, value)))
        code, out, err = run_cli(capsys, "price-mc", "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config key '{key.split('.', 1)[1]}' must be a finite number" in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("price-mc", "model.sigmas", 0.3),
            ("price-mc", "model.rho", [1.0]),
            ("price-mc", "contract.binaries", [1.1, 1.0, 2.0]),
            ("price-mc", "contract.barrier_dates", 1.0),
            ("iqae-demo", "epsilons", 0.01),
            ("train-loader", "depths", 2),
            ("qarith", "n_values", 8),
        ],
    )
    def test_scalar_list_key_rejected(self, tmp_path, capsys, command, key, value):
        base = {
            "price-mc": self.base("autocallable", tmp_path),
            "iqae-demo": {"n_seeds": 2},
            "train-loader": {"n": 2, "restarts": 1},
            "qarith": {},
        }[command]
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(_set(base, key, value)))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config key '{key.split('.')[-1]}' must be a list" in err

    @pytest.mark.parametrize("contract_type", ["autocallable", "tarf", "european_call"])
    def test_integer_values_price_identically(self, tmp_path, capsys, contract_type):
        # JSON integers read as the same floats, so the seeded price is the same.
        reports = []
        for name in ("floats", "ints"):
            doc = self.base(contract_type, tmp_path)
            if name == "ints":
                doc["model"]["s0"] = [int(s) for s in doc["model"]["s0"]]
                doc["model"]["rho"] = [[1]]
                if contract_type == "tarf":
                    doc["contract"].update(forward=20, k_upper=21, barrier=25, cap=3)
                elif contract_type == "european_call":
                    doc["contract"].update(strike=1, expiry=1)
                else:
                    doc["contract"].update(k_put=1, notional=18)
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "price-mc", "--config", str(config))
            assert code == 0, err
            reports.append(json.loads(out))
        assert reports[0]["estimate"] == reports[1]["estimate"]
        assert reports[0]["stderr"] == reports[1]["stderr"]


class TestRowKeys:
    """Keys that give a report its rows must give it at least one; otherwise
    the command exits 2 with a message naming the key."""

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_n_seeds_must_be_positive(self, tmp_path, capsys, n_seeds):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"epsilons": [1e-2], "n_seeds": n_seeds}))
        code, out, err = run_cli(capsys, "iqae-demo", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "config key 'n_seeds' must be at least 1" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "command, key, base",
        [
            ("iqae-demo", "epsilons", {"n_seeds": 2}),
            ("train-loader", "depths", {"n": 2, "restarts": 1}),
            ("qarith", "n_values", {}),
            ("table1", "methods", {}),
        ],
    )
    def test_empty_row_list_rejected(self, tmp_path, capsys, command, key, base, fmt):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**base, key: []}))
        code, out, err = run_cli(
            capsys, command, "--config", str(config), "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert f"config key '{key}' must be a non-empty list" in err

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_empty_restart_pool_rejected(self, tmp_path, capsys, restarts):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"n": 2, "depths": [1], "restarts": restarts}))
        code, out, err = run_cli(capsys, "train-loader", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "restarts must be at least 1" in err


def test_pricing_and_estimates_load_numpy_and_scipy_special_only(tmp_path):
    # A fresh interpreter: importing the CLI, pricing, table1 and estimates
    # must not load scipy.stats (the IQAE simulator's), scipy.optimize
    # (loader training's) or scipy.linalg.  Training then loads
    # scipy.optimize, which shows the check sees a lazy import.
    config = small_pricing_config(tmp_path, paths=3000)
    estimate = resources.files("qdp.configs").joinpath("autocallable_benchmark.json")
    script = (
        "import sys\n"
        "from qdp.cli_report import main\n"
        f"assert main(['price-mc', '--config', {config!r}]) == 0\n"
        f"assert main(['price-exact', '--config', {config!r}]) == 0\n"
        "assert main(['table1']) == 0\n"
        f"assert main(['estimate-resources', '--config', {str(estimate)!r}]) == 0\n"
        "unwanted = ('scipy.stats', 'scipy.optimize', 'scipy.linalg')\n"
        "loaded = [name for name in unwanted if name in sys.modules]\n"
        "assert not loaded, f'loaded {loaded}'\n"
        "from qdp.gaussian_loader import train\n"
        "train(2, 1, restarts=1)\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    src = str(Path(cli_report.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"estimate"') == 2
    assert proc.stdout.count('"rows"') == 1
    assert proc.stdout.count('"total_t_depth"') == 1


class TestOutputHandling:
    def test_out_file_and_env_dir(self, tmp_path, capsys, monkeypatch):
        config = small_pricing_config(tmp_path)
        monkeypatch.setenv("QDP_OUT_DIR", str(tmp_path))
        code, out, err = run_cli(
            capsys, "price-mc", "--config", config, "--out", "report.json"
        )
        assert code == 0, err
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "estimate" in doc

    def test_csv_format_of_scalar_report(self, tmp_path, capsys):
        config = small_pricing_config(tmp_path)
        code, out, err = run_cli(
            capsys, "price-mc", "--config", config, "--format", "csv"
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert "estimate" in rows[0]

    def test_csv_nested_cells_are_json(self, tmp_path, capsys):
        config = tmp_path / "tarf.json"
        config.write_text(json.dumps(load_benchmark_config("tarf")))
        reports = {}
        for fmt in ("json", "csv"):
            code, out, err = run_cli(
                capsys, "estimate-resources", "--config", str(config), "--format", fmt
            )
            assert code == 0, err
            reports[fmt] = out
        report = json.loads(reports["json"])
        [row] = list(csv.DictReader(io.StringIO(reports["csv"])))
        nested = [key for key, value in report.items() if isinstance(value, (dict, list))]
        assert nested == ["error_budget", "loading_breakdown", "payoff_breakdown"]
        for key in nested:
            assert json.loads(row[key]) == report[key]
