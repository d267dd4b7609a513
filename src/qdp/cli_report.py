"""
Command-line entry point exposing every capability as a subcommand.

Subcommands: price-mc, price-exact, estimate-resources, error-budget,
iqae-demo, train-loader, qarith, table1.  Each consumes a JSON config
(--config) and returns a report dict; ``main`` stamps the seed and the
config's SHA-256 hash onto it for auditability and writes it as JSON or
CSV (--format) to --out or stdout.
QDP_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from importlib import resources as importlib_resources

import numpy as np

from . import (
    amplitude_estimation as ae,
    circuit_estimator as ce,
    gaussian_loader as gl,
    pricing_engines as pe,
    qarith_resources as qa,
)
from .contracts import AutocallableSpec, TARFSpec, contract_from_dict
from .market_model import GBMParams, GridSpec, config_float, config_int, config_list

# Published values the table1 report compares against (same benchmarks,
# target error 2e-3): (t_count, t_depth, logical_qubits) per method and
# contract; the normalized Riemann row is an order-of-magnitude floor.
REFERENCE_RESULTS = {
    ("riemann-no-norm", "autocallable"): (1.6e11, 1.5e8, 23000),
    ("riemann-no-norm", "tarf"): (5.5e10, 1.6e8, 17000),
    ("reparam", "autocallable"): (1.2e10, 5.4e7, 8000),
    ("reparam", "tarf"): (9.8e9, 8.2e7, 11500),
    ("riemann", "autocallable"): (1e43, 1e43, None),
    ("riemann", "tarf"): (1e18, 1e18, None),
}


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object")
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return doc, digest


def load_benchmark_config(name: str) -> dict:
    """Load a packaged benchmark config ("autocallable" or "tarf")."""
    fname = {
        "autocallable": "autocallable_benchmark.json",
        "tarf": "tarf_benchmark.json",
    }[name]
    text = (
        importlib_resources.files("qdp.configs").joinpath(fname).read_text("utf-8")
    )
    return json.loads(text)


def _get(doc: dict, key: str, default=None):
    """``doc[key]``, reading an absent or null key as ``default``."""
    return default if doc.get(key) is None else doc[key]


def _require(doc: dict, key: str, context: str = "config"):
    if _get(doc, key) is None:
        raise ValueError(f"{context} is missing required key '{key}'")
    return doc[key]


def _section(doc: dict, key: str, required: bool = True) -> dict:
    """``doc[key]`` if it is a JSON object; an absent or null key raises as
    in ``_require``, or reads as ``{}`` when not ``required``, and any other
    value raises a ValueError naming ``key``."""
    value = _require(doc, key) if required else _get(doc, key, {})
    if not isinstance(value, dict):
        raise ValueError(f"config key '{key}' must be a JSON object")
    return value


def _parse_common(doc: dict):
    params = GBMParams.from_dict(_section(doc, "model"))
    contract = contract_from_dict(_section(doc, "contract"))
    return params, contract


def _fmt_from(doc: dict, key: str) -> qa.FixedPointFormat:
    sub = _section(doc, key)
    return qa.FixedPointFormat(
        n=config_int(_require(sub, "n", key), f"{key}.n"),
        p=config_int(_require(sub, "p", key), f"{key}.p"),
    )


def _rows_key(doc: dict, key: str, default, read) -> list:
    """``doc[key]`` (``default`` when absent or null) read by ``config_list``.

    Each item gives the report one row or more, so an empty list raises a
    ValueError naming ``key``.
    """
    items = config_list(_get(doc, key, default), key, read)
    if not items:
        raise ValueError(f"config key '{key}' must be a non-empty list")
    return items


def _emit(report: dict, out_path: str | None, fmt: str) -> None:
    """Write a report as strict JSON (no NaN or infinity), or as CSV of its
    rows (the report itself when it has none) with each dict or list cell
    written as JSON text."""
    if fmt == "json":
        text = json.dumps(report, indent=2, allow_nan=False)
    else:
        csv_rows = report.get("rows", [report])
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        for row in csv_rows:
            writer.writerow(
                {
                    key: json.dumps(value, allow_nan=False)
                    if isinstance(value, (dict, list))
                    else value
                    for key, value in row.items()
                }
            )
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))


def _cmd_price_mc(doc: dict, seed: int) -> dict:
    params, contract = _parse_common(doc)
    n_paths = config_int(_get(doc, "paths", 100_000), "paths")
    result = pe.mc_price(params, contract, n_paths, seed=seed)
    return {
        "estimate": result.estimate,
        "stderr": result.stderr,
        "paths": result.n_paths,
    }


def _cmd_price_exact(doc: dict, seed: int) -> dict:
    params, contract = _parse_common(doc)
    grid_doc = _section(doc, "grid")
    grid = GridSpec(
        n=config_int(_require(grid_doc, "n", "grid"), "grid.n"),
        w=config_float(_require(grid_doc, "w", "grid"), "grid.w"),
    )
    result = pe.exact_lattice_price(params, contract, grid)
    return {
        "estimate": result.price,
        # A European call has no payoff bounds, so no normalized expectation.
        "normalized_expectation": None if math.isnan(result.a_hat) else result.a_hat,
        "total_mass": result.total_mass,
        "lattice_size": result.n_lattice_paths,
    }


# Config keys forwarded to end_to_end, with their readers.  An absent or null
# key keeps end_to_end's default, so the estimate defaults live there only.
_ESTIMATE_KEYS = {
    "confidence": config_float, "L": config_int, "k": config_int, "M": config_int,
    "z": config_int, "beta": config_float, "eps_f": config_float,
    "eps_dens": config_float, "synthesis_epsilon": config_float,
}


def _estimate(doc: dict, method: str | None = None) -> ce.EndToEndReport:
    params, contract = _parse_common(doc)
    if not isinstance(contract, (AutocallableSpec, TARFSpec)):
        raise ValueError("resource estimates need an autocallable or tarf contract")
    kwargs = {
        key: read(doc[key], key)
        for key, read in _ESTIMATE_KEYS.items()
        if _get(doc, key) is not None
    }
    grid = _section(doc, "grid", required=False)
    if _get(grid, "w") is not None:
        kwargs["w"] = config_float(grid["w"], "grid.w")
    if _get(doc, "gaussian_fmt") is not None:
        loader = kwargs["gaussian_fmt"] = _fmt_from(doc, "gaussian_fmt")
        # price-exact prices the grid.n lattice; the estimate's loader
        # registers must hold the same one.
        grid_n = None if _get(grid, "n") is None else config_int(grid["n"], "grid.n")
        if grid_n not in (None, loader.n):
            raise ValueError(
                f"config keys 'grid.n' ({grid_n}) and 'gaussian_fmt.n' ({loader.n}) "
                "must match: both set the loader register width"
            )
    return ce.end_to_end(
        method or _get(doc, "method", "reparam"),
        params,
        contract,
        _fmt_from(doc, "fmt"),
        config_float(_require(doc, "target_error"), "target_error"),
        **kwargs,
    )


def _cmd_estimate_resources(doc: dict, seed: int) -> dict:
    return _estimate(doc).as_dict()


def _cmd_error_budget(doc: dict, seed: int) -> dict:
    report = _estimate(doc)
    out = report.budget.as_dict()
    out["method"] = report.method
    out["feasible"] = report.feasible
    return out


def _cmd_iqae_demo(doc: dict, seed: int) -> dict:
    a = config_float(_get(doc, "a", 0.3), "a")
    alpha = config_float(_get(doc, "alpha", 0.32), "alpha")
    epsilons = _rows_key(doc, "epsilons", [1e-2, 3e-3, 1e-3, 3e-4], config_float)
    n_seeds = config_int(_get(doc, "n_seeds", 20), "n_seeds")
    if n_seeds < 1:
        raise ValueError(f"config key 'n_seeds' must be at least 1, got {n_seeds}")
    rows = []
    for eps in epsilons:
        calls = []
        covered = 0
        for s in range(n_seeds):
            oracle = ae.GroverOracleSim(a=a)
            res = ae.iqae_estimate(oracle, eps, alpha, seed=seed + s)
            calls.append(res.oracle_calls)
            covered += int(abs(res.a_hat - a) <= eps)
        rows.append(
            {
                "epsilon": eps,
                "calls_quantum": float(np.mean(calls)),
                "calls_classical": ae.classical_call_bound(eps, alpha),
                "coverage": covered / n_seeds,
            }
        )
    return {"a": a, "alpha": alpha, "rows": rows}


def _cmd_train_loader(doc: dict, seed: int) -> dict:
    n = config_int(_get(doc, "n", 4), "n")
    depths = _rows_key(doc, "depths", [2, 4, 6, 8], config_int)
    restarts = config_int(_get(doc, "restarts", 4), "restarts")
    w = config_float(_get(doc, "w", 5.0), "w")
    results = gl.train_sweep(n, depths, restarts=restarts, seed=seed, w=w)
    rows = [
        {"n": n, "L": L, "l_inf": r.l_inf, "energy": r.energy}
        for L, r in sorted(results.items())
    ]
    params = {str(L): r.best_params.tolist() for L, r in results.items()}
    return {"rows": rows, "trained_params": params}


def _cmd_qarith(doc: dict, seed: int) -> dict:
    primitive = _get(doc, "primitive", "add")
    n_values = _rows_key(doc, "n_values", list(range(8, 40, 2)), config_int)
    p = config_int(_get(doc, "p", 2), "p")
    k = config_int(_get(doc, "k", 3), "k")
    M = config_int(_get(doc, "M", 32), "M")
    z = config_int(_get(doc, "z", 1), "z")
    rows = []
    for n in n_values:
        fmt = qa.FixedPointFormat(n=n, p=p)
        if primitive == "add":
            rc = qa.add_resources(fmt)
        elif primitive == "mul":
            rc = qa.mul_resources(fmt, z=z)
        elif primitive == "sqrt":
            rc = qa.sqrt_resources(fmt)
        elif primitive == "comparator":
            rc = qa.comparator_resources(fmt)
        elif primitive == "exp":
            rc = qa.exp_resources(fmt, k, M, z=z)
        elif primitive == "arcsin_sqrt":
            rc = qa.arcsin_sqrt_resources(fmt, k, M, z=z)
        else:
            raise ValueError(f"unknown primitive '{primitive}'")
        rows.append(
            {
                "n": n,
                "p": p,
                "toffoli_count": rc.toffoli_count,
                "t_count": rc.t_count,
                "t_depth": rc.t_depth,
                "logical_qubits": rc.logical_qubits,
            }
        )
    return {"primitive": primitive, "rows": rows}


def _cmd_table1(doc: dict, seed: int) -> dict:
    methods = _rows_key(
        doc, "methods", ["riemann", "riemann-no-norm", "reparam"], lambda item, key: item
    )
    rows = []
    for contract_name in ("autocallable", "tarf"):
        config = load_benchmark_config(contract_name)
        for method in methods:
            report = _estimate(config, method=method)
            ref = REFERENCE_RESULTS.get((method, contract_name), (None, None, None))
            rows.append(
                {
                    "method": method,
                    "contract": contract_name,
                    "t_count": report.total_t_count,
                    "t_depth": report.total_t_depth,
                    "logical_qubits": report.logical_qubits,
                    "scale": report.scale,
                    "feasible": report.feasible,
                    "reference_t_count": ref[0],
                    "reference_t_depth": ref[1],
                    "reference_logical_qubits": ref[2],
                }
            )
    return {"rows": rows}


_COMMANDS = {
    "price-mc": _cmd_price_mc,
    "price-exact": _cmd_price_exact,
    "estimate-resources": _cmd_estimate_resources,
    "error-budget": _cmd_error_budget,
    "iqae-demo": _cmd_iqae_demo,
    "train-loader": _cmd_train_loader,
    "qarith": _cmd_qarith,
    "table1": _cmd_table1,
}

# Subcommands that can run without a config file (all knobs have defaults).
_CONFIG_OPTIONAL = {"iqae-demo", "train-loader", "qarith", "table1"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdp",
        description="Derivative-pricing resource estimation and verification tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            doc, digest = _load_config(args.config)
        elif args.command in _CONFIG_OPTIONAL:
            doc, digest = {}, hashlib.sha256(b"{}").hexdigest()
        else:
            raise ValueError(f"subcommand '{args.command}' requires --config")
        report = _COMMANDS[args.command](doc, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["seed"] = args.seed
    report["config_sha256"] = digest

    out = args.out
    if out and not os.path.isabs(out):
        out = os.path.join(os.environ.get("QDP_OUT_DIR", "."), out)
    _emit(report, out, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
