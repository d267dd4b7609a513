"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import importlib
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def wrapped_attributes() -> list[str]:
    """qdp attributes currently replaced by a tracing wrapper."""
    found = []
    for layer in spans.LAYERS:
        mod = importlib.import_module(f"qdp.{layer}")
        owners = [mod] + [
            getattr(mod, cls) for lay, cls, _ in spans.METHODS if lay == layer
        ]
        for owner in owners:
            for attr, obj in vars(owner).items():
                if hasattr(obj, "span_name"):
                    found.append(f"{owner.__name__}.{attr}")
    return found


def inspect_op() -> workloads.Op:
    return workloads.Op(
        kind="inspect", label="inspect", run=wrapped_attributes, check=lambda r: []
    )


def test_tracing_off_wraps_nothing():
    assert wrapped_attributes() == []
    ledger = run.Ledger()
    p = run.run_pass([inspect_op()], ledger)
    assert p["ops"][0]["result"] == []


def test_traced_pass_wraps_then_restores():
    ledger = run.Ledger()
    p = run.run_pass([inspect_op()], ledger, spans.Tracer())
    during = p["ops"][0]["result"]
    assert "qdp.pricing_engines.mc_price" in during
    assert "qdp.pricing_engines.lattice" in during  # bound by name from market_model
    assert "GroverOracleSim.sample" in during
    assert wrapped_attributes() == []


def test_self_time_on_synthetic_span_tree():
    tree = [
        spans.Span("a.root", 0.0, 10.0, -1, 0),
        spans.Span("b.child", 1.0, 4.0, 0, 0),
        spans.Span("b.child", 3.0, 6.0, 0, 0),  # overlaps its sibling
        spans.Span("c.child", 7.0, 9.0, 0, 0),
        spans.Span("d.grandchild", 7.5, 8.0, 3, 0),
        spans.Span("e.other", 11.0, 12.0, -1, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 1.5, 0.5, 1.0])
    agg = spans.aggregate(tree)
    assert agg["b.child"]["calls"] == 2
    assert agg["b.child"]["s"] == pytest.approx(6.0)
    assert agg["b.child@a.root"]["self_s"] == pytest.approx(6.0)
    assert agg["a.root@root"]["self_s"] == pytest.approx(3.0)


def _outputs(workload, kinds, limit=None):
    ledger = run.Ledger()
    ops = [op for op in workload.ops(0) if op.kind in kinds][:limit]
    p = run.run_pass(ops, ledger)
    assert ledger.failed == 0, ledger.failures
    return p, [op.fingerprint(r["result"]) for op, r in zip(ops, p["ops"])]


def test_same_seed_same_figures():
    iqae = [_outputs(workloads.estimation(7), {"iqae"}) for _ in range(2)]
    assert iqae[0][1] == iqae[1][1]
    figures = [run.workload_metrics([p]) for p, _ in iqae]
    for name in ("iqae_calls_ratio", "iqae_coverage"):
        assert figures[0][name]["value"] == figures[1][name]["value"]
    other = _outputs(workloads.estimation(8), {"iqae"})
    assert other[1] != iqae[0][1]

    mc = [_outputs(workloads.pricing(7), {"mc"})[1] for _ in range(2)]
    assert mc[0] == mc[1]

    # The first training op of the sweep; the others chain from it the same way.
    trains = [_outputs(workloads.loader(7), {"train"}, limit=1)[0] for _ in range(2)]
    linf = [run.workload_metrics([p])["loader_linf"]["value"] for p in trains]
    assert linf[0] == linf[1] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "estimation", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["end_to_end" if trace == 0 else "per_layer"]
    declared = {m["name"]: m for m in section}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert declared[name]["better"] in ("higher", "lower")
        assert isinstance(metric["value"], float)


def test_fails_without_sources(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pricing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
