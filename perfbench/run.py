#!/usr/bin/env python3
"""Run one qdp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pricing --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: qdp is imported from ``src/`` next
to this directory, never from an installed copy.  The run sets up the
workload (import, inputs from the seed, warm-up) in this process and again
in fresh interpreters, then repeats whole passes of the workload's ops
until ``--seconds`` have gone by and at least ``MIN_PASSES`` passes ran
(pairs of passes when tracing).
Every op's output is checked, on its first run by the workload's check and
on each rerun of the same inputs by comparing it bit for bit.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
declared in BENCHMARK.json; with ``--trace 1`` the run alternates untraced
and traced passes over the same inputs and the last line holds the
per-layer metrics.  The lines before it are a JSON report with every
figure, its sample count and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

# Set before numpy is imported, here and in every child interpreter.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120


def _median(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# set-up


def timed_setup(name: str, seed: int):
    """Import qdp, build the workload's inputs and warm up; return (seconds, workload)."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    workload.warm_up()
    return time.perf_counter() - start, workload


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def child_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def import_times() -> dict:
    """Seconds spent importing qdp's entry point in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qdp.cli_report"],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    total = scipy_stats = qdp_self = 0.0
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for line in proc.stderr.splitlines():
        m = pattern.match(line)
        if not m:
            continue
        self_us, cum_us, indent, module = int(m[1]), int(m[2]), len(m[3]), m[4]
        if module == "qdp" or module.startswith("qdp."):
            qdp_self += self_us
            if indent == 1:
                total += cum_us
        if module == "scipy.stats":
            scipy_stats = max(scipy_stats, cum_us)
    return {
        "import.total_s": total * 1e-6,
        "import.scipy_stats_s": scipy_stats * 1e-6,
        "import.qdp_self_s": qdp_self * 1e-6,
    }


# --------------------------------------------------------------------------
# passes


class Ledger:
    """Counts ops and failures; remembers each op's first output.

    Ops are the workload's own objects, so an op seen again is a rerun of
    the same inputs and its output must match the first one bit for bit.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []
        self._prints: dict[int, object] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, op, result, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{op.label}: raised {error!r}")
            return
        key = id(op)
        fingerprint = op.fingerprint(result)
        if key not in self._prints:
            self._prints[key] = fingerprint
            problems = op.check(result)
            if problems:
                self.failures.append("; ".join(problems))
            note = op.known_defect(result)
            if note:
                self.known_defects.append(note)
        elif fingerprint != self._prints[key]:
            self.failures.append(f"{op.label}: rerun is not bit-identical")


def run_pass(ops, ledger: Ledger, tracer=None) -> dict:
    """Run every op once; time each op alone and check it afterwards."""
    done = []
    cpu0 = time.process_time()
    if tracer is not None:
        tracer.install()
    try:
        for position, op in enumerate(ops):
            if tracer is not None:
                tracer.op = position
            error = result = None
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            seconds = time.perf_counter() - start
            done.append((op, seconds, result, error))
    finally:
        if tracer is not None:
            tracer.remove()
    cpu = time.process_time() - cpu0
    records = []
    for op, seconds, result, error in done:
        ledger.record(op, result, error)
        units = op.units(result) if error is None else {}
        records.append({"kind": op.kind, "s": seconds, "units": units, "result": result})
    return {"wall_s": sum(r["s"] for r in records), "cpu_s": cpu, "ops": records}


def _kind(p: dict, kind: str):
    ops = [r for r in p["ops"] if r["kind"] == kind]
    return ops, sum(r["s"] for r in ops)


def _rate(passes, kind, unit):
    """Median over passes of units of work per second of the kind's ops."""
    rates = []
    for p in passes:
        ops, seconds = _kind(p, kind)
        if ops and seconds > 0:
            rates.append(sum(r["units"].get(unit, 0) for r in ops) / seconds)
    return _median(rates), len(rates)


def workload_metrics(passes: list[dict]) -> dict:
    """The workload-level figures of the untraced passes: (value, unit, samples)."""
    out = {}
    out["mc_paths_per_s"] = (*_rate(passes, "mc", "paths"), "paths/s")
    out["exact_paths_per_s"] = (*_rate(passes, "exact", "paths"), "paths/s")
    out["iqae_runs_per_s"] = (*_rate(passes, "iqae", "runs"), "1/s")
    out["estimates_per_s"] = (*_rate(passes, "estimate", "reports"), "1/s")
    # IQAE inputs are the same in every pass, so one pass holds every run.
    iqae = _kind(passes[0], "iqae")[0]
    out["iqae_calls_ratio"] = (
        statistics.fmean(r["units"]["calls_ratio"] for r in iqae) if iqae else 0.0,
        len(iqae), "ratio",
    )
    out["iqae_coverage"] = (
        statistics.fmean(r["units"]["covered"] for r in iqae) if iqae else 0.0,
        len(iqae), "ratio",
    )
    trains = [r for p in passes for r in _kind(p, "train")[0]]
    out["loader_train_s"] = (_median([r["s"] for r in trains]), len(trains), "s")
    best = []
    for p in passes:
        linf = [r["units"]["best_linf"] for r in _kind(p, "train")[0] if r["units"]]
        if linf:
            best.append(min(linf))
    out["loader_linf"] = (_median(best), len(best), "loss")
    return {k: {"value": v, "samples": n, "unit": u} for k, (v, n, u) in out.items()}


# --------------------------------------------------------------------------
# per-layer figures from spans


def layer_metrics(p: dict) -> tuple[dict, dict]:
    """Per-layer figures and wall-time shares of one traced pass."""
    agg = spans.aggregate(p["spans"])
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}

    def get(key):
        return agg.get(key, empty)

    def layer(prefix, field):
        return sum(
            v[field] for k, v in agg.items() if k.startswith(prefix + ".") and "@" not in k
        )

    def per(a, b):
        return a / b if b else 0.0

    batch = ("contracts.autocall_payoff_batch", "contracts.tarf_payoff_batch")
    m = {}
    for suffix, parent in (("", None), (".mc", "pricing_engines.mc_price"),
                           (".exact", "pricing_engines.exact_lattice_price")):
        keys = [k if parent is None else f"{k}@{parent}" for k in batch]
        s = sum(get(k)["s"] for k in keys)
        paths = sum(get(k)["work"] for k in keys)
        m[f"contracts.payoff_batch{suffix}.s"] = s
        m[f"contracts.payoff_batch{suffix}.paths"] = paths
        m[f"contracts.payoff_batch{suffix}.paths_per_s"] = per(paths, s)
    m["market_model.calls"] = layer("market_model", "calls")
    m["market_model.s"] = layer("market_model", "self_s")
    for fn in ("mc_price", "exact_lattice_price"):
        m[f"pricing_engines.{fn}.s"] = get(f"pricing_engines.{fn}")["s"]
        m[f"pricing_engines.{fn}.self_s"] = get(f"pricing_engines.{fn}")["self_s"]
    m["pricing_engines.mc.paths"] = sum(
        r["units"].get("paths", 0) for r in _kind(p, "mc")[0]
    )
    m["pricing_engines.exact.lattice_paths"] = sum(
        r["units"].get("paths", 0) for r in _kind(p, "exact")[0]
    )
    iqae = get("amplitude_estimation.iqae_estimate")
    m["amplitude_estimation.iqae_estimate.s"] = iqae["s"]
    m["amplitude_estimation.iqae_estimate.self_s"] = iqae["self_s"]
    results = [r["result"] for r in _kind(p, "iqae")[0] if r["result"]]
    m["amplitude_estimation.iqae_estimate.rounds"] = sum(r.rounds for r in results)
    m["amplitude_estimation.iqae_estimate.oracle_calls"] = sum(
        r.oracle_calls for r in results
    )
    m["amplitude_estimation.sample.calls"] = get("amplitude_estimation.sample")["calls"]
    e2e = get("circuit_estimator.end_to_end")
    m["circuit_estimator.end_to_end.calls"] = e2e["calls"]
    m["circuit_estimator.end_to_end.us"] = per(e2e["s"], e2e["calls"]) * 1e6
    m["circuit_estimator.end_to_end.self_us"] = per(e2e["self_s"], e2e["calls"]) * 1e6
    m["error_budget.calls"] = layer("error_budget", "calls")
    m["error_budget.s"] = layer("error_budget", "self_s")
    direct = [
        v for k, v in agg.items()
        if k.startswith("qarith_resources.") and k.endswith("@root")
    ]
    q_calls = sum(v["calls"] for v in direct)
    m["qarith_resources.calls"] = q_calls
    m["qarith_resources.us_per_call"] = per(sum(v["s"] for v in direct), q_calls) * 1e6
    sim = get("gaussian_loader.simulate_ansatz")
    m["gaussian_loader.simulate_ansatz.calls"] = sim["calls"]
    m["gaussian_loader.simulate_ansatz.s"] = sim["s"]
    m["gaussian_loader.sims_per_train"] = per(
        get("gaussian_loader.simulate_ansatz@gaussian_loader.train")["calls"],
        get("gaussian_loader.train")["calls"],
    )
    m["gaussian_loader.harmonic_energy.s"] = get("gaussian_loader.harmonic_energy")["s"]
    m["gaussian_loader.linf_loss.calls"] = get("gaussian_loader.linf_loss")["calls"]
    m["gaussian_loader.digitize.s"] = get("gaussian_loader.digitize")["s"]
    # Shares of the pass's wall time: self time per layer (plain layer names,
    # with "benchmark" for time outside qdp) and per span name ("layer.fn").
    shares = {
        name: layer(name, "self_s") / p["wall_s"] for name in spans.LAYERS
    }
    shares["benchmark"] = 1.0 - sum(shares.values())
    shares.update(
        {k: v["self_s"] / p["wall_s"] for k, v in agg.items() if "@" not in k}
    )
    return m, shares


# --------------------------------------------------------------------------
# metadata and output


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _threads() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


def metadata(args, passes: int, setup_samples: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "qdp_source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "thread_caps": THREAD_CAPS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "passes": passes,
        "setup_samples": setup_samples,
    }


def declared(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def final_line(values: dict, section: str, ledger: Ledger) -> str:
    units = declared(section)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
        )
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    })


# --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("pricing", "estimation", "loader")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdp" / "__init__.py").is_file():
        print(f"error: no qdp sources at {SRC}; run from a qdp checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    if args.setup_only:
        seconds, _ = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setup_s, workload = timed_setup(args.workload, args.seed)
    import qdp

    if SRC not in Path(qdp.__file__).resolve().parents:
        print(f"error: qdp was imported from {qdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setups = [setup_s] + [
        child_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]

    ledger = Ledger()
    report: dict = {}
    for probe in workload.probes:
        try:
            result, error = probe.run(), None
        except Exception as exc:  # a probe that raises counts as failed
            result, error = None, exc
        ledger.record(probe, result, error)

    untraced, traced = [], []
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    index = 0
    while True:
        ops = workload.ops(index)
        untraced.append(run_pass(ops, ledger))
        if tracer is not None:
            tracer.spans.clear()
            p = run_pass(ops, ledger, tracer)
            p["spans"] = list(tracer.spans)
            tracer.spans.clear()
            traced.append(p)
        index += 1
        if len(untraced) >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = [p["wall_s"] for p in untraced]
    report["metadata"] = metadata(args, len(untraced) + len(traced), len(setups))
    report["end_to_end"] = {
        "setup_s": {
            "value": _median(setups), "unit": "s", "samples": len(setups), "runs": setups,
        },
        "wall_s": {
            "value": _median(wall), "unit": "s", "samples": len(wall), "passes": wall,
        },
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
    }
    report["workload_metrics"] = workload_metrics(untraced)
    report["fail_frac"] = ledger.failed / ledger.attempted
    report["failures"] = ledger.failures[:20]
    report["known_defects"] = ledger.known_defects

    if tracer is None:
        values = {k: v["value"] for k, v in report["end_to_end"].items()}
        section = "end_to_end"
    else:
        per_pass = [layer_metrics(p) for p in traced]
        values = {
            k: _median([m[k] for m, _ in per_pass]) for k in per_pass[0][0]
        }
        values.update({k: v["value"] for k, v in report["workload_metrics"].items()})
        values.update(import_times())
        values["process.cpu_s"] = _median([p["cpu_s"] for p in untraced])
        values["process.threads"] = _threads()
        values["trace_overhead_frac"] = (
            _median([p["wall_s"] for p in traced]) / _median(wall) - 1.0
        )
        values["known_defects"] = len(ledger.known_defects)
        report["per_layer"] = {
            k: {"value": v, "samples": len(traced)} for k, v in values.items()
        }
        shares = {
            k: _median([s.get(k, 0.0) for _, s in per_pass])
            for k in sorted({k for _, s in per_pass for k in s})
        }
        report["layer_shares"] = {k: v for k, v in shares.items() if "." not in k}
        report["span_shares"] = {
            k: v for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
            if "." in k and v >= 0.005
        }
        section = "per_layer"

    print(json.dumps(report, indent=1, default=str))
    print(final_line(values, section, ledger))
    return 0


if __name__ == "__main__":
    sys.exit(main())
