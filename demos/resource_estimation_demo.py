"""Reproduce the benchmark resource table and inspect one breakdown.

Estimates end-to-end fault-tolerant costs (T-count, T-depth, logical
qubits, oracle calls) for the benchmark autocallable and TARF under both
state-preparation methods, then prints the itemized loading breakdown
for the reparameterized autocallable run.
"""

from qdp.circuit_estimator import end_to_end
from qdp.cli_report import load_benchmark_config
from qdp.contracts import contract_from_dict
from qdp.market_model import GBMParams
from qdp.qarith_resources import FixedPointFormat

FMT = FixedPointFormat(n=34, p=2)


def main():
    rows = []
    for name in ("autocallable", "tarf"):
        config = load_benchmark_config(name)
        params = GBMParams.from_dict(config["model"])
        contract = contract_from_dict(config["contract"])
        for method in ("reparam", "riemann-no-norm", "riemann"):
            report = end_to_end(method, params, contract, FMT, 2e-3)
            rows.append((name, method, report))

    header = f"{'contract':<13} {'method':<16} {'T-count':>10} {'T-depth':>10} {'qubits':>7} {'N':>9} feasible"
    print(header)
    print("-" * len(header))
    for name, method, report in rows:
        print(
            f"{name:<13} {method:<16} {report.total_t_count:>10.2e} "
            f"{report.total_t_depth:>10.2e} {report.logical_qubits:>7d} "
            f"{report.n_oracle:>9.2e} {report.feasible}"
        )

    print("\n== reparam autocallable loading breakdown ==")
    auto = next(r for n, m, r in rows if n == "autocallable" and m == "reparam")
    for row in auto.loading_breakdown.as_rows():
        print(
            f"{row['stage']:<32} t_depth={row['t_depth']:>8,} "
            f"qubits={row['logical_qubits']:>6,}"
        )
    scale = next(r for n, m, r in rows if m == "riemann" and n == "autocallable").scale
    print(f"\nriemann normalization scale for the autocallable: {scale:.3e}")


if __name__ == "__main__":
    main()
