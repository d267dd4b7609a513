"""Train the variational Gaussian loader and digitize its angles.

Trains the Ry+CNOT ansatz against a discretized standard normal at a
few circuit depths, then restricts the best angles to a 2*pi/M grid to
show how angle digitization degrades the L-infinity loss.
"""

import numpy as np

from qdp.circuit_estimator import loader_gate_resources
from qdp.gaussian_loader import RyCnotAnsatz, digitize, train_sweep
from qdp.market_model import GridSpec

N_QUBITS = 4


def main():
    depths = (2, 4, 6)
    print(f"training n={N_QUBITS} loader, restarts=4 per depth")
    sweep = train_sweep(N_QUBITS, depths, restarts=4, seed=0)
    for L in depths:
        result = sweep[L]
        rc = loader_gate_resources(N_QUBITS, L, 1e-4)
        print(
            f"L={L}: L_inf={result.l_inf:.3e} energy={result.energy:.6f} "
            f"t_depth={rc.t_depth}"
        )

    best_depth = depths[-1]
    best = sweep[best_depth]
    ansatz = RyCnotAnsatz(n=N_QUBITS, L=best_depth)
    target = GridSpec(n=N_QUBITS)
    print("\nangle digitization at the deepest setting:")
    for m_digit in (100, 1_000, 10_000, 100_000):
        out = digitize(best.best_params, m_digit, ansatz, target)
        excess = out["l_inf"] - best.l_inf
        print(f"M={m_digit:>7,}: L_inf={out['l_inf']:.3e} (excess {excess:.3e})")

    grids = np.array([100, 1_000, 10_000, 100_000], dtype=float)
    diffs = [
        max(digitize(best.best_params, int(m), ansatz, target)["l_inf"] - best.l_inf, 1e-16)
        for m in grids
    ]
    slope = np.polyfit(np.log10(grids), np.log10(diffs), 1)[0]
    print(f"\nexcess-loss slope vs grid size: {slope:.2f} (expect about -1)")


if __name__ == "__main__":
    main()
