"""
Quantum derivative pricing: resource estimation and classical verification.

Submodules
----------
market_model
    Correlated GBM parameters, the grid convention and the step law.
contracts
    Autocallable and TARF term sheets with classical payoff evaluation.
pricing_engines
    Monte Carlo and exact-lattice pricing oracles.
qarith_resources
    Closed-form costs for fixed-point quantum arithmetic primitives.
error_budget
    Truncation, discretization, arithmetic, and estimation error bounds.
circuit_estimator
    Path-loading and payoff circuit cost models; end-to-end estimates.
amplitude_estimation
    Simulated iterative amplitude estimation and the oracle-call bound.
gaussian_loader
    Variational training of Ry-CNOT standard-normal loaders.
cli_report
    The `qdp` command-line interface.
"""

__version__ = "0.1.0"
