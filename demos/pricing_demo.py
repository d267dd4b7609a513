"""Price a small autocallable three ways and compare.

Runs the exact lattice valuation, a Monte Carlo estimate, and a
Black-Scholes sanity check on a European call under the same model.
"""

from qdp.contracts import AutocallableSpec, EuropeanCallSpec, payoff_bounds
from qdp.market_model import GBMParams, GridSpec
from qdp.pricing_engines import black_scholes_call, exact_lattice_price, mc_price


def main():
    params = GBMParams(
        r=0.02, sigmas=(0.3,), rho=((1.0,),), dt=1.0 / 3.0, n_steps=3, s0=(1.0,)
    )
    contract = AutocallableSpec(
        binaries=((1.1, 1.0 / 3.0, 2.0), (1.1, 2.0 / 3.0, 4.0), (1.1, 1.0, 6.0)),
        k_put=1.0,
        barrier=0.7,
        notional=18.0,
        barrier_dates=(1.0 / 3.0, 2.0 / 3.0, 1.0),
    )

    print("== autocallable, d=1, T=3 ==")
    bounds = payoff_bounds(contract, params.r)
    print(f"payoff bounds: [{bounds.f_min:.4f}, {bounds.f_max:.4f}]")

    for n in (3, 5, 7):
        exact = exact_lattice_price(params, contract, GridSpec(n=n, w=5.0))
        print(
            f"lattice n={n}: price={exact.price:.6f} "
            f"a_hat={exact.a_hat:.6f} mass={exact.total_mass:.6f}"
        )

    for n_paths in (10_000, 100_000, 1_000_000):
        mc = mc_price(params, contract, n_paths, seed=0)
        print(f"mc {n_paths:>9,} paths: {mc.estimate:.6f} +/- {mc.stderr:.6f}")

    print("\n== european call sanity ==")
    euro_params = GBMParams(
        r=0.03, sigmas=(0.25,), rho=((1.0,),), dt=0.25, n_steps=4, s0=(1.0,)
    )
    euro = EuropeanCallSpec(strike=1.05, expiry=1.0)
    mc = mc_price(euro_params, euro, 200_000, seed=0)
    bs = black_scholes_call(1.0, 1.05, 0.03, 0.25, 1.0)
    gap = abs(mc.estimate - bs) / mc.stderr
    print(f"mc: {mc.estimate:.6f} +/- {mc.stderr:.6f}")
    print(f"closed form: {bs:.6f} (gap = {gap:.2f} stderr)")


if __name__ == "__main__":
    main()
