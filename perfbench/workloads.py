"""The benchmark's workloads: inputs built from a seed, ops, and output checks.

An op is one call into a public qdp function.  Every op carries a check;
a check returns the list of its failures, empty when the output is right.
A workload gives the op list for a pass-input index ``i``: ``pricing`` and
``estimation`` repeat the same inputs in every pass, ``loader`` draws a new
training seed per index, because its optimizer trajectories (and so its
cost) depend on the seed and one trajectory per run would make the run
time depend on a single draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from qdp import (
    amplitude_estimation as ae,
    circuit_estimator as ce,
    cli_report,
    contracts,
    error_budget as eb,
    gaussian_loader as gl,
    market_model as mm,
    pricing_engines as pe,
    qarith_resources as qa,
)

MC_PATHS = 100_000
EXACT_W = 5.0
SAMPLE_CHECK_PATHS = 20_000
STDERRS = 4.0
IQAE_EPSILONS = (1e-2, 3e-3, 1e-3, 3e-4)
IQAE_ALPHA = 0.32
IQAE_AMPLITUDES = 32
METHODS = ("riemann", "riemann-no-norm", "reparam")
REFERENCE_TARGET = 2e-3
EXTRA_TARGETS = 7
QARITH_PRIMITIVES = ("add", "mul", "sqrt", "comparator", "exp", "arcsin_sqrt")
QARITH_N = tuple(range(8, 40, 2))
LOADER_N = 4
LOADER_DEPTHS = (2, 4, 6)
LOADER_DIGITS = (100, 1_000, 10_000)
LOADER_TARGET_LINF = 1e-3


@dataclass
class Op:
    """One timed call, its output check and the work it stands for."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    units: Callable[[Any], dict] = lambda result: {}
    fingerprint: Callable[[Any], Any] = lambda result: None
    # Recognizes a known qdp defect in the output: returns its description
    # when present, None otherwise.  A known defect is reported, not failed.
    known_defect: Callable[[Any], str | None] = lambda result: None


@dataclass
class Workload:
    ops: Callable[[int], list[Op]]
    warm_up: Callable[[], None]
    # Ops run once per run, untimed, before the passes.
    probes: list[Op] = field(default_factory=list)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & (2**64 - 1), stream])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _step_times(params: mm.GBMParams) -> np.ndarray:
    """The model's step grid, computed as the pricing engines compute it."""
    return params.dt * np.arange(1, params.n_steps + 1)


def on_step_grid(
    spec: contracts.AutocallableSpec, params: mm.GBMParams
) -> contracts.AutocallableSpec:
    """The same term sheet with each date replaced by its ``dt * k`` grid time."""
    grid = _step_times(params)

    def snap(t: float) -> float:
        k = int(round(t / params.dt))
        if not 1 <= k <= params.n_steps or abs(k * params.dt - t) > 1e-9:
            raise ValueError(f"date {t} is not on the model's step grid")
        return float(grid[k - 1])

    return contracts.AutocallableSpec(
        binaries=tuple((K, snap(t), p) for K, t, p in spec.binaries),
        k_put=spec.k_put,
        barrier=spec.barrier,
        notional=spec.notional,
        barrier_dates=tuple(snap(t) for t in spec.barrier_dates),
        basket=spec.basket,
    )


def _shipped(name: str):
    cfg = cli_report.load_benchmark_config(name)
    return cfg, mm.GBMParams.from_dict(cfg["model"]), contracts.contract_from_dict(
        cfg["contract"]
    )


def _discounted_payoffs(contract, params: mm.GBMParams, returns: np.ndarray):
    """Discounted payoffs of (batch, T, 1) single-asset log-return paths."""
    cum = np.cumsum(returns[:, :, 0], axis=1)
    if isinstance(contract, contracts.AutocallableSpec):
        return contracts.autocall_payoff_batch(
            _step_times(params), np.exp(cum), contract, params.r
        )
    if isinstance(contract, contracts.TARFSpec):
        return contracts.tarf_payoff_batch(
            params.s0[0] * np.exp(cum), contract, params.r
        )
    s_T = params.s0[0] * np.exp(cum[:, -1])
    return math.exp(-params.r * contract.expiry) * np.maximum(s_T - contract.strike, 0)


def _price_range(contract, params: mm.GBMParams) -> tuple[float, float]:
    if isinstance(contract, contracts.EuropeanCallSpec):
        return 0.0, params.s0[0]
    bounds = contracts.payoff_bounds(contract, params.r)
    return bounds.f_min, bounds.f_max


def _in_range(value: float, contract, params, what: str) -> list[str]:
    lo, hi = _price_range(contract, params)
    if lo - 1e-9 <= value <= hi + 1e-9:
        return []
    return [f"{what} {value} outside payoff bounds [{lo}, {hi}]"]


# --------------------------------------------------------------------------
# pricing


def _exact_model(rng, d: int, T: int, dt: float) -> mm.GBMParams:
    corr = float(rng.uniform(0.0, 0.5))
    return mm.GBMParams(
        r=0.01,
        sigmas=tuple(rng.uniform(0.15, 0.35, d)),
        rho=tuple(tuple(1.0 if i == j else corr for j in range(d)) for i in range(d)),
        dt=dt,
        n_steps=T,
        s0=(1.0,) * d,
    )


def _autocallable(rng, params: mm.GBMParams) -> contracts.AutocallableSpec:
    times = [float(t) for t in _step_times(params)]
    coupon = float(rng.uniform(0.02, 0.08))
    return contracts.AutocallableSpec(
        binaries=tuple(
            (float(rng.uniform(1.02, 1.12)), t, coupon * (k + 1))
            for k, t in enumerate(times)
        ),
        k_put=1.0,
        barrier=float(rng.uniform(0.6, 0.85)),
        notional=1.0,
        barrier_dates=tuple(times),
    )


def _tarf(rng, params: mm.GBMParams) -> contracts.TARFSpec:
    return contracts.TARFSpec(
        forward=1.0,
        payment_times=tuple(float(t) for t in _step_times(params)),
        k_upper=1.0,
        k_lower=float(rng.uniform(0.8, 0.9)),
        barrier=float(rng.uniform(1.3, 1.5)),
        alpha=2.0,
        cap=float(rng.uniform(0.1, 0.3)),
    )


def _mc_op(label, params, contract, seed) -> Op:
    def check(res):
        out = _in_range(res.estimate, contract, params, f"{label} MC price")
        if not res.stderr > 0:
            out.append(f"{label} MC stderr {res.stderr} is not positive")
        if isinstance(contract, contracts.EuropeanCallSpec):
            ref = pe.black_scholes_call(
                params.s0[0], contract.strike, params.r, params.sigmas[0],
                contract.expiry,
            )
            if abs(res.estimate - ref) > STDERRS * res.stderr:
                out.append(
                    f"{label} MC {res.estimate} is more than {STDERRS} stderr "
                    f"({res.stderr}) from Black-Scholes {ref}"
                )
        return out

    return Op(
        kind="mc",
        label=label,
        run=lambda: pe.mc_price(params, contract, MC_PATHS, seed=seed),
        check=check,
        units=lambda res: {"paths": res.n_paths},
        fingerprint=lambda res: (res.estimate, res.stderr),
    )


def _mass_shortfall(label, params, res) -> str | None:
    floor = 1.0 - eb.truncation_error(params.d, params.n_steps, EXACT_W)
    if res.total_mass >= floor:
        return None
    return f"{label}: total mass {res.total_mass} < 1 - truncation_error = {floor}"


def _exact_op(label, params, contract, n, sample_seed, coarse=False) -> Op:
    """Exact lattice price.  ``coarse`` marks a grid on which the lattice is
    known to lose mass (see ``pricing``): the mass check then reports the
    known defect instead of failing."""
    grid = mm.GridSpec(n=n, w=EXACT_W)

    def check(res):
        out = _in_range(res.price, contract, params, f"{label} exact price")
        shortfall = _mass_shortfall(label, params, res)
        if shortfall and not coarse:
            out.append(shortfall)
        if params.d == 1:
            dist = pe.reparam_distribution(grid, params)
            returns = dist.sample_returns(
                SAMPLE_CHECK_PATHS * params.n_steps, seed=sample_seed
            ).reshape(SAMPLE_CHECK_PATHS, params.n_steps, 1)
            pay = _discounted_payoffs(contract, params, returns)
            mean = float(np.mean(pay))
            se = float(np.std(pay, ddof=1)) / math.sqrt(pay.size)
            lattice_mean = res.price / res.total_mass
            if abs(lattice_mean - mean) > STDERRS * se:
                out.append(
                    f"{label} exact {lattice_mean} is more than {STDERRS} stderr "
                    f"({se}) from the lattice sample mean {mean}"
                )
        return out

    op = Op(
        kind="exact",
        label=label,
        run=lambda: pe.exact_lattice_price(params, contract, grid),
        check=check,
        units=lambda res: {"paths": res.n_lattice_paths},
        fingerprint=lambda res: (res.price, res.total_mass),
    )
    if coarse:
        op.known_defect = lambda res: _mass_shortfall(label, params, res)
    return op


def defect_a_probe(seed: int) -> Op:
    """The shipped autocallable priced as shipped, at one 4096-path chunk.

    Its observation dates are decimal values that ``dt * k`` does not
    reproduce exactly, so the MC engine raises "missing observation date"
    (known defect A).  The op catches that one error and reports it as the
    known defect; any other error fails it, and so does a price outside the
    payoff bounds once the defect is fixed.
    """
    _, params, spec = _shipped("autocallable")
    marker = "missing observation date"

    def run():
        try:
            return pe.mc_price(params, spec, 4096, seed=seed)
        except ValueError as exc:
            if marker not in str(exc):
                raise
            return exc

    def check(res):
        if isinstance(res, ValueError):
            return []
        return _in_range(res.estimate, spec, params, "shipped autocallable MC price")

    return Op(
        kind="probe",
        label="defect A probe: shipped autocallable MC",
        run=run,
        check=check,
        fingerprint=lambda res: str(res) if isinstance(res, ValueError) else res.estimate,
        known_defect=lambda res: (
            f"defect A: {res}" if isinstance(res, ValueError) else None
        ),
    )


def pricing(seed: int) -> Workload:
    rng = _rng(seed, 1)
    _, auto_params, auto_shipped = _shipped("autocallable")
    auto_spec = on_step_grid(auto_shipped, auto_params)
    _, tarf_params, tarf_spec = _shipped("tarf")
    d1 = _exact_model(rng, 1, 4, 0.25)
    d1_contracts = {
        "autocallable": _autocallable(rng, d1),
        "tarf": _tarf(rng, d1),
        "call": contracts.EuropeanCallSpec(
            strike=float(rng.uniform(0.9, 1.1)), expiry=d1.horizon
        ),
    }
    d2 = _exact_model(rng, 2, 2, 0.5)
    # The shipped autocallable model cut to two steps.  Its unequal
    # volatilities share one +-w*sigma_max box (GridSpec.bounds), so the 8
    # cells per asset of n=3 are far too coarse for the low-volatility asset
    # and the lattice keeps only a few percent of the mass: a known defect
    # this op keeps in view.
    d3 = mm.GBMParams(
        r=auto_params.r, sigmas=auto_params.sigmas, rho=auto_params.rho,
        dt=auto_params.dt, n_steps=2, s0=auto_params.s0,
    )
    ops = [
        _mc_op("mc autocallable d=3 T=20", auto_params, auto_spec, _sub_seed(rng)),
        _mc_op("mc tarf d=1 T=26", tarf_params, tarf_spec, _sub_seed(rng)),
        _mc_op("mc call d=1 T=4", d1, d1_contracts["call"], _sub_seed(rng)),
    ]
    for name, spec in d1_contracts.items():
        ops.append(_exact_op(f"exact {name} d=1 T=4 n=5", d1, spec, 5, _sub_seed(rng)))
    ops.append(
        _exact_op(
            "exact autocallable d=1 T=4 n=6", d1, d1_contracts["autocallable"], 6,
            _sub_seed(rng),
        )
    )
    ops.append(
        _exact_op("exact autocallable d=2 T=2 n=5", d2, _autocallable(rng, d2), 5, 0)
    )
    ops.append(
        _exact_op(
            "exact autocallable d=3 T=2 n=3", d3, _autocallable(rng, d3), 3, 0,
            coarse=True,
        )
    )
    probe = defect_a_probe(_sub_seed(rng))

    def warm_up():
        pe.mc_price(auto_params, auto_spec, 4096, seed=0)
        pe.mc_price(tarf_params, tarf_spec, 4096, seed=0)
        for spec in d1_contracts.values():
            pe.exact_lattice_price(d1, spec, mm.GridSpec(n=2, w=EXACT_W))
            pe.mc_price(d1, spec, 4096, seed=0)

    return Workload(lambda i: ops, warm_up, probes=[probe])


# --------------------------------------------------------------------------
# estimation


def _iqae_op(a: float, eps: float, seed: int) -> Op:
    def run():
        return ae.iqae_estimate(ae.GroverOracleSim(a=a), eps, IQAE_ALPHA, seed=seed)

    def check(res):
        lo, hi = res.interval
        out = []
        if hi - lo > 2.0 * eps:
            out.append(f"iqae a={a} eps={eps}: interval width {hi - lo} > 2 eps")
        if not lo <= res.a_hat <= hi:
            out.append(f"iqae a={a} eps={eps}: estimate {res.a_hat} outside {res.interval}")
        return out

    bound = ae.oracle_call_bound(eps, IQAE_ALPHA)
    return Op(
        kind="iqae",
        label=f"iqae eps={eps} a={a:.4f}",
        run=run,
        check=check,
        units=lambda res: {
            "runs": 1,
            "calls_ratio": res.oracle_calls / bound,
            "covered": int(abs(res.a_hat - a) <= eps),
        },
        fingerprint=lambda res: (res.a_hat, res.interval, res.oracle_calls, res.rounds),
    )


def _estimate_kwargs(cfg: dict) -> dict:
    """``end_to_end`` keyword arguments from a config, as ``qdp table1`` reads them."""
    gf = cfg["gaussian_fmt"]
    return {
        "w": float(cfg["grid"]["w"]),
        "L": int(cfg["L"]),
        "gaussian_fmt": qa.FixedPointFormat(n=int(gf["n"]), p=int(gf["p"])),
        "k": int(cfg["k"]),
        "M": int(cfg["M"]),
        "z": cfg.get("z"),
        "beta": float(cfg["beta"]),
        "eps_f": float(cfg["eps_f"]),
        "eps_dens": float(cfg["eps_dens"]),
        "synthesis_epsilon": float(cfg["synthesis_epsilon"]),
    }


def _estimate_op(method: str, name: str, cfg, params, contract, target) -> Op:
    fmt = qa.FixedPointFormat(n=int(cfg["fmt"]["n"]), p=int(cfg["fmt"]["p"]))
    kwargs = _estimate_kwargs(cfg)
    confidence = float(cfg["confidence"])
    label = f"end_to_end {method} {name} target={target:.3g}"

    def check(rep):
        out = []
        for part, bd, total in (
            ("loading", rep.loading_breakdown, rep.loading),
            ("payoff", rep.payoff_breakdown, rep.payoff),
        ):
            try:
                bd.assert_consistent(total)
            except AssertionError as exc:
                out.append(f"{label}: {part} {exc}")
        if rep.n_oracle < 1:
            out.append(f"{label}: n_oracle {rep.n_oracle} < 1")
        if method == "reparam" and target == REFERENCE_TARGET:
            ref_t_count, ref_t_depth, ref_qubits = cli_report.REFERENCE_RESULTS[
                (method, name)
            ]
            # The T-count is not checked: the autocallable row is a known 2.26x
            # off the published value, which acceptance criterion 1 leaves out.
            for what, value, ref in (
                ("t_depth", rep.total_t_depth, ref_t_depth),
                ("logical_qubits", rep.logical_qubits, ref_qubits),
            ):
                if not ref / 2 <= value <= ref * 2:
                    out.append(f"{label}: {what} {value} not within 2x of {ref}")
        return out

    return Op(
        kind="estimate",
        label=label,
        run=lambda: ce.end_to_end(
            method, params, contract, fmt, target, confidence, **kwargs
        ),
        check=check,
        units=lambda rep: {"reports": 1},
        fingerprint=lambda rep: (rep.total_t_count, rep.total_t_depth, rep.logical_qubits),
    )


def _qarith_call(primitive: str, fmt: qa.FixedPointFormat, k: int, M: int, z: int):
    if primitive == "add":
        return qa.add_resources(fmt)
    if primitive == "mul":
        return qa.mul_resources(fmt, z=z)
    if primitive == "sqrt":
        return qa.sqrt_resources(fmt)
    if primitive == "comparator":
        return qa.comparator_resources(fmt)
    if primitive == "exp":
        return qa.exp_resources(fmt, k, M, z=z)
    return qa.arcsin_sqrt_resources(fmt, k, M, z=z)


def _qarith_op(primitive: str, p: int, z: int) -> Op:
    def run():
        return [
            _qarith_call(primitive, qa.FixedPointFormat(n=n, p=p), 3, 32, z)
            for n in QARITH_N
        ]

    def check(rows):
        cols = [
            [getattr(rc, f) for rc in rows]
            for f in ("toffoli_count", "t_count", "t_depth", "logical_qubits")
        ]
        if any(v < 0 for col in cols for v in col):
            return [f"qarith {primitive}: negative cost"]
        if any(b < a for col in cols for a, b in zip(col, col[1:])):
            return [f"qarith {primitive}: cost decreases as the register widens"]
        return []

    return Op(
        kind="qarith",
        label=f"qarith {primitive} p={p} z={z}",
        run=run,
        check=check,
        units=lambda rows: {"calls": len(rows)},
        fingerprint=lambda rows: tuple(rows),
    )


def estimation(seed: int) -> Workload:
    rng = _rng(seed, 2)
    # One amplitude in each of IQAE_AMPLITUDES equal slices of (0, 1): IQAE's
    # round count depends on the amplitude, and stratifying keeps the pass's
    # total work nearly the same from seed to seed.
    slices = np.arange(IQAE_AMPLITUDES) + rng.uniform(0.0, 1.0, IQAE_AMPLITUDES)
    amplitudes = slices / IQAE_AMPLITUDES
    ops = [
        _iqae_op(float(a), eps, _sub_seed(rng))
        for eps in IQAE_EPSILONS
        for a in amplitudes
    ]
    log_targets = rng.uniform(math.log(2.5e-3), math.log(3e-2), EXTRA_TARGETS)
    targets = (REFERENCE_TARGET,) + tuple(float(t) for t in np.exp(log_targets))
    for name in ("autocallable", "tarf"):
        cfg, params, contract = _shipped(name)
        for method in METHODS:
            for target in targets:
                ops.append(_estimate_op(method, name, cfg, params, contract, target))
    p = int(rng.integers(1, 4))
    z = int(rng.choice([1, 2, 4]))
    ops += [_qarith_op(prim, p, z) for prim in QARITH_PRIMITIVES]

    def warm_up():
        ae.iqae_estimate(ae.GroverOracleSim(a=0.3), 1e-2, IQAE_ALPHA, seed=0)
        for op in ops:
            if op.kind != "iqae":
                op.run()

    return Workload(lambda i: ops, warm_up)


# --------------------------------------------------------------------------
# loader


def _loader_ops(train_seed: int) -> list[Op]:
    """``train`` over increasing depths, warm-started as ``train_sweep`` does,
    then ``digitize`` of the sweep's best parameters."""
    state: dict = {}
    target = gl.LoaderTarget(n=LOADER_N)

    def train(L):
        def run():
            if L == LOADER_DEPTHS[0]:
                state.clear()
            res = gl.train(
                LOADER_N, L, restarts=1, seed=train_seed + L,
                warm_start=state.get("warm"),
            )
            state["warm"] = res.best_params
            if "best" not in state or res.l_inf < state["best"][1].l_inf:
                state["best"] = (L, res)
            return res

        def check(res):
            out = []
            if res.best_params.size != LOADER_N * (L + 1):
                out.append(f"train L={L}: {res.best_params.size} parameters")
            if not (math.isfinite(res.l_inf) and res.l_inf >= 0):
                out.append(f"train L={L}: l_inf {res.l_inf}")
            if L == LOADER_DEPTHS[-1] and state["best"][1].l_inf > LOADER_TARGET_LINF:
                out.append(
                    f"sweep best l_inf {state['best'][1].l_inf} > {LOADER_TARGET_LINF}"
                )
            return out

        return Op(
            kind="train",
            label=f"train n={LOADER_N} L={L} seed={train_seed + L}",
            run=run,
            check=check,
            units=lambda res: {"best_linf": state["best"][1].l_inf},
            fingerprint=lambda res: (res.l_inf, res.energy, res.best_params.tobytes()),
        )

    def digitize(M):
        def run():
            L, res = state["best"]
            out = gl.digitize(
                res.best_params, M, gl.RyCnotAnsatz(n=LOADER_N, L=L), target
            )
            return out, res.l_inf

        def check(result):
            out, trained = result
            if out["l_inf"] < trained:
                return [f"digitize M={M}: l_inf {out['l_inf']} below trained {trained}"]
            return []

        return Op(
            kind="digitize",
            label=f"digitize M={M}",
            run=run,
            check=check,
            fingerprint=lambda result: (result[0]["l_inf"], result[0]["params"].tobytes()),
        )

    return [train(L) for L in LOADER_DEPTHS] + [digitize(M) for M in LOADER_DIGITS]


def loader(seed: int) -> Workload:
    rng = _rng(seed, 3)
    train_seeds: list[int] = []
    cache: dict[int, list[Op]] = {}

    def ops(i: int) -> list[Op]:
        while len(train_seeds) <= i:
            train_seeds.append(_sub_seed(rng))
        if i not in cache:
            cache[i] = _loader_ops(train_seeds[i])
        return cache[i]

    def warm_up():
        res = gl.train(2, 1, restarts=1, seed=0)
        gl.digitize(res.best_params, 100, gl.RyCnotAnsatz(n=2, L=1), gl.LoaderTarget(n=2))

    return Workload(ops, warm_up)


WORKLOADS = {"pricing": pricing, "estimation": estimation, "loader": loader}
