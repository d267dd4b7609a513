"""
Oracle-level and end-to-end resource estimates for the pricing circuits.

Composes the fixed-point arithmetic cost models into the two path-loading
strategies and the two payoff circuits, then into full amplitude-
estimation totals:

- Riemann summation loading: compute each step's transition density into
  an amplitude, paying a P_max^T normalization on the final estimate.
- Re-parameterization loading: prepare dT standard Gaussian registers
  variationally, then apply the drift/Cholesky affine map with quantum
  arithmetic.
- Payoff circuits: comparator/logic trees plus arithmetic that rotates
  the normalized payoff into the estimation ancilla.

Every stage model returns an itemized breakdown, and the reported total
is its recomposition, so any modeling gap is auditable item by item.
Each item is a ``ResourceCount``, whose T-count is derived from its
Toffolis and rotation T gates.  Every register width comes from one
``RegisterPlan``, which ``end_to_end`` builds once: the stage models
read their formats, asset count d and step count T from it, and take
every other knob (k, M, z) without a default; ``end_to_end`` holds the
only estimate defaults and reads the widths of its error bounds from the
same plan.  Totals for a full estimation run are 2 * oracle_depth *
N_oracle: each Grover iterate applies the state preparation twice (once
forward, once inverted), and the reflections in between are
Clifford-dominated and carry no T cost in this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import error_budget as eb
from .amplitude_estimation import oracle_call_bound
from .contracts import AutocallableSpec, TARFSpec, _resolve_dates, payoff_bounds
from .market_model import GBMParams, build_covariance, sigma_max
from .qarith_resources import (
    FixedPointFormat,
    ResourceCount,
    add_resources,
    arcsin_sqrt_resources,
    comparator_depth,
    controlled_rotation_depth,
    exp_resources,
    mul_resources,
    piecewise_poly_qubits,
    rotation_resources,
)

INFEASIBLE_SCALE = 1.0


@dataclass(frozen=True)
class EstimateBreakdown:
    """A resource estimate with its per-stage itemization.

    Items are serial stages: depths add across items, counts add, and
    qubit footprints add (registers allocated by different stages
    coexist).  Parallelism within a stage is already folded into that
    item's entry.
    """

    items: tuple[tuple[str, ResourceCount], ...]

    def total(self) -> ResourceCount:
        return ResourceCount(
            toffoli_count=sum(rc.toffoli_count for _, rc in self.items),
            rotation_t_count=sum(rc.rotation_t_count for _, rc in self.items),
            t_depth=sum(rc.t_depth for _, rc in self.items),
            logical_qubits=sum(rc.logical_qubits for _, rc in self.items),
        )

    def assert_consistent(self, total: ResourceCount) -> None:
        """Machine check that a reported total recomposes from the items."""
        if self.total() != total:
            raise AssertionError("breakdown does not recompose to the total")

    def as_rows(self) -> list[dict]:
        return [
            {
                "stage": name,
                "toffoli_count": rc.toffoli_count,
                "t_count": rc.t_count,
                "t_depth": rc.t_depth,
                "logical_qubits": rc.logical_qubits,
            }
            for name, rc in self.items
        ]


@dataclass(frozen=True)
class RegisterPlan:
    """The register widths of one pricing circuit and the path shape they carry.

    ``loader`` is the format of each of the d*T Gaussian loader registers,
    ``price`` that of the price and payoff registers.  ``cumulative`` is
    the loader format widened by ceil(log2 T) + ceil(log2 d) guard bits on
    n and p, so cumulative sums over T steps and correlated combinations
    of d assets stay exact.
    """

    loader: FixedPointFormat
    price: FixedPointFormat
    d: int
    T: int

    @property
    def cumulative(self) -> FixedPointFormat:
        extra = math.ceil(math.log2(self.T)) + math.ceil(math.log2(self.d))
        return FixedPointFormat(n=self.loader.n + extra, p=self.loader.p + extra)


def riemann_loading_resources(
    plan: RegisterPlan,
    epsilon: float,
    k: int,
    M: int,
    z: int | None,
) -> EstimateBreakdown:
    """Cost of loading the path distribution by Riemann summation.

    For each of the T steps the circuit centers the d return registers,
    forms the quadratic form of the step density (squares plus
    correlation cross terms), exponentiates, takes arcsin of the square
    root, and rotates the result into an ancilla; cumulative sums and
    price exponentials make the payoff inputs available.  Work across
    assets and steps runs in parallel; multiplications split z ways.
    """
    fmt, d, T = plan.price, plan.d, plan.T
    n = fmt.n
    if z is None:
        z = n
    pairs = math.comb(d, 2)
    add = add_resources(fmt)
    mul = mul_resources(fmt, z)
    expo = exp_resources(fmt, k, M, z)
    arc = arcsin_sqrt_resources(fmt, k, M, z)
    density_rot = controlled_rotation_depth(fmt, epsilon)

    # Depth multiplier for cross terms: C(d,2) products share d/2 parallel
    # multiplier lanes (each asset register feeds one product at a time).
    cross_rounds = math.ceil(2 * pairs / d) if d > 1 else 0

    items = [
        ("center returns (subtract drift)", ResourceCount(
            toffoli_count=add.toffoli_count * T * d,
            t_depth=add.t_depth,
            logical_qubits=T * d * n,
        )),
        ("squared returns", ResourceCount(
            toffoli_count=mul.toffoli_count * T * d,
            t_depth=mul.t_depth,
            logical_qubits=T * d * n,
        )),
        ("correlation cross terms", ResourceCount(
            toffoli_count=mul.toffoli_count * T * pairs,
            t_depth=mul.t_depth * cross_rounds,
            logical_qubits=T * pairs * n,
        )),
        ("sum quadratic form", ResourceCount(
            toffoli_count=add.toffoli_count * T * (d + pairs - 1),
            t_depth=add.t_depth * max(math.ceil(math.log2(d + pairs)), 1),
        )),
        ("exponential of quadratic form", ResourceCount(
            toffoli_count=expo.toffoli_count * T,
            t_depth=expo.t_depth,
            logical_qubits=piecewise_poly_qubits(n, k, M),
        )),
        ("arcsine of square-root density", ResourceCount(
            toffoli_count=arc.toffoli_count * T,
            t_depth=arc.t_depth,
            logical_qubits=arc.logical_qubits,
        )),
        ("density rotation into ancilla", ResourceCount(
            rotation_t_count=density_rot,
            t_depth=density_rot,
            logical_qubits=n + 1,
        )),
        ("cumulative return sums", ResourceCount(
            toffoli_count=add.toffoli_count * (T - 1) * d,
            t_depth=add.t_depth * (T - 1),
            logical_qubits=(T - 1) * d * n,
        )),
        ("prices from cumulative returns", ResourceCount(
            toffoli_count=expo.toffoli_count * d * T,
            t_depth=expo.t_depth,
            logical_qubits=piecewise_poly_qubits(n, k, M) * d * T,
        )),
        ("adder workspace", ResourceCount(
            logical_qubits=T * d * n + (z - 1) * T * d,
        )),
    ]
    return EstimateBreakdown(items=tuple(items))


def loader_gate_resources(n: int, L: int, epsilon: float) -> ResourceCount:
    """Fault-tolerant cost of one trained n-qubit loader register.

    The Ry-CNOT ansatz has L+1 rotation layers; each layer costs
    ceil(3 n log2(n/epsilon)) T gates under the register-rotation model,
    and its rotations run in series, so T-count and T-depth agree.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    layers = math.ceil(3 * n * math.log2(n / epsilon)) * (L + 1)
    return ResourceCount(rotation_t_count=layers, t_depth=layers, logical_qubits=n)


def reparam_loading_resources(
    plan: RegisterPlan,
    L: int,
    epsilon: float,
    k: int,
    M: int,
    z: int | None,
) -> EstimateBreakdown:
    """Cost of loading the path distribution by re-parameterization.

    dT standard Gaussian registers are prepared in parallel by the
    trained Ry-CNOT ansatz (L+1 rotation layers); quantum arithmetic then
    applies the affine map (cumulative sums, Cholesky correlation
    multiplies, drift) and exponentiates into prices on the plan's
    widened ``cumulative`` registers.
    """
    d, T = plan.d, plan.T
    wide = plan.cumulative
    if z is None:
        z = wide.n
    add = add_resources(wide)
    mul = mul_resources(wide, z)
    expo = exp_resources(wide, k, M, z)

    loader = loader_gate_resources(plan.loader.n, L, epsilon)
    items = [
        ("gaussian ansatz layers", ResourceCount(
            rotation_t_count=loader.rotation_t_count * d * T,
            t_depth=loader.t_depth,
            logical_qubits=loader.logical_qubits * d * T,
        )),
        ("cumulative standard-normal sums", ResourceCount(
            toffoli_count=add.toffoli_count * (T - 1) * d,
            t_depth=add.t_depth * (T - 1),
            # Each (step, asset) slot keeps a widened accumulator beside
            # its raw Gaussian register.
            logical_qubits=T * d * wide.n,
        )),
        ("correlation multiplies", ResourceCount(
            toffoli_count=mul.toffoli_count * T * d * d,
            t_depth=mul.t_depth * d,
        )),
        ("drift addition", ResourceCount(
            toffoli_count=add.toffoli_count * T * d,
            t_depth=add.t_depth,
        )),
        ("prices from returns", ResourceCount(
            toffoli_count=expo.toffoli_count * d * T,
            t_depth=expo.t_depth,
            logical_qubits=piecewise_poly_qubits(wide.n, k, M) * d * T,
        )),
    ]
    return EstimateBreakdown(items=tuple(items))


def autocall_payoff_resources(
    spec: AutocallableSpec,
    plan: RegisterPlan,
    epsilon_f: float,
    k: int,
    M: int,
    z: int | None,
) -> EstimateBreakdown:
    """Cost of rotating the normalized autocallable payoff into an ancilla.

    Stages: all strike/barrier comparators in parallel (worst-of baskets
    first reduce the d assets with a comparator tree), the knock-out /
    knock-in logic, one controlled rotation per binary in series, the put
    payoff arithmetic capped by arcsin of a square root, and the final
    controlled-rotation cascade.  The budget epsilon_f splits evenly
    across the three rotation/arithmetic stages.
    """
    fmt, d = plan.price, plan.d
    n = fmt.n
    if z is None:
        z = n
    m = len(spec.binaries)
    n_barrier = len(spec.barrier_dates)
    n_comparators = n_barrier + m + 1
    eps_stage = epsilon_f / 3.0

    basket_rounds = math.ceil(math.log2(d)) if d > 1 else 0
    comp_d = comparator_depth(n)
    binary_rot = rotation_resources(max(eps_stage / m, 1e-300))
    add = add_resources(fmt)
    mul = mul_resources(fmt, z)
    arc = arcsin_sqrt_resources(fmt, k, M, z)
    cascade = controlled_rotation_depth(fmt, eps_stage)

    items = [
        ("strike and barrier comparators", ResourceCount(
            toffoli_count=comp_d * (n_comparators + (d - 1) * n_barrier),
            t_depth=comp_d * (1 + basket_rounds),
            logical_qubits=n_comparators * (n + 1),
        )),
        ("knock-out / knock-in logic", ResourceCount(
            toffoli_count=n_barrier + m + 3,
            t_depth=max(math.ceil(math.log2(n_barrier)), 1) + 3,
            logical_qubits=m + n_barrier + 2,
        )),
        ("binary coupon rotations", ResourceCount(
            rotation_t_count=binary_rot.rotation_t_count * m,
            t_depth=binary_rot.t_depth * m,
            logical_qubits=m,
        )),
        ("put payoff arithmetic and arcsine", ResourceCount(
            toffoli_count=add.toffoli_count + mul.toffoli_count + arc.toffoli_count,
            t_depth=add.t_depth + mul.t_depth + arc.t_depth,
            logical_qubits=n + (z - 1) * n + arc.logical_qubits,
        )),
        ("payoff rotation cascade", ResourceCount(
            rotation_t_count=cascade,
            t_depth=cascade,
            logical_qubits=n + 2,
        )),
    ]
    return EstimateBreakdown(items=tuple(items))


def tarf_payoff_resources(
    spec: TARFSpec,
    plan: RegisterPlan,
    epsilon_f: float,
    k: int,
    M: int,
    z: int | None,
) -> EstimateBreakdown:
    """Cost of rotating the normalized TARF payoff into an ancilla.

    Stages: per-date band/barrier comparators in parallel, per-date
    partial payoffs, serial prefix sums of the running total, cap
    detection and the clipped final payment, per-date discount
    multiplications (their rotation budget split as epsilon/sqrt(T) so
    the per-date errors add in quadrature), the discounted sum, arcsin of
    its square root, and the rotation cascade.
    """
    fmt, T = plan.price, plan.T
    n = fmt.n
    if z is None:
        z = n
    eps_stage = epsilon_f / 3.0

    comp_d = comparator_depth(n)
    add = add_resources(fmt)
    add_c = add_resources(fmt, controlled=True)
    mul = mul_resources(fmt, z)
    arc = arcsin_sqrt_resources(fmt, k, M, z)
    cascade = controlled_rotation_depth(fmt, eps_stage)

    items = [
        ("band and barrier comparators", ResourceCount(
            toffoli_count=comp_d * 3 * T,
            t_depth=comp_d,
            logical_qubits=3 * T * (n + 1),
        )),
        ("knock-out propagation", ResourceCount(
            toffoli_count=2 * T,
            t_depth=2 * T,
            logical_qubits=2 * T,
        )),
        ("per-date partial payoffs", ResourceCount(
            toffoli_count=(add.toffoli_count + mul.toffoli_count + 2) * T,
            t_depth=add.t_depth + mul.t_depth + 2,
            logical_qubits=2 * T * n,
        )),
        ("running-total prefix sums", ResourceCount(
            toffoli_count=add.toffoli_count * (T - 1),
            t_depth=add.t_depth * (T - 1),
            logical_qubits=T * n,
        )),
        ("cap comparators and clip", ResourceCount(
            toffoli_count=(comp_d + add_c.toffoli_count) * T,
            t_depth=comp_d + add_c.t_depth,
            logical_qubits=T * (n + 1) + n,
        )),
        ("discount multiplications", ResourceCount(
            toffoli_count=mul.toffoli_count * T,
            t_depth=mul.t_depth,
            logical_qubits=T * n,
        )),
        ("discounted payoff sum", ResourceCount(
            toffoli_count=add.toffoli_count * (T - 1) + mul.toffoli_count,
            t_depth=add.t_depth * max(math.ceil(math.log2(T)), 1) + mul.t_depth,
            logical_qubits=(z - 1) * n,
        )),
        ("arcsine of square-root payoff", ResourceCount(
            toffoli_count=arc.toffoli_count,
            t_depth=arc.t_depth,
            logical_qubits=arc.logical_qubits,
        )),
        ("payoff rotation cascade", ResourceCount(
            rotation_t_count=cascade,
            t_depth=cascade,
            logical_qubits=n + 2,
        )),
    ]
    return EstimateBreakdown(items=tuple(items))


@dataclass(frozen=True)
class EndToEndReport:
    """Full estimation-run resources for one method and contract.

    ``scale`` is the Riemann normalization P_max^T for "riemann" and
    "riemann-no-norm" and 1.0 for "reparam".  ``n_oracle`` is the IQAE
    oracle-call bound at ``budget.eps_amp``: for "riemann" that is the
    amplitude half-width divided by ``scale``, so the normalization shows
    up in ``n_oracle`` and the totals; "riemann-no-norm" and "reparam" use
    the price-level half-width.  ``budget.scale`` is P_max^T * f_delta for
    "riemann" and f_delta for the other two methods, which apply no
    normalization.

    Every other figure is derived from these fields: the oracle is the
    loading stages followed by the payoff stages, and the totals are
    2 * oracle * n_oracle.
    """

    method: str
    n_oracle: int
    budget: eb.ErrorBudget
    scale: float
    loading_breakdown: EstimateBreakdown
    payoff_breakdown: EstimateBreakdown

    @property
    def loading(self) -> ResourceCount:
        return self.loading_breakdown.total()

    @property
    def payoff(self) -> ResourceCount:
        return self.payoff_breakdown.total()

    @property
    def oracle(self) -> ResourceCount:
        return EstimateBreakdown(
            self.loading_breakdown.items + self.payoff_breakdown.items
        ).total()

    # The Grover iterate contains the state preparation twice; its two
    # reflections are Clifford-dominated and carry no T cost here.
    @property
    def total_t_depth(self) -> int:
        return 2 * self.oracle.t_depth * self.n_oracle

    @property
    def total_t_count(self) -> int:
        return 2 * self.oracle.t_count * self.n_oracle

    @property
    def logical_qubits(self) -> int:
        return self.oracle.logical_qubits

    @property
    def feasible(self) -> bool:
        return not (self.method == "riemann" and self.scale > INFEASIBLE_SCALE)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "n_oracle": self.n_oracle,
            "oracle_t_depth": self.oracle.t_depth,
            "oracle_toffoli": self.oracle.toffoli_count,
            "total_t_depth": self.total_t_depth,
            "total_t_count": self.total_t_count,
            "logical_qubits": self.logical_qubits,
            "scale": self.scale,
            "feasible": self.feasible,
            "error_budget": self.budget.as_dict(),
            "loading_breakdown": self.loading_breakdown.as_rows(),
            "payoff_breakdown": self.payoff_breakdown.as_rows(),
        }


def end_to_end(
    method: str,
    params: GBMParams,
    contract,
    fmt: FixedPointFormat,
    target_error: float,
    confidence: float = 0.68,
    *,
    w: float = 5.0,
    L: int = 6,
    gaussian_fmt: FixedPointFormat = FixedPointFormat(n=5, p=3),
    k: int = 3,
    M: int = 32,
    z: int | None = None,
    beta: float = 17.0,
    eps_f: float = 1e-4,
    eps_dens: float = 5e-7,
    synthesis_epsilon: float = 1e-4,
) -> EndToEndReport:
    """End-to-end resource estimate for one pricing run.

    Parameters
    ----------
    method : str
        "riemann" (normalized: the amplitude is resolved to
        eps_amp / P_max^T, so the P_max^T scale multiplies n_oracle and
        the totals), "riemann-no-norm" (the same circuits with the
        normalization reported in ``scale`` but not applied), or
        "reparam" (no normalization, ``scale`` = 1).
    params, contract, fmt
        Market model, term sheet, and fixed-point format of the price
        registers.
    target_error : float
        Total price error target, relative to the payoff range f_delta.
    confidence : float
        1 - alpha for the amplitude-estimation interval.
    w, L, gaussian_fmt, k, M, z, beta, eps_f, eps_dens, synthesis_epsilon
        Lattice half-width, ansatz depth and register format for the
        re-parameterization loader, polynomial/interval/parallelization
        knobs, the quadrature second-derivative bound, payoff and loader
        density error allocations, and the rotation synthesis precision.
        These defaults are the only estimate defaults: the CLI forwards
        just the keys a config sets.

    Raises
    ------
    ValueError
        If the contract's dates do not fit the model's steps and assets
        (as for the pricing engines), or if the error components already
        exceed the target; the message names the binding component.
    """
    if method not in ("riemann", "riemann-no-norm", "reparam"):
        raise ValueError(f"unknown method {method!r}")
    plan = RegisterPlan(gaussian_fmt, fmt, params.d, params.n_steps)
    d, T = plan.d, plan.T
    cov = build_covariance(params)
    sig = sigma_max(cov)
    bounds = payoff_bounds(contract, params.r)
    # The pricing engines' date check: a contract whose dates do not fit
    # the model's T steps of d assets has no circuit to cost.
    _resolve_dates(params.dt * np.arange(1, T + 1), contract, d)

    eps_trunc = eb.truncation_error(d, T, w)
    # The reparam lattice is its loader registers; the Riemann methods
    # discretize returns on price-format registers.
    lattice_fmt = plan.loader if method == "reparam" else plan.price
    eps_disc = eb.discretization_error(beta, w, sig, d, T, lattice_fmt.n)
    if method == "reparam":
        eps_arith = eb.reparam_arith_error(w, d, T, eps_dens, eps_f)
    else:
        eps_sum = eb.riemann_sum_error(plan.price, w, sig, d, T)
        eps_dens_r = eb.riemann_density_error(
            eps_sum, plan.price, eps_exp0=1e-7, eps_arcsin0=1e-7
        )
        eps_arith = eps_dens_r + eps_f

    fixed = eps_trunc + eps_disc + eps_arith
    if fixed >= target_error:
        binding = max(
            ("eps_trunc", eps_trunc), ("eps_disc", eps_disc), ("eps_arith", eps_arith),
            key=lambda kv: kv[1],
        )[0]
        raise ValueError(
            f"error target {target_error} unachievable: components sum to "
            f"{fixed:.3e} before amplitude estimation; binding component {binding}"
        )
    # The fixed components are conservative worst-case bounds, so they are
    # not allowed to starve the sampling allocation below half the target;
    # the reported budget still carries the full component values.
    eps_amp = max(target_error - fixed, 0.5 * target_error)

    # Currency per unit of normalized error: f_delta, times P_max^T only
    # where the normalization is applied.
    budget_scale = bounds.f_delta
    if method == "reparam":
        loading_bd = reparam_loading_resources(plan, L, synthesis_epsilon, k, M, z)
        scale = 1.0
    else:
        loading_bd = riemann_loading_resources(plan, synthesis_epsilon, k, M, z)
        p_max = eb.riemann_pmax(d, w, cov if d > 1 else None)
        scale = p_max**T
        if method == "riemann":
            # The circuit estimates the payoff amplitude divided by P_max^T,
            # and the price multiplies it back, so the amplitude has to be
            # resolved P_max^T times more finely.
            eps_amp = eps_amp / scale
            budget_scale = scale * bounds.f_delta
    budget = eb.ErrorBudget(eps_trunc, eps_disc, eps_arith, eps_amp, budget_scale)

    n_oracle = math.ceil(oracle_call_bound(eps_amp, 1.0 - confidence))

    # ``payoff_bounds`` above has already rejected any other contract type.
    if isinstance(contract, AutocallableSpec):
        payoff_bd = autocall_payoff_resources(contract, plan, eps_f, k, M, z)
    else:
        payoff_bd = tarf_payoff_resources(contract, plan, eps_f, k, M, z)
    return EndToEndReport(
        method=method,
        n_oracle=n_oracle,
        budget=budget,
        scale=scale,
        loading_breakdown=loading_bd,
        payoff_breakdown=payoff_bd,
    )
