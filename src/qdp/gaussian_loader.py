"""
Variational preparation of discretized standard-normal states.

The loader is an Ry-CNOT ansatz: a layer of single-qubit Ry rotations,
then L blocks of [CNOT ladder, Ry layer], for n(L+1) angles in total.
All amplitudes stay real, so desk-scale statevector simulation works on
plain float vectors.

One kernel applies every Ry layer, forward and undone: a paired gather.
For qubit q each amplitude v becomes c v + (+-s) v', where v' is its
partner with bit q flipped, so a qubit costs one gather of [v, v'] by a
cached 2^(n+1) index, one product with a row of cos/sin coefficients and
one sum of the halves: the textbook update's arithmetic, bit for bit.
The CNOT ladder is folded into the gather of each block's first qubit.
``simulate_ansatz`` takes parameters of shape (..., n(L+1)) and returns
states of shape (..., 2^n), each row equal to the single call.

Training follows a two-phase schedule: quasi-Newton descent on the
energy of a harmonic oscillator whose ground state is the target
Gaussian (m = 1/(2 sigma^2)), then a refinement phase targeting the
infinity-norm loss between target cell masses and squared amplitudes.
The target is a ``market_model.GridSpec``: the loader is trained on the
``coords`` and ``masses`` of the grid every register of the step law
holds, and this module defines no grid of its own.  The refinement is
quasi-Newton descent on the squared-error surrogate, then an exact SLSQP
solve of the minimax problem in its epigraph form (loader training as in
Zoufal et al., arXiv:1904.00043).  Every derivative comes from adjoint
differentiation: one forward simulation, then one backward sweep that
undoes the gates on the state and on a stack of adjoint vectors together
(Jones & Gacon, arXiv:2009.02823).  A single adjoint, the loss gradient,
gives the quasi-Newton gradients; the 2^n unit adjoints give the full
state Jacobian the minimax constraints need, a sweep that holds
(2^n + 1) x 2^n floats (134 MB at ``MAX_QUBITS`` = 12).  Rotation angles
can afterwards be digitized to a grid of 2 pi / M_digit with a greedy
local search, modeling discrete fault-tolerant gate synthesis; each pass
simulates its remaining trials as one batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .market_model import GridSpec, _read_only, check_integer

MAX_QUBITS = 12

# Cap on the kernel coefficients of one ``digitize`` batch: (L + 1) * n *
# 2^(n+1) floats per trial, so n = 4, L = 6 batches all 56 trials of a pass
# and n = 12, L = 6 runs one trial at a time (8 MB).
_DIGITIZE_BATCH_FLOATS = 2**20


@dataclass(frozen=True)
class RyCnotAnsatz:
    """Ansatz shape: n qubits, L entangling blocks, n(L+1) angles."""

    n: int
    L: int

    def __post_init__(self):
        check_integer("n", self.n)
        check_integer("L", self.L)
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"n must be in [1, {MAX_QUBITS}]")
        if self.L < 0:
            raise ValueError("L must be nonnegative")

    @property
    def n_params(self) -> int:
        return self.n * (self.L + 1)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use so that importing
    qdp, pricing and estimating never load ``scipy.optimize``."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@functools.lru_cache(maxsize=None)
def _cnot_ladder_permutation(n: int) -> np.ndarray:
    """Basis permutation of the ladder CNOTs, qubit i-1 controlling i.

    Gates apply in order i = 1 .. n-1; qubit 0 is the most significant
    index bit.  The ladder sends basis index ``i`` to ``perm[i]``.  The
    array is cached per n and read-only.
    """
    idx = np.arange(2**n)
    for i in range(1, n):
        control = (idx >> (n - i)) & 1
        idx = np.where(control == 1, idx ^ (1 << (n - i - 1)), idx)
    return _read_only(idx)


@dataclass(frozen=True)
class _PairedGathers:
    """Index and sign tables of the paired-gather Ry kernel for one n.

    With N = 2^n and bit_q = 2^(n-1-q) (qubit 0 the most significant bit):

    - ``first[q]`` is the 2N gather [i, i ^ bit_q] over the basis i;
    - ``entangled`` is ``first`` with the ladder's inverse permutation
      composed into row 0, so a block's first qubit also applies its
      CNOT ladder;
    - ``signs[q, i]`` is -1 where bit q of i is 0 and +1 where it is 1.

    All arrays are read-only.
    """

    first: np.ndarray
    entangled: np.ndarray
    signs: np.ndarray


@functools.lru_cache(maxsize=None)
def _paired_gathers(n: int) -> _PairedGathers:
    N = 2**n
    idx = np.arange(N)
    bits = (1 << (n - 1 - np.arange(n)))[:, None]
    first = np.concatenate([np.broadcast_to(idx, (n, N)), idx ^ bits], axis=1)
    inverse = np.argsort(_cnot_ladder_permutation(n))
    entangled = first.copy()
    entangled[0] = inverse[first[0]]
    signs = np.where(idx & bits, 1.0, -1.0)
    return _PairedGathers(
        _read_only(first), _read_only(entangled), _read_only(signs)
    )


def _layer_coefficients(layers: np.ndarray) -> np.ndarray:
    """Per-qubit kernel rows [c, ..., c, +-s, ..., +-s] for stacked angles.

    ``layers`` has shape (..., B, n) for B layers of n angles.  The result
    has shape (B, n, 2^(n+1), ...): one row per (layer, qubit) with
    c = cos(theta/2) in its first half and signs[q] * sin(theta/2) in its
    second, and the leading batch axes of ``layers`` moved last.
    """
    k = layers.ndim - 2
    half = (layers / 2.0).transpose((k, k + 1) + tuple(range(k)))[:, :, None]
    signs = _paired_gathers(layers.shape[-1]).signs
    N = signs.shape[-1]
    signs = signs.reshape(signs.shape + (1,) * (half.ndim - 3))
    coefs = np.empty(half.shape[:2] + (2 * N,) + half.shape[3:])
    coefs[:, :, :N] = np.cos(half)
    np.multiply(np.sin(half), signs, out=coefs[:, :, N:])
    return coefs


def _apply_ry_layer(state: np.ndarray, coefs: np.ndarray, gathers) -> np.ndarray:
    """One Ry rotation per qubit on real statevectors along the first axis.

    Qubit q maps every amplitude v to c v + (+-s) v', where v' is its
    partner with bit q flipped: one gather of [v, v'] by ``gathers[q]``,
    one product with the row ``coefs[q]`` of ``_layer_coefficients`` and
    one sum of the halves.  These are the textbook update's two products
    and one sum, so the amplitudes are bit-identical to it.  ``state`` has
    shape (2^n, ...) and the rows broadcast against (2^(n+1), ...).  A new
    array is returned and ``state`` is left as it was.
    """
    N = state.shape[0]
    for gather, row in zip(gathers, coefs):
        pairs = state.take(gather, axis=0)
        pairs *= row
        state = pairs[:N] + pairs[N:]
    return state


def simulate_ansatz(ansatz: RyCnotAnsatz, params: np.ndarray) -> np.ndarray:
    """Real statevectors U(theta)|0...0> of the Ry-CNOT ansatz.

    ``params`` of shape (..., n_params) gives states of shape (..., 2^n);
    each row equals the single call on that row bit for bit.
    """
    params = np.asarray(params, dtype=float)
    if params.shape[-1:] != (ansatz.n_params,):
        raise ValueError(
            f"expected {ansatz.n_params} parameters, got shape {params.shape}"
        )
    n = ansatz.n
    batch = params.shape[:-1]
    coefs = _layer_coefficients(params.reshape(batch + (ansatz.L + 1, n)))
    gathers = _paired_gathers(n)
    state = np.zeros((2**n,) + batch)
    state[0] = 1.0
    state = _apply_ry_layer(state, coefs[0], gathers.first)
    for block in range(1, ansatz.L + 1):
        state = _apply_ry_layer(state, coefs[block], gathers.entangled)
    return state.transpose(tuple(range(1, state.ndim)) + (0,))


def _backward_sweep(
    ansatz: RyCnotAnsatz, params: np.ndarray, psi: np.ndarray, adjoints: np.ndarray
) -> np.ndarray:
    """Rows ``adjoints @ J`` of the state Jacobian J = d psi / d theta.

    ``psi`` is the ansatz state at ``params`` and ``adjoints`` a (k, 2^n)
    stack of row vectors.  The sweep walks the blocks in reverse with psi
    and the adjoints side by side, as the columns of a (2^n, k + 1) array.
    Right after a layer, d psi / d theta_q is half the generator
    [[0, -1], [1, 0]] on qubit q applied to psi (the layer's rotations
    commute): entry i is 0.5 * signs[q, i] * psi[i ^ bit_q], so one gather
    of psi gives all n derivative vectors, and one product of the adjoints
    with them gives the block's entries.  Undoing the layer (the same
    kernel at angles -theta) and the CNOT permutation moves every column
    to the previous block.  The 2^n unit adjoints give J itself, holding
    (2^n + 1) * 2^n floats at once: 134 MB at ``MAX_QUBITS``.
    """
    n = ansatz.n
    N = psi.size
    layers = np.asarray(params, dtype=float).reshape(ansatz.L + 1, n)
    undo = _layer_coefficients(-layers)[..., None]
    gathers = _paired_gathers(n)
    flips = gathers.first[:, N:]
    half_signs = 0.5 * gathers.signs
    perm = _cnot_ladder_permutation(n)
    rows = np.empty((len(adjoints), ansatz.L + 1, n))
    # BLAS picks its summation order by the operands' memory layout, so the
    # layouts here are part of the result's bits: the last block reads the
    # adjoints as rows, every earlier one as the columns of ``columns``.
    stack = np.vstack([psi, adjoints])
    rows[:, -1] = stack[1:] @ (half_signs * psi.take(flips)).T
    columns = stack.T
    for block in range(ansatz.L, 0, -1):
        columns = _apply_ry_layer(columns, undo[block], gathers.first).take(
            perm, axis=0
        )
        derivatives = half_signs * columns[:, 0].take(flips)
        rows[:, block - 1] = columns[:, 1:].T @ derivatives.T
    return rows.reshape(len(adjoints), -1)


def _loss_and_gradient(params: np.ndarray, ansatz: RyCnotAnsatz, loss_grad):
    """A state loss and its exact gradient in every angle, by adjoint sweep.

    ``loss_grad`` maps the statevector psi to (loss, dloss/dpsi).  One
    forward simulation gives psi; the gradient g J is the backward sweep
    of the single adjoint g = dloss/dpsi (Jones & Gacon, arXiv:2009.02823).
    """
    psi = simulate_ansatz(ansatz, params)
    loss, g = loss_grad(psi)
    return loss, _backward_sweep(ansatz, params, psi, g[None])[0]


# The name the benchmark's loader workload builds its target grid by.
LoaderTarget = GridSpec


def _linf(state: np.ndarray, masses: np.ndarray) -> float:
    return float(np.max(np.abs(masses - state**2)))


def linf_loss(state: np.ndarray, target: GridSpec) -> float:
    """Worst-cell deviation max_i |g(x_i) dx - amplitude_i^2| on ``target``'s cells."""
    state = np.asarray(state, dtype=float)
    masses = target.masses
    if state.shape != masses.shape:
        raise ValueError("state and target sizes disagree")
    return _linf(state, masses)


def _centered_momenta(mesh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign vector (-1)^j and momenta p_k = (k - N/2) * 2 pi / (N dx).

    fft(signs * psi) / sqrt(N) is the centered transform: entry k holds
    the amplitude of momentum p_k.
    """
    N = mesh.size
    dx = float(mesh[1] - mesh[0])
    signs = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    p = (np.arange(N) - N / 2) * (2.0 * math.pi / (N * dx))
    return signs, p


def _apply_hamiltonian(
    state: np.ndarray, m: float, x0: float, mesh: np.ndarray
) -> np.ndarray:
    """H psi for H = P^2/(2m) + m (X - x0)^2 / 2 on a uniform mesh, real psi.

    The potential term multiplies by the mesh; the kinetic term goes to
    momentum space and back through the centered transform, and its real
    part is kept, as H is real symmetric.  <H> is psi @ H psi.
    """
    signs, p = _centered_momenta(mesh)
    kinetic = signs * np.fft.ifft(p**2 / (2.0 * m) * np.fft.fft(signs * state)).real
    return 0.5 * m * (mesh - x0) ** 2 * state + kinetic


def discretized_hamiltonian(m: float, x0: float, mesh: np.ndarray) -> np.ndarray:
    """Dense matrix of the discretized oscillator, for oracle comparisons."""
    mesh = np.asarray(mesh, dtype=float)
    signs, p = _centered_momenta(mesh)
    # Columns: F @ psi equals the centered transform up to per-row phases,
    # which cancel inside F^dagger diag(...) F.
    F = np.fft.fft(np.diag(signs), axis=0) / math.sqrt(mesh.size)
    kinetic = F.conj().T @ np.diag(p**2 / (2.0 * m)) @ F
    potential = np.diag(0.5 * m * (mesh - x0) ** 2)
    H = kinetic + potential
    return 0.5 * (H + H.conj().T)


@dataclass(frozen=True)
class TrainResult:
    """Best parameters found and both phase losses."""

    best_params: np.ndarray
    l_inf: float
    energy: float


def _refine_linf(
    ansatz: RyCnotAnsatz, params: np.ndarray, target: GridSpec
) -> np.ndarray:
    """Infinity-norm refinement: L2 descent, then the exact minimax problem.

    BFGS on the smooth surrogate sum (m - psi^2)^2 (gradient
    -4 (m - psi^2) psi in psi) gives the start.  From there SLSQP solves
    the epigraph form of the infinity norm: minimize t over (theta, t)
    subject to -t <= m_i - psi_i(theta)^2 <= t for every cell i, starting
    at t = the start's infinity norm.  The constraint Jacobian
    -+2 psi_i d psi_i / d theta comes from the backward sweep of the 2^n
    unit adjoints, once per SLSQP iterate.  The start is kept when the
    minimax solve does not beat it.
    """
    masses = target.masses

    def l2(psi):
        diff = masses - psi**2
        return float(np.sum(diff * diff)), -4.0 * diff * psi

    start = minimize(
        _loss_and_gradient,
        params,
        args=(ansatz, l2),
        jac=True,
        method="BFGS",
        options={"maxiter": 400, "gtol": 1e-14},
    ).x
    states: dict[bytes, np.ndarray] = {}

    def state(x):
        key = x.tobytes()
        if key not in states:
            states.clear()
            states[key] = simulate_ansatz(ansatz, x[:-1])
        return states[key]

    def bands(x):
        residual = masses - state(x) ** 2
        return np.concatenate([x[-1] - residual, x[-1] + residual])

    def bands_jacobian(x):
        psi = state(x)
        d_residual = -2.0 * psi[:, None] * _backward_sweep(
            ansatz, x[:-1], psi, np.eye(psi.size)
        )
        ones = np.ones((psi.size, 1))
        return np.block([[-d_residual, ones], [d_residual, ones]])

    unit_t = np.zeros(ansatz.n_params + 1)
    unit_t[-1] = 1.0
    start_linf = _linf(simulate_ansatz(ansatz, start), masses)
    res = minimize(
        lambda x: x[-1],
        np.append(start, start_linf),
        jac=lambda x: unit_t,
        method="SLSQP",
        constraints={"type": "ineq", "fun": bands, "jac": bands_jacobian},
        options={"maxiter": 200, "ftol": 1e-16},
    )
    return res.x[:-1] if _linf(state(res.x), masses) < start_linf else start


def train(
    n: int,
    L: int,
    restarts: int = 8,
    seed: int = 0,
    w: float = 5.0,
    warm_start: np.ndarray | None = None,
) -> TrainResult:
    """Train the loader for an n-qubit standard normal at depth L.

    Each restart runs quasi-Newton descent on the oscillator energy, then
    the infinity-norm refinement of ``_refine_linf``: L2 descent and the
    exact minimax solve, both on adjoint derivatives.  Each restart's
    refined state is simulated once for its infinity norm (and, for a new
    best, its energy, the value the first phase minimizes).  The best
    restart by final infinity-norm wins.  A ``warm_start`` parameter vector
    of whole n-angle layers (padded with zero-angle layers if shorter)
    joins the restart pool.  The padding is not a continuation: a
    zero-angle block still applies its CNOT ladder, which permutes the
    amplitudes, so a padded start does not prepare the shallower
    circuit's state (``train(4, 2, restarts=1, seed=0)`` reaches L-inf
    2.05e-4, and its angles padded to L=3 read 0.237).  The target is
    the cells of ``GridSpec(n, w)``, the grid every register of the step
    law holds.

    Deterministic for fixed (n, L, restarts, seed, warm_start).

    Raises
    ------
    ValueError
        If ``restarts`` is negative, or zero with no ``warm_start``: the
        pool would have nothing to train.  If ``warm_start`` is not 1-D,
        is longer than n(L+1) angles, or is not a whole number of n-angle
        layers: its angles would land on the wrong qubits.
    """
    if restarts < 0 or (restarts == 0 and warm_start is None):
        raise ValueError(
            f"restarts must be at least 1, or 0 with a warm_start; got {restarts!r}"
        )
    ansatz = RyCnotAnsatz(n=n, L=L)
    target = GridSpec(n=n, w=w)
    mesh = target.coords
    m = 0.5  # 1 / (2 sigma^2) with sigma = 1

    def energy(psi):
        h_psi = _apply_hamiltonian(psi, m, 0.0, mesh)
        return float(psi @ h_psi), 2.0 * h_psi

    rng = np.random.default_rng(seed)
    inits = [rng.uniform(-math.pi, math.pi, ansatz.n_params) for _ in range(restarts)]
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if warm.ndim != 1 or warm.size > ansatz.n_params or warm.size % n:
            raise ValueError(
                f"warm_start must be a 1-D vector of whole {n}-angle layers, at "
                f"most {ansatz.n_params} angles; got shape {warm.shape}"
            )
        inits.insert(0, np.concatenate([warm, np.zeros(ansatz.n_params - warm.size)]))

    best_params = None
    best_linf = math.inf
    best_energy = math.inf
    for theta0 in inits:
        res = minimize(
            _loss_and_gradient,
            theta0,
            args=(ansatz, energy),
            jac=True,
            method="BFGS",
            options={"maxiter": 300, "gtol": 1e-12},
        )
        theta = _refine_linf(ansatz, res.x, target)
        psi = simulate_ansatz(ansatz, theta)
        li = linf_loss(psi, target)
        if li < best_linf:
            best_linf = li
            best_params = theta
            best_energy = energy(psi)[0]
    return TrainResult(
        best_params=np.asarray(best_params), l_inf=best_linf, energy=best_energy
    )


def train_sweep(
    n: int, depths, restarts: int = 8, seed: int = 0, w: float = 5.0
) -> dict[int, TrainResult]:
    """Train over increasing depths, warm-starting each from the previous depth.

    Each entry reports the best result over trained depths <= L: a
    shallower circuit fits inside a larger depth budget (the extra
    entangling blocks are simply not applied), so the per-budget loss is
    non-increasing by construction and the carried parameters identify
    the depth that achieved it.  The warm start hands each depth the
    previous depth's angles padded with zero-angle layers, as one more
    restart; the padded blocks' CNOT ladders still act (see ``train``), so
    it starts away from the shallower optimum, not at it.
    """
    results: dict[int, TrainResult] = {}
    warm = None
    best: TrainResult | None = None
    for L in sorted(depths):
        result = train(n, L, restarts=restarts, seed=seed + L, w=w, warm_start=warm)
        warm = result.best_params
        if best is None or result.l_inf < best.l_inf:
            best = result
        results[L] = best
    return results


def digitize(
    params: np.ndarray, M_digit: int, ansatz: RyCnotAnsatz, target: GridSpec
) -> dict:
    """Snap angles to the grid 2 pi i / M_digit, then local-search on the grid.

    The search sweeps coordinates, trying one grid step in each direction
    and keeping a trial that improves the loss, until a full pass makes no
    improvement (bounded passes).  The pass's remaining trials are
    simulated as one batch (at most ``_DIGITIZE_BATCH_FLOATS`` kernel
    coefficients); the first improving trial in sweep order is accepted
    and the trials after it are batched again from the new angles, so the
    result equals the one-trial-at-a-time search bit for bit.  Each trial
    is a copy of the angles with one coordinate stepped, which keeps
    every other angle's bits, -0.0 included.

    Returns the digitized parameters and the resulting infinity-norm.
    """
    if M_digit < 4:
        raise ValueError("M_digit must be >= 4")
    step = 2.0 * math.pi / M_digit
    theta = np.round(np.asarray(params, dtype=float) / step) * step

    masses = target.masses

    def losses(trials):
        states = simulate_ansatz(ansatz, trials)
        return np.max(np.abs(masses - states**2), axis=-1)

    current = float(losses(theta[None])[0])
    coords = np.repeat(np.arange(theta.size), 2)
    deltas = np.tile([step, -step], theta.size)
    width = (ansatz.L + 1) * ansatz.n * 2 ** (ansatz.n + 1)
    batch = max(1, _DIGITIZE_BATCH_FLOATS // width)
    for _ in range(50):
        improved = False
        start = 0
        while start < coords.size:
            stop = min(start + batch, coords.size)
            trials = np.repeat(theta[None], stop - start, axis=0)
            trials[np.arange(stop - start), coords[start:stop]] += deltas[start:stop]
            vals = losses(trials)
            better = np.flatnonzero(vals < current - 1e-15)
            if better.size:
                first = int(better[0])
                theta, current = trials[first].copy(), float(vals[first])
                improved = True
                start += first + 1
            else:
                start = stop
        if not improved:
            break
    return {"params": theta, "l_inf": current}
