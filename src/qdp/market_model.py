"""
Correlated geometric Brownian motion in log-return space.

Holds the market-model parameters shared by every pricer and resource
estimator: per-asset volatilities, a correlation matrix, a uniform time
grid, and the step law on which the exact pricer operates: d truncated,
discretized standard-normal registers per step under the affine map
mu + L z, as the re-parameterization circuit loads them.  The register
grid (``GridSpec``, which the loader also trains on) and the affine map
(``step_map``, which Monte Carlo also samples through) are each defined
here once.

Log-returns over one step are jointly normal with per-asset mean
mu_j = (r - sigma_j^2 / 2) * dt and covariance
Sigma_ij = dt * rho_ij * sigma_i * sigma_j; steps are i.i.d., so joint
path densities factorize across time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


def check_integer(name: str, value) -> int:
    """``value`` as an int if it is an integer other than a bool; any other
    value (a float such as 4.0 included) raises a ValueError that names
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_finite(record, names) -> None:
    """Raise a ValueError naming the first of the fields ``names`` of
    ``record`` that holds NaN or +-inf, alone or in a (nested) tuple."""
    for name in names:
        value = getattr(record, name)
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


def config_int(value, key: str) -> int:
    """``value`` as an int if it is an integral number such as ``100000``
    or ``1e5``; any other value raises a ValueError that names ``key``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"config key '{key}' must be an integer, got {value!r}")


def config_float(value, key: str) -> float:
    """``value`` as a float if it is a finite int or float; any other value
    (a string, a bool, NaN, +-inf) raises a ValueError that names ``key``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"config key '{key}' must be a finite number, got {value!r}")


def config_list(value, key: str, read) -> list:
    """``value`` as the list ``[read(item, key) for item in value]`` if it is
    a list; any other value (a number, a string, a mapping) raises a
    ValueError that names ``key``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config key '{key}' must be a list, got {value!r}")
    return [read(item, key) for item in value]


def config_floats(value, key: str) -> tuple[float, ...]:
    """``value`` as a tuple of ``config_float`` items (see ``config_list``)."""
    return tuple(config_list(value, key, config_float))


@dataclass(frozen=True)
class GBMParams:
    """Market model parameters for d correlated GBM assets.

    Parameters
    ----------
    r : float
        Annualized risk-free rate.
    sigmas : tuple of float
        Annualized per-asset volatilities, length d, all positive.
    rho : tuple of tuple of float
        d x d correlation matrix, unit diagonal, entries in [-1, 1].
    dt : float
        Timestep in years, positive.
    n_steps : int
        Number of timesteps T; the contract horizon is dt * n_steps.
    s0 : tuple of float
        Initial prices, length d, all positive.
    """

    r: float
    sigmas: tuple[float, ...]
    rho: tuple[tuple[float, ...], ...]
    dt: float
    n_steps: int
    s0: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        object.__setattr__(self, "s0", tuple(float(s) for s in self.s0))
        object.__setattr__(
            self, "rho", tuple(tuple(float(x) for x in row) for row in self.rho)
        )
        check_finite(self, ("r", "dt", "sigmas", "s0", "rho"))
        d = len(self.sigmas)
        rho = np.asarray(self.rho, dtype=float)
        if d == 0:
            raise ValueError("need at least one asset")
        if rho.shape != (d, d):
            raise ValueError(f"rho must be {d}x{d}, got {rho.shape}")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise ValueError("rho must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12):
            raise ValueError("rho must have unit diagonal")
        if np.any(np.abs(rho) > 1 + 1e-12):
            raise ValueError("rho entries must lie in [-1, 1]")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("volatilities must be positive")
        if any(s <= 0 for s in self.s0):
            raise ValueError("initial prices must be positive")
        if len(self.s0) != d:
            raise ValueError("s0 length must match sigmas length")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if check_integer("n_steps", self.n_steps) < 1:
            raise ValueError("n_steps must be a positive integer")

    @property
    def d(self) -> int:
        """Asset count."""
        return len(self.sigmas)

    @property
    def horizon(self) -> float:
        """Contract horizon in years, dt * n_steps."""
        return self.dt * self.n_steps

    def step_means(self) -> np.ndarray:
        """Per-step log-return drift vector mu_j = (r - sigma_j^2/2) dt."""
        sig = np.asarray(self.sigmas)
        return (self.r - 0.5 * sig**2) * self.dt

    @classmethod
    def from_dict(cls, doc: dict) -> "GBMParams":
        """Build from a parsed JSON document (keys r, sigmas, rho, dt, T, s0)."""
        required = {"r", "sigmas", "rho", "dt", "T", "s0"}
        missing = required - doc.keys()
        if missing:
            raise ValueError(f"model config missing keys: {sorted(missing)}")
        params = cls(
            r=config_float(doc["r"], "r"),
            sigmas=config_floats(doc["sigmas"], "sigmas"),
            rho=tuple(config_list(doc["rho"], "rho", config_floats)),
            dt=config_float(doc["dt"], "dt"),
            n_steps=config_int(doc["T"], "T"),
            s0=config_floats(doc["s0"], "s0"),
        )
        if "d" in doc and config_int(doc["d"], "d") != params.d:
            raise ValueError("declared asset count d disagrees with sigmas length")
        return params


def build_covariance(params: GBMParams) -> np.ndarray:
    """Per-step log-return covariance Sigma_ij = dt * rho_ij * sigma_i * sigma_j.

    Raises
    ------
    ValueError
        If the implied matrix is not positive-definite (e.g. |rho| = 1).
    """
    sig = np.asarray(params.sigmas)
    cov = params.dt * np.asarray(params.rho) * np.outer(sig, sig)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(cov)
        raise ValueError(
            f"covariance is not positive-definite (min eigenvalue {eigs.min():.3e})"
        )
    return cov


def cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = cov."""
    cov = np.asarray(cov, dtype=float)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive-definite")


def sigma_max(cov: np.ndarray) -> float:
    """Width scale of the error bounds.

    The square root of the largest covariance eigenvalue, so that
    w * sigma_max carries log-return units and bounds every asset's
    truncation half-width w * sqrt(Sigma_jj).
    """
    lam = float(np.linalg.eigvalsh(np.asarray(cov, dtype=float)).max())
    return float(np.sqrt(lam))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def standard_normal_cells(
    w: float, n: int, cells: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints x_i of the 2^n equal cells on [-w, w] and their masses g(x_i) * dx.

    The one standard-register mass formula, which ``GridSpec`` holds.
    Tails are dropped, not renormalized.  ``cells``, an integer array of
    cell indices, picks those cells only, bit for bit as in the full grid;
    the default is all 2^n in order.
    """
    dx = 2.0 * w / 2**n
    coords = -w + ((np.arange(2**n) if cells is None else cells) + 0.5) * dx
    return coords, np.exp(-coords**2 / 2.0) / np.sqrt(2 * np.pi) * dx


@dataclass(frozen=True)
class GridSpec:
    """Uniform truncated grid of one standard-normal register.

    The one grid: the loader is trained on its cells and every register
    of the step law (``lattice``) holds them.  ``coords`` (the midpoints
    x_i) and ``masses`` (g(x_i) * dx) are ``standard_normal_cells(w, n)``,
    each built once per grid on first read and read-only.

    Parameters
    ----------
    n : int
        Qubits per register; 2^n cells per register.
    w : float
        Truncation half-width in standard deviations of each register.
    """

    n: int
    w: float = 5.0

    def __post_init__(self):
        if check_integer("n", self.n) < 1:
            raise ValueError("n must be >= 1")
        check_finite(self, ("w",))
        if self.w <= 0:
            raise ValueError("w must be positive")

    @functools.cached_property
    def coords(self) -> np.ndarray:
        return _read_only(standard_normal_cells(self.w, self.n)[0])

    @functools.cached_property
    def masses(self) -> np.ndarray:
        return _read_only(standard_normal_cells(self.w, self.n)[1])


def step_map(z: np.ndarray, mu: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Log-returns mu + L z of standard-normal draws ``z`` of shape (..., d).

    A diagonal L works in place, ``z *= diag(L); z += mu``: the bits of
    mu + z @ L.T without the stacked matmul, which does not run in
    parallel across threads.  Any other L returns a new array.
    """
    scale = np.diag(chol)
    if np.array_equal(chol, np.diag(scale)):
        z *= scale
    else:
        z = z @ chol.T
    z += mu
    return z


@dataclass(frozen=True)
class StepLaw:
    """One step's log-returns as d standard-normal registers and an affine map.

    This is the law the ``reparam`` circuit loads: each of the d
    registers holds an independent cell index i_j on ``coords``, and the
    step's log-returns are ``step_map(z, mu, chol)`` for z_j = coords[i_j].

    Attributes
    ----------
    coords : np.ndarray, shape (2^n,)
        Register cell midpoints on [-w, w], shared by all d registers.
    masses : np.ndarray, shape (2^n,)
        Register cell masses; a tuple (i_1, ..., i_d) has mass
        prod_j masses[i_j], identical for every timestep (i.i.d. steps).
    mu : np.ndarray, shape (d,)
        Per-step log-return drift.
    chol : np.ndarray, shape (d, d)
        Lower Cholesky factor L of the per-step covariance.
    """

    coords: np.ndarray
    masses: np.ndarray
    mu: np.ndarray
    chol: np.ndarray

    def sample_returns(self, n_samples: int, seed: int = 0) -> np.ndarray:
        """Per-step returns sampled from the law, shape (n_samples, d)."""
        gen = np.random.Generator(np.random.Philox(key=int(seed)))
        pmf = self.masses / self.masses.sum()
        idx = gen.choice(len(self.coords), size=(n_samples, len(self.mu)), p=pmf)
        return step_map(self.coords[idx], self.mu, self.chol)


def lattice(grid: GridSpec, params: GBMParams) -> StepLaw:
    """The step law on ``grid``: its cells on every register, mapped
    through the drift and the Cholesky factor that Monte Carlo correlates
    with.

    Mass outside [-w, w] is dropped, not renormalized, so one step keeps
    ``masses.sum() ** d``.
    """
    chol = cholesky_factor(build_covariance(params))
    return StepLaw(
        coords=grid.coords, masses=grid.masses, mu=params.step_means(), chol=chol
    )
