"""
Closed-form fault-tolerant cost models for fixed-point quantum arithmetic.

Every primitive reports a :class:`ResourceCount` with Toffoli count,
rotation T gates, T-depth, and logical qubits; its T-count is derived
from the first two.  The cost model assumptions are:

- Toffoli gates are realized at T-depth 1 each through an ancilla-based
  decomposition, and contribute ``T_PER_TOFFOLI = 7`` T gates to counts.
- Arbitrary-angle Ry rotations synthesize to precision eps with T-depth
  (and T-count) about 3 * log2(1/eps).
- Operands live in an (n, p) fixed-point format: n bits total, p integer
  bits, resolution 2^{-(n-p)}.

Depths assume maximal parallelization; multiplications accept a split
factor z (number of partial-product groups summed in parallel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

T_PER_TOFFOLI = 7


@dataclass(frozen=True)
class FixedPointFormat:
    """Fixed-point register layout: n bits total, p integer bits."""

    n: int
    p: int

    def __post_init__(self):
        if not 1 <= self.p < self.n:
            raise ValueError("need 1 <= p < n")

    @property
    def resolution(self) -> float:
        return 2.0 ** -(self.n - self.p)


@dataclass(frozen=True)
class ResourceCount:
    """Logical resource tally for one circuit component.

    The T-count is derived, not stored: ``T_PER_TOFFOLI`` per Toffoli plus
    the T gates of synthesized rotations, so no count can disagree with
    its gates.
    """

    toffoli_count: int = 0
    rotation_t_count: int = 0
    t_depth: int = 0
    logical_qubits: int = 0

    def __post_init__(self):
        for name in ("toffoli_count", "rotation_t_count", "t_depth", "logical_qubits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def t_count(self) -> int:
        return T_PER_TOFFOLI * self.toffoli_count + self.rotation_t_count


def popcount(n: int) -> int:
    """Number of set bits in the binary expansion of n."""
    return int(n).bit_count()


def _flog2(x: float) -> int:
    """floor(log2(x)) with a domain guard for the closed forms."""
    if x < 1:
        raise ValueError(f"log argument {x} < 1; register too small for this formula")
    return int(math.floor(math.log2(x)))


def add_depth(n: int) -> int:
    """T-depth of an n-bit logarithmic-depth adder."""
    if n < 4:
        raise ValueError("adder depth formula requires n >= 4")
    return _flog2(n) + _flog2(n - 1) + _flog2(n / 3) + _flog2((n - 1) / 3) + 8


def add_toffoli(n: int) -> int:
    """Toffoli count of an n-bit logarithmic-depth adder."""
    if n < 4:
        raise ValueError("adder count formula requires n >= 4")
    return (
        10 * n
        - 3 * popcount(n)
        - 3 * popcount(n - 1)
        - 3 * _flog2(n)
        - 3 * _flog2(n - 1)
        - 7
    )


def add_resources(fmt: FixedPointFormat, controlled: bool = False) -> ResourceCount:
    """In-place addition of two n-bit registers; subtraction costs the same.

    The controlled variant sandwiches the adder between two rounds of n
    parallel controlled swaps, adding 6 to the T-depth and n ancillas.
    """
    n = fmt.n
    toffoli = add_toffoli(n)
    depth = add_depth(n)
    qubits = 2 * n
    if controlled:
        toffoli += 6 * n
        depth += 6
        qubits += n + 1
    return ResourceCount(toffoli_count=toffoli, t_depth=depth, logical_qubits=qubits)


def mul_depth(n: int, z: int) -> int:
    """T-depth of n-bit multiplication with z parallel partial-product groups."""
    if not 1 <= z <= n:
        raise ValueError("need 1 <= z <= n")
    return math.ceil(n / z) * (add_depth(n) + 6) + math.ceil(math.log2(z)) * add_depth(n)


def mul_resources(fmt: FixedPointFormat, z: int = 1) -> ResourceCount:
    """Fixed-point multiplication via z-way parallel controlled additions."""
    n, p = fmt.n, fmt.p
    toffoli = round(1.5 * n * n + 3 * n * p + 1.5 * n - 3 * p * p + 3 * p)
    qubits = 3 * n + (z - 1) * n
    return ResourceCount(toffoli_count=toffoli, t_depth=mul_depth(n, z), logical_qubits=qubits)


def sqrt_resources(fmt: FixedPointFormat) -> ResourceCount:
    """Square root of an n-bit register."""
    n = fmt.n
    toffoli = n * n // 2 + 3 * n - 4
    return ResourceCount(toffoli_count=toffoli, t_depth=5 * n + 3, logical_qubits=2 * n + 1)


def comparator_depth(n: int) -> int:
    """T-depth of an n-bit comparator."""
    if n < 2:
        raise ValueError("comparator needs n >= 2")
    return 2 * _flog2(n - 1) + 5


def comparator_resources(fmt: FixedPointFormat) -> ResourceCount:
    """Comparison of two n-bit registers into one flag qubit.

    Only the depth has a published closed form; the Toffoli count is
    modeled as equal to the depth (a documented lower-bound convention).
    """
    depth = comparator_depth(fmt.n)
    return ResourceCount(toffoli_count=depth, t_depth=depth, logical_qubits=2 * fmt.n + 1)


def poly_eval_depth(n: int, z: int, k: int) -> int:
    """T-depth of a degree-k polynomial evaluated by k fused multiply-adds."""
    return k * (mul_depth(n, z) + add_depth(n))


def piecewise_poly_depth(n: int, z: int, k: int, M: int) -> int:
    """T-depth of a k-degree piecewise polynomial over M subintervals.

    The M interval selections run as comparators before one parallel
    polynomial evaluation.
    """
    if k < 0:
        raise ValueError("polynomial degree must be nonnegative")
    if M < 1:
        raise ValueError("need M >= 1")
    return poly_eval_depth(n, z, k) + M * comparator_depth(n)


def piecewise_poly_qubits(n: int, k: int, M: int) -> int:
    """Workspace of a piecewise polynomial evaluation: k+1 registers plus label."""
    return n * (k + 1) + math.ceil(math.log2(M)) + 1 if M > 1 else n * (k + 1) + 1


def exp_toffoli(n: int, p: int, k: int, M: int) -> int:
    """Toffoli count of a piecewise-polynomial exponential."""
    mlog = math.ceil(math.log2(M)) if M > 1 else 0
    return round(
        1.5 * n * n * k
        + 3 * n * p * k
        + 3.5 * n * k
        - 3 * p * p * k
        + 3 * p * k
        - k
        + 2 * M * k * (4 * mlog - 8)
        + 4 * M * n
    )


def exp_resources(fmt: FixedPointFormat, k: int, M: int, z: int = 1) -> ResourceCount:
    """Exponential evaluated as a degree-k piecewise polynomial on M intervals."""
    n, p = fmt.n, fmt.p
    toffoli = max(exp_toffoli(n, p, k, M), 0)
    depth = piecewise_poly_depth(n, z, k, M)
    qubits = piecewise_poly_qubits(n, k, M)
    return ResourceCount(toffoli_count=toffoli, t_depth=depth, logical_qubits=qubits)


def arcsin_sqrt_toffoli(n: int, p: int, k: int, M: int) -> int:
    """Toffoli count of arcsin(sqrt(x)) via squaring plus piecewise polynomial."""
    mlog = math.ceil(math.log2(M)) if M > 1 else 0
    return round(
        k * (1.5 * n * n + n * (3 * p + 3.5) - 3 * (p - 1) * p - 1)
        + n * n / 2
        + 11 * n
        + 2 * M * k * (4 * mlog - 8)
        + 4 * M * n
        - 2
    )


def arcsin_sqrt_resources(
    fmt: FixedPointFormat, k: int, M: int, z: int = 1
) -> ResourceCount:
    """arcsin(sqrt(x)) register computation used before amplitude rotations."""
    n, p = fmt.n, fmt.p
    toffoli = max(arcsin_sqrt_toffoli(n, p, k, M), 0)
    depth = sqrt_resources(fmt).t_depth + piecewise_poly_depth(n, z, k, M) + 8 * n + 6
    qubits = piecewise_poly_qubits(n, k, M) + 2 * n + 1
    return ResourceCount(toffoli_count=toffoli, t_depth=depth, logical_qubits=qubits)


def rotation_depth(epsilon: float) -> int:
    """T-depth to synthesize one Ry rotation to precision epsilon."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    return math.ceil(3 * math.log2(1 / epsilon))


def rotation_resources(epsilon: float) -> ResourceCount:
    """Single arbitrary-angle Ry rotation."""
    depth = rotation_depth(epsilon)
    return ResourceCount(rotation_t_count=depth, t_depth=depth, logical_qubits=1)


def effective_rotation_bits(fmt: FixedPointFormat, epsilon: float) -> int:
    """Register bits that still matter when rotating to precision epsilon.

    Low-order bits whose rotation angles fall below the synthesis
    precision can be skipped.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    arg = math.asin(min(epsilon, 1.0))
    return fmt.n - max(math.floor(math.log2(arg)) + (fmt.n - fmt.p), 0)


def controlled_rotation_depth(fmt: FixedPointFormat, epsilon: float) -> int:
    """T-depth of the rotation cascade controlled on an n-bit register."""
    n_eff = effective_rotation_bits(fmt, epsilon)
    if n_eff <= 0:
        return 0
    return math.ceil(3 * n_eff * math.log2(n_eff / epsilon))

