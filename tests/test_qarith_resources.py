import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdp.qarith_resources import (
    T_PER_TOFFOLI,
    FixedPointFormat,
    ResourceCount,
    add_depth,
    add_resources,
    add_toffoli,
    arcsin_sqrt_resources,
    comparator_depth,
    comparator_resources,
    controlled_rotation_depth,
    effective_rotation_bits,
    exp_resources,
    mul_depth,
    mul_resources,
    piecewise_poly_depth,
    piecewise_poly_qubits,
    popcount,
    rotation_depth,
    rotation_resources,
    sqrt_resources,
)


class TestPopcount:
    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_powers_of_two(self, k):
        assert popcount(2**k) == 1
        assert popcount(2**k - 1) == k


class TestAdder:
    def test_depth_closed_form_n34(self):
        assert add_depth(34) == 24

    def test_depth_term_by_term_n4(self):
        # floor log2 of 4, 3, 4/3, 1 gives 2 + 1 + 0 + 0 + 8.
        assert add_depth(4) == 11

    def test_toffoli_closed_form_n8(self):
        # 80 - 3*1 - 3*3 - 3*3 - 3*2 - 7 = 46 with w(8)=1, w(7)=3.
        assert add_toffoli(8) == 46

    def test_controlled_variant(self):
        fmt = FixedPointFormat(n=8, p=2)
        plain = add_resources(fmt)
        ctrl = add_resources(fmt, controlled=True)
        assert ctrl.t_depth == plain.t_depth + 6
        assert ctrl.toffoli_count == plain.toffoli_count + 6 * 8
        assert ctrl.logical_qubits == plain.logical_qubits + 9

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            add_depth(3)

    def test_t_count_is_seven_per_toffoli(self):
        rc = add_resources(FixedPointFormat(n=16, p=2))
        assert rc.t_count == T_PER_TOFFOLI * rc.toffoli_count


class TestMultiplier:
    def test_toffoli_closed_form_34_2(self):
        assert mul_resources(FixedPointFormat(n=34, p=2)).toffoli_count == 1983

    def test_depth_fully_parallel_34(self):
        assert mul_depth(34, 34) == (add_depth(34) + 6) + math.ceil(
            math.log2(34)
        ) * add_depth(34)
        assert mul_depth(34, 34) == 174

    def test_depth_serial_z1(self):
        n = 16
        assert mul_depth(n, 1) == n * (add_depth(n) + 6)

    def test_z_bounds(self):
        with pytest.raises(ValueError):
            mul_depth(8, 0)
        with pytest.raises(ValueError):
            mul_depth(8, 9)


class TestSqrt:
    def test_n4(self):
        rc = sqrt_resources(FixedPointFormat(n=4, p=2))
        assert rc.toffoli_count == 16
        assert rc.t_depth == 23
        assert rc.logical_qubits == 9

    def test_n34(self):
        assert sqrt_resources(FixedPointFormat(n=34, p=2)).toffoli_count == 676

    def test_monotone_in_n(self):
        costs = [sqrt_resources(FixedPointFormat(n=n, p=2)).toffoli_count
                 for n in range(4, 40)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))


class TestComparator:
    def test_n34(self):
        assert comparator_depth(34) == 15

    def test_n2(self):
        assert comparator_depth(2) == 5

    def test_count_convention_equals_depth(self):
        rc = comparator_resources(FixedPointFormat(n=34, p=2))
        assert rc.toffoli_count == rc.t_depth == 15


class TestPiecewisePolynomial:
    def test_depth_closed_form(self):
        # k (T_mul + T_add) + M comparators at (n=34, z=34, k=3, M=32).
        assert piecewise_poly_depth(34, 34, 3, 32) == 3 * (174 + 24) + 32 * 15
        assert piecewise_poly_depth(34, 34, 3, 32) == 1074

    def test_qubits_closed_form(self):
        assert piecewise_poly_qubits(34, 3, 32) == 34 * 4 + 5 + 1

    def test_exp_reductions(self):
        fmt = FixedPointFormat(n=16, p=2)
        k0 = exp_resources(fmt, 0, 8, z=4)
        assert k0.t_depth == 8 * comparator_depth(16)
        m1 = exp_resources(fmt, 2, 1, z=4)
        assert m1.t_depth == 2 * (mul_depth(16, 4) + add_depth(16)) + comparator_depth(16)

    @pytest.mark.parametrize("resources", [exp_resources, arcsin_sqrt_resources])
    def test_negative_degree_rejected(self, resources):
        with pytest.raises(ValueError, match="polynomial degree must be nonnegative"):
            resources(FixedPointFormat(n=16, p=2), -1, 8)

    def test_arcsin_sqrt_depth_identity(self):
        fmt = FixedPointFormat(n=34, p=2)
        arc = arcsin_sqrt_resources(fmt, 3, 32, z=34)
        sq = sqrt_resources(fmt)
        pp = piecewise_poly_depth(34, 34, 3, 32)
        assert arc.t_depth - pp - sq.t_depth == 8 * 34 + 6
        assert arc.logical_qubits == piecewise_poly_qubits(34, 3, 32) + 2 * 34 + 1

    def test_exp_toffoli_independent_recomputation(self):
        for n, p, k, M in ((34, 2, 3, 32), (16, 4, 2, 8), (24, 2, 4, 64)):
            mlog = math.ceil(math.log2(M))
            expected = round(
                1.5 * n * n * k + 3 * n * p * k + 3.5 * n * k
                - 3 * p * p * k + 3 * p * k - k
                + 2 * M * k * (4 * mlog - 8) + 4 * M * n
            )
            assert exp_resources(FixedPointFormat(n, p), k, M).toffoli_count == expected


class TestRotations:
    def test_single_rotation_depth(self):
        assert rotation_depth(2.0**-10) == 30
        rc = rotation_resources(2.0**-10)
        assert rc.t_count == rc.t_depth == 30

    def test_rotation_depth_shrinks_with_coarser_epsilon(self):
        assert rotation_depth(1e-2) < rotation_depth(1e-6)

    def test_controlled_rotation_closed_form_34_2(self):
        fmt = FixedPointFormat(n=34, p=2)
        n_eff = effective_rotation_bits(fmt, 1e-4)
        assert n_eff == 34 - max(math.floor(math.log2(math.asin(1e-4))) + 32, 0)
        assert controlled_rotation_depth(fmt, 1e-4) == math.ceil(
            3 * n_eff * math.log2(n_eff / 1e-4)
        )
        assert controlled_rotation_depth(fmt, 1e-4) == 830

    def test_effective_bits_shrink_with_coarse_epsilon(self):
        fmt = FixedPointFormat(n=16, p=2)
        assert effective_rotation_bits(fmt, 0.5) <= effective_rotation_bits(fmt, 1e-6)


class TestComposition:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ResourceCount(toffoli_count=-1)
        with pytest.raises(ValueError, match="rotation_t_count"):
            ResourceCount(rotation_t_count=-1)

    def test_t_count_is_derived_from_gates(self):
        rc = ResourceCount(toffoli_count=3, rotation_t_count=5, t_depth=4)
        assert rc.t_count == T_PER_TOFFOLI * 3 + 5
        assert ResourceCount().t_count == 0
        with pytest.raises(TypeError):
            ResourceCount(t_count=1)


@pytest.mark.parametrize(
    "factory",
    [
        lambda n: add_resources(FixedPointFormat(n=n, p=2)),
        lambda n: mul_resources(FixedPointFormat(n=n, p=2), z=1),
        lambda n: sqrt_resources(FixedPointFormat(n=n, p=2)),
        lambda n: comparator_resources(FixedPointFormat(n=n, p=2)),
        lambda n: exp_resources(FixedPointFormat(n=n, p=2), 3, 32, z=1),
        lambda n: arcsin_sqrt_resources(FixedPointFormat(n=n, p=2), 3, 32, z=1),
    ],
    ids=["add", "mul", "sqrt", "comparator", "exp", "arcsin_sqrt"],
)
def test_costs_monotone_in_register_width(factory):
    values = [factory(n) for n in range(8, 48, 2)]
    for a, b in zip(values, values[1:]):
        assert b.toffoli_count >= a.toffoli_count
        assert b.t_depth >= a.t_depth
        assert b.logical_qubits >= a.logical_qubits


def test_fixed_point_format_validation():
    with pytest.raises(ValueError):
        FixedPointFormat(n=4, p=4)
    assert FixedPointFormat(n=8, p=3).resolution == pytest.approx(2.0**-5)
