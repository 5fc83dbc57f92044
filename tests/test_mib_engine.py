"""The iterative engine, the divide-and-conquer engine, and the oracle."""

import pytest

from conftest import random_instance
from popov_interp import (
    InterpInstance,
    JordanSpec,
    Modulus,
    determinant,
    interpolant_check,
    is_popov,
    is_weak_popov,
    iterative_mib,
    kernel_oracle,
    minimal_interpolation_basis,
    popov_mib,
    weak_popov_to_popov,
)
from popov_interp.ff_poly import poly_deg
from popov_interp.polymat import pivot_degrees

F = Modulus(97)

INST1 = InterpInstance(F, [[1], [1]], JordanSpec(((0, 1),)), (0, 0))
INST2 = InterpInstance(F, [[1, 0], [1, 0]], JordanSpec(((0, 2),)), (0, 0))


def test_interpolant_check_examples():
    assert interpolant_check([[], []], INST1)
    one_row = InterpInstance(F, [[1]], JordanSpec(((0, 1),)), (0,))
    assert interpolant_check([[0, 1]], one_row)
    assert not interpolant_check([[1]], one_row)
    with pytest.raises(ValueError):
        interpolant_check([[1]], INST1)
    # E is converted to lists once per instance, not once per checked row
    assert INST2.module_rows is INST2.module_rows == [[1, 0], [1, 0]]


def test_iterative_examples():
    zero = InterpInstance(F, [[0, 0], [0, 0]], JordanSpec(((3, 2),)), (1, 5))
    basis, delta = iterative_mib(zero)
    assert basis.rows == [[[1], []], [[], [1]]] and delta == (0, 0)

    basis, delta = iterative_mib(INST1)
    assert basis.rows == [[[0, 1], []], [[96], [1]]] and delta == (1, 0)

    basis, delta = iterative_mib(INST2)
    assert basis.rows == [[[0, 0, 1], []], [[96], [1]]] and delta == (2, 0)


def test_iterative_properties(rng):
    for _ in range(30):
        inst = random_instance(rng, sigma_range=(0, 20), m_range=(1, 4))
        basis, delta = iterative_mib(inst)
        assert is_popov(basis, inst.shift)
        assert sum(delta) <= inst.sigma
        for row in basis.rows:
            assert interpolant_check(row, inst)
        det = determinant(basis)
        assert poly_deg(det) == sum(delta) if inst.sigma else det == [1]


def test_completeness_kernel_dimension(rng):
    for _ in range(15):
        inst = random_instance(rng, sigma_range=(0, 12), m_range=(1, 4))
        _, delta = iterative_mib(inst)
        for bound in range(inst.sigma + 1):
            dim = len(kernel_oracle(inst, bound))
            want = sum(
                max(0, bound - si - di + 1) for si, di in zip(inst.shift, delta)
            )
            assert dim == want


def test_kernel_oracle_examples(rng):
    assert len(kernel_oracle(INST1, 1)) == 3
    zero = InterpInstance(F, [[0], [0]], JordanSpec(((0, 1),)), (2, 5))
    # at bound min(s), only rows with s_i = min(s) contribute one candidate
    assert len(kernel_oracle(zero, 2)) == 1
    # every oracle element really is an interpolant of s-degree <= bound
    for row in kernel_oracle(INST2, 3):
        assert interpolant_check(row, INST2)
    # an eigenvalue far past int64 is reduced mod p before it multiplies
    p = 2**31 - 1
    jordan = JordanSpec(((5 + 2**40 * p, 4),))
    big = InterpInstance(Modulus(p), [[1, 2, 3, 4], [5, 6, 7, 8]], jordan, (0, 0))
    _, delta = popov_mib(big)
    assert delta == (1, 3)
    for bound in range(6):
        want = sum(max(0, bound - d + 1) for d in delta)
        assert len(kernel_oracle(big, bound)) == want
    assert all(interpolant_check(row, big) for row in kernel_oracle(big, 3))
    # rows are interpolants within the bound, on blocks of every kind
    for _ in range(10):
        p = rng.choice((3, 97, 2**31 - 1))
        inst = random_instance(rng, p=p, sigma_range=(1, 10), max_eigs=2)
        bound = max(inst.shift) + 2
        for row in kernel_oracle(inst, bound):
            assert interpolant_check(row, inst)
            assert all(len(e) - 1 + si <= bound for e, si in zip(row, inst.shift))


def test_minimal_interpolation_basis(rng):
    zero = InterpInstance(F, [[0, 0], [0, 0]], JordanSpec(((3, 2),)), (0, 0))
    w, degrees = minimal_interpolation_basis(zero)
    assert w.rows == [[[1], []], [[], [1]]] and degrees == (0, 0)
    for _ in range(25):
        # sigma up to 64: several recursion levels add pivot degrees
        inst = random_instance(rng, sigma_range=(0, 64), m_range=(1, 4))
        w, degrees = minimal_interpolation_basis(inst)
        if inst.sigma:
            assert is_weak_popov(w, inst.shift, diagonal=True)
        assert degrees == pivot_degrees(w, inst.shift)
        popov, delta = iterative_mib(inst)
        assert weak_popov_to_popov(w, inst.shift).rows == popov.rows
        # same pivot degrees before and after normalization
        assert degrees == delta
        det = determinant(w)
        assert poly_deg(det) == sum(delta) or (inst.sigma == 0 and det == [1])


def test_signed_shifts(rng):
    # shifts are signed; everything must agree below zero too
    from popov_interp import minimal_interpolation_basis, popov_mib

    for _ in range(15):
        inst = random_instance(rng, sigma_range=(0, 16), m_range=(1, 4))
        inst.shift = tuple(rng.randint(-20, 20) for _ in range(inst.m))
        popov, delta = iterative_mib(inst)
        assert popov_mib(inst) == (popov, delta)
        assert is_popov(popov, inst.shift)
        w, _ = minimal_interpolation_basis(inst)
        assert weak_popov_to_popov(w, inst.shift).rows == popov.rows
        bound = max(inst.shift) + inst.sigma
        dim = len(kernel_oracle(inst, bound))
        assert dim == sum(
            max(0, bound - si - di + 1) for si, di in zip(inst.shift, delta)
        )

