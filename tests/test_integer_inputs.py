"""The library's integer-input rule, owned by ``ff_poly.int_tuple`` and
``ff_poly.residue_array``: Python integers of any size and numpy integers
are read as themselves, and a bool, a float or anything else raises
ValueError where ``int()`` or an int64 array would read another integer.
"""

import numpy as np
import pytest

from popov_interp import (
    InterpInstance,
    JordanSpec,
    Modulus,
    PolyMat,
    build_expansion,
    interpolant_check,
    is_popov,
    is_weak_popov,
    iterative_mib,
    popov_mib,
    shifted_row_degree,
)
from popov_interp.apps import ApproximantProblem, GSProblem, gs_instance, order_basis, reduce_shift
from popov_interp.ff_poly import int_tuple, residue_array
from popov_interp.linalg import as_matrix, rank_mod

F = Modulus(97)
J = JordanSpec(((0, 2),))


def test_int_tuple_reads_python_and_numpy_integers():
    values = (0, -3, 2**70, np.int64(-5), np.int8(7), np.uint64(2**64 - 1))
    out = int_tuple(values, "bad")
    assert out == (0, -3, 2**70, -5, 7, 2**64 - 1)
    assert all(type(v) is int for v in out)
    assert int_tuple(iter([1, 2]), "bad") == (1, 2) and int_tuple([], "bad") == ()
    for bad in (True, np.bool_(True), 1.0, np.float64(2), "3", None, [1], 1 + 0j):
        with pytest.raises(ValueError, match="^bad$"):
            int_tuple((1, bad), "bad")


def test_residue_array_reads_integers_of_any_size():
    p = 97
    # numpy would infer float64 for [2**63, 1] and object for 2**70
    values = [[2**63, 1, -1], [2**70, -(2**70), np.int64(-98)]]
    a = residue_array(values, p, "E")
    assert a.dtype == np.int64 and a.shape == (2, 3)
    assert a.tolist() == [[v % p for v in row] for row in [[2**63, 1, -1], [2**70, -(2**70), -98]]]
    # integer arrays of every kind, uint64 past 2**63 included, and object arrays
    for dtype in (np.int8, np.int32, np.int64, np.uint16, np.uint64):
        arr = np.array([[1, 2], [3, 96]], dtype=dtype)
        assert residue_array(arr, p, "E").tolist() == [[1, 2], [3, 96]]
    top = np.array([2**64 - 1, 2**63], dtype=np.uint64)
    assert residue_array(top, p, "E").tolist() == [(2**64 - 1) % p, 2**63 % p]
    assert residue_array(np.array([2**70, 5], dtype=object), p, "E").tolist() == [2**70 % p, 5]
    # a new array: the caller's is never written
    arr = np.array([98, 99])
    out = residue_array(arr, p, "E")
    out[0] = 0
    assert arr.tolist() == [98, 99]
    assert residue_array([], p, "E").shape == (0,)


@pytest.mark.parametrize(
    "bad",
    [[1.5, 2], [True, 2], [1, "2"], [[1], 2], np.array([1.0, 2.0]), np.array([True, False]), [None]],
)
def test_residue_array_refuses_non_integers(bad):
    # numpy would read [True, 2] as int64 and truncate 1.5
    with pytest.raises(ValueError, match="coefficients must be integers"):
        residue_array(bad, 97, "coefficients")


def test_residue_array_without_reduce_refuses_non_residues():
    assert residue_array([0, 96], 97, "c", reduce=False).tolist() == [0, 96]
    for bad in (97, -1, 2**63, -(2**70)):
        with pytest.raises(ValueError, match="c must be residues mod p"):
            residue_array([1, bad], 97, "c", reduce=False)


def test_modulus_reads_numpy_integers():
    for p in (np.int64(97), np.int32(97), np.uint16(97)):
        field = Modulus(p)
        assert field == F and type(field.p) is int
    for bad in (97.0, True, "97", None):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            Modulus(bad)


def test_jordan_spec_refuses_a_float_eigenvalue():
    # read as eigenvalue 0 through an int64 array in column_action
    with pytest.raises(ValueError, match="eigenvalues must be integers"):
        JordanSpec(((0.5, 2),))
    with pytest.raises(ValueError, match="eigenvalues must be integers"):
        JordanSpec(((True, 2),))
    spec = JordanSpec(((np.int64(3), np.int32(2)), (2**70, np.uint8(1))))
    assert spec.blocks == ((3, 2), (2**70, 1))
    assert all(type(v) is int for block in spec.blocks for v in block)
    assert JordanSpec.from_json([[np.int64(98), [np.int64(2)]]], 97).blocks == ((1, 2),)


def test_instance_refuses_float_entries_and_shifts():
    # stored E [[1, 2], [3, 4]] and shift (0, 1)
    with pytest.raises(ValueError, match="E entries must be integers"):
        InterpInstance(F, [[1.9, 2], [3, 4]], J, (0, 1))
    with pytest.raises(ValueError, match="E entries must be integers"):
        InterpInstance(F, np.array([[1.0, 2.0], [3.0, 4.0]]), J, (0, 1))
    for shift in ((0.9, 1), (0, True), (0.9, True)):
        with pytest.raises(ValueError, match="shift entries must be integers"):
            InterpInstance(F, [[1, 2], [3, 4]], J, shift)


def test_instance_reads_numpy_integers_as_python_ones():
    ref = InterpInstance(F, [[1, 2], [3, 4]], J, (0, 1))
    inst = InterpInstance(
        Modulus(np.int64(97)),
        np.array([[1, 2], [3, 4]], dtype=np.int32),
        JordanSpec(((np.int64(0), np.int64(2)),)),
        (np.int64(0), np.uint8(1)),
    )
    assert inst.shift == (0, 1) and all(type(s) is int for s in inst.shift)
    assert inst.E.tolist() == ref.E.tolist() and inst.E.dtype == np.int64
    assert popov_mib(inst) == popov_mib(ref)
    assert iterative_mib(inst) == iterative_mib(ref)


def test_polymat_rows_are_integers():
    # the rows view kept [[[1.5, 2]]] while the array held [1, 2]
    for rows in ([[[1.5, 2]]], [[[True, 2]]], [[[1, "2"]]]):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            PolyMat(F, rows)
        with pytest.raises(ValueError, match="coefficients must be integers"):
            PolyMat.from_rows(F, rows)
    # from_rows reduces integers of any size, numpy ones included
    m = PolyMat.from_rows(F, [[[98, 2**70, 0], [np.int64(-1)]]])
    assert m.rows == [[[1, 2**70 % 97], [96]]]
    assert PolyMat(F, [[[np.int64(1), 2]]]) == PolyMat(F, [[[1, 2]]])


def test_shifts_of_the_predicates_are_integers():
    ident = PolyMat.identity(F, 2)
    for check in (is_popov, is_weak_popov, shifted_row_degree):
        with pytest.raises(ValueError, match="shift entries must be integers"):
            check(ident, (0.5, 0.7))  # read as (0, 0)
    assert is_popov(ident, (np.int64(0), np.int64(0)))


def test_approximant_problem_refuses_float_orders_and_shifts():
    fmat = PolyMat(F, [[[1, 2]], [[3]]])
    with pytest.raises(ValueError, match="orders must be integers"):
        ApproximantProblem(F, fmat, (2.9,), (0, 1))  # read as (2,)
    with pytest.raises(ValueError, match="shift entries must be integers"):
        ApproximantProblem(F, fmat, (3,), (0.5, 1.5))  # read as (0, 1)
    prob = ApproximantProblem(F, fmat, (np.int64(3),), (np.int32(0), 1))
    assert prob.orders == (3,) and prob.shift == (0, 1)
    assert order_basis(prob) == order_basis(ApproximantProblem(F, fmat, (3,), (0, 1)))


def test_gs_problem_refuses_float_exponents_and_weights():
    points = ((1, (2,)), (3, (4,)))
    with pytest.raises(ValueError, match="exponents must be integers"):
        GSProblem(F, 1, ((0,), (1.7,)), points, (2, 2), (1,))  # read as 1
    with pytest.raises(ValueError, match="weights must be integers"):
        GSProblem(F, 1, ((0,), (1,)), points, (2, 2), (1.5,))  # read as 1
    with pytest.raises(ValueError, match="coordinates must be integers"):
        GSProblem(F, 1, ((0,), (1,)), ((1.5, (2,)), (3, (4,))), (2, 2), (1,))
    with pytest.raises(ValueError, match="coordinates must be integers"):
        GSProblem(F, 1, ((0,), (1,)), ((1, (True,)), (3, (4,))), (2, 2), (1,))
    for num_y in (1.0, True, [1]):
        with pytest.raises(ValueError, match="num_y must be an integer"):
            GSProblem(F, num_y, ((0,), (1,)), points, (2, 2), (1,))
    ref = GSProblem(F, 1, ((0,), (1,)), points, (2, 2), (1,))
    prob = GSProblem(
        F,
        np.int64(1),
        ((np.int64(0),), (np.int32(1),)),
        ((np.int64(98), (np.int64(2),)), (3, (4,))),
        (np.int64(2), 2),
        (np.uint8(1),),
    )
    assert prob == GSProblem(F, 1, ((0,), (1,)), ((1, (2,)), (3, (4,))), (2, 2), (1,))
    inst, want = gs_instance(prob), gs_instance(ref)
    assert inst.E.tolist() == want.E.tolist() and inst.shift == want.shift


def test_interpolant_check_refuses_float_coefficients():
    inst = InterpInstance(F, [[1, 0], [1, 0]], J, (0, 0))
    # np.fromiter into int64 truncated them
    with pytest.raises(ValueError, match="coefficients must be integers"):
        interpolant_check([[0.5, 0, 1], []], inst)
    with pytest.raises(ValueError, match="coefficients must be integers"):
        interpolant_check([[96], [True]], inst)
    assert interpolant_check([[np.int64(96)], [np.int64(1)]], inst)
    assert interpolant_check([[-1], [2**70 * 97 + 1]], inst)


def test_shift_reduction_and_plans_read_integers():
    with pytest.raises(ValueError, match="shift entries must be integers"):
        reduce_shift((0.5, 3), 4)
    assert reduce_shift((np.int64(0), 10**30), 4) == (0, 4)
    with pytest.raises(ValueError, match="minimal degrees must be integers"):
        build_expansion((np.float64(2), 0), 2, 4)
    assert build_expansion((np.int64(2), 0), 2, 4) == build_expansion((2, 0), 2, 4)


def test_matrices_of_linalg_are_integers():
    with pytest.raises(ValueError, match="must be integers"):
        rank_mod([[1.5, 2]], 97)
    with pytest.raises(ValueError, match="must be integers"):
        as_matrix([[True, 2]], 97)
    assert as_matrix([[2**70, -1]], 97).tolist() == [[2**70 % 97, 96]]
    assert as_matrix([], 97).shape == (0, 0)
    assert rank_mod(np.array([[1, 2], [2, 4]], dtype=np.int16), 97) == 1
