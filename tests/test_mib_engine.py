"""The iterative engine, the divide-and-conquer engine, and the oracle."""

import itertools
import random

import numpy as np
import pytest

from conftest import MIB_ENGINE, capture, random_instance
from popov_interp import (
    InterpInstance,
    JordanSpec,
    Modulus,
    PolyMat,
    interpolant_check,
    is_popov,
    is_weak_popov,
    iterative_mib,
    kernel_oracle,
    minimal_interpolation_basis,
    popov_mib,
    weak_popov_to_popov,
)
from popov_interp.apps import GSProblem, gs_instance
from popov_interp.jordan_module import residual
from popov_interp.linalg import rank_mod
from popov_interp.mib_engine import LEAF, iterative_weak_popov, split_leading
from reference import determinant, poly_deg

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
    # one table per instance, not one per checked row
    assert INST2.powers is INST2.powers


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


@pytest.mark.parametrize("blocks", ["nilpotent", "two_eigenvalues"])
@pytest.mark.parametrize("p, dtype", [(3, np.int32), (97, np.int32), (4057, np.int32), (4073, np.int64)])
def test_elimination_state_at_the_int32_edge(p, dtype, blocks, monkeypatch):
    # at m = 4 and sigma = LEAF * m = 128, int32's budget of steps is
    # exactly sigma at p = 4057, so the state is int32 and no remainder is
    # taken before the end, and one short at p = 4073, which runs in int64
    m = 4
    sigma = LEAF * m
    budget = (2**31 - 1) // ((p - 1) ** 2 + p) - 2
    assert {4057: budget == sigma, 4073: budget == sigma - 1}.get(p, True)
    rng = random.Random(p)
    # E_0 has residues near p - 1, none zero, so it generates the module
    # (its block tops are nonzero, one block per eigenvalue); rows 1-3 are
    # shifted past sigma, so row 0 pivots at every step and the others
    # are eliminated with it, unreduced until the end
    e0 = [p - 1 - rng.randrange(min(p - 1, 3)) for _ in range(sigma)]
    shift = (0,) + (sigma + 1,) * (m - 1)
    if blocks == "nilpotent":
        # one nilpotent block: X shifts row 0, whose discrepancy is always
        # e0[0]; rows 1-3 are -(e0[0] + ... + e0[j]), so every multiplier
        # is p - 1, every pivot residue is an entry of e0, and the last
        # columns of rows 1-3 reach about sigma*(p-1)**2 below zero
        sums = list(itertools.accumulate(e0))
        E = [e0] + [[-v % p for v in sums]] * (m - 1)
        jordan = JordanSpec(((0, sigma),))
    else:
        # eigenvalues 0 and p - 1: the factor base - x of X - x reaches
        # p - 1 on the block the step is not in
        E = [e0] + [[p - 1 - rng.randrange(min(p, 3)) for _ in range(sigma)] for _ in range(m - 1)]
        jordan = JordanSpec(((0, sigma // 2), (p - 1, sigma // 2)))
    inst = InterpInstance(Modulus(p), E, jordan, shift)
    states = []
    from_coeffs = PolyMat.from_coeffs.__func__

    def recorded(cls, field, coeffs):
        states.append(np.asarray(coeffs).dtype)
        return from_coeffs(cls, field, coeffs)

    monkeypatch.setattr(PolyMat, "from_coeffs", classmethod(recorded))
    iterative_weak_popov(inst)
    assert states == [dtype]
    monkeypatch.undo()

    basis, delta = iterative_mib(inst)
    assert delta == (sigma,) + (0,) * (m - 1)
    # the generation certificate: Popov, interpolants, and the staircase
    # rows X**k . E_j, k < delta_j, independent
    assert is_popov(basis, shift)
    assert all(interpolant_check(row, inst) for row in basis.rows)
    assert delta == tuple(len(basis.rows[i][i]) - 1 for i in range(m))
    assert rank_mod(inst.powers.gather(delta), p) == sum(delta) <= sigma
    # the kernel dimensions of the oracle at each s-degree bound
    for bound in (0, sigma - 1, sigma, sigma + 1, sigma + 2, 2 * sigma + 1):
        want = sum(max(0, bound - s - d + 1) for s, d in zip(shift, delta))
        assert len(kernel_oracle(inst, bound)) == want


@pytest.mark.parametrize("family", ["points", "pairs", "gs"])
@pytest.mark.parametrize("sigma", [LEAF * 2, LEAF * 2 + 1])
@pytest.mark.parametrize("p", [97, 4057, 4073, 998244353, 2**31 - 1])
def test_a_new_eigenvalue_at_every_constraint(p, sigma, family):
    # every benchmark workload has long runs of one eigenvalue; here the
    # eigenvalue changes at every constraint: Hermite-Pade at distinct
    # points with blocks of size 1 ("points") or 2 ("pairs"), and GS with
    # multiplicity 1.  m = 2, so sigma = LEAF * m is one leaf and LEAF * m
    # + 1 recurses, and 65 distinct points fit at p = 97.  The leaf's
    # state is int32 at the first three primes, int64 past them.
    m = 2
    int32 = (2**31 - 1) // ((p - 1) ** 2 + p) - 2 >= sigma
    assert int32 == (p <= 4073)
    rng = random.Random(f"{p}-{sigma}-{family}")
    field = Modulus(p)
    if family == "gs":
        points = tuple((x, (rng.randrange(p),)) for x in rng.sample(range(p), sigma))
        prob = GSProblem(field, 1, ((0,), (1,)), points, (1,) * sigma, (rng.randint(0, 3),))
        inst = gs_instance(prob)
    else:
        size = 1 if family == "points" else 2
        sizes = [size] * (sigma // size) + [1] * (sigma % size)
        jordan = JordanSpec(tuple(zip(rng.sample(range(p), len(sizes)), sizes)))
        E = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
        inst = InterpInstance(field, E, jordan, (0, rng.randint(0, sigma)))
    assert len({x for x, _ in inst.jordan.blocks}) == len(inst.jordan.blocks)
    basis, delta = popov_mib(inst)
    assert (basis, delta) == iterative_mib(inst)
    assert is_popov(basis, inst.shift)
    assert all(interpolant_check(row, inst) for row in basis.rows)
    # check's generation certificate
    assert rank_mod(inst.powers.gather(delta), p) == sum(delta)


def test_minimal_interpolation_basis(rng):
    zero = InterpInstance(F, [[0, 0], [0, 0]], JordanSpec(((3, 2),)), (0, 0))
    w, degrees = minimal_interpolation_basis(zero)
    assert w.rows == [[[1], []], [[], [1]]] and degrees == (0, 0)
    for _ in range(25):
        # sigma up to 64: several recursion levels add pivot degrees
        inst = random_instance(rng, sigma_range=(0, 64), m_range=(1, 4))
        w, degrees = minimal_interpolation_basis(inst)
        assert is_weak_popov(w, inst.shift, diagonal=True)
        assert degrees == tuple(w.lengths.diagonal() - 1)
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


def test_mib_forms_the_residual_from_the_cut_block(rng, monkeypatch):
    # sigma = 10 at m = 2 and LEAF = 3 splits once, at 5, into two leaves:
    # the cut falls inside a block, on a block boundary, on a boundary
    # followed by a block of the same eigenvalue, and inside the first
    # block; the residual is formed from the start of block b, the block
    # holding the cut, on
    monkeypatch.setattr(MIB_ENGINE, "LEAF", 3)
    residuals = capture(monkeypatch, "residual", (MIB_ENGINE,))
    mibs = capture(monkeypatch, "minimal_interpolation_basis", (MIB_ENGINE,))
    cases = [
        (((3, 2), (5, 4), (7, 4)), 1, 2),
        (((3, 2), (5, 3), (7, 5)), 2, 5),
        (((3, 2), (5, 3), (5, 5)), 2, 5),
        (((3, 7), (5, 3)), 0, 0),
    ]
    for p in (3, 97, 998244353, 2**31 - 1):
        field = Modulus(p)
        for blocks, b, start in cases:
            jordan = JordanSpec(blocks)
            E = [[rng.randrange(p) for _ in range(10)] for _ in range(2)]
            inst = InterpInstance(field, E, jordan, (rng.randint(0, 5), rng.randint(0, 5)))
            residuals.clear()
            mibs.clear()
            MIB_ENGINE.minimal_interpolation_basis(inst)
            [((_, rows, _), _)] = residuals
            assert rows.shape == (2, 10 - start)
            [((inst1,), (p1, d1)), ((inst2,), _), ((root,), _)] = mibs
            assert root is inst and inst1.sigma == 5
            full = residual(p1, inst.E, jordan)
            assert not full[:, :5].any()
            assert np.array_equal(inst2.E, full[:, 5:])
            assert split_leading(inst)[1] == b
            assert inst2.jordan == split_leading(inst)[2]
            assert inst2.shift == tuple(s + d for s, d in zip(inst.shift, d1))


def _split_by_walk(blocks):
    """split_leading's reference: the cut ceil(sigma/2) found by a walk
    over every block, b the last block starting at or before the cut."""
    cut = -(-sum(n for _, n in blocks) // 2)
    blocks1, blocks2 = [], []
    pos = 0
    for i, (x, n) in enumerate(blocks):
        if pos <= cut:
            b = i
        if pos + n <= cut:
            blocks1.append((x, n))
        elif pos >= cut:
            blocks2.append((x, n))
        else:
            blocks1.append((x, cut - pos))
            blocks2.append((x, pos + n - cut))
        pos += n
    return cut, tuple(blocks1), b, tuple(blocks2)


def test_split_leading_matches_a_walk_over_the_blocks(rng):
    # 1-400 blocks of sizes 1-6 over a few eigenvalues, so eigenvalues
    # repeat; short lists put the cut inside the first or the last block
    seen = set()
    for _ in range(300):
        count = rng.choice((1, 2, 3, rng.randint(1, 400)))
        blocks = tuple((rng.randrange(3), rng.randint(1, 6)) for _ in range(count))
        jordan = JordanSpec(blocks)
        m = rng.randint(1, 3)
        E = np.array([[rng.randrange(97) for _ in range(jordan.total)] for _ in range(m)])
        inst = InterpInstance(F, E, jordan, tuple(rng.randint(0, 9) for _ in range(m)))
        cut, blocks1, b, blocks2 = _split_by_walk(blocks)
        inst1, got_b, jordan2 = split_leading(inst)
        assert inst1.jordan.blocks == blocks1
        assert jordan2.blocks == blocks2
        assert got_b == b
        assert np.array_equal(inst1.E, inst.E[:, :cut])
        assert inst1.shift == inst.shift
        inside = jordan.offsets[b] < cut < jordan.offsets[b] + blocks[b][1]
        if cut == jordan.offsets[b]:
            seen.add("boundary")
        if inside and b == 0:
            seen.add("first")
        if inside and b == count - 1:
            seen.add("last")
    assert seen == {"boundary", "first", "last"}
