"""Partial linearization and the divide-and-conquer driver."""

import time
from itertools import accumulate

import pytest

from conftest import (
    MIB_ENGINE,
    POPOV_MIB,
    capture,
    dense_krylov_rank,
    leading_at,
    mib_splits,
    random_instance,
)
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
    kernel_oracle,
    known_mindeg_mib,
    matmul,
    minimal_interpolation_basis,
    popov_mib,
    weak_popov_to_popov,
)
from popov_interp.apps import adversarial_instance, approximant_instance
from popov_interp.ff_poly import poly_add
from popov_interp.linalg import inv_mod

F = Modulus(97)


def test_build_expansion_worked_example():
    # sigma = 66 > LEAF * m = 64: chunks of ceil(66/2) = 33
    assert 66 > MIB_ENGINE.LEAF * 2
    plan = build_expansion((50, 16), 2, 66)
    assert plan.chunk == 33
    assert plan.alpha == (2, 1)
    assert plan.deltabar == (33, 17, 16)


def test_build_expansion_zero_profile():
    plan = build_expansion((0, 0, 0), 3, 5)
    assert plan.alpha == (1, 1, 1)
    assert plan.deltabar == (0, 0, 0)


def test_build_expansion_row_count_bound():
    # above the Mib's base case a fully unbalanced profile still expands
    # to at most 2m rows
    leaf = MIB_ENGINE.LEAF
    for sigma in range(2 * leaf + 1, 2 * leaf + 65):
        plan = build_expansion((sigma, 0), 2, sigma)
        chunk = -(-sigma // 2)
        assert plan.chunk == chunk
        assert plan.alpha[0] == sigma // chunk + 1
        assert len(plan.deltabar) <= 4
    # in chunks of ceil(sigma/m), sum(mindeg)/chunk + m <= 2m rows for
    # every profile summing to at most sigma
    for m in range(1, 7):
        for sigma in range(leaf * m + 1, leaf * m + m + 2):
            for first in range(sigma + 1):
                mindeg = (first,) + (0,) * (m - 2) + (sigma - first,) if m > 1 else (sigma,)
                plan = build_expansion(mindeg, m, sigma)
                assert plan.chunk == -(-sigma // m)
                assert len(plan.deltabar) <= 2 * m


def test_rebuild_linearizes_at_every_size(rng, monkeypatch):
    # the rebuild's Mib runs on one row per expansion chunk, sum(alpha)
    # rows, at every sigma: 0, up to m, at LEAF * m and one past it
    mibs = capture(monkeypatch, "minimal_interpolation_basis")
    expanded = 0
    for m in (1, 2, 3, 4):
        leaf = MIB_ENGINE.LEAF * m
        for sigma in (0, m, leaf, leaf + 1):
            for _ in range(3):
                inst = random_instance(rng, sigma_range=(sigma, sigma), m_range=(m, m))
                popov, delta = iterative_mib(inst)
                mibs.clear()
                assert known_mindeg_mib(inst, delta) == popov
                [((rinst,), _)] = mibs
                assert rinst.jordan is inst.jordan
                alpha = build_expansion(delta, m, sigma).alpha
                assert rinst.m == sum(alpha) <= 2 * m
                expanded += sum(alpha) > m
    assert expanded >= 12


def test_known_mindeg_worked_example():
    inst = InterpInstance(F, [[1, 0], [1, 0]], JordanSpec(((0, 2),)), (0, 0))
    basis = known_mindeg_mib(inst, (2, 0))
    assert basis.rows == [[[0, 0, 1], []], [[96], [1]]]


def test_known_mindeg_identity_case():
    inst = InterpInstance(F, [[0, 0], [0, 0]], JordanSpec(((4, 2),)), (0, 3))
    assert known_mindeg_mib(inst, (0, 0)).rows == PolyMat.identity(F, 2).rows


def test_known_mindeg_random_equality(rng, monkeypatch):
    mibs = capture(monkeypatch, "minimal_interpolation_basis")
    checked = 0
    while checked < 200:
        inst = random_instance(rng, sigma_range=(1, 40), m_range=(1, 5))
        if inst.sigma < inst.m:
            continue
        popov, delta = iterative_mib(inst)
        mibs.clear()
        rebuilt = known_mindeg_mib(inst, delta)
        assert rebuilt.rows == popov.rows
        [(_, (rbasis, _))] = mibs
        deltabar = build_expansion(delta, inst.m, inst.sigma).deltabar
        # the intermediate basis has column degree exactly deltabar
        assert (rbasis.lengths.max(0) - 1).tolist() == list(deltabar)
        assert inv_mod(leading_at(rbasis, deltabar), 97) is not None
        checked += 1


def test_known_mindeg_rejects_wrong_degree():
    inst = InterpInstance(F, [[1, 0], [1, 0]], JordanSpec(((0, 2),)), (0, 0))
    # (1, 1) exceeds the expanded column degrees; (3, 0) sums past
    # sigma = 2; (0, 2) rebuilds [[1, -1], [0, X**2]], whose row 0 has its
    # pivot in column 1
    for wrong in ((1, 1), (3, 0), (0, 2)):
        with pytest.raises(ValueError, match="inconsistent minimal degree"):
            known_mindeg_mib(inst, wrong)


def test_known_mindeg_rejects_wrong_degree_with_true_sum(rng):
    # an s-Popov matrix of interpolants whose degrees sum to the true sum
    # generates the module, so it is the s-Popov basis: with any other
    # degrees of that sum the rebuild must raise
    tried = 0
    while tried < 60:
        inst = random_instance(rng, sigma_range=(2, 16), m_range=(2, 4))
        if inst.sigma < inst.m:
            continue
        _, delta = iterative_mib(inst)
        i, j = rng.sample(range(inst.m), 2)
        if delta[i] == 0:
            continue
        k = rng.randint(1, delta[i])
        wrong = list(delta)
        wrong[i] -= k
        wrong[j] += k
        with pytest.raises(ValueError, match="inconsistent minimal degree"):
            known_mindeg_mib(inst, tuple(wrong))
        tried += 1


def test_known_mindeg_rejects_a_singular_leading_matrix():
    # the true degree is (0, 1); (0, 2) sums to sigma, expands within its
    # column degrees, and leaves the leading matrix singular
    inst = InterpInstance(F, [[0, 0], [0, 1]], JordanSpec(((0, 2),)), (0, 0))
    with pytest.raises(ValueError, match="inconsistent minimal degree"):
        known_mindeg_mib(inst, (0, 2))


def test_known_mindeg_rejects_a_degree_sum_past_sigma(monkeypatch):
    # a minimal degree sums to at most sigma; a larger sum, however large,
    # is refused by the plan before any module row is stepped
    inst = InterpInstance(F, [list(range(1, 11)), [0] * 10], JordanSpec(((0, 10),)), (0, 0))
    stepped = capture(monkeypatch, "strided_powers")
    with pytest.raises(ValueError, match="inconsistent minimal degree"):
        build_expansion((11, 0), 2, 10)
    for wrong in ((5000, 0), (10**6, 0)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="inconsistent minimal degree"):
            known_mindeg_mib(inst, wrong)
        assert time.perf_counter() - start < 0.5
    assert not stepped


def _normalize_direct(linv, rbasis: PolyMat) -> PolyMat:
    """linv * R as a plain constant-by-polynomial matrix product."""
    p = rbasis.field.p
    rows = []
    for t in range(rbasis.nrows):
        row = [[] for _ in range(rbasis.ncols)]
        for k in range(rbasis.nrows):
            c = int(linv[t][k]) % p
            if c == 0:
                continue
            for u, e in enumerate(rbasis.rows[k]):
                if e:
                    row[u] = poly_add(row[u], [c * v % p for v in e], p)
        rows.append(row)
    return PolyMat(rbasis.field, rows)


def _compress(row, plan):
    """Entry j of the compressed row: sum_k X**(k*chunk) * row[offset_j + k]."""
    out = []
    for off, a in zip(accumulate(plan.alpha, initial=0), plan.alpha):
        acc = []
        for k in range(a):
            if row[off + k]:
                acc = poly_add(acc, [0] * (k * plan.chunk) + row[off + k], F.p)
        out.append(acc)
    return out


def test_normalize_linearized_matches_direct(rng, monkeypatch):
    mibs = capture(monkeypatch, "minimal_interpolation_basis")
    past_leaf = compressed = 0
    for i in range(45):
        if i < 25:
            # up to the Mib's base case, where the rebuild's Mib is a leaf
            inst = random_instance(rng, sigma_range=(2, 24), m_range=(2, 4))
        else:
            # past the Mib's base case, where the rebuild's Mib recurses
            m = rng.randint(1, 2)
            leaf = MIB_ENGINE.LEAF * m
            inst = random_instance(rng, sigma_range=(leaf + 1, leaf + 40), m_range=(m, m))
            past_leaf += 1
        if inst.sigma < inst.m:
            continue
        _, delta = iterative_mib(inst)
        mibs.clear()
        popov = known_mindeg_mib(inst, delta)
        [(_, (rbasis, _))] = mibs
        plan = build_expansion(delta, inst.m, inst.sigma)
        compressed += len(plan.deltabar) > inst.m
        direct = _normalize_direct(inv_mod(leading_at(rbasis, plan.deltabar), 97), rbasis)
        last = [n - 1 for n in accumulate(plan.alpha)]
        assert [_compress(direct.rows[t], plan) for t in last] == popov.rows
    assert past_leaf == 20 and compressed >= 6


def test_popov_mib_trivial_and_small():
    empty = InterpInstance(F, [[], []], JordanSpec(()), (3, 0))
    basis, delta = popov_mib(empty)
    assert basis.rows == PolyMat.identity(F, 2).rows and delta == (0, 0)

    inst1 = InterpInstance(F, [[1], [1]], JordanSpec(((0, 1),)), (0, 0))
    assert popov_mib(inst1) == iterative_mib(inst1)
    inst2 = InterpInstance(F, [[1, 0], [1, 0]], JordanSpec(((0, 2),)), (0, 0))
    assert popov_mib(inst2) == iterative_mib(inst2)


def test_popov_mib_split_records(rng, monkeypatch):
    mibs = capture(monkeypatch, "minimal_interpolation_basis", (POPOV_MIB, MIB_ENGINE))
    seen = 0
    while seen < 10:
        inst = random_instance(rng, sigma_range=(4, 10 * MIB_ENGINE.LEAF), m_range=(1, 3))
        if inst.sigma <= MIB_ENGINE.LEAF * inst.m:
            continue
        mibs.clear()
        basis, delta = popov_mib(inst)
        splits, roots = mib_splits(mibs)
        # the instance's own Mib, whose degrees popov_mib keeps, then the
        # rebuild's
        [(root, _, root_degrees), (rebuild, _, _)] = roots
        assert splits and root is inst and rebuild.jordan is inst.jordan
        for node, prod, mindeg, (left_node, left, d1), (right_node, right, d2) in splits:
            assert left_node.sigma == -(-node.sigma // 2)
            assert left_node.sigma + right_node.sigma == node.sigma
            assert mindeg == tuple(a + b for a, b in zip(d1, d2))
            assert sum(mindeg) <= node.sigma  # at every level
            # the node's basis is the product of its halves, diagonal
            # weak Popov with summed pivot degrees, and normalizes to the
            # node's Popov basis
            assert prod.rows == matmul(right, left).rows
            s = node.shift
            assert is_weak_popov(prod, s, diagonal=True)
            assert tuple(prod.lengths.diagonal() - 1) == mindeg
            ref, ref_delta = iterative_mib(node)
            assert weak_popov_to_popov(prod, s).rows == ref.rows
            # the degree tuple matches an independent run on that node
            assert ref_delta == mindeg
        assert delta == root_degrees
        assert is_popov(basis, inst.shift)
        seen += 1


def test_popov_mib_rebuilds_once_at_the_root(rng, monkeypatch):
    # up to LEAF * m, sigma <= m and sigma = 0 included, the solve is one
    # iterative_mib call and no rebuild; above it, one rebuild at the
    # root and never the reference engine's normalization
    leaves = capture(monkeypatch, "iterative_mib")
    rebuilds = capture(monkeypatch, "known_mindeg_mib")
    normalized = capture(monkeypatch, "weak_popov_to_popov", (MIB_ENGINE,))
    for m in (1, 2, 3, 4):
        bound = MIB_ENGINE.LEAF * m
        for sigma in (0, rng.randint(1, m), rng.randint(m + 1, bound), bound, bound + 1, 2 * bound):
            inst = random_instance(rng, sigma_range=(sigma, sigma), m_range=(m, m))
            leaves.clear()
            rebuilds.clear()
            normalized.clear()
            basis, delta = popov_mib(inst)
            if sigma <= bound:
                [((node,), out)] = leaves
                assert node is inst and out == (basis, delta) and not rebuilds
            else:
                [((node, mindeg), out)] = rebuilds
                assert node is inst and mindeg == delta and out is basis
                assert not leaves and not normalized


def test_popov_mib_matches_iterative(rng):
    for _ in range(40):
        inst = random_instance(rng, sigma_range=(0, 32), m_range=(1, 5))
        basis, delta = popov_mib(inst)
        assert (basis, delta) == iterative_mib(inst)
        # a leaf, so popov_mib is iterative_mib: the rebuild is the check
        assert known_mindeg_mib(inst, minimal_interpolation_basis(inst)[1]) == basis


def test_popov_mib_matches_iterative_deep_recursion(rng):
    # sigma well above m: several split levels and expansion rebuilds
    for p in (97, 998244353):
        inst = random_instance(rng, p=p, sigma_range=(96, 144), m_range=(2, 4))
        assert popov_mib(inst) == iterative_mib(inst)
    # unbalanced shifts: the Mib's basis outgrows the Popov size bound
    # that the one rebuild at the root restores
    for m, sigma in ((4, 128), (8, 64)):
        for seed in range(2):
            inst = approximant_instance(adversarial_instance(m, sigma, seed))
            popov, delta = popov_mib(inst)
            assert (popov, delta) == iterative_mib(inst)
            bound = inst.m * (sigma + 1)
            assert popov.coefficient_count() <= bound
            assert minimal_interpolation_basis(inst)[0].coefficient_count() > bound


def test_popov_mib_matches_iterative_int64_edge(rng):
    # the largest prime below 2**31: residues multiply up to just under 2**62
    for _ in range(4):
        inst = random_instance(rng, p=2147483647, sigma_range=(8, 40), m_range=(1, 4))
        assert popov_mib(inst) == iterative_mib(inst)
    # every residue p - 1 and eigenvalues p - 1 and 1, past the Mib's base
    # case: the packed engine's products reach (p-1)**2 + (p-1).  Certified
    # without the engines: interpolants, the colength, kernel dimensions
    p = 2147483647
    for m, shift in ((1, (0,)), (2, (0, 5)), (3, (4, 0, 9))):
        sigma = MIB_ENGINE.LEAF * m + 3
        cut = sigma // 2 + m
        jordan = JordanSpec(((p - 1, cut), (1, sigma - cut)))
        inst = InterpInstance(Modulus(p), [[p - 1] * sigma] * m, jordan, shift)
        basis, delta = popov_mib(inst)
        assert (basis, delta) == iterative_mib(inst)
        assert all(interpolant_check(row, inst) for row in basis.rows)
        assert sum(delta) == dense_krylov_rank(inst)
        b = [si + di for si, di in zip(shift, delta)]
        for bound in (max(b) - 1, max(b)):
            want = sum(max(0, bound - bi + 1) for bi in b)
            assert len(kernel_oracle(inst, bound)) == want
