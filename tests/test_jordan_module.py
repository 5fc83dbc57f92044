"""Module action and residuals, cross-checked against explicit matrices."""

import numpy as np
import pytest

from popov_interp import JordanSpec, Modulus, PolyMat, standardize
from popov_interp import jordan_module
from popov_interp.ff_poly import poly_add, poly_mul, poly_scale, poly_trim
from popov_interp.jordan_module import (
    apply_poly_row,
    residual,
    residual_direct,
    strided_powers,
)

F = Modulus(97)
# small, middle, NTT-friendly, and the largest prime below 2**31 (int64 edge)
PRIMES = (3, 97, 998244353, 2147483647)


def test_jordan_spec_validation():
    for bad in (((0, 0),), ((0, 1), (2, -1)), ((0, 1.0),)):
        with pytest.raises(ValueError, match="positive integers"):
            JordanSpec(bad)
    # any block order, eigenvalues repeating anywhere, sizes in any order
    spec = JordanSpec(((0, 1), (5, 1), (0, 2)))
    assert spec.blocks == ((0, 1), (5, 1), (0, 2))
    assert spec.offsets == (0, 1, 2)
    assert spec.total == 4
    assert JordanSpec(()).offsets == () and JordanSpec(()).total == 0


def test_jordan_spec_json_runs():
    # runs of consecutive blocks, written back as maximal runs
    spec = JordanSpec.from_json([[0, [1, 2]], [5, [1]], [0, [1]], [0, [3]]], 97)
    assert spec.blocks == ((0, 1), (0, 2), (5, 1), (0, 1), (0, 3))
    assert spec.to_json() == [[0, [1, 2]], [5, [1]], [0, [1, 3]]]
    assert JordanSpec.from_json(spec.to_json(), 97) == spec
    assert JordanSpec.from_json({"groups": spec.to_json()}, 97).blocks == spec.blocks


def test_standardize_examples():
    # sizes sort non-increasing within the eigenvalue group
    spec, rows = standardize([(0, 1), (0, 2)], [[7, 1, 2]])
    assert spec.blocks == ((0, 2), (0, 1))
    assert rows.tolist() == [[1, 2, 7]]
    # already standard: unchanged
    spec2, rows2 = standardize([(0, 2), (0, 1)], [[1, 2, 7]])
    assert spec2 == spec and rows2.tolist() == [[1, 2, 7]]
    # group with more blocks comes first
    spec3, rows3 = standardize([(1, 1), (0, 1), (1, 2)], [[5, 6, 7, 8]])
    assert spec3.blocks == ((1, 2), (1, 1), (0, 1))
    assert rows3.tolist() == [[7, 8, 5, 6]]
    with pytest.raises(ValueError):
        standardize([(0, 0)], [[]])


def test_standardize_equal_counts_ascending_eigenvalue():
    spec, _ = standardize([(5, 1), (2, 1)], [[1, 2]])
    assert spec.blocks == ((2, 1), (5, 1))


def test_apply_poly_examples():
    spec = JordanSpec(((1, 2),))
    # action of X on f=(1,0): (X+1)*1 mod X^2 -> (1,1)
    assert apply_poly_row([0, 1], [1, 0], spec, F) == [1, 1]
    # cross-check against e . J with J = [[1,1],[0,1]]
    e = np.array([1, 0])
    J = np.array([[1, 1], [0, 1]])
    assert list((e @ J) % 97) == [1, 1]
    # multiplication by 1 is the identity
    rows = [[3, 4], [5, 6]]
    assert [apply_poly_row([1], r, spec, F) for r in rows] == rows


def _dense_jordan(spec, p):
    sigma = spec.total
    J = np.zeros((sigma, sigma), dtype=np.int64)
    for (x, n), off in zip(spec.blocks, spec.offsets):
        for t in range(n):
            J[off + t, off + t] = x % p
            if t + 1 < n:
                J[off + t, off + t + 1] = 1
    return J


def _apply_via_matrix(pl, row, spec, p):
    # on Python integers, exact at any p
    sigma = spec.total
    J = _dense_jordan(spec, p).astype(object)
    acc = np.zeros(sigma, dtype=object)
    v = np.array(row, dtype=object) % p
    for c in pl:
        acc = (acc + c * v) % p
        v = v @ J % p
    return [int(t) for t in acc]


def test_apply_poly_matches_dense_matrix(rng):
    for p in (97, 2**31 - 1):
        field = Modulus(p)
        for _ in range(50):
            sigma = rng.randint(1, 8)
            spec = JordanSpec(tuple(_random_blocks(rng, sigma, p)))
            row = [rng.randrange(p) for _ in range(sigma)]
            pl = poly_trim([rng.randrange(p) for _ in range(rng.randint(0, 9))])
            assert apply_poly_row(pl, row, spec, field) == _apply_via_matrix(pl, row, spec, p)
        # an eigenvalue whose blocks differ in size, the longest not first:
        # pl(X + x) is needed to the longest block's length; 0 and p-1 too
        for x in (0, rng.randrange(1, p - 1), p - 1):
            spec = JordanSpec(((x, 2), (5, 1), (x, 5), (x, 1)))
            for deg in (0, 1, 3, 4, 5, 9):
                row = [rng.choice((p - 1, rng.randrange(p))) for _ in range(spec.total)]
                pl = poly_trim([rng.randrange(p) for _ in range(deg)] + [p - 1])
                assert apply_poly_row(pl, row, spec, field) == _apply_via_matrix(pl, row, spec, p)


def test_apply_poly_module_axioms(rng):
    spec = JordanSpec(((3, 3), (3, 2), (0, 2)))
    sigma = spec.total
    for _ in range(20):
        row = [rng.randrange(97) for _ in range(sigma)]
        pl = poly_trim([rng.randrange(97) for _ in range(5)])
        ql = poly_trim([rng.randrange(97) for _ in range(4)])
        a = rng.randrange(97)
        # K[X]-linearity
        lhs = apply_poly_row(poly_add(poly_scale(pl, a, 97), ql, 97), row, spec, F)
        rhs = [
            (a * u + v) % 97
            for u, v in zip(
                apply_poly_row(pl, row, spec, F), apply_poly_row(ql, row, spec, F)
            )
        ]
        assert lhs == rhs
        # composition
        assert apply_poly_row(poly_mul(pl, ql, F), row, spec, F) == apply_poly_row(
            pl, apply_poly_row(ql, row, spec, F), spec, F
        )


def test_characteristic_annihilation(rng):
    spec = JordanSpec(((5, 3), (2, 2)))
    for (x, n), off in zip(spec.blocks, spec.offsets):
        # (X - x)^n kills the block
        ann = [1]
        for _ in range(n):
            ann = poly_mul(ann, [(-x) % 97, 1], F)
        row = [rng.randrange(97) for _ in range(spec.total)]
        out = apply_poly_row(ann, row, spec, F)
        assert all(v == 0 for v in out[off : off + n])


def test_residual_examples():
    spec = JordanSpec(((0, 1),))
    P = PolyMat.from_rows(F, [[[0, 1], []], [[96], [1]]])
    assert residual(P, [[1], [1]], spec).tolist() == [[0], [0]]
    ident = PolyMat.identity(F, 2)
    assert residual(ident, [[5], [7]], spec).tolist() == [[5], [7]]
    with pytest.raises(ValueError, match="dimension mismatch"):
        residual(ident, [[1], [2], [3]], spec)


def _random_blocks(rng, sigma, p, eigs=None):
    """Blocks summing to sigma; eigenvalues drawn from eigs when given."""
    blocks = []
    left = sigma
    while left:
        n = rng.randint(1, left)
        x = rng.choice(eigs) if eigs else rng.randrange(p)
        blocks.append((x, n))
        left -= n
    return blocks


def _random_residual_case(rng, p):
    """Random (P, E, J) covering the edge shapes of the residual.

    Entry degrees reach 2*sigma, rows and columns of P may vanish, sigma
    may fall below m, blocks may all have size 1, and eigenvalues repeat,
    with the blocks in the order drawn.
    """
    m = rng.randint(1, 5)
    sigma = rng.randint(0, 16)
    kind = rng.randrange(3)
    if kind == 0 and sigma:
        blocks = [(rng.randrange(p), 1) for _ in range(sigma)]  # size-1 blocks
    elif kind == 1 and sigma:
        eigs = [rng.randrange(p) for _ in range(2)]
        blocks = _random_blocks(rng, sigma, p, eigs)  # repeated eigenvalues
    else:
        blocks = _random_blocks(rng, sigma, p)
    spec = JordanSpec(tuple(blocks))  # in drawn order, not standardized
    rows = np.array([[rng.randrange(p) for _ in range(sigma)] for _ in range(m)], dtype=np.int64)
    rows = rows.reshape(m, sigma)
    nrows = rng.randint(1, m + 1)
    zero_row = rng.randrange(nrows) if rng.random() < 0.3 else None
    zero_col = rng.randrange(m) if rng.random() < 0.3 else None
    entries = []
    for i in range(nrows):
        prow = []
        for j in range(m):
            if i == zero_row or j == zero_col:
                prow.append([])
            else:
                deg = rng.randint(-1, 2 * sigma + 1)
                prow.append([rng.randrange(p) for _ in range(deg + 1)])
        entries.append(prow)
    return PolyMat.from_rows(Modulus(p), entries), rows, spec


def test_residual_linearized_equals_direct(rng):
    for p in PRIMES:
        for _ in range(30):
            pmat, rows, spec = _random_residual_case(rng, p)
            direct = residual_direct(pmat, rows.tolist(), spec)
            assert residual(pmat, rows, spec).tolist() == direct


def test_residual_slabs_equal_direct(rng, monkeypatch):
    # a tiny slab forces several Krylov slabs per residual
    monkeypatch.setattr(jordan_module, "_KRYLOV_SLAB", 7)
    for p in PRIMES:
        for _ in range(10):
            pmat, rows, spec = _random_residual_case(rng, p)
            direct = residual_direct(pmat, rows.tolist(), spec)
            assert residual(pmat, rows, spec).tolist() == direct


def test_residual_reads_each_column_to_its_length(rng, monkeypatch):
    # columns of very different lengths, zero columns among them, and the
    # zero matrix; slabs of a few powers end inside the long columns
    for p in PRIMES:
        for trial in range(12):
            m = rng.randint(1, 4)
            sigma = rng.randint(1, 12)
            spec = JordanSpec(tuple(_random_blocks(rng, sigma, p)))
            rows = np.array([[rng.randrange(p) for _ in range(sigma)] for _ in range(m)])
            if trial == 0:
                widths = [0] * m  # the zero matrix
            else:
                widths = [rng.choice((0, 1, 2, 3 * sigma + 5)) for _ in range(m)]
            nrows = rng.randint(1, 3)
            entries = [[[] for _ in range(m)] for _ in range(nrows)]
            for j, n in enumerate(widths):
                for i in range(nrows):
                    k = n if i == 0 else rng.randint(0, n)  # row 0 reaches n
                    if k:
                        entries[i][j] = [rng.randrange(p) for _ in range(k - 1)] + [
                            rng.randrange(1, p)
                        ]
            pmat = PolyMat.from_rows(Modulus(p), entries)
            assert pmat.lengths.max(0).tolist() == widths
            slab = rng.randint(1, 4)
            monkeypatch.setattr(jordan_module, "_KRYLOV_SLAB", slab * m * sigma)
            direct = residual_direct(pmat, rows.tolist(), spec)
            assert residual(pmat, rows, spec).tolist() == direct


def test_strided_powers_matches_dense_jordan(rng):
    # each row to its own count, zero included, in any order of counts
    for p in PRIMES:
        field = Modulus(p)
        for _ in range(10):
            sigma = rng.randint(0, 10)
            m = rng.randint(1, 4)
            spec = JordanSpec(tuple(_random_blocks(rng, sigma, p)))
            rows = np.array([[rng.randrange(p) for _ in range(sigma)] for _ in range(m)])
            counts = [rng.randint(0, 4) for _ in range(m)]
            stride = rng.randint(1, 3)
            out = strided_powers(rows.reshape(m, sigma), spec, field, counts, stride)
            want = [
                _apply_via_matrix([0] * (k * stride) + [1], rows[j].tolist(), spec, p)
                for j in range(m)
                for k in range(counts[j])
            ]
            assert out.shape == (sum(counts), sigma)
            assert out.tolist() == want
