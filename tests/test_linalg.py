"""Exact modular matrix products at the edge of int64, and elimination
against a reference on Python integers."""

import numpy as np
import pytest

from popov_interp.linalg import CHUNK, inv_mod, left_nullspace, matmul_mod, rank_mod


def test_matmul_mod_largest_residues(rng):
    # entries p-1 make every chunk of the inner dimension reach its int64
    # bound; 2*CHUNK + 2 runs two full chunks and a short one
    gen = np.random.default_rng(rng.randrange(2**32))
    for p in (3, 97, 998244353, 2147483647):
        for inner in list(range(1, 12)) + [2 * CHUNK + 2]:
            a = np.full((2, inner), p - 1, dtype=np.int64)
            b = np.full((inner, 3), p - 1, dtype=np.int64)
            assert (matmul_mod(a, b, p) == inner * (p - 1) ** 2 % p).all()
            a = gen.integers(0, p, (3, inner))
            b = gen.integers(0, p, (inner, 2))
            # the reference on Python integers
            ref = (a.astype(object) @ b.astype(object)) % p
            assert matmul_mod(a, b, p).tolist() == ref.tolist()


PRIMES = (3, 97, 998244353, 2147483647)


def reference_echelon(rows, p, ncols):
    """Gauss-Jordan on Python integers over the first ncols columns, the
    first usable row as pivot: the rank and the reduced rows."""
    m = [[v % p for v in row] for row in rows]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                c = m[i][col]
                m[i] = [(a - c * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r, m


def matrices(rng, p):
    """Square, wide, tall, rank-deficient, zero and singular matrices."""
    def rand(n, k):
        return [[rng.randrange(p) for _ in range(k)] for _ in range(n)]

    for n, k in ((1, 1), (4, 4), (7, 7), (3, 6), (6, 3), (1, 5), (5, 1)):
        yield rand(n, k)
        yield [[0] * k for _ in range(n)]
        # rank at most 2: a product through an inner dimension of 2
        a, b = rand(n, 2), rand(2, k)
        yield [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    # entries p - 1, and a square with a repeated row
    yield [[p - 1] * 5 for _ in range(4)]
    square = rand(5, 5)
    square[3] = list(square[1])
    yield square


def test_elimination_matches_python_integers(rng):
    for p in PRIMES:
        for a in matrices(rng, p):
            n, k = len(a), len(a[0])
            rank, _ = reference_echelon(a, p, k)
            assert rank_mod(a, p) == rank
            # left_nullspace: the identity columns of [A | I] after the elimination
            augmented = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
            r, m = reference_echelon(augmented, p, k)
            null = left_nullspace(a, p)
            assert null.tolist() == [row[k:] for row in m[r:]]
            assert not (null.astype(object) @ np.array(a, dtype=object) % p).any()
            if n == k:
                inv = inv_mod(a, p)
                if rank < n:
                    assert inv is None
                else:
                    assert inv.tolist() == [row[k:] for row in m]
                    assert (inv.astype(object) @ np.array(a, dtype=object) % p == np.eye(n)).all()
            else:
                with pytest.raises(ValueError, match="square"):
                    inv_mod(a, p)


def test_no_rows():
    # an empty row list is a 0 x 0 matrix: rank 0, an empty inverse and
    # an empty nullspace, at every prime
    for p in PRIMES:
        assert rank_mod([], p) == 0
        assert inv_mod([], p).shape == (0, 0)
        assert left_nullspace([], p).shape == (0, 0)
        # rows of no columns are independent of nothing: all in the nullspace
        assert rank_mod([[], []], p) == 0
        assert left_nullspace([[], []], p).tolist() == [[1, 0], [0, 1]]
