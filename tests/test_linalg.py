"""Exact modular matrix products at the edge of int64."""

import numpy as np

from popov_interp.linalg import CHUNK, matmul_mod


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
