"""Exact modular matrix products at the edge of int64."""

import numpy as np

from popov_interp.linalg import matmul_mod


def test_matmul_mod_largest_residues(rng):
    # entries p-1 make every chunk of the inner dimension reach its int64 bound
    for p in (3, 97, 998244353, 2147483647):
        for inner in range(1, 12):
            a = np.full((2, inner), p - 1, dtype=np.int64)
            b = np.full((inner, 3), p - 1, dtype=np.int64)
            assert (matmul_mod(a, b, p) == inner * (p - 1) ** 2 % p).all()
            a = np.array([[rng.randrange(p) for _ in range(inner)] for _ in range(3)], dtype=np.int64)
            b = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(inner)], dtype=np.int64)
            ref = [
                [sum(int(a[i, k]) * int(b[k, j]) for k in range(inner)) % p for j in range(2)]
                for i in range(3)
            ]
            assert matmul_mod(a, b, p).tolist() == ref
