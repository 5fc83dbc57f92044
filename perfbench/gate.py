"""The correctness gate every benchmarked instance must pass.

``verify`` is the library's public verification path, and the benchmark
times it.  ``certify`` adds what that path does not establish: the
diagonal degrees match ``delta``, and ``sum(delta)`` equals the colength
of the module, which is the rank of the Krylov rows ``E_i J^k``
(k < sigma).  A Popov basis whose rows are interpolants and whose
determinant degree is the colength generates the module.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def verify(lib, basis, inst) -> Tuple[bool, List[bool]]:
    """``is_popov`` of the basis and ``interpolant_check`` of every row."""
    popov_ok = lib.polymat.is_popov(basis, inst.shift)
    return popov_ok, [lib.mib_engine.interpolant_check(row, inst) for row in basis.rows]


def krylov_rank(lib, inst) -> int:
    """Rank of the rows E_i J^k for k < sigma: the colength of the module."""
    p, sigma, m = inst.field.p, inst.sigma, inst.m
    eig = np.zeros(sigma, dtype=np.int64)
    carry = np.ones(sigma, dtype=np.int64)  # 0 on the first column of each block
    for (x, n), off in zip(inst.jordan.blocks, inst.jordan.offsets):
        eig[off : off + n] = x
        carry[off] = 0
    v = np.array(inst.E, dtype=np.int64).reshape(m, sigma)
    krylov = np.empty((sigma, m, sigma), dtype=np.int64)
    for k in range(sigma):
        krylov[k] = v
        # each block of J is upper bidiagonal and acts on row vectors from the right
        v = (v * eig + np.roll(v, 1, axis=1) * carry) % p
    return lib.linalg.rank_mod(krylov.reshape(sigma * m, sigma), p)


def certify(inst, basis, delta, verified: Tuple[bool, List[bool]], colength: int) -> List[str]:
    """Names of the checks that fail; empty when the basis is certified."""
    popov_ok, rows_ok = verified
    failures = []
    if not popov_ok:
        failures.append("is_popov")
    if not all(rows_ok):
        failures.append("interpolant_check")
    diag = [len(basis.rows[i][i]) - 1 for i in range(basis.nrows)]
    if list(delta) != diag:
        failures.append("delta is not the diagonal degrees")
    if sum(delta) != colength:
        failures.append(f"sum(delta)={sum(delta)} is not the colength {colength}")
    return failures
