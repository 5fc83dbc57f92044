"""The multiplication module defined by a Jordan matrix.

A Jordan matrix J, given as eigenvalue/block-size data, turns row vectors
of length sigma into a module over the polynomial ring via
``p . e = e * p(J)``.  Blocks are upper bidiagonal and act on row vectors
from the right, so multiplying by X on a block with eigenvalue x is
``w[t] = x*v[t] + v[t-1]`` with no carry across a block start.

Module matrices E are ``(m, sigma)`` int64 arrays of residues:
``standardize`` permutes their columns and ``residual`` returns one.
Residuals ``P . E`` of a polynomial matrix against a module matrix use
``p . e = sum_k p_k * (X**k . e)``: the coefficients of P times the
stacked Krylov rows ``X**k . E_j``, one modular matrix product.  The
direct path, on lists of Python integers, identifies each block with a
truncated power series and computes ``p(X + x_j) * f_j  mod  X**(size_j)``;
it shares no code with the residual and serves as the independent
verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from . import linalg
from .ff_poly import Modulus, Poly, poly_mul_trunc, poly_trim, taylor_shift
from .polymat import PolyMat

Block = Tuple[int, int]  # (eigenvalue, size)
ModuleRows = List[List[int]]


@dataclass(frozen=True)
class JordanSpec:
    """Standard representation: groups of blocks sharing an eigenvalue.

    Eigenvalues are pairwise distinct across groups, sizes within a group
    are non-increasing, and groups are ordered by non-increasing block
    count.
    """

    groups: Tuple[Tuple[int, Tuple[int, ...]], ...]

    def __post_init__(self):
        eigs = [x for x, _ in self.groups]
        if len(set(eigs)) != len(eigs):
            raise ValueError("eigenvalues must be pairwise distinct across groups")
        counts = []
        for _, sizes in self.groups:
            if not sizes:
                raise ValueError("empty block group")
            if any(n <= 0 for n in sizes):
                raise ValueError("block sizes must be positive")
            if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
                raise ValueError("block sizes must be non-increasing within a group")
            counts.append(len(sizes))
        if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
            raise ValueError("groups must have non-increasing block counts")

    @cached_property
    def blocks(self) -> Tuple[Block, ...]:
        return tuple((x, n) for x, sizes in self.groups for n in sizes)

    @cached_property
    def offsets(self) -> Tuple[int, ...]:
        out = []
        pos = 0
        for _, n in self.blocks:
            out.append(pos)
            pos += n
        return tuple(out)

    @property
    def total(self) -> int:
        return sum(n for _, n in self.blocks)

    def to_json(self) -> dict:
        return {"groups": [[x, list(sizes)] for x, sizes in self.groups]}

    @classmethod
    def from_json(cls, data: dict, p: int) -> "JordanSpec":
        groups = []
        for x, sizes in data["groups"]:
            if not isinstance(x, int) or any(not isinstance(n, int) for n in sizes):
                raise ValueError("eigenvalues and block sizes must be integers")
            groups.append((x % p, tuple(sizes)))
        return cls(tuple(groups))


def standardize(blocks: Iterable[Block], rows) -> Tuple[JordanSpec, np.ndarray]:
    """Standard representation of a block list, permuting E accordingly.

    Blocks group by eigenvalue, sizes sort non-increasing within a group,
    groups sort by non-increasing count with ties broken by ascending
    eigenvalue residue; the same block permutation is applied to the
    column blocks of the given module rows, which come back as an array.
    """
    blocks = list(blocks)
    if any(n <= 0 for _, n in blocks):
        raise ValueError("block sizes must be positive")
    sigma = sum(n for _, n in blocks)
    rows = np.asarray(rows)
    if rows.shape != (len(rows), sigma):
        raise ValueError("module rows do not match the block sizes")
    offsets = []
    pos = 0
    for _, n in blocks:
        offsets.append(pos)
        pos += n

    by_eig = {}
    for idx, (x, n) in enumerate(blocks):
        by_eig.setdefault(x, []).append((n, idx))
    groups = sorted(by_eig.items(), key=lambda kv: (-len(kv[1]), kv[0]))

    spec_groups = []
    order = []
    for x, members in groups:
        members = sorted(members, key=lambda t: (-t[0], t[1]))
        spec_groups.append((x, tuple(n for n, _ in members)))
        order.extend(idx for _, idx in members)

    perm = [t for idx in order for t in range(offsets[idx], offsets[idx] + blocks[idx][1])]
    return JordanSpec(tuple(spec_groups)), rows[:, perm]


def apply_poly_row(pl: Poly, row: Sequence[int], jordan: JordanSpec, field: Modulus) -> List[int]:
    """The module action of pl on one row."""
    if len(row) != jordan.total:
        raise ValueError("row length does not match the Jordan matrix")
    p = field.p
    out = [0] * len(row)
    shifted = {}  # pl(X + x), once per eigenvalue group
    for (x, n), off in zip(jordan.blocks, jordan.offsets):
        f = poly_trim([c % p for c in row[off : off + n]])
        if not f or not pl:
            continue
        if x not in shifted:
            shifted[x] = taylor_shift(pl, x, field)
        g = poly_mul_trunc(shifted[x], f, n, field)
        out[off : off + len(g)] = g
    return out


def residual_direct(pmat: PolyMat, rows: ModuleRows, jordan: JordanSpec) -> ModuleRows:
    """P . E straight from the definition: row i is sum_j p_ij . E_j."""
    field = pmat.field
    p = field.p
    if pmat.ncols != len(rows):
        raise ValueError("dimension mismatch between P and E")
    sigma = jordan.total
    out = []
    for prow in pmat.rows:
        acc = [0] * sigma
        for j, entry in enumerate(prow):
            if not entry:
                continue
            part = apply_poly_row(entry, rows[j], jordan, field)
            for t in range(sigma):
                acc[t] = (acc[t] + part[t]) % p
        out.append(acc)
    return out


# about how many Krylov entries (powers x rows x sigma) residual holds at once
_KRYLOV_SLAB = 1 << 21


def x_powers(rows, jordan: JordanSpec, field: Modulus, d: int, stride: int = 1) -> np.ndarray:
    """The int64 array K with K[k, j] = X**(k*stride) . rows[j], 0 <= k <= d.

    The rows are residues, read as they are.
    """
    p = field.p
    sigma = jordan.total
    v = np.asarray(rows, dtype=np.int64).reshape(len(rows), sigma)
    xs = np.repeat(
        np.array([x % p for x, _ in jordan.blocks], dtype=np.int64),
        [n for _, n in jordan.blocks],
    )
    carry = np.ones(sigma, dtype=np.int64)
    carry[np.array(jordan.offsets, dtype=np.intp)] = 0
    carry = carry[1:]
    out = np.empty((d + 1,) + v.shape, dtype=np.int64)
    out[0] = v
    for k in range(1, d + 1):
        for _ in range(stride):
            # p < 2**31, so x*v[t] + v[t-1] stays below 2**62 + 2**31
            w = v * xs
            w[:, 1:] += v[:, :-1] * carry
            v = np.remainder(w, p, out=w)
        out[k] = v
    return out


def residual(pmat: PolyMat, rows: np.ndarray, jordan: JordanSpec) -> np.ndarray:
    """P . E as one Krylov-matrix product, an (nrows, sigma) int64 array.

    With P's packed coefficients read as an (nrows, d*m) array, entry
    (i, k*m + j) holding the coefficient of X**k in p_ij, the residual is
    that array times the stacked rows ``X**k . E_j`` from ``x_powers``,
    reduced mod p.  Long entries are taken in slabs of powers to bound
    memory.
    """
    field = pmat.field
    p = field.p
    m = pmat.ncols
    if m != len(rows):
        raise ValueError("dimension mismatch between P and E")
    sigma = jordan.total
    coeffs = pmat.coeffs.transpose(0, 2, 1)
    d = coeffs.shape[1]
    out = np.zeros((pmat.nrows, sigma), dtype=np.int64)
    slab = max(1, _KRYLOV_SLAB // max(1, m * sigma))
    v = rows
    for lo in range(0, d, slab):
        n = min(slab, d - lo)
        krylov = x_powers(v, jordan, field, n)
        part = linalg.matmul_mod(
            coeffs[:, lo : lo + n].reshape(pmat.nrows, n * m),
            krylov[:n].reshape(n * m, sigma),
            p,
        )
        out = (out + part) % p
        v = krylov[n]
    return out
