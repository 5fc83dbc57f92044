"""The multiplication module defined by a Jordan matrix.

A Jordan matrix J, given as a sequence of (eigenvalue, size) blocks in
constraint order, turns row vectors of length sigma into a module over
the polynomial ring via ``p . e = e * p(J)``.  Blocks are upper
bidiagonal and act on row vectors from the right, so multiplying by X on
a block with eigenvalue x is ``w[t] = x*v[t] + v[t-1]`` with no carry
across a block start.  Nothing here depends on the order of the blocks
or on eigenvalues being grouped.

Module matrices E are ``(m, sigma)`` int64 arrays of residues:
``standardize`` permutes their columns into the paper's standard
representation, once, where an instance is made, and ``residual``
returns one.
Residuals ``P . E`` of a polynomial matrix against a module matrix use
``p . e = sum_k p_k * (X**k . e)``: the coefficients of P times the
stacked Krylov rows ``X**k . E_j``, one modular matrix product.  The
direct path, on lists of Python integers, identifies each block with a
truncated power series and computes ``p(X + x_j) * f_j  mod  X**(size_j)``;
it shares no code with the residual and serves as the independent
verification oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from . import linalg
from .ff_poly import Modulus, Poly, poly_mul_trunc, poly_trim
from .polymat import PolyMat

Block = Tuple[int, int]  # (eigenvalue, size)
ModuleRows = List[List[int]]


@dataclass(frozen=True)
class JordanSpec:
    """A Jordan matrix as its blocks, ``(eigenvalue, size)`` in constraint order.

    Blocks may come in any order and eigenvalues may repeat anywhere:
    reordering the blocks together with the column blocks of E only
    reorders the constraints, so the module of interpolants is the same.
    """

    blocks: Tuple[Block, ...]

    def __post_init__(self):
        if any(not isinstance(n, int) or n <= 0 for _, n in self.blocks):
            raise ValueError("block sizes must be positive integers")

    @cached_property
    def offsets(self) -> Tuple[int, ...]:
        return tuple(itertools.accumulate((n for _, n in self.blocks), initial=0))[:-1]

    @property
    def total(self) -> int:
        return sum(n for _, n in self.blocks)

    def to_json(self) -> List[list]:
        """The blocks as maximal runs ``[eigenvalue, [sizes...]]`` of one eigenvalue."""
        runs = []
        for x, n in self.blocks:
            if runs and runs[-1][0] == x:
                runs[-1][1].append(n)
            else:
                runs.append([x, [n]])
        return runs

    @classmethod
    def from_json(cls, runs, p: int) -> "JordanSpec":
        """Expand runs ``[eigenvalue, [sizes...]]`` into blocks, in order.

        The older ``{"groups": runs}`` wrapper, which perfbench's tests
        still pass, is read as its runs.
        """
        if isinstance(runs, dict):
            runs = runs["groups"]
        blocks = []
        for x, sizes in runs:
            if not isinstance(x, int) or any(not isinstance(n, int) for n in sizes):
                raise ValueError("eigenvalues and block sizes must be integers")
            if not sizes:
                raise ValueError("empty block run")
            blocks.extend((x % p, n) for n in sizes)
        return cls(tuple(blocks))


def standardize(blocks: Iterable[Block], rows) -> Tuple[JordanSpec, np.ndarray]:
    """The paper's standard representation of a block list, permuting E accordingly.

    Blocks group by eigenvalue, sizes sort non-increasing within a group,
    groups sort by non-increasing count with ties broken by ascending
    eigenvalue; the same block permutation is applied to the column
    blocks of the given module rows, which come back as an array.  The
    engines accept any block order; this is the canonical one the
    instance generators hand them.
    """
    spec = JordanSpec(tuple(blocks))
    rows = np.asarray(rows)
    if rows.shape != (len(rows), spec.total):
        raise ValueError("module rows do not match the block sizes")
    blocks = spec.blocks
    count = Counter(x for x, _ in blocks)
    order = sorted(
        range(len(blocks)),
        key=lambda i: (-count[blocks[i][0]], blocks[i][0], -blocks[i][1], i),
    )
    perm = [t for i in order for t in range(spec.offsets[i], spec.offsets[i] + blocks[i][1])]
    return JordanSpec(tuple(blocks[i] for i in order)), rows[:, perm]


def _shifted_prefix(pl: Poly, x: int, n: int, p: int) -> Poly:
    """``pl(X + x) mod X**n``, by n synthetic divisions by X - x.

    The k-th remainder is the coefficient of X**k in pl(X + x); this costs
    O(n * deg pl), against the whole Taylor shift's O(deg pl**2).
    """
    if x == 0:
        return poly_trim(list(pl[:n]))
    q = list(pl)
    out = []
    for _ in range(min(n, len(q))):
        # Horner in place: q[t] becomes the quotient's coefficient of
        # X**(t-1), and q[0] the remainder q(x)
        acc = 0
        for t in range(len(q) - 1, -1, -1):
            acc = (acc * x + q[t]) % p
            q[t] = acc
        out.append(q.pop(0))
    return poly_trim(out)


def apply_poly_row(pl: Poly, row: Sequence[int], jordan: JordanSpec, field: Modulus) -> List[int]:
    """The module action of pl on one row."""
    if len(row) != jordan.total:
        raise ValueError("row length does not match the Jordan matrix")
    p = field.p
    out = [0] * len(row)
    if not pl:
        return out
    longest = {}  # per eigenvalue, its longest block
    for x, n in jordan.blocks:
        longest[x] = max(n, longest.get(x, 0))
    shifted = {}  # pl(X + x) mod X**longest[x], once per eigenvalue
    for (x, n), off in zip(jordan.blocks, jordan.offsets):
        f = poly_trim([c % p for c in row[off : off + n]])
        if not f:
            continue
        if x not in shifted:
            shifted[x] = _shifted_prefix(pl, x % p, longest[x], p)
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


def column_action(jordan: JordanSpec, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per column, the eigenvalue mod p and a carry flag, 0 where a block
    starts and 1 elsewhere: X maps a row v to ``xs*v + carry*(v shifted)``."""
    xs = np.repeat([x % p for x, _ in jordan.blocks], [n for _, n in jordan.blocks])
    carry = np.ones(jordan.total, dtype=np.int64)
    carry[np.array(jordan.offsets, dtype=np.intp)] = 0
    return xs.astype(np.int64), carry


def x_powers(rows, jordan: JordanSpec, field: Modulus, d: int, stride: int = 1) -> np.ndarray:
    """The int64 array K with K[k, j] = X**(k*stride) . rows[j], 0 <= k <= d.

    The rows are residues, read as they are.
    """
    p = field.p
    sigma = jordan.total
    v = np.asarray(rows, dtype=np.int64).reshape(len(rows), sigma)
    xs, carry = column_action(jordan, p)
    out = np.empty((d + 1,) + v.shape, dtype=np.int64)
    out[0] = v
    for k in range(1, d + 1):
        for _ in range(stride):
            # p < 2**31, so x*v[t] + v[t-1] stays below 2**62 + 2**31
            w = v * xs
            w[:, 1:] += v[:, :-1] * carry[1:]
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
