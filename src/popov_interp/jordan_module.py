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
representation, and ``residual`` returns one.
The engines build every row ``X**k . E_j`` they read with one routine,
``strided_powers``: residuals ``P . E`` of a polynomial matrix against a
module matrix use ``p . e = sum_k p_k * (X**k . e)``, the coefficients of
P times the stacked Krylov rows at stride 1, one modular matrix product,
each column of P read only to its own length, and the known-degree
rebuild takes the rows at the stride of its expansion.  Verification
reads its own table of these rows (``mib_engine.PowerTable``).  The
direct path, on lists of Python integers, identifies each block with a
truncated power series and computes ``p(X + x_j) * f_j  mod
X**(size_j)``, the prefix ``p(X + x_j) mod X**n`` taken once per
eigenvalue by ``ff_poly.taylor_prefix``, the library's one Taylor shift.  It shares no
code with the residual or with ``mib_engine.interpolant_check`` (both
products are ``linalg.matmul_mod``), and is the list reference both are
tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from . import linalg
from .ff_poly import Modulus, Poly, int_tuple, poly_mul_trunc, poly_trim, taylor_prefix
from .polymat import PolyMat

Block = Tuple[int, int]  # (eigenvalue, size)
ModuleRows = List[List[int]]


@dataclass(frozen=True)
class JordanSpec:
    """A Jordan matrix as its blocks, ``(eigenvalue, size)`` in constraint order.

    Blocks may come in any order and eigenvalues may repeat anywhere:
    reordering the blocks together with the column blocks of E only
    reorders the constraints, so the module of interpolants is the same.
    Eigenvalues and positive sizes are stored as Python ints (``int_tuple``).
    """

    blocks: Tuple[Block, ...]

    def __post_init__(self):
        xs = int_tuple((x for x, _ in self.blocks), "eigenvalues must be integers")
        sizes = int_tuple((n for _, n in self.blocks), "block sizes must be positive integers")
        if any(n <= 0 for n in sizes):
            raise ValueError("block sizes must be positive integers")
        object.__setattr__(self, "blocks", tuple(zip(xs, sizes)))

    @cached_property
    def offsets(self) -> Tuple[int, ...]:
        return tuple(itertools.accumulate((n for _, n in self.blocks), initial=0))[:-1]

    @cached_property
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
            # checked before x is reduced: True % p is 1
            x, *sizes = int_tuple((x, *sizes), "eigenvalues and block sizes must be integers")
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
    engines accept any block order, so this is only a canonical one.
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
            shifted[x] = taylor_prefix(pl, x, longest[x], p)
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


def _x_step(v: np.ndarray, xs: np.ndarray, carry: np.ndarray, p: int) -> np.ndarray:
    """X . v for a stack of residue rows v, as a new array."""
    # p < 2**31, so x*v[t] + v[t-1] stays below 2**62 + 2**31
    w = v * xs
    w[:, 1:] += v[:, :-1] * carry[1:]
    return np.remainder(w, p, out=w)


def strided_powers(
    rows: np.ndarray, jordan: JordanSpec, field: Modulus, counts: Sequence[int], stride: int
) -> np.ndarray:
    """The rows ``X**(k*stride) . rows[j]`` for k < counts[j], j-major, as
    one ``(sum(counts), sigma)`` int64 array.

    The rows are stepped together in order of counts, most first, so
    that those that are done drop off the end of the stack; no row is
    stepped past its last power.  The rows are residues, read as they are.
    """
    p = field.p
    xs, carry = column_action(jordan, p)
    order = sorted(range(len(counts)), key=lambda j: -counts[j])
    starts = np.cumsum((0,) + tuple(counts))[order]
    left = np.array(counts)[order]
    out = np.empty((int(sum(counts)), jordan.total), dtype=np.int64)
    v = np.asarray(rows, dtype=np.int64)[order]
    live = np.count_nonzero(left)
    out[starts[:live]] = v[:live]
    for k in range(1, int(left.max(initial=0))):
        live = np.count_nonzero(left > k)
        v = v[:live]
        for _ in range(stride):
            v = _x_step(v, xs, carry, p)
        out[starts[:live] + k] = v
    return out


def residual(pmat: PolyMat, rows: np.ndarray, jordan: JordanSpec) -> np.ndarray:
    """P . E as one Krylov-matrix product, an (nrows, sigma) int64 array.

    Column j of P is read to its own length n_j, the longest of its
    entries: the coefficients of X**k in p_ij for k < n_j, j-major, times
    the rows ``X**k . E_j`` for the same (j, k) from ``strided_powers``,
    reduced mod p.  Long columns are taken in slabs of powers to bound
    memory; a column that goes on past a slab starts the next one an X
    step past its last row.
    """
    p = pmat.field.p
    m = pmat.ncols
    if m != len(rows):
        raise ValueError("dimension mismatch between P and E")
    sigma = jordan.total
    lengths = pmat.lengths.max(0)
    out = np.zeros((pmat.nrows, sigma), dtype=np.int64)
    slab = max(1, _KRYLOV_SLAB // max(1, m * sigma))
    v = np.array(rows, dtype=np.int64)
    for lo in range(0, pmat.coeffs.shape[2], slab):
        counts = np.clip(lengths - lo, 0, slab)
        krylov = strided_powers(v, jordan, pmat.field, counts, 1)
        below = np.arange(counts.max()) < counts[:, None]
        part = linalg.matmul_mod(pmat.coeffs[:, :, lo : lo + slab][:, below], krylov, p)
        out = (out + part) % p
        going = lengths > lo + slab
        if going.any():
            v[going] = _x_step(krylov[np.cumsum(counts)[going] - 1], *column_action(jordan, p), p)
    return out
