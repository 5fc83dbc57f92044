"""Interpolation-basis engines and the independent verification oracle.

Every engine returns ``(basis, pivot degrees)``.

``iterative_mib`` processes the constraints one by one, M-Pade style:
at each constraint it computes a scalar discrepancy per basis row,
eliminates it from all rows using the minimal row, multiplies that row by
(X - x), and finally normalizes the accumulated weak Popov basis to the
canonical shifted Popov form.  It is the reference engine every other
path is checked against.

``minimal_interpolation_basis`` (the Mib) is the one divide-and-conquer
recursion: it cuts the constraint space in two (``split_leading``),
solves the left half, pushes the residual through, solves the right half
with the shift bumped by the left pivot degrees, and multiplies the two
bases.  Its output is a shifted diagonal weak Popov basis, never
normalized, so for unbalanced shifts it can be far larger than the
Popov basis; its pivot degrees are the shifted minimal degree.  The
module matrix ``InterpInstance.E`` is one ``(m, sigma)`` int64 array of
residues; the halves and the residual are column slices of such arrays,
so it keeps that form down to every leaf.  The halves keep the Jordan
blocks in constraint order: the engines read the blocks as a plain
sequence, in any order and with eigenvalues repeating anywhere, so no
column permutation happens inside the recursion.  The list-based
iterative engine and the verification path read ``E.tolist()``.

``kernel_oracle`` ignores all of that and sets up the degree-bounded
interpolants as a plain kernel computation over the base field; it is the
independent certificate used by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import linalg
from .ff_poly import Modulus, Poly, poly_mul_x_plus, poly_sub_scaled, poly_trim
from .jordan_module import JordanSpec, residual, residual_direct
from .polymat import PolyMat, matmul, weak_popov_to_popov

MinimalDegree = Tuple[int, ...]


@dataclass
class InterpInstance:
    """An interpolation problem: module rows E, Jordan data J, shift s.

    E may be given as rows of integers of any size or as an integer
    array; it is stored as a read-only ``(m, sigma)`` int64 array of
    residues.
    """

    field: Modulus
    E: np.ndarray
    jordan: JordanSpec
    shift: Tuple[int, ...]

    def __post_init__(self):
        self.shift = tuple(int(v) for v in self.shift)
        sigma = self.jordan.total
        m = len(self.E)
        if m != len(self.shift):
            raise ValueError("shift length must equal the number of rows of E")
        if m == 0:
            raise ValueError("E needs at least one row")
        p = self.field.p
        try:
            E = np.asarray(self.E, dtype=np.int64)
        except OverflowError:
            # beyond int64: reduce each entry first
            E = np.array([[c % p for c in r] for r in self.E], dtype=np.int64)
        if E.shape != (m, sigma):
            raise ValueError("E columns do not match the Jordan matrix size")
        E = E % p
        E.flags.writeable = False
        self.E = E

    @property
    def m(self) -> int:
        return self.E.shape[0]

    @property
    def sigma(self) -> int:
        return self.jordan.total


def interpolant_check(row: Sequence[Poly], inst: InterpInstance) -> bool:
    """True iff row . E vanishes under the module action."""
    if len(row) != inst.m:
        raise ValueError("row length does not match the instance")
    rmat = PolyMat(inst.field, [[list(e) for e in row]])
    res = residual_direct(rmat, inst.E.tolist(), inst.jordan)
    return not any(res[0])


def _iterative_engine(inst: InterpInstance):
    """Constraint-by-constraint elimination.

    Returns the raw basis rows and the per-row count of (X - x)
    multiplications.  Ties in s-degree go to the lowest row index, so the
    basis stays in s-diagonal weak Popov form throughout and that count
    is the pivot degree tuple.
    """
    field = inst.field
    p = field.p
    m = inst.m
    s = inst.shift

    basis: List[List[Poly]] = [
        [[1] if j == i else [] for j in range(m)] for i in range(m)
    ]
    res = inst.E.tolist()
    sdeg = list(s)
    steps = [0] * m

    for b, ((x, size), off) in enumerate(zip(inst.jordan.blocks, inst.jordan.offsets)):
        for ell in range(size):
            pos = off + ell
            cands = [i for i in range(m) if res[i][pos]]
            if not cands:
                continue
            pi = min(cands, key=lambda i: (sdeg[i], i))
            inv_d = pow(res[pi][pos], p - 2, p)
            brow = basis[pi]
            rrow = res[pi]
            for i in cands:
                if i == pi:
                    continue
                c = res[i][pos] * inv_d % p
                target = basis[i]
                for j in range(m):
                    if brow[j]:
                        target[j] = poly_sub_scaled(target[j], brow[j], c, p)
                ri = res[i]
                ri[pos:] = [(a - c * v) % p for a, v in zip(ri[pos:], rrow[pos:])]
            basis[pi] = [poly_mul_x_plus(e, -x, p) if e else [] for e in brow]
            # (X - x) acts blockwise; on the current block the eigenvalue
            # difference vanishes, leaving a plain coefficient shift
            for t in range(off + size - 1, pos, -1):
                rrow[t] = rrow[t - 1]
            rrow[pos] = 0
            for bb in range(b + 1, len(inst.jordan.blocks)):
                xb, nb = inst.jordan.blocks[bb]
                ob = inst.jordan.offsets[bb]
                cb = (xb - x) % p
                for t in range(ob + nb - 1, ob, -1):
                    rrow[t] = (rrow[t - 1] + cb * rrow[t]) % p
                rrow[ob] = cb * rrow[ob] % p
            sdeg[pi] += 1
            steps[pi] += 1
    return basis, steps


def iterative_weak_popov(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """Un-normalized s-diagonal weak Popov basis and its pivot degrees."""
    basis, steps = _iterative_engine(inst)
    return PolyMat(inst.field, basis), tuple(steps)


def iterative_mib(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """The s-Popov interpolation basis and its diagonal degrees."""
    basis, _ = _iterative_engine(inst)
    popov = weak_popov_to_popov(PolyMat(inst.field, basis), inst.shift)
    delta = tuple(len(popov.rows[i][i]) - 1 for i in range(inst.m))
    return popov, delta


def split_leading(inst: InterpInstance) -> Tuple[InterpInstance, JordanSpec]:
    """The leading sub-instance at cut ceil(sigma/2), and the trailing blocks.

    The cut may fall inside a block, in which case the block is divided
    into its leading and trailing principal parts with the same
    eigenvalue.  Both halves keep the blocks in constraint order.
    """
    cut = -(-inst.sigma // 2)
    blocks1, blocks2 = [], []
    pos = 0
    for x, n in inst.jordan.blocks:
        if pos + n <= cut:
            blocks1.append((x, n))
        elif pos >= cut:
            blocks2.append((x, n))
        else:
            blocks1.append((x, cut - pos))
            blocks2.append((x, pos + n - cut))
        pos += n
    inst1 = InterpInstance(inst.field, inst.E[:, :cut], JordanSpec(tuple(blocks1)), inst.shift)
    return inst1, JordanSpec(tuple(blocks2))


def minimal_interpolation_basis(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """A shifted diagonal weak Popov interpolation basis (not normalized)
    and its pivot degrees.

    Up to m constraints this is the iterative engine's raw output.
    Otherwise the left half from ``split_leading`` is solved into P1
    with pivot degrees d1; the residual of P1 against E, restricted to
    the trailing blocks, is the right half, solved into P2 under the
    shift bumped by d1.  P2 * P1 is an s-diagonal weak Popov
    interpolation basis with pivot degrees d1 + d2.
    """
    if inst.sigma <= inst.m:
        return iterative_weak_popov(inst)
    inst1, jordan2 = split_leading(inst)
    p1, d1 = minimal_interpolation_basis(inst1)
    rem = residual(p1, inst.E, inst.jordan)
    shift2 = tuple(sv + dv for sv, dv in zip(inst.shift, d1))
    inst2 = InterpInstance(inst.field, rem[:, inst1.sigma :], jordan2, shift2)
    p2, d2 = minimal_interpolation_basis(inst2)
    return matmul(p2, p1), tuple(a + b for a, b in zip(d1, d2))


def kernel_oracle(inst: InterpInstance, bound: int) -> List[List[Poly]]:
    """Basis of the space of interpolants with s-degree at most bound.

    Enumerates the monomial candidates X**k * e_i with k + s_i <= bound,
    maps each to its residual vector by the direct module action, and
    extracts the left kernel by Gaussian elimination over the base field.
    Completely independent of the basis engines.
    """
    field = inst.field
    p = field.p
    m = inst.m
    s = inst.shift
    sigma = inst.sigma
    counts = [max(0, bound - si + 1) for si in s]
    total = sum(counts)
    if total == 0:
        return []

    if sigma == 0:
        vectors = np.eye(total, dtype=np.int64)
    else:
        blocks = inst.jordan.blocks
        offsets = inst.jordan.offsets
        rows = np.zeros((total, sigma), dtype=np.int64)
        at = 0
        for i in range(m):
            if counts[i] == 0:
                continue
            v = inst.E[i]
            rows[at] = v
            at += 1
            for _ in range(1, counts[i]):
                w = np.zeros(sigma, dtype=np.int64)
                for (x, n), off in zip(blocks, offsets):
                    w[off + 1 : off + n] = v[off : off + n - 1]
                    w[off : off + n] = (w[off : off + n] + x * v[off : off + n]) % p
                v = w
                rows[at] = v
                at += 1
        vectors = linalg.left_nullspace(rows, p)

    out = []
    for vec in vectors:
        prow: List[Poly] = [[] for _ in range(m)]
        at = 0
        for i in range(m):
            coeffs = [int(vec[at + k]) for k in range(counts[i])]
            prow[i] = poly_trim(coeffs)
            at += counts[i]
        out.append(prow)
    return out
