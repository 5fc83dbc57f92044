"""Interpolation-basis engines and the independent verification oracle.

Every engine returns ``(basis, pivot degrees)``.

``iterative_weak_popov`` is the one elimination kernel.  It processes
the constraints one by one, M-Pade style: at each constraint it reads a
scalar discrepancy per basis row, eliminates it from all rows using the
minimal row and multiplies that row by (X - x).  Its s-diagonal weak
Popov basis is the Mib's base case.  ``iterative_mib`` normalizes it to
the canonical shifted Popov form: it is the reference engine the
known-degree rebuild is checked against, and also PopovMib's base case,
as ``popov_mib`` returns it up to ``LEAF * m`` constraints.  What stays
independent of the kernel is ``kernel_oracle``'s kernel dimensions, the
generation certificate of the CLI's ``check`` and the golden bases the
tests record.

``minimal_interpolation_basis`` (the Mib) is the one divide-and-conquer
recursion, the paper's step in one function: it cuts the constraint
space in two (``split_leading``, which also names the block holding the
cut), solves the left half, pushes the residual through, solves the
right half with the shift bumped by the left pivot degrees, and
multiplies the two bases.  The residual is formed only from the block
holding the cut on: the left basis's residual vanishes before the cut.
Its output is a shifted diagonal weak Popov basis, never normalized, so
for unbalanced shifts it can be far larger than the Popov basis; its
pivot degrees are the shifted minimal degree, which is what
``popov_mib`` reads of it.  Its leaves hold up to ``LEAF * m``
constraints, not the paper's m, as each node costs a residual, a product
and their numpy call overhead; the shift bump reproduces the
elimination's s-degrees, so the output is the same for any bound.  The
halves and the residual are column slices of ``(m, sigma)`` int64 arrays
of residues, like ``InterpInstance.E``, and keep the Jordan blocks in
constraint order.

``interpolant_check`` verifies a row from the definition of the module
action, ``p . E = sum_k p_k (X**k . E)``: it gathers the rows
``X**k . E_j`` that the row's coefficients meet from the instance's
``PowerTable`` and takes one exact ``linalg.matmul_mod``.  The product
is shared with the engines, as ``linalg.rank_mod`` is with the benchmark
gate; what keeps the check independent is the table, which steps E with
its own per-column Jordan data, not the engines' ``column_action``, and
grows column j only as far as the longest entry checked in column j.
``jordan_module.residual_direct``, on lists, is the reference the tests
hold the check to.

``kernel_oracle`` ignores the engines and sets up the degree-bounded
interpolants as a plain kernel computation over the base field, on the
candidate vectors ``X**k . E_i`` of the same table; it is the
independent certificate used by the acceptance suite.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import linalg
from .ff_poly import Modulus, Poly, int_tuple, residue_array
from .jordan_module import JordanSpec, column_action, residual
from .polymat import PolyMat, matmul, weak_popov_to_popov

MinimalDegree = Tuple[int, ...]

# the Mib's leaves take up to LEAF * m constraints (measured: of 16, 32
# and 64, 32 and 64 are no slower than 16 on any benchmark workload or
# bench size; 64 gains little more and makes every split test larger)
LEAF = 32


@dataclass
class InterpInstance:
    """An interpolation problem: module rows E, Jordan data J, shift s.

    E, rows of integers of any size or an integer array, is stored as a
    read-only ``(m, sigma)`` int64 array of residues (``residue_array``),
    and is not replaced afterwards; s as Python ints (``int_tuple``).
    """

    field: Modulus
    E: np.ndarray
    jordan: JordanSpec
    shift: Tuple[int, ...]

    def __post_init__(self):
        self.shift = int_tuple(self.shift, "shift entries must be integers")
        m = len(self.E)
        if m != len(self.shift):
            raise ValueError("shift length must equal the number of rows of E")
        if m == 0:
            raise ValueError("E needs at least one row")
        E = residue_array(self.E, self.field.p, "E entries")
        if E.shape != (m, self.jordan.total):
            raise ValueError("E columns do not match the Jordan matrix size")
        E.flags.writeable = False
        self.E = E

    @property
    def m(self) -> int:
        return self.E.shape[0]

    @property
    def sigma(self) -> int:
        return self.jordan.total

    @cached_property
    def powers(self) -> "PowerTable":
        """The rows ``X**k . E_j`` that verification, check's generation
        certificate and the oracle read."""
        return PowerTable(self)


class PowerTable:
    """The rows ``X**k . E_j`` of an instance, per column j, grown on demand.

    Column j is an ``(n_j, sigma)`` int64 array of residues whose row k is
    ``X**k . E_j``; it starts as ``E_j`` and grows only to the longest
    length asked of it.  The steps use the table's own column data, each
    eigenvalue reduced mod p and a flag that is False where a block
    starts: X maps v to ``x*v + v shifted`` with no carry into a block
    start.
    """

    def __init__(self, inst: InterpInstance):
        p = self.p = inst.field.p
        blocks = inst.jordan.blocks
        xs = np.repeat([x % p for x, _ in blocks], [n for _, n in blocks])
        self.xs = xs.astype(np.int64)
        self.carry = np.ones(inst.sigma, dtype=bool)
        self.carry[list(inst.jordan.offsets)] = False
        self.columns = [inst.E[j : j + 1] for j in range(inst.m)]

    def gather(self, lengths: Sequence[int]) -> np.ndarray:
        """The rows ``X**k . E_j`` for k < lengths[j], j-major, as one
        ``(sum(lengths), sigma)`` array."""
        short = {j: n for j, n in enumerate(lengths) if n > len(self.columns[j])}
        if short:
            self._grow(short)
        return np.concatenate([c[:n] for c, n in zip(self.columns, lengths)])

    def _grow(self, want: Dict[int, int]) -> None:
        """Extend column j to want[j] rows, stepping the columns together.

        The columns run in order of steps left, most first, so those that
        finish drop off the end of the stacked rows; each run between two
        finishes is stepped into one buffer, so nothing is stepped past
        its column's length.
        """
        p, xs, carry, cols = self.p, self.xs, self.carry, self.columns
        left = {j: n - len(cols[j]) for j, n in want.items()}
        order = sorted(left, key=left.get, reverse=True)
        parts = {j: [cols[j]] for j in order}
        v = np.stack([cols[j][-1] for j in order])
        done = 0
        while order:
            run = left[order[-1]] - done
            buf = np.empty((run,) + v.shape, dtype=np.int64)
            for w in buf:
                # residues below p < 2**31: x*v[t] + v[t-1] < 2**62 + 2**31
                np.multiply(v, xs, out=w)
                np.add(w[:, 1:], v[:, :-1], out=w[:, 1:], where=carry[1:])
                v = np.remainder(w, p, out=w)
            for i, j in enumerate(order):
                parts[j].append(buf[:, i])
            done += run
            while order and left[order[-1]] == done:
                j = order.pop()
                cols[j] = np.concatenate(parts.pop(j))
            v = v[: len(order)]


def interpolant_check(row: Sequence[Poly], inst: InterpInstance) -> bool:
    """True iff row . E vanishes under the module action.

    Computed from the definition ``p . E = sum_k p_k (X**k . E)``: the
    row's coefficients, read mod p by ``ff_poly.residue_array``, entry j
    low degree first, times the rows ``X**k . E_j`` gathered from
    ``inst.powers``, one exact ``linalg.matmul_mod``.  Entries may be
    untrimmed, longer than sigma, negative or beyond int64.
    ``jordan_module.residual_direct``, the list computation of the same
    action, is the reference the tests compare this with.
    """
    if len(row) != inst.m:
        raise ValueError("row length does not match the instance")
    p = inst.field.p
    lengths = [len(e) for e in row]
    c = residue_array(list(itertools.chain.from_iterable(row)), p, "coefficients")
    return not linalg.matmul_mod(c[None], inst.powers.gather(lengths), p).any()


def iterative_weak_popov(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """Un-normalized s-diagonal weak Popov basis and its pivot degrees.

    Constraint-by-constraint elimination.  Ties in s-degree go to the
    lowest row index, so the basis stays in s-diagonal weak Popov form
    throughout and row i's pivot degree is its number of (X - x) factors.

    All state is one ``(m, sigma + m*(sigma+1))`` integer array: row i
    holds the residual of basis row i, in column order, then basis row i
    degree-major, the coefficient of X**k in entry j at
    ``sigma + k*m + j``, starting from E and the identity.  At constraint
    ``pos`` the columns before pos are zero mod p in every row, and the
    pivot row is zero from its length bound n on, so the step works on
    the live window ``[pos, sigma + (n+1)*m)``: the residual from column
    pos on and the basis up to degree n, one basic slice and about ten
    numpy calls.  The elimination subtracts c times the pivot row from
    every row at once (c is 0 on the pivot and on rows whose discrepancy
    is 0), and the pivot row is multiplied by X - x: X shifts its basis
    part by m and acts on its residual as one Jordan step.  Reduction is
    lazy: a step reduces the discrepancy column and the pivot row, which
    it reads, and the columns moved since the last remainder are reduced
    only when the state type's headroom runs out, and once at the end.

    The state type follows from p and sigma.  It is int32 when int32's
    headroom lasts all sigma steps, which then take no remainder before
    the end; int64's larger headroom takes none either, so int32 runs
    the same steps on the same values in half the bytes.  Otherwise, as
    for p = 998244353, it is int64.
    """
    m, sigma, p = inst.m, inst.sigma, inst.field.p
    # a step moves a value by less than step_bound (see budget below)
    step_bound = (p - 1) ** 2 + p
    dtype = np.int32 if (2**31 - 1) // step_bound - 2 >= sigma else np.int64
    aug = np.zeros((m, sigma + m * (sigma + 1)), dtype=dtype)
    aug[:, :sigma] = inst.E
    aug[:, sigma : sigma + m] = np.eye(m, dtype=dtype)  # the identity basis
    xs, carry = column_action(inst.jordan, p)
    # the multiplier of X - x is base - x: the eigenvalues on the residual,
    # 0 on the basis
    base = np.zeros(aug.shape[1], dtype=dtype)
    base[:sigma] = xs
    link = carry[1:].astype(bool)  # column t takes column t-1's value
    xs = xs.tolist()
    sdeg = list(inst.shift)
    lens = [1] * m  # row i is zero from degree lens[i] on

    # Each step moves only its window [pos, end).  The values it reads,
    # the discrepancy column, in Python, and the pivot row's window, are
    # reduced first, unless nothing has moved since the last remainder.
    # A step sets the pivot row to a residue times a difference of
    # residues plus a residue, within (p-1)**2 + p of zero, and subtracts
    # a residue times a residue, less than (p-1)**2, from every other row.
    # So after k steps since the last remainder every value is within
    # k*((p-1)**2 + p) of zero, and the columns moved since then, pos+1
    # to hi, are reduced once budget steps have passed, two short of what
    # the state type holds.  In int32, chosen only when that budget is at
    # least sigma (up to p = 4057 at sigma = 128, and sigma up to about
    # 230,000 at p = 97), no remainder is taken before the end.  In int64
    # it is about every 7 steps for p = 998244353, and after every step
    # near 2**31, where that one remainder is all the step reduces.
    budget = int(np.iinfo(dtype).max) // step_bound - 2
    steps = 0
    hi = 0  # the columns from hi on are reduced
    for pos in range(sigma):
        col = aug[:, pos].tolist()
        if steps:
            col = [v % p for v in col]
        pi = -1
        for i, v in enumerate(col):
            if v and (pi < 0 or sdeg[i] < sdeg[pi]):
                pi = i
        if pi < 0:
            continue
        n = lens[pi]
        end = sigma + (n + 1) * m
        row = aug[pi, pos:end]
        if steps:
            np.remainder(row, p, out=row)
        r = sigma - pos  # the basis starts at row[r]
        # the pivot row times X - x, x the eigenvalue of this constraint:
        # on the basis X shifts by m; on the residual it is one Jordan step,
        # which clears column pos and shifts the rest of its block
        w = row * (base[pos:end] - xs[pos])
        np.add(w[1:r], row[: r - 1], out=w[1:r], where=link[pos:])
        w[r + m :] += row[r:-m]
        # eliminate the discrepancy from the other rows with the pivot
        # row; the multiplier is 0 on the pivot and on rows already zero
        inv = pow(col[pi], -1, p)
        c = [v * inv % p for v in col]
        c[pi] = 0
        for i, v in enumerate(col):
            if v and lens[i] < n:
                lens[i] = n
        aug[:, pos:end] -= np.multiply.outer(np.array(c, dtype), row)
        row[:] = w
        lens[pi] = n + 1
        sdeg[pi] += 1
        hi = max(hi, end)
        steps += 1
        if steps >= budget:
            moved = aug[:, pos + 1 : hi]
            np.remainder(moved, p, out=moved)
            steps = hi = 0
    n = max(lens)
    basis = aug[:, sigma : sigma + n * m]
    np.remainder(basis, p, out=basis)
    basis = basis.reshape(m, n, m).transpose(0, 2, 1)
    degrees = tuple(d - s for d, s in zip(sdeg, inst.shift))
    return PolyMat.from_coeffs(inst.field, np.ascontiguousarray(basis)), degrees


def iterative_mib(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """The s-Popov interpolation basis and its diagonal degrees."""
    weak, delta = iterative_weak_popov(inst)
    return weak_popov_to_popov(weak, inst.shift), delta


def split_leading(inst: InterpInstance) -> Tuple[InterpInstance, int, JordanSpec]:
    """The leading sub-instance at cut ceil(sigma/2), the index b of the
    block holding the cut, and the trailing blocks.

    b is found with one bisection of the block offsets; on a block
    boundary it is the block that starts at the cut.  A cut inside block
    b divides it into its leading and trailing principal parts with the
    same eigenvalue.  Both halves keep the blocks in constraint order.
    """
    cut = -(-inst.sigma // 2)
    blocks, offsets = inst.jordan.blocks, inst.jordan.offsets
    b = bisect.bisect_right(offsets, cut) - 1
    x, n = blocks[b]
    head = cut - offsets[b]  # 0 on a boundary, n only at sigma = 1
    blocks1 = blocks[:b] + ((x, head),) * (head > 0)
    blocks2 = ((x, n - head),) * (head < n) + blocks[b + 1 :]
    inst1 = InterpInstance(inst.field, inst.E[:, :cut], JordanSpec(blocks1), inst.shift)
    return inst1, b, JordanSpec(blocks2)


def minimal_interpolation_basis(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """A shifted diagonal weak Popov interpolation basis (not normalized)
    and its pivot degrees.

    Up to ``LEAF * m`` constraints this is ``iterative_weak_popov``.
    Otherwise the left half is solved into P1 with pivot degrees d1, and
    P1's residual, which vanishes left of the cut, is formed from the
    start of the block holding the cut on (``split_leading``'s b), as X
    carries across a cut inside a block.  Its
    columns from the cut on, under the shift bumped by d1, are solved
    into P2 with pivot degrees d2; P2 * P1 is an s-diagonal weak Popov
    interpolation basis with pivot degrees d1 + d2.
    """
    if inst.sigma <= LEAF * inst.m:
        return iterative_weak_popov(inst)
    inst1, b, jordan2 = split_leading(inst)
    p1, d1 = minimal_interpolation_basis(inst1)
    start = inst.jordan.offsets[b]
    rem = residual(p1, inst.E[:, start:], JordanSpec(inst.jordan.blocks[b:]))
    shift2 = tuple(s + d for s, d in zip(inst.shift, d1))
    inst2 = InterpInstance(inst.field, rem[:, inst1.sigma - start :], jordan2, shift2)
    del inst1, rem  # inst2 holds a copy: neither lives through the right solve
    p2, d2 = minimal_interpolation_basis(inst2)
    return matmul(p2, p1), tuple(u + v for u, v in zip(d1, d2))


def kernel_oracle(inst: InterpInstance, bound: int) -> List[List[Poly]]:
    """Basis of the space of interpolants with s-degree at most bound.

    Enumerates the monomial candidates X**k * e_i with k + s_i <= bound,
    maps each to its residual vector X**k . E_i, read from the instance's
    ``PowerTable``, and extracts the left kernel by Gaussian elimination
    over the base field.  Completely independent of the basis engines.
    """
    counts = [max(0, bound - si + 1) for si in inst.shift]
    if not any(counts):
        return []
    # the candidates i-major, so a kernel vector holds entry i's
    # coefficients, low degree first, in segment i
    vectors = linalg.left_nullspace(inst.powers.gather(counts), inst.field.p)
    if not len(vectors):
        return []
    below = np.arange(max(counts)) < np.array(counts)[:, None]
    coeffs = np.zeros((len(vectors),) + below.shape, dtype=np.int64)
    coeffs[:, below] = vectors
    return PolyMat.from_coeffs(inst.field, coeffs).rows
