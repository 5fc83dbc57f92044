"""Interpolation-basis engines and the independent verification oracle.

Every engine returns ``(basis, pivot degrees)``.

``iterative_mib`` processes the constraints one by one, M-Pade style:
at each constraint it reads a scalar discrepancy per basis row,
eliminates it from all rows using the minimal row, multiplies that row by
(X - x), and finally normalizes the accumulated weak Popov basis to the
canonical shifted Popov form.  It is the reference engine every other
path is checked against.  Un-normalized, the same elimination is the
Mib's base case, ``iterative_weak_popov``.  It keeps one
``(m, sigma + m*(sigma+1))`` int64 array: row i holds the residual of
basis row i, in column order, then basis row i degree-major.  Columns
already processed are zero mod p in every row and the pivot row is zero
past its length bound n, so each constraint touches only the live window
``[pos, sigma + (n+1)*m)`` of that array, about ten numpy calls for the
whole step.  Reduction is lazy: a step reduces the discrepancy column
and the pivot row, which it reads, and every other row moves by less
than (p-1)**2, so the columns moved since the last remainder are
reduced once ``(2**63-1) // ((p-1)**2 + p) - 2`` steps have passed, and
at the end.  Near 2**31 that is after every step, and the step then
reduces nothing else.
The width of the array decides whether a basis is carried: on E alone,
width sigma, the same loop (``_eliminate``) gives the same pivots and
degrees and builds nothing else.

``minimal_interpolation_basis`` (the Mib) is the one divide-and-conquer
recursion: it cuts the constraint space in two (``split_leading``),
solves the left half, pushes the residual through, solves the right half
with the shift bumped by the left pivot degrees, and multiplies the two
bases.  Its output is a shifted diagonal weak Popov basis, never
normalized, so for unbalanced shifts it can be far larger than the
Popov basis; its pivot degrees are the shifted minimal degree.  Its
leaves hold up to ``LEAF * m`` constraints, not the paper's m, as each
node costs a residual, a product and their numpy call overhead; the
shift bump reproduces the elimination's s-degrees, so the output is the
same for any bound.  The halves and the residual are column slices of
``(m, sigma)`` int64 arrays of residues, like ``InterpInstance.E``, and
keep the Jordan blocks in constraint order.  Only the verification path
and the CLI read E as lists (``InterpInstance.module_rows``, converted
once per instance).

``minimal_degree`` is the same recursion restricted to what the paper's
PopovMib needs first, the degrees: its leaves eliminate on E alone, and
above a leaf it solves only the left half with the Mib, whose basis the
residual needs, and recurses on the right half, so the right spine
builds no basis and no product is formed at its nodes.  Both recursions
split, push the residual and bump the shift through ``solve_left``.

``kernel_oracle`` ignores all of that and sets up the degree-bounded
interpolants as a plain kernel computation over the base field; it is the
independent certificate used by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from . import linalg
from .ff_poly import Modulus, Poly
from .jordan_module import JordanSpec, column_action, residual, residual_direct
from .polymat import PolyMat, matmul, weak_popov_to_popov

MinimalDegree = Tuple[int, ...]

# the Mib's leaves take up to LEAF * m constraints (measured: of 16, 32
# and 64, 32 and 64 are no slower than 16 on any benchmark workload or
# bench size; 64 gains little more and makes every split test larger)
LEAF = 32


@dataclass
class InterpInstance:
    """An interpolation problem: module rows E, Jordan data J, shift s.

    E may be given as rows of integers of any size or as an integer
    array; it is stored as a read-only ``(m, sigma)`` int64 array of
    residues, and is not replaced afterwards.
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

    @cached_property
    def module_rows(self) -> List[List[int]]:
        """E as rows of Python integers, for the list-based verification path."""
        return self.E.tolist()


def interpolant_check(row: Sequence[Poly], inst: InterpInstance) -> bool:
    """True iff row . E vanishes under the module action."""
    if len(row) != inst.m:
        raise ValueError("row length does not match the instance")
    rmat = PolyMat(inst.field, [list(row)])
    res = residual_direct(rmat, inst.module_rows, inst.jordan)
    return not any(res[0])


def _eliminate(aug: np.ndarray, jordan: JordanSpec, p: int, shift: Sequence[int]):
    """Eliminate every constraint on the state array ``aug``, in place.

    Row i of ``aug`` holds the residual of basis row i in its first sigma
    columns; what follows, if anything, is basis row i degree-major, the
    coefficient of X**k in entry j at ``sigma + k*m + j``.  The width
    decides what is carried: ``sigma + m*(sigma+1)`` with the identity
    there carries the basis, ``sigma`` (E alone) carries none, and the
    pivots are the same either way.  Returns the pivot degrees and the
    basis length bound; the basis columns come back reduced.
    """
    m, width = aug.shape
    sigma = jordan.total
    xs, carry = column_action(jordan, p)
    # the multiplier of X - x is base - x: the eigenvalues on the residual,
    # 0 on the basis
    base = np.zeros(width, dtype=np.int64)
    base[:sigma] = xs
    link = carry[1:].astype(bool)  # column t takes column t-1's value
    xs = xs.tolist()
    sdeg = list(shift)
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
    # int64 holds: about every 7 steps for p = 998244353, never before the
    # end for p = 97, and after every step near 2**31, where that one
    # remainder is all the step reduces.
    budget = (2**63 - 1) // ((p - 1) ** 2 + p) - 2
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
        end = min(sigma + (n + 1) * m, width)
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
        if m - col.count(0) > 1:
            # eliminate the discrepancy from the other rows with the pivot
            # row; the multiplier is 0 on the pivot and on rows already zero
            inv = pow(col[pi], -1, p)
            c = [v * inv % p for v in col]
            c[pi] = 0
            for i, v in enumerate(col):
                if v and lens[i] < n:
                    lens[i] = n
            aug[:, pos:end] -= np.multiply.outer(c, row)
        row[:] = w
        lens[pi] = n + 1
        sdeg[pi] += 1
        hi = max(hi, end)
        steps += 1
        if steps >= budget:
            moved = aug[:, pos + 1 : hi]
            np.remainder(moved, p, out=moved)
            steps = hi = 0
    basis = aug[:, sigma:hi]
    np.remainder(basis, p, out=basis)
    return tuple(d - s for d, s in zip(sdeg, shift)), max(lens)


def iterative_weak_popov(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """Un-normalized s-diagonal weak Popov basis and its pivot degrees.

    Constraint-by-constraint elimination.  Ties in s-degree go to the
    lowest row index, so the basis stays in s-diagonal weak Popov form
    throughout and row i's pivot degree is its number of (X - x) factors.

    All state is one ``(m, sigma + m*(sigma+1))`` int64 array: row i
    holds its residual, then basis row i degree-major, the coefficient of
    X**k in entry j at ``sigma + k*m + j``, starting from the identity.
    At constraint ``pos`` the columns before pos are zero mod p in every
    row, and the pivot row is zero from its length bound n on, so the
    step works on the live window ``[pos, sigma + (n+1)*m)``: the residual
    from column pos on and the basis up to degree n, one basic slice.  The
    elimination subtracts c times the pivot row from every row at once (c
    is 0 on the pivot and on rows whose discrepancy is 0), and the pivot
    row is multiplied by X - x: X shifts its basis part by m and acts on
    its residual as one Jordan step.  Reduction is lazy: each step reduces
    the discrepancy column and the pivot row, and the columns moved since
    the last remainder are reduced only when int64 headroom runs out (see
    ``_eliminate``), and once at the end.  ``minimal_degree`` runs the
    same loop on E alone.
    """
    m, sigma = inst.m, inst.sigma
    aug = np.zeros((m, sigma + m * (sigma + 1)), dtype=np.int64)
    aug[:, :sigma] = inst.E
    aug[:, sigma : sigma + m] = np.eye(m, dtype=np.int64)  # the identity basis
    degrees, n = _eliminate(aug, inst.jordan, inst.field.p, inst.shift)
    basis = aug[:, sigma : sigma + n * m].reshape(m, n, m).transpose(0, 2, 1)
    return PolyMat.from_coeffs(inst.field, np.ascontiguousarray(basis)), degrees


def iterative_mib(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """The s-Popov interpolation basis and its diagonal degrees."""
    weak, delta = iterative_weak_popov(inst)
    return weak_popov_to_popov(weak, inst.shift), delta


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


def solve_left(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree, InterpInstance]:
    """The left half's basis P1 and pivot degrees d1, and the right half.

    The left half from ``split_leading`` is solved by the Mib; the right
    half is the residual of P1 against E, restricted to the trailing
    blocks, under the shift bumped by d1.
    """
    inst1, jordan2 = split_leading(inst)
    p1, d1 = minimal_interpolation_basis(inst1)
    rem = residual(p1, inst.E, inst.jordan)
    shift2 = tuple(sv + dv for sv, dv in zip(inst.shift, d1))
    return p1, d1, InterpInstance(inst.field, rem[:, inst1.sigma :], jordan2, shift2)


def minimal_interpolation_basis(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """A shifted diagonal weak Popov interpolation basis (not normalized)
    and its pivot degrees.

    Up to ``LEAF * m`` constraints this is ``iterative_weak_popov``.
    Otherwise ``solve_left`` gives the left half's basis P1, its pivot
    degrees d1 and the right half, which is solved into P2 with pivot
    degrees d2.  P2 * P1 is an s-diagonal weak Popov interpolation basis
    with pivot degrees d1 + d2.
    """
    if inst.sigma <= LEAF * inst.m:
        return iterative_weak_popov(inst)
    p1, d1, inst2 = solve_left(inst)
    p2, d2 = minimal_interpolation_basis(inst2)
    return matmul(p2, p1), tuple(a + b for a, b in zip(d1, d2))


def minimal_degree(inst: InterpInstance) -> MinimalDegree:
    """The s-minimal degree: the Mib's pivot degrees, without its basis.

    A leaf eliminates on E alone.  Above a leaf only the left half needs
    a basis, for the residual; the right half is again a degree problem,
    so the right spine builds no basis and no product is formed.
    """
    if inst.sigma <= LEAF * inst.m:
        return _eliminate(np.array(inst.E), inst.jordan, inst.field.p, inst.shift)[0]
    _, d1, inst2 = solve_left(inst)
    return tuple(a + b for a, b in zip(d1, minimal_degree(inst2)))


def kernel_oracle(inst: InterpInstance, bound: int) -> List[List[Poly]]:
    """Basis of the space of interpolants with s-degree at most bound.

    Enumerates the monomial candidates X**k * e_i with k + s_i <= bound,
    maps each to its residual vector X**k . E_i, and extracts the left
    kernel by Gaussian elimination over the base field.  The vectors come
    from one X step per power on all rows of E at once, with the oracle's
    own per-column eigenvalues (reduced mod p first) and block starts.
    Completely independent of the basis engines.
    """
    p = inst.field.p
    counts = np.array([max(0, bound - si + 1) for si in inst.shift])
    if not counts.any():
        return []
    # its own column data: the eigenvalue mod p, and where blocks start
    blocks = inst.jordan.blocks
    xs = np.repeat([x % p for x, _ in blocks], [n for _, n in blocks]).astype(np.int64)
    carry = np.ones(inst.sigma, dtype=np.int64)
    carry[list(inst.jordan.offsets)] = 0
    # powers[k, i] = X**k . E_i, one step on all rows of E per power
    powers = np.empty((counts.max(), inst.m, inst.sigma), dtype=np.int64)
    powers[0] = inst.E
    for k in range(1, len(powers)):
        v = powers[k - 1]
        w = v * xs
        w[:, 1:] += v[:, :-1] * carry[1:]
        powers[k] = w % p
    # the candidates X**k * e_i with k < counts[i], i-major, so a kernel
    # vector holds entry i's coefficients, low degree first, in segment i
    below = np.arange(len(powers)) < counts[:, None]
    vectors = linalg.left_nullspace(powers.transpose(1, 0, 2)[below], p)
    if not len(vectors):
        return []
    coeffs = np.zeros((len(vectors),) + below.shape, dtype=np.int64)
    coeffs[:, below] = vectors
    return PolyMat.from_coeffs(inst.field, coeffs).rows
