"""Shifted Popov interpolation bases: PopovMib -> KnownDegreeMib -> Mib.

``popov_mib`` follows the paper's PopovMib.  Up to the Mib's base case,
sigma <= ``mib_engine.LEAF * m``, it takes the Mib's base case too:
``iterative_mib``, one elimination and one normalization.  Above that
bound it solves the instance with ``minimal_interpolation_basis`` and
keeps only the pivot degrees: the shifted pivot degrees of any shifted
diagonal weak Popov basis are the shifted minimal degree of the
instance.  It hands them to ``known_mindeg_mib``, which builds the
canonical basis from scratch, once, at the root:

* the columns are partially linearized in degree ceil(sigma/m) against
  an expansion-compression gadget, so the expanded problem has at most
  2m rows and a balanced shift, which is what keeps the Mib's recursion
  within the paper's cost bound for any shift; its module rows
  ``X**(k*chunk) . E_i`` are stepped for each column only as far as
  its chunks go (``jordan_module.strided_powers``);
* a minimal (weak Popov) basis R of the expanded problem is computed by
  ``minimal_interpolation_basis`` with the negated expanded degrees as
  shift, translated to be nonnegative;
* R necessarily has column degree equal to the expanded degrees and its
  leading matrix at those degrees is invertible; both are read from R's
  packed coefficients as they are stored, the last-chunk rows of the
  inverse leading matrix times those coefficients are the Popov rows in
  expanded form, and adding the shifted chunks compresses them back.

A degree that is not the minimal degree of the instance raises
ValueError("inconsistent minimal degree") when it shows up as a sum past
sigma, before anything is built, an exceeded column degree, a singular
leading matrix, or a result that is not in s-Popov form with those
diagonal degrees.  A basis that comes back is therefore an s-Popov
matrix with the given degrees whose rows are interpolants.  That it
generates the module is not checked: it does when the degrees sum to the
true minimal degree sum, the degree of the determinant of every
interpolation basis, but a wrong degree tuple with a larger sum, at most
sigma, can pass and yield a basis of a proper submodule.

This departs from the paper, which normalizes at every node of the
recursion so that every intermediate basis has O(m*sigma) coefficients
for any shift.  Here only the root is normalized, and the Mib's bases
are not so bounded: on ``apps.adversarial_instance(8, 256, 0)`` (16
rows, sigma = 256, one leaf) the Mib's basis has 18,007 coefficients
against the Popov basis's 2,334 and 16*(sigma+1) = 4,112.  The degree
solve also forms the root's product, of which only the pivot degrees
are read: a dense array of at most m*m*(sigma+1) coefficients, the bound
``cli`` puts on an instance, dropped before the rebuild starts.  That
is the price of one recursion instead of a second one for the degrees.

Nothing is recorded along the way.  ``popov_mib`` calls
``iterative_mib``, the Mib and ``known_mindeg_mib``, and the rebuild
calls the Mib, through their module-level names here; the Mib recurses
through its own name in ``mib_engine``, so a caller that wants to see
every split wraps both bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import linalg, mib_engine
from .jordan_module import strided_powers
from .mib_engine import InterpInstance, MinimalDegree, iterative_mib, minimal_interpolation_basis
from .polymat import PolyMat, is_popov


@dataclass(frozen=True)
class ExpansionPlan:
    """Partial-linearization data for one column-degree profile.

    Column i of the matrix to rebuild splits into ``alpha[i]`` chunks,
    chunk k standing for the coefficients from degree ``k*chunk`` on;
    ``deltabar`` lists the degree bound of every chunk (``chunk`` for all
    but the last of a column, the remainder of the column degree for the
    last), column by column.
    """

    chunk: int
    alpha: Tuple[int, ...]
    deltabar: Tuple[int, ...]


def build_expansion(mindeg: MinimalDegree, m: int, sigma: int) -> ExpansionPlan:
    """Expansion plan for a degree profile of an instance with m rows and
    sigma constraints.

    Every column is cut into chunks of ceil(sigma/m), at least 1 so that
    sigma = 0 has a plan.  Each degree must be an integer, Python or
    numpy but not a bool, else ValueError.  A minimal degree sums to the
    colength, at most sigma, and a larger sum is an inconsistent minimal
    degree, a ValueError.  So the plan has at most 2m chunks,
    sum(mindeg)/chunk + m <= 2m, and the expanded shift is balanced, which
    keeps the rebuild's Mib within the paper's cost bound for any degree
    profile.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if len(mindeg) != m:
        raise ValueError("minimal degree length does not match m")
    if any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in mindeg):
        raise ValueError("minimal degrees must be integers")
    if any(d < 0 for d in mindeg):
        raise ValueError("minimal degrees must be nonnegative")
    if sum(mindeg) > sigma:
        raise ValueError("inconsistent minimal degree: the degrees sum past sigma")
    chunk = max(1, -(-sigma // m))
    alpha = tuple(d // chunk + 1 for d in mindeg)
    deltabar: List[int] = []
    for d, a in zip(mindeg, alpha):
        deltabar.extend([chunk] * (a - 1) + [d - (a - 1) * chunk])
    return ExpansionPlan(chunk=chunk, alpha=alpha, deltabar=tuple(deltabar))


def known_mindeg_mib(inst: InterpInstance, mindeg: MinimalDegree) -> PolyMat:
    """The s-Popov interpolation basis, given its true diagonal degrees.

    Raises ValueError("inconsistent minimal degree") when mindeg sums
    past sigma, the expanded basis exceeds the expanded degrees, its
    leading matrix is singular, or the result is not in s-Popov form
    with diagonal degrees mindeg;
    see the module docstring for what that does and does not catch.
    """
    field = inst.field
    p = field.p
    m = inst.m
    plan = build_expansion(mindeg, m, inst.sigma)  # checks mindeg first
    mindeg = tuple(int(d) for d in mindeg)

    ebar = strided_powers(inst.E, inst.jordan, field, plan.alpha, plan.chunk)
    engine_shift = tuple(plan.chunk - d for d in plan.deltabar)
    rinst = InterpInstance(field, ebar, inst.jordan, engine_shift)
    rbasis, _ = minimal_interpolation_basis(rinst)

    # R's column u has degree at most deltabar[u], and its coefficients
    # there are the leading matrix
    deltabar = np.array(plan.deltabar)
    if (rbasis.lengths > deltabar + 1).any():
        raise ValueError("inconsistent minimal degree")
    r = np.pad(rbasis.coeffs, ((0, 0), (0, 0), (0, deltabar.max() + 1 - rbasis.coeffs.shape[2])))
    linv = linalg.inv_mod(r[:, np.arange(len(deltabar)), deltabar], p)
    if linv is None:
        raise ValueError("inconsistent minimal degree")
    # only the last chunk row of each column group becomes a Popov row
    last = np.cumsum(plan.alpha) - 1
    pbar = linalg.matmul_mod(linv[last], r.reshape(len(r), -1), p).reshape(m, *r.shape[1:])

    # compress: chunk k of column j goes back in at degree k*chunk
    coeffs = np.zeros((m, m, max(mindeg) + 1), dtype=np.int64)
    chunks = [(j, k * plan.chunk) for j, a in enumerate(plan.alpha) for k in range(a)]
    for (j, lo), d, part in zip(chunks, plan.deltabar, pbar.transpose(1, 0, 2)):
        coeffs[:, j, lo : lo + d + 1] += part[:, : d + 1]
    coeffs %= p
    popov = PolyMat.from_coeffs(field, coeffs)
    diagonal = popov.lengths.diagonal().tolist()
    if diagonal != [d + 1 for d in mindeg] or not is_popov(popov, inst.shift):
        raise ValueError("inconsistent minimal degree")
    return popov


def popov_mib(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """The s-Popov interpolation basis and the s-minimal degree.

    Up to ``LEAF * m`` constraints, sigma = 0 included, this is
    ``iterative_mib``; above, the Mib's pivot degrees are fed to the
    known-degree rebuild.
    """
    if inst.sigma <= mib_engine.LEAF * inst.m:
        return iterative_mib(inst)
    mindeg = minimal_interpolation_basis(inst)[1]
    return known_mindeg_mib(inst, mindeg), mindeg
