"""Shifted Popov interpolation bases: PopovMib -> KnownDegreeMib -> Mib.

``popov_mib`` follows the paper's PopovMib: it first computes only the
degrees, the shifted minimal degree of the instance
(``mib_engine.minimal_degree``: the Mib's recursion with no basis on its
right spine and leaves that eliminate on E alone; the shifted pivot
degrees of any shifted diagonal weak Popov basis are that degree).  It
hands them to ``known_mindeg_mib``, which builds the canonical basis
from scratch, once, at the root:

* the columns are partially linearized in degree max(1, ceil(sigma/m))
  against an expansion-compression gadget, so the expanded problem has
  at most 2m rows and a balanced shift, for any sigma; its module rows
  ``X**(k*chunk) . E_i`` are read off one strided Krylov array
  (``jordan_module.x_powers``);
* a minimal (weak Popov) basis R of the expanded problem is computed by
  ``minimal_interpolation_basis`` with the negated expanded degrees as
  shift, translated to be nonnegative;
* R necessarily has column degree equal to the expanded degrees and its
  leading matrix at those degrees is invertible; R is packed once into a
  column-linearized constant matrix, the last-chunk rows of the inverse
  leading matrix times that array are the Popov rows in linearized form,
  and adding the shifted chunks compresses them back.

A degree that is not the minimal degree of the instance raises
ValueError("inconsistent minimal degree") when it shows up as an exceeded
column degree, a singular leading matrix, or a result that is not in
s-Popov form with those diagonal degrees.  A basis that comes back is
therefore an s-Popov matrix with the given degrees whose rows are
interpolants.  That it generates the module is not checked: it does
when the degrees sum to the true minimal degree sum, the degree of the
determinant of every interpolation basis, but a wrong degree tuple with
a larger sum can pass and yield a basis of a proper submodule.

This departs from the paper, which normalizes at every node of the
recursion so that every intermediate basis has O(m*sigma) coefficients
for any shift.  Here only the root is normalized, and the Mib's bases
are not so bounded: on ``apps.adversarial_instance(8, 256, 0)`` (16
rows, sigma = 256) the Mib's basis has 18,007 coefficients against
the Popov basis's 2,334 and 16*(sigma+1) = 4,112.  One recursion and
one rebuild are still faster there than a rebuild at every node.

Nothing is recorded along the way.  ``popov_mib`` calls
``minimal_degree`` and ``known_mindeg_mib``, and the rebuild calls the
Mib, through their module-level names here; ``minimal_degree`` and the
Mib recurse through their own names in ``mib_engine``, so a caller that
wants to see every split wraps those bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import linalg
from .jordan_module import x_powers
from .mib_engine import (
    InterpInstance,
    MinimalDegree,
    minimal_degree,
    minimal_interpolation_basis,
)
from .polymat import PolyMat, is_popov


@dataclass(frozen=True)
class ExpansionPlan:
    """Partial-linearization data for one column-degree profile.

    Column i of the matrix to rebuild splits into ``alpha[i]`` chunks,
    chunk k standing for the coefficients from degree ``k*chunk`` on;
    ``deltabar`` lists the degree bound of every chunk (``chunk`` for all
    but the last of a column, the remainder of the column degree for the
    last) and column i's chunks start at index ``group_offsets[i]``.
    """

    chunk: int
    alpha: Tuple[int, ...]
    deltabar: Tuple[int, ...]
    group_offsets: Tuple[int, ...]


def build_expansion(mindeg: MinimalDegree, m: int, sigma: int) -> ExpansionPlan:
    """Expansion plan for a degree profile, in chunks of max(1, ceil(sigma/m)).

    A minimal degree sums to at most sigma, so the plan has at most 2m
    chunks: sum(mindeg)/chunk + m <= 2m for sigma >= m, and
    sum(mindeg) + m <= sigma + m < 2m for chunks of 1 when sigma < m.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if len(mindeg) != m:
        raise ValueError("minimal degree length does not match m")
    if any(d < 0 for d in mindeg):
        raise ValueError("minimal degrees must be nonnegative")
    chunk = max(1, -(-sigma // m))
    alpha = tuple(d // chunk + 1 for d in mindeg)
    deltabar: List[int] = []
    offsets: List[int] = []
    for d, a in zip(mindeg, alpha):
        offsets.append(len(deltabar))
        deltabar.extend([chunk] * (a - 1) + [d - (a - 1) * chunk])
    return ExpansionPlan(
        chunk=chunk,
        alpha=alpha,
        deltabar=tuple(deltabar),
        group_offsets=tuple(offsets),
    )


def known_mindeg_mib(inst: InterpInstance, mindeg: MinimalDegree) -> PolyMat:
    """The s-Popov interpolation basis, given its true diagonal degrees.

    Raises ValueError("inconsistent minimal degree") when the expanded
    basis exceeds the expanded degrees, its leading matrix is singular,
    or the result is not in s-Popov form with diagonal degrees mindeg;
    see the module docstring for what that does and does not catch.
    """
    field = inst.field
    p = field.p
    m = inst.m
    mindeg = tuple(int(d) for d in mindeg)
    plan = build_expansion(mindeg, m, inst.sigma)

    krylov = x_powers(inst.E, inst.jordan, field, max(plan.alpha) - 1, plan.chunk)
    ebar = np.concatenate([krylov[:a, i] for i, a in enumerate(plan.alpha)])
    engine_shift = tuple(plan.chunk - d for d in plan.deltabar)
    rinst = InterpInstance(field, ebar, inst.jordan, engine_shift)
    rbasis, _ = minimal_interpolation_basis(rinst)

    # R column-linearized at deltabar: column u occupies the columns
    # starts[u] .. starts[u+1]-1, its coefficient of degree deltabar[u] last
    starts = np.cumsum((0,) + tuple(d + 1 for d in plan.deltabar))
    rcoeffs = rbasis.coeffs
    flat = np.zeros((rbasis.nrows, int(starts[-1])), dtype=np.int64)
    for u, bound in enumerate(plan.deltabar):
        if rcoeffs[:, u, bound + 1 :].any():
            raise ValueError("inconsistent minimal degree")
        n = min(bound + 1, rcoeffs.shape[2])
        flat[:, starts[u] : starts[u] + n] = rcoeffs[:, u, :n]
    lead = flat[:, starts[1:] - 1]
    linv = linalg.inv_mod(lead, p)
    if linv is None:
        raise ValueError("inconsistent minimal degree")
    # only the last chunk row of each column group becomes a Popov row
    last = [off + a - 1 for off, a in zip(plan.group_offsets, plan.alpha)]
    pbar = linalg.matmul_mod(linv[last], flat, p)

    coeffs = np.zeros((m, m, max(mindeg) + 1), dtype=np.int64)
    for j, (off, a) in enumerate(zip(plan.group_offsets, plan.alpha)):
        for k in range(a):
            u = off + k
            lo = k * plan.chunk
            coeffs[:, j, lo : lo + plan.deltabar[u] + 1] += pbar[:, starts[u] : starts[u + 1]]
    coeffs %= p
    popov = PolyMat.from_coeffs(field, coeffs)
    diagonal = popov.lengths.diagonal().tolist()
    if diagonal != [d + 1 for d in mindeg] or not is_popov(popov, inst.shift):
        raise ValueError("inconsistent minimal degree")
    return popov


def popov_mib(inst: InterpInstance) -> Tuple[PolyMat, MinimalDegree]:
    """The s-Popov interpolation basis and the s-minimal degree.

    The minimal degree is fed to the known-degree rebuild, for every
    instance, sigma = 0 included.
    """
    mindeg = minimal_degree(inst)
    return known_mindeg_mib(inst, mindeg), mindeg
