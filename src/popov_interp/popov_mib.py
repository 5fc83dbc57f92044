"""Shifted Popov interpolation bases by divide and conquer.

The driver ``popov_mib`` never multiplies the two recursively computed
bases.  Instead it adds their pivot degrees - the sum is the minimal
degree of the full problem - and hands that to ``known_mindeg_mib``,
which rebuilds the canonical basis from scratch:

* the columns are partially linearized in degree ceil(sigma/m) against an
  expansion-compression gadget, so the expanded problem has at most 2m
  rows and a balanced shift; its module rows ``X**(k*chunk) . E_i`` are
  read off one strided Krylov array (``jordan_module.x_powers``);
* a minimal (weak Popov) basis R of the expanded problem is computed with
  the negated expanded degrees as shift, translated to be nonnegative;
* R necessarily has column degree equal to the expanded degrees and its
  leading matrix at those degrees is invertible; multiplying by the
  inverse and compressing back yields the Popov basis.

Feeding a wrong minimal degree surfaces as an exceeded column degree or a
singular leading matrix ("inconsistent minimal degree").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import linalg
from .ff_poly import Modulus, Poly, poly_add, poly_shift_up, poly_trim
from .jordan_module import residual, standardize, x_powers
from .mib_engine import (
    InterpInstance,
    MinimalDegree,
    iterative_mib,
    minimal_interpolation_basis,
    split_leading,
)
from .polymat import PolyMat


@dataclass(frozen=True)
class ExpansionPlan:
    """Partial-linearization data for one column-degree profile.

    Column i of the matrix to rebuild splits into ``alpha[i]`` chunks of
    degree below ``chunk``; ``deltabar`` lists the degree bound of every
    chunk (chunk, ..., chunk, beta[i] per group) and ``expansion`` is the
    mbar x m gadget with a single monomial X**(k*chunk) per row.
    """

    chunk: int
    alpha: Tuple[int, ...]
    beta: Tuple[int, ...]
    mbar: int
    deltabar: Tuple[int, ...]
    expansion: PolyMat
    group_offsets: Tuple[int, ...]


@dataclass
class SplitRecord:
    """One divide-and-conquer node, recorded for verification."""

    instance: InterpInstance
    cut: int
    left: PolyMat
    left_degree: MinimalDegree
    right: PolyMat
    right_degree: MinimalDegree
    mindeg: MinimalDegree
    popov: PolyMat


@dataclass
class KnownDegreeRecord:
    """Intermediate data of one known-minimal-degree rebuild."""

    instance: InterpInstance
    mindeg: MinimalDegree
    plan: ExpansionPlan
    engine_shift: Tuple[int, ...]
    rbasis: PolyMat
    leading: List[List[int]]
    popov: PolyMat


def build_expansion(
    mindeg: MinimalDegree, m: int, sigma: int, field: Modulus
) -> ExpansionPlan:
    """Expansion plan for a degree profile; requires sigma >= m >= 1."""
    if m < 1 or sigma < m:
        raise ValueError("base case does not linearize")
    if len(mindeg) != m:
        raise ValueError("minimal degree length does not match m")
    if any(d < 0 for d in mindeg):
        raise ValueError("minimal degrees must be nonnegative")
    chunk = -(-sigma // m)
    alpha = tuple(d // chunk + 1 for d in mindeg)
    beta = tuple(d - (a - 1) * chunk for d, a in zip(mindeg, alpha))
    deltabar: List[int] = []
    rows: List[List[Poly]] = []
    offsets: List[int] = []
    for i, a in enumerate(alpha):
        offsets.append(len(rows))
        for k in range(a):
            deltabar.append(chunk if k < a - 1 else beta[i])
            row: List[Poly] = [[] for _ in range(m)]
            row[i] = poly_shift_up([1], k * chunk)
            rows.append(row)
    return ExpansionPlan(
        chunk=chunk,
        alpha=alpha,
        beta=beta,
        mbar=len(rows),
        deltabar=tuple(deltabar),
        expansion=PolyMat(field, rows),
        group_offsets=tuple(offsets),
    )


def _leading_at_degrees(rbasis: PolyMat, deltabar: Tuple[int, ...]):
    """Coefficient of degree deltabar[u] of entry (t, u), or None if some
    entry exceeds that degree."""
    lead = []
    for row in rbasis.rows:
        out = []
        for u, e in enumerate(row):
            if len(e) - 1 > deltabar[u]:
                return None
            out.append(e[deltabar[u]] if len(e) > deltabar[u] else 0)
        lead.append(out)
    return lead


def _normalize_linearized(linv, rbasis: PolyMat, deltabar) -> PolyMat:
    """linv * R computed on the column-linearized constant matrix."""
    p = rbasis.field.p
    mbar = rbasis.nrows
    widths = [d + 1 for d in deltabar]
    starts = [0] * len(widths)
    for u in range(1, len(widths)):
        starts[u] = starts[u - 1] + widths[u - 1]
    total = starts[-1] + widths[-1]
    flat = np.zeros((mbar, total), dtype=np.int64)
    for t, row in enumerate(rbasis.rows):
        for u, e in enumerate(row):
            if e:
                flat[t, starts[u] : starts[u] + len(e)] = e
    prod = linalg.matmul_mod(np.asarray(linv, dtype=np.int64), flat, p)
    rows = []
    for t in range(mbar):
        rows.append(
            [
                poly_trim([int(c) for c in prod[t, starts[u] : starts[u] + widths[u]]])
                for u in range(len(widths))
            ]
        )
    return PolyMat(rbasis.field, rows)


def known_mindeg_mib(
    inst: InterpInstance,
    mindeg: MinimalDegree,
    trace: Optional[list] = None,
) -> PolyMat:
    """The s-Popov interpolation basis, given its true diagonal degrees.

    Raises ValueError("inconsistent minimal degree") when the supplied
    degrees cannot be the minimal degree of the instance.
    """
    field = inst.field
    m = inst.m
    sigma = inst.sigma
    mindeg = tuple(int(d) for d in mindeg)
    plan = build_expansion(mindeg, m, sigma, field)

    krylov = x_powers(inst.E, inst.jordan, field, max(plan.alpha) - 1, plan.chunk)
    ebar = [krylov[k, i].tolist() for i, a in enumerate(plan.alpha) for k in range(a)]
    engine_shift = tuple(plan.chunk - d for d in plan.deltabar)
    rinst = InterpInstance(field, ebar, inst.jordan, engine_shift)
    rbasis = minimal_interpolation_basis(rinst)

    lead = _leading_at_degrees(rbasis, plan.deltabar)
    if lead is None:
        raise ValueError("inconsistent minimal degree")
    linv = linalg.inv_mod(lead, field.p)
    if linv is None:
        raise ValueError("inconsistent minimal degree")
    pbar = _normalize_linearized(linv, rbasis, plan.deltabar)

    rows = []
    for i in range(m):
        src = pbar.rows[plan.group_offsets[i] + plan.alpha[i] - 1]
        row = []
        for j in range(m):
            acc: Poly = []
            off = plan.group_offsets[j]
            for k in range(plan.alpha[j]):
                e = src[off + k]
                if e:
                    acc = poly_add(acc, poly_shift_up(e, k * plan.chunk), field.p)
            row.append(acc)
        rows.append(row)
    popov = PolyMat(field, rows)
    if trace is not None:
        trace.append(
            KnownDegreeRecord(
                instance=inst,
                mindeg=mindeg,
                plan=plan,
                engine_shift=engine_shift,
                rbasis=rbasis,
                leading=lead,
                popov=popov,
            )
        )
    return popov


def popov_mib(
    inst: InterpInstance, trace: Optional[list] = None
) -> Tuple[PolyMat, MinimalDegree]:
    """The s-Popov interpolation basis and the s-minimal degree.

    Constraints at most m are handled by ``iterative_mib``.  Otherwise
    the constraint space splits at ceil(sigma/2): the first half is
    solved, its residual provides the second half, the second call runs
    with the shift increased by the first pivot degrees, and the two
    degree tuples are summed and fed to the known-degree rebuild.
    """
    m = inst.m
    sigma = inst.sigma
    if sigma <= m:
        return iterative_mib(inst)

    inst1, blocks2, cut = split_leading(inst)
    p1, d1 = popov_mib(inst1, trace)
    rem = residual(p1, inst.E, inst.jordan)
    j2, e2 = standardize(blocks2, [r[cut:] for r in rem])
    shift2 = tuple(sv + dv for sv, dv in zip(inst.shift, d1))
    inst2 = InterpInstance(inst.field, e2, j2, shift2)
    p2, d2 = popov_mib(inst2, trace)

    mindeg = tuple(a + b for a, b in zip(d1, d2))
    popov = known_mindeg_mib(inst, mindeg, trace)
    if trace is not None:
        trace.append(
            SplitRecord(
                instance=inst,
                cut=cut,
                left=p1,
                left_degree=d1,
                right=p2,
                right_degree=d2,
                mindeg=mindeg,
                popov=popov,
            )
        )
    return popov, mindeg
