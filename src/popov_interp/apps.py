"""Applications of the interpolation solver.

* order bases / Hermite-Pade approximation: all rows p with
  p . F_j = 0 mod X**(order_j), solved by encoding each column of F as a
  nilpotent block;
* constrained multivariate interpolation (Guruswami-Sudan and
  Koetter-Vardy style): a polynomial Q(X, Y_1..Y_r) with prescribed
  division-stable Y support that vanishes at given distinct points with
  given integer multiplicities, linearized over the Y monomials; a
  problem is checked once, when it is built, so its encoding cannot
  fail;
* shift-range reduction: replaces a shift by an equivalent one with
  min 0, max at most (m-1)*sigma, and sum at most m**2*sigma/2;
* an adversarial Hermite-Pade family whose un-normalized minimal bases
  are quadratically larger than their Popov forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ff_poly import Modulus, Poly, as_list, int_tuple, poly_trim
from .jordan_module import JordanSpec
from .mib_engine import InterpInstance, MinimalDegree
from .polymat import PolyMat
from .popov_mib import popov_mib

Point = Tuple[int, Tuple[int, ...]]


@dataclass
class ApproximantProblem:
    """Simultaneous approximation orders for the columns of F."""

    field: Modulus
    F: PolyMat
    orders: Tuple[int, ...]
    shift: Tuple[int, ...]

    def __post_init__(self):
        self.orders = int_tuple(self.orders, "orders must be integers")
        self.shift = int_tuple(self.shift, "shift entries must be integers")
        if any(o <= 0 for o in self.orders):
            raise ValueError("order <= 0")
        if len(self.orders) != self.F.ncols:
            raise ValueError("one order per column of F is required")
        if len(self.shift) != self.F.nrows:
            raise ValueError("shift length must equal the number of rows of F")
        for j, (n, o) in enumerate(zip(self.F.lengths.max(0).tolist(), self.orders)):
            if n > o:
                raise ValueError(f"column {j} of F must have degree below {o}")


@dataclass
class GSProblem:
    """Multivariate interpolation with multiplicities and degree weights.

    ``exponents`` is the support of Q in the Y variables: at least one
    tuple of num_y nonnegative integers, all distinct, and division-stable
    (lowering any entry of a tuple by one gives another tuple of the
    set).  ``multiplicities`` holds one positive integer mu per point,
    whose support is the triangular {(a, b) : a + |b| < mu}.  Points are
    distinct, each with num_y Y-coordinates, which are stored reduced mod
    p.  Every integer is read by ``ff_poly.int_tuple`` and the lists of
    exponents and points by ``as_list``; every check is made here, so the
    encoders below read a valid problem.
    """

    field: Modulus
    num_y: int
    exponents: Tuple[Tuple[int, ...], ...]
    points: Tuple[Point, ...]
    multiplicities: Tuple[int, ...]
    weights: Tuple[int, ...]

    def __post_init__(self):
        p = self.field.p
        (self.num_y,) = int_tuple((self.num_y,), "num_y must be an integer")
        exponents = as_list(self.exponents)
        self.exponents = tuple(int_tuple(ex, "exponents must be integers") for ex in exponents)
        self.weights = int_tuple(self.weights, "weights must be integers")
        positive = "multiplicities must be positive integers"
        self.multiplicities = int_tuple(self.multiplicities, positive)
        coords = "coordinates must be integers"
        points = (int_tuple((x, *ys), coords) for x, ys in as_list(self.points))
        self.points = tuple((x % p, tuple(y % p for y in ys)) for x, *ys in points)
        r = self.num_y
        if r < 1:
            raise ValueError("at least one Y variable is required")
        if len(self.weights) != r:
            raise ValueError("one weight per Y variable is required")
        if len(self.multiplicities) != len(self.points):
            raise ValueError("one multiplicity per point is required")
        if any(mu < 1 for mu in self.multiplicities):
            raise ValueError(positive)
        if any(len(ys) != r for _, ys in self.points):
            raise ValueError("points must have num_y Y-coordinates")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")
        if not self.exponents:
            raise ValueError("at least one exponent tuple is required")
        if any(len(ex) != r or min(ex) < 0 for ex in self.exponents):
            raise ValueError("exponent tuples must have num_y nonnegative entries")
        support = set(self.exponents)
        if len(support) != len(self.exponents):
            raise ValueError("duplicate exponent tuples")
        for ex in self.exponents:
            for i, g in enumerate(ex):
                if g and ex[:i] + (g - 1,) + ex[i + 1 :] not in support:
                    raise ValueError("non-division-stable exponent set")

    @property
    def m(self) -> int:
        return len(self.exponents)

    @property
    def sigma(self) -> int:
        """The number of constraints, comb(mu + r, r + 1) per point."""
        r = self.num_y
        return sum(comb(mu + r, r + 1) for mu in self.multiplicities)


def _derivative_indices(mu: int, r: int) -> List[Tuple[int, ...]]:
    """All b in N**r with |b| < mu, graded lexicographic."""

    def of_sum(t: int, r: int):  # the b in N**r with |b| = t, lexicographic
        if r == 1:
            yield (t,)
            return
        for first in range(t + 1):
            for rest in of_sum(t - first, r - 1):
                yield (first,) + rest

    return [b for t in range(mu) for b in of_sum(t, r)]


def gs_instance(prob: GSProblem) -> InterpInstance:
    """The (E, J, s) encoding of a multivariate interpolation problem.

    One Jordan block (x_k, mu_k - |b|) per point k and Y-derivative index
    b with |b| < mu_k; the block column of row gamma holds the constant
    prod_i C(gamma_i, b_i) * y_i**(gamma_i - b_i) in its degree-0 slot,
    which encodes the Hasse-derivative vanishing conditions.  The shift
    is the weighted Y-degree of each monomial.  Blocks come point by
    point, as generated: no engine reads the block order.
    """
    p = prob.field.p
    blocks = []
    columns = []  # (Y-coordinates, derivative index) per block
    for (x, ys), mu in zip(prob.points, prob.multiplicities):
        for b in _derivative_indices(mu, prob.num_y):
            blocks.append((x, mu - sum(b)))
            columns.append((ys, b))
    jordan = JordanSpec(tuple(blocks))

    E = np.zeros((prob.m, jordan.total), dtype=np.int64)
    for row, ex in zip(E, prob.exponents):
        for (ys, b), off in zip(columns, jordan.offsets):
            c = 1
            for gi, bi, yi in zip(ex, b, ys):
                if bi > gi:
                    c = 0
                    break
                c = c * (comb(gi, bi) % p) % p * pow(yi, gi - bi, p) % p
            row[off] = c

    shift = tuple(sum(g * w for g, w in zip(ex, prob.weights)) for ex in prob.exponents)
    return InterpInstance(prob.field, E, jordan, shift)


def approximant_instance(prob: ApproximantProblem) -> InterpInstance:
    """The (E, J, s) encoding of an approximation problem.

    One nilpotent block of size sigma_j per column of F, whose module
    column holds the coefficients of that column.
    """
    jordan = JordanSpec(tuple((0, o) for o in prob.orders))
    E = np.zeros((prob.F.nrows, jordan.total), dtype=np.int64)
    for j, (o, off) in enumerate(zip(prob.orders, jordan.offsets)):
        col = prob.F.coeffs[:, j, :o]
        E[:, off : off + col.shape[1]] = col
    return InterpInstance(prob.field, E, jordan, prob.shift)


def order_basis(prob: ApproximantProblem) -> Tuple[PolyMat, MinimalDegree]:
    """The shifted-Popov basis of all p with p . F_j = 0 mod X**sigma_j."""
    return popov_mib(approximant_instance(prob))


def reduce_shift(shift: Sequence[int], sigma: int) -> Tuple[int, ...]:
    """An equivalent shift with min 0, max <= (m-1)*sigma, sum <= m**2*sigma/2.

    Sort the shift, cap each consecutive gap at sigma, and un-sort.  The
    Popov basis is unchanged whenever the determinant degree is below
    sigma.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    s = int_tuple(shift, "shift entries must be integers")
    order = sorted(range(len(s)), key=lambda i: (s[i], i))
    out = [0] * len(s)
    prev_s = None
    prev_t = 0
    for i in order:
        if prev_s is None:
            out[i] = 0
        else:
            out[i] = prev_t + min(sigma, s[i] - prev_s)
        prev_s, prev_t = s[i], out[i]
    return tuple(out)


def adversarial_instance(
    m: int, sigma: int, seed: int, field: Optional[Modulus] = None
) -> ApproximantProblem:
    """A 2m x 1 Hermite-Pade input whose minimal bases are size Theta(m^2 sigma).

    The column stacks f, then X**t * (f + X*f) for t = 0..m-2, then m
    pseudo-random polynomials, all truncated mod X**sigma, under the shift
    (0, ..., 0, sigma, ..., sigma); f always has a nonzero constant term.
    """
    if not (sigma >= m >= 2):
        raise ValueError("requires sigma >= m >= 2")
    if field is None:
        field = Modulus(97)
    p = field.p
    rng = random.Random(seed)
    f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(sigma - 1)]
    fpxf = [(f[t] + (f[t - 1] if t else 0)) % p for t in range(sigma)]
    rows: List[List[Poly]] = [[poly_trim(list(f))]]
    for t in range(m - 1):
        rows.append([poly_trim([0] * t + fpxf[: sigma - t])])
    for _ in range(m):
        rows.append([poly_trim([rng.randrange(p) for _ in range(sigma)])])
    shift = (0,) * m + (sigma,) * m
    return ApproximantProblem(field, PolyMat(field, rows), (sigma,), shift)
