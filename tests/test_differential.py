"""Differential tests of the two engines on the edge shapes of the input.

Hypothesis runs derandomized and without an example database, so the
cases are the same on every run and nothing is written to disk.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popov_interp import (
    InterpInstance,
    JordanSpec,
    Modulus,
    interpolant_check,
    is_popov,
    is_weak_popov,
    iterative_mib,
    iterative_weak_popov,
    kernel_oracle,
    known_mindeg_mib,
    minimal_interpolation_basis,
    popov_mib,
    standardize,
)
from popov_interp.mib_engine import LEAF

from conftest import dense_krylov_rank

# small, middle, 30-bit, and the largest prime below 2**31 (int64 edge)
FIELDS = {p: Modulus(p) for p in (3, 97, 998244353, 2**31 - 1)}
BIG = 2**70

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# most monomial candidates X**k * e_i a kernel_oracle call may enumerate
CANDIDATES = 200


@st.composite
def instances(draw, past_leaf=False):
    """An instance with sigma from 0, sigma < m, few (so repeated)
    eigenvalues, zero rows of E, and shifts out to +-2**70.  Half the
    instances are standardized; the other half keep short blocks in a
    shuffled order, so an eigenvalue recurs after another one and its
    sizes may increase.  With past_leaf, sigma lies just beyond the Mib's
    base case, LEAF * m < sigma <= LEAF * m + 24, so the Mib splits."""
    p = draw(st.sampled_from(sorted(FIELDS)))
    m = draw(st.integers(1, 4))
    if past_leaf:
        sigma = draw(st.integers(LEAF * m + 1, LEAF * m + 24))
    else:
        sigma = draw(st.integers(0, 12))
    eigs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    standard = draw(st.booleans())
    blocks = []
    left = sigma
    while left:
        n = draw(st.integers(1, left if standard else min(left, 3)))
        blocks.append((draw(st.sampled_from(eigs)), n))
        left -= n
    residues = st.lists(st.integers(0, p - 1), min_size=sigma, max_size=sigma)
    rows = [[0] * sigma if draw(st.booleans()) else draw(residues) for _ in range(m)]
    if standard:
        jordan, rows = standardize(blocks, rows)
    else:
        jordan = JordanSpec(tuple(draw(st.permutations(blocks))))
    offset = draw(st.sampled_from((0, BIG, -BIG)))
    entry = st.one_of(st.integers(-3 * sigma - 3, 3 * sigma + 3), st.integers(-BIG, BIG))
    shift = tuple(offset + draw(entry) for _ in range(m))
    return InterpInstance(FIELDS[p], rows, jordan, shift)


@FIXED
@given(instances())
def test_popov_mib_matches_iterative(inst):
    basis, delta = popov_mib(inst)
    assert (basis, delta) == iterative_mib(inst)
    assert is_popov(basis, inst.shift)
    # popov_mib is iterative_mib at these sizes: the known-degree rebuild
    # is the second computation
    assert known_mindeg_mib(inst, minimal_interpolation_basis(inst)[1]) == basis


@FIXED
@given(instances(past_leaf=True))
def test_popov_mib_matches_iterative_past_the_leaf(inst):
    # the recursion proper: split_leading, residual and matmul at every
    # prime, shifts out to +-2**70 and blocks in any order
    basis, delta = popov_mib(inst)
    assert (basis, delta) == iterative_mib(inst)
    assert is_popov(basis, inst.shift)


def _certify(inst, basis, degrees):
    assert is_weak_popov(basis, inst.shift, diagonal=True)
    assert all(interpolant_check(row, inst) for row in basis.rows)
    assert degrees == tuple(len(basis.rows[i][i]) - 1 for i in range(inst.m))
    assert sum(degrees) == dense_krylov_rank(inst)


@FIXED
@given(st.one_of(instances(), instances(past_leaf=True)))
def test_weak_popov_kernel_is_certified(inst):
    # independent of the other engines, which share this kernel: the rows
    # are interpolants, the basis is s-diagonal weak Popov, and its
    # diagonal degrees sum to the colength, so it generates the module
    _certify(inst, *iterative_weak_popov(inst))


@pytest.mark.parametrize("p", (998244353, 2**31 - 1))
def test_lazy_reduction_at_worst_case_magnitudes(p):
    # entries p-1 and eigenvalues 0 and p-1 put products of residues near
    # (p-1)**2; sigma spans at least four of the elimination's reduction
    # budgets, so unreduced values build up between full remainders; under
    # the Hermite shift row 0 is the pivot at every step, so the other rows
    # are reduced only by the full remainders
    budget = (2**63 - 1) // ((p - 1) ** 2 + p) - 2
    rng = random.Random(p)
    for m, hermite in ((2, False), (4, False), (6, False), (3, True), (6, True)):
        sigma = 4 * budget + m + 40
        blocks, left = [], sigma
        while left:
            n = min(left, rng.randint(1, 6))
            blocks.append((rng.choice((0, p - 1)), n))
            left -= n
        rows = [[p - 1] * sigma] + [
            [rng.choice((p - 1, p - 1, 1, rng.randrange(p))) for _ in range(sigma)]
            for _ in range(m - 1)
        ]
        if hermite:
            shift = tuple(i * sigma for i in range(m))
        else:
            shift = tuple(rng.randint(0, sigma) for _ in range(m))
        inst = InterpInstance(FIELDS[p], rows, JordanSpec(tuple(blocks)), shift)
        basis, degrees = iterative_weak_popov(inst)
        _certify(inst, basis, degrees)


@FIXED
@given(instances(), st.data())
def test_block_order_does_not_change_the_output(inst, data):
    # the blocks and E's column blocks permuted alike reorder the
    # constraints only: the module, so its s-Popov basis, is the same
    blocks, offsets = inst.jordan.blocks, inst.jordan.offsets
    order = data.draw(st.permutations(range(len(blocks))))
    cols = [t for b in order for t in range(offsets[b], offsets[b] + blocks[b][1])]
    jordan = JordanSpec(tuple(blocks[b] for b in order))
    permuted = InterpInstance(inst.field, inst.E[:, cols], jordan, inst.shift)
    jordan, rows = standardize(blocks, inst.E)
    standard = InterpInstance(inst.field, rows, jordan, inst.shift)
    want = popov_mib(standard)
    assert iterative_mib(standard) == want
    for case in (inst, permuted):
        assert popov_mib(case) == want
        assert iterative_mib(case) == want


@FIXED
@given(instances())
def test_kernel_dimensions_certify_delta(inst):
    # the interpolants of s-degree at most D span sum(max(0, D - b_i + 1))
    # dimensions, b = s + delta: convex and piecewise linear, the slope
    # rising by one at each b_i.  Matching kernel_oracle at D = b_i - 1 and
    # b_i in increasing order pins the b_i one by one (a true breakpoint
    # strictly between two checked ones would lift the kernel above the
    # formula at the later b_i - 1), until the candidates get too many
    _, delta = popov_mib(inst)
    s = inst.shift
    checked = 0
    for bound in sorted({b + k for b in map(sum, zip(s, delta)) for k in (-1, 0)}):
        if sum(max(0, bound - si + 1) for si in s) > CANDIDATES:
            break
        want = sum(max(0, bound - si - di + 1) for si, di in zip(s, delta))
        assert len(kernel_oracle(inst, bound)) == want
        checked += 1
    assert checked


@FIXED
@given(instances(), st.data())
def test_unreduced_E_is_reduced(inst, data):
    # E given as r + k*p, with |k| around 2**70 (past int64) or within
    # int64, is the instance of the residues r
    p = inst.field.p
    if data.draw(st.booleans()):
        ks = st.integers(BIG - 2**10, BIG + 2**10)
    else:
        ks = st.integers(0, 2**20)
    sign = st.sampled_from((1, -1))
    rows = [[r + data.draw(sign) * data.draw(ks) * p for r in row] for row in inst.E.tolist()]
    other = InterpInstance(inst.field, rows, inst.jordan, inst.shift)
    assert other.E.tolist() == inst.E.tolist()
    assert popov_mib(other) == popov_mib(inst)
