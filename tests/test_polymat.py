"""Shifted-degree machinery: pivots, predicates, products, normalization."""

import pytest

from conftest import poly_eval, random_instance
from popov_interp import (
    Modulus,
    PolyMat,
    is_popov,
    is_weak_popov,
    matmul,
    shifted_row_degree,
    weak_popov_to_popov,
)
from popov_interp.ff_poly import poly_add, poly_mul
from reference import determinant, poly_deg

F = Modulus(97)

X = [0, 1]
ONE = [1]


def M(rows):
    return PolyMat.from_rows(F, rows)


def test_shifted_row_degree_examples():
    assert shifted_row_degree(M([[[1, 1], [0, 2]]]), (0, 0)) == [1]
    ident = PolyMat.identity(F, 3)
    assert shifted_row_degree(ident, (5, -2, 7)) == [5, -2, 7]
    assert shifted_row_degree(M([[[0, 0, 1], [1]]]), (0, 5)) == [5]
    with pytest.raises(ValueError, match="zero row"):
        shifted_row_degree(M([[[], []]]), (0, 0))


def test_is_weak_popov_examples():
    ident = PolyMat.identity(F, 2)
    assert is_weak_popov(ident, (0, 0))
    assert is_weak_popov(ident, (0, 0), diagonal=True)
    assert not is_weak_popov(M([[X, ONE], [X, ONE]]), (0, 0))
    mixed = M([[ONE, X], [X, ONE]])
    assert is_weak_popov(mixed, (0, 0))
    assert not is_weak_popov(mixed, (0, 0), diagonal=True)


def test_is_popov_examples():
    assert is_popov(PolyMat.identity(F, 3), (4, 0, -2))
    assert is_popov(M([[X, []], [[96], ONE]]), (0, 0))
    assert not is_popov(M([[X, []], [X, ONE]]), (0, 0))
    assert not is_popov(M([[[], []], [[], []]]), (0, 0))
    assert not is_popov(M([[[0, 2], []], [[96], ONE]]), (0, 0))  # diagonal not monic
    # a matrix built from rows and the same matrix built from its array
    built = M([[X, []], [[96], ONE]])
    assert is_popov(built, (0, 0))
    assert is_popov(PolyMat.from_coeffs(F, built.coeffs), (0, 0))
    assert not is_popov(PolyMat.from_coeffs(F, [[[0, 2], [0, 0]], [[96, 0], [1, 0]]]), (0, 0))
    # pivots on the diagonal, but column 0 has a second entry of degree 1
    assert not is_popov(M([[X, []], [[1, 1], X]]), (0, 0))
    # shifts past int64 decide the pivot of row 1
    assert is_popov(M([[X, []], [[96], ONE]]), (0, 2**70))
    assert not is_popov(M([[X, []], [[96], ONE]]), (2**70, 0))


def _is_popov_by_definition(rows, s):
    """Every row's s-pivot on the diagonal, monic, and the largest entry
    degree of its column; straight from the polynomial lists."""
    n = len(rows)
    for i, row in enumerate(rows):
        sdeg = [(len(e) - 1 + sj, j) for j, (e, sj) in enumerate(zip(row, s)) if e]
        if not sdeg or max(sdeg)[1] != i or row[i][-1] != 1:
            return False
    return all(
        len(rows[i][j]) < len(rows[j][j]) for i in range(n) for j in range(n) if i != j
    )


def test_is_popov_matches_definition(rng):
    # near-Popov matrices, built from rows or from a packed array
    seen = set()
    for _ in range(3000):
        p = rng.choice((3, 97, 2**31 - 1))
        n = rng.randint(1, 4)
        deg = [rng.randint(0, 3) for _ in range(n)]
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j and rng.random() < 0.95:
                    top = 1 if rng.random() < 0.9 else rng.randrange(1, p)
                    e = [rng.randrange(p) for _ in range(deg[j])] + [top]
                else:
                    e = [rng.randrange(p) for _ in range(rng.randint(0, deg[j] + 1))]
                while e and e[-1] == 0:
                    e.pop()
                row.append(e)
            rows.append(row)
        big = rng.choice((0, 2**70, -(2**70)))
        s = tuple(rng.randint(-4, 4) + rng.choice((0, big)) for _ in range(n))
        mat = PolyMat(Modulus(p), rows)
        if rng.random() < 0.5:
            mat = PolyMat.from_coeffs(mat.field, mat.coeffs)
        want = _is_popov_by_definition(rows, s)
        assert is_popov(mat, s) == want
        seen.add(want)
    assert seen == {True, False}


def test_popov_shift_translation_invariance():
    mat = M([[X, []], [[96], ONE]])
    for c in (-3, 1, 10):
        assert is_popov(mat, (c, c))


def test_weak_popov_to_popov_fixpoint():
    mat = M([[X, []], [[96], ONE]])
    assert weak_popov_to_popov(mat, (0, 0)).rows == mat.rows


def test_weak_popov_to_popov_single_reduction():
    # rows X**2, X / 1, X: row 0 loses row 1 once
    w = M([[[0, 0, 1], X], [ONE, X]])
    assert weak_popov_to_popov(w, (0, 0)).rows == [[[96, 0, 1], []], [ONE, X]]
    # rows X, 0 / X-1, 1 share pivot index 0: not weak Popov
    with pytest.raises(ValueError, match="not in s-weak Popov form"):
        weak_popov_to_popov(M([[X, []], [[96, 1], ONE]]), (0, 0))


def test_weak_popov_to_popov_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        weak_popov_to_popov(M([[X, X], [X, X]]), (0, 0))


def _random_unimodular(rng, n, deg):
    u = PolyMat.identity(F, n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        rows = [[[1] if r == c else [] for c in range(n)] for r in range(n)]
        rows[i][j] = [rng.randrange(97) for _ in range(rng.randint(1, deg + 1))]
        u = matmul(M(rows), u)
    return u


def test_generate_and_recover_popov(rng):
    # left-multiply a Popov matrix by a random unimodular; whenever the
    # product is still weak Popov, normalization recovers the original
    from popov_interp import iterative_mib

    recovered = 0
    while recovered < 10:
        inst = random_instance(rng, sigma_range=(1, 10), m_range=(2, 4))
        popov, _ = iterative_mib(inst)
        w = matmul(_random_unimodular(rng, inst.m, 2), popov)
        if not is_weak_popov(w, inst.shift):
            continue
        assert weak_popov_to_popov(w, inst.shift).rows == popov.rows
        recovered += 1


def test_normalization_of_arbitrary_unimodular_multiples(rng):
    # any nonsingular multiple of a Popov matrix either is in s-weak Popov
    # form and normalizes back to it, or is outside the normalization's
    # contract and raises
    from popov_interp import iterative_mib

    recovered = rejected = 0
    while recovered < 10 or rejected < 15:
        inst = random_instance(rng, sigma_range=(1, 10), m_range=(2, 4))
        popov, _ = iterative_mib(inst)
        w = matmul(_random_unimodular(rng, inst.m, rng.choice((2, 3))), popov)
        if is_weak_popov(w, inst.shift):
            assert weak_popov_to_popov(w, inst.shift).rows == popov.rows
            recovered += 1
        else:
            with pytest.raises(ValueError, match="not in s-weak Popov form"):
                weak_popov_to_popov(w, inst.shift)
            rejected += 1


def test_matmul_examples(rng):
    a = M([[X, [3, 1]], [[5], []]])
    assert matmul(a, PolyMat.identity(F, 2)).rows == a.rows
    with pytest.raises(ValueError, match="dimension mismatch"):
        matmul(a, PolyMat.identity(F, 3))


PRIMES = (3, 97, 998244353, 2**31 - 1)


def _matmul_reference(a, b):
    """a * b by one poly_mul/poly_add per entry pair."""
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = []
            for k in range(a.ncols):
                acc = poly_add(acc, poly_mul(a.rows[i][k], b.rows[k][j], a.field), a.field.p)
            row.append(acc)
        rows.append(row)
    return rows


def _random_polymat(rng, field, nrows, ncols, lengths, top=False):
    """Entries of random length from `lengths`; all coefficients p-1 with top."""
    p = field.p
    return PolyMat.from_rows(field, [[
        [p - 1 if top else rng.randrange(p) for _ in range(rng.choice(lengths))]
        for _ in range(ncols)
    ] for _ in range(nrows)])


def test_matmul_matches_schoolbook(rng):
    shapes = [(1, 1, 1), (2, 3, 4), (4, 1, 3), (3, 5, 2), (1, 6, 1), (5, 5, 5)]
    # entry lengths: mostly zero, short, or very different from each other
    profiles = [(0, 1, 2, 3), (0, 0, 0, 5), (1, 40), (0, 1, 33), (17,)]
    for p in PRIMES:
        field = Modulus(p)
        for trial in range(60):
            n, k, l = rng.choice(shapes)
            top = trial % 4 == 0
            a = _random_polymat(rng, field, n, k, rng.choice(profiles), top)
            b = _random_polymat(rng, field, k, l, rng.choice(profiles), top)
            assert matmul(a, b).rows == _matmul_reference(a, b)
        # zero rows, zero columns and all-zero operands
        a = PolyMat.from_rows(field, [[[1, 2], [3]], [[], []], [[p - 1], [0, 0, 5]]])
        b = PolyMat.from_rows(field, [[[], [4, 0, 1], []], [[], [p - 1] * 7, []]])
        assert matmul(a, b).rows == _matmul_reference(a, b)
        assert matmul(PolyMat.zero(field, 4, 2), b).rows == PolyMat.zero(field, 4, 3).rows
        assert matmul(a, PolyMat.zero(field, 2, 2)).rows == PolyMat.zero(field, 3, 2).rows


def test_matmul_is_exact_at_its_worst_case():
    # all entries p - 1 at inner dimension 16 and length 8193: every limb
    # and every coefficient sum is as large as the grid and tests reach,
    # so the float64 error is as large as it gets at this size
    import numpy as np

    K, L = 16, 8193
    t = np.arange(2 * L - 1)
    for p in PRIMES:
        field = Modulus(p)
        a = PolyMat.from_coeffs(field, np.full((1, K, L), p - 1, dtype=np.int64))
        b = PolyMat.from_coeffs(field, np.full((K, 1, L), p - 1, dtype=np.int64))
        # coefficient t sums K * min(t + 1, L, 2L - 1 - t) products (p-1)**2
        terms = K * np.minimum(np.minimum(t + 1, L), 2 * L - 1 - t)
        expect = terms % p * ((p - 1) ** 2 % p) % p
        assert np.array_equal(matmul(a, b).coeffs[0, 0], expect)


def _kronecker(xs, ys, p):
    """sum_k xs[k] * ys[k] mod p exactly, for equal-length coefficient
    arrays: each polynomial is packed into one integer, 80 bits per
    coefficient, and Python's integer product does the convolution."""
    import numpy as np

    def pack(c):
        buf = np.zeros((len(c), 10), dtype=np.uint8)
        buf[:, :8] = c.astype("<u8").view(np.uint8).reshape(-1, 8)
        return int.from_bytes(buf.tobytes(), "little")

    total = sum(pack(x) * pack(y) for x, y in zip(xs, ys))
    n = 2 * xs.shape[1] - 1
    raw = np.frombuffer(total.to_bytes(10 * n, "little"), dtype=np.uint8).reshape(n, 10)
    lo, hi = raw[:, :8].copy().view("<u8")[:, 0], raw[:, 8:].copy().view("<u2")[:, 0]
    return ((lo % p + hi.astype(np.uint64) * (2**64 % p)) % p).astype(np.int64)


def test_matmul_is_exact_on_random_residues_at_its_worst_size(rng):
    # random residues spread the spectra, unlike the constant worst case
    # above, so the float64 rounding errors are larger at the same size
    import numpy as np

    gen = np.random.default_rng(rng.randrange(2**32))
    K, L = 16, 8193
    for p in PRIMES:
        field = Modulus(p)
        a = gen.integers(0, p, (1, K, L))
        b = gen.integers(0, p, (K, 1, L))
        prod = matmul(PolyMat.from_coeffs(field, a), PolyMat.from_coeffs(field, b))
        expect = _kronecker(a[0], b[:, 0], p)
        assert np.array_equal(prod.coeffs[0, 0], expect[: prod.lengths[0, 0]])
        assert not expect[prod.lengths[0, 0] :].any()


def test_matmul_memory_is_bounded_for_long_entries(rng):
    # one pair of entries of length 2048 padded whole would take
    # 2048 * 4096 int64 (64 MB); its limb spectra take a few hundred kB
    import tracemalloc

    field = Modulus(998244353)
    a = _random_polymat(rng, field, 1, 1, (2048,))
    b = _random_polymat(rng, field, 1, 1, (2048,))
    tracemalloc.start()
    try:
        prod = matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**23
    assert prod.rows == _matmul_reference(a, b)


def test_packed_view_round_trip(rng):
    import numpy as np

    for p in PRIMES:
        field = Modulus(p)
        for _ in range(10):
            mat = _random_polymat(rng, field, rng.randint(1, 4), rng.randint(1, 4), (0, 1, 3, 8))
            coeffs = mat.coeffs
            assert not coeffs.flags.writeable
            assert coeffs.shape[2] == max(len(e) for row in mat.rows for e in row)
            assert PolyMat.from_coeffs(field, coeffs).rows == mat.rows
            # trailing zero degrees are cut off, entry by entry and overall
            padded = np.concatenate([coeffs, np.zeros((mat.nrows, mat.ncols, 3), np.int64)], 2)
            back = PolyMat.from_coeffs(field, padded)
            assert back == mat and back.coeffs.shape == coeffs.shape
            assert (back.lengths == mat.lengths).all()
    zero = PolyMat.zero(F, 2, 3)
    assert zero.coeffs.shape == (2, 3, 0)
    assert PolyMat.from_coeffs(F, np.zeros((2, 3, 4), np.int64)).rows == zero.rows
    assert PolyMat.from_coeffs(F, zero.coeffs) == zero


def test_constructor_rejects_untrimmed_rows():
    # a padded 0 would be read as the leading coefficient: is_popov
    # misread [[1, 0]] before the constructor checked its rows
    with pytest.raises(ValueError, match="trailing zero"):
        PolyMat(F, [[[1, 0]]])
    assert is_popov(PolyMat.from_rows(F, [[[1, 0]]]), (0,))
    assert PolyMat(F, [[[1], []]]).rows == [[[1], []]]
    with pytest.raises(ValueError, match="trailing zero"):
        PolyMat(F, [[[1], []], [[], [0, 3, 0]]])


def test_constructor_rejects_non_residues():
    for bad in (97, -1, 2**70, -(2**70)):
        with pytest.raises(ValueError, match="residues"):
            PolyMat(F, [[[1], [bad, 1]]])
    # the rows view of any matrix rebuilds it, at the largest residue too
    top = PolyMat(F, [[[96], [0, 96]]])
    assert PolyMat(F, top.rows) == top == PolyMat.from_coeffs(F, top.coeffs)


def test_weak_popov_row_degree_det_identity(rng):
    # sum of s-row degrees = deg det + sum of shifts, for weak Popov matrices
    from popov_interp import iterative_weak_popov

    for _ in range(10):
        inst = random_instance(rng, sigma_range=(1, 10), m_range=(1, 4))
        w, _ = iterative_weak_popov(inst)
        det = determinant(w)
        total = sum(shifted_row_degree(w, inst.shift))
        assert total == poly_deg(det) + sum(inst.shift)


def test_pivot_degree_composition(rng):
    # diagonal weak Popov compatibility with matrix products
    from popov_interp import iterative_weak_popov

    for _ in range(10):
        inst1 = random_instance(rng, sigma_range=(1, 12), m_range=(2, 4))
        p1, d1 = iterative_weak_popov(inst1)
        assert is_weak_popov(p1, inst1.shift, diagonal=True)
        shift2 = tuple(s + d for s, d in zip(inst1.shift, d1))
        inst2 = random_instance(rng, sigma_range=(1, 12), m_range=(inst1.m, inst1.m))
        inst2.shift = shift2
        p2, d2 = iterative_weak_popov(inst2)
        prod = matmul(p2, p1)
        assert is_weak_popov(prod, inst1.shift, diagonal=True)
        # the pivots are diagonal, so the pivot degrees are the diagonal's
        assert tuple(prod.lengths.diagonal() - 1) == tuple(a + b for a, b in zip(d1, d2))


def test_normalization_preserves_pivot_degrees(rng):
    from popov_interp import iterative_weak_popov

    for p in PRIMES:
        for _ in range(10):
            inst = random_instance(
                rng, p=p, sigma_range=(1, 12), m_range=(1, 4), max_eigs=min(p, 4)
            )
            w, dw = iterative_weak_popov(inst)
            popov = weak_popov_to_popov(w, inst.shift)
            assert is_popov(popov, inst.shift)
            assert tuple(len(popov.rows[i][i]) - 1 for i in range(inst.m)) == dw


def test_normalization_entries_are_bounded_independently_of_the_shift(rng, monkeypatch):
    # every operand and result of the reduction's subtractions has at most
    # len(w) + max(delta) coefficients, len(w) the longest entry of w,
    # even where the shift spreads out to 2**70; past sigma = LEAF * m the
    # Mib's basis is a product of its halves
    from popov_interp import iterative_mib, iterative_weak_popov, minimal_interpolation_basis
    from popov_interp import polymat

    lengths = []

    def poly_sub(a, b, p):
        out = list_sub(a, b, p)
        lengths.append(max(len(a), len(b), len(out)))
        return out

    list_sub = polymat.poly_sub
    monkeypatch.setattr(polymat, "poly_sub", poly_sub)
    subs = 0
    for p in PRIMES:
        for trial in range(24):
            inst = random_instance(
                rng, p=p, sigma_range=(1, 96), m_range=(2, 4), max_eigs=min(p, 4)
            )
            big = (0, 2**20, 2**70)[trial % 3]
            inst.shift = tuple(
                rng.randint(-40, 40) + rng.choice((0, big, -big)) for _ in range(inst.m)
            )
            popov, delta = iterative_mib(inst)
            for engine in (iterative_weak_popov, minimal_interpolation_basis):
                w, _ = engine(inst)
                lengths.clear()
                assert weak_popov_to_popov(w, inst.shift) == popov
                assert max(lengths, default=0) <= w.coeffs.shape[2] + max(delta)
                subs += len(lengths)
    assert subs > 100


def test_determinant_small():
    mat = M([[X, ONE], [[], X]])
    assert determinant(mat) == [0, 0, 1]
    assert determinant(M([[X, X], [X, X]])) == []
    assert determinant(PolyMat.identity(F, 3)) == [1]


def _det_by_evaluation(mat, points):
    # independent oracle: scalar determinants at sample points, then
    # Lagrange interpolation
    p = mat.field.p
    from popov_interp.ff_poly import poly_add, poly_mul, poly_scale

    def scalar_det(a):
        a = [row[:] for row in a]
        n = len(a)
        det = 1
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c]), None)
            if piv is None:
                return 0
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                det = -det
            det = det * a[c][c] % p
            inv = pow(a[c][c], p - 2, p)
            for r in range(c + 1, n):
                f = a[r][c] * inv % p
                if f:
                    a[r] = [(u - f * v) % p for u, v in zip(a[r], a[c])]
        return det % p

    values = [
        scalar_det([[poly_eval(e, x, p) for e in row] for row in mat.rows])
        for x in points
    ]
    result = []
    for i, x in enumerate(points):
        num = [1]
        den = 1
        for j, y in enumerate(points):
            if i != j:
                num = poly_mul(num, [(-y) % p, 1], mat.field)
                den = den * (x - y) % p
        result = poly_add(result, poly_scale(num, values[i] * pow(den, p - 2, p), p), p)
    return result


def test_determinant_matches_evaluation_oracle(rng):
    field = Modulus(998244353)
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = [[
            [rng.randrange(field.p) for _ in range(rng.randint(0, 4))]
            for _ in range(n)
        ] for _ in range(n)]
        mat = PolyMat.from_rows(field, rows)
        bound = sum(
            max((len(e) - 1 for e in row if e), default=0) for row in mat.rows
        )
        points = list(range(bound + 1))
        assert determinant(mat) == _det_by_evaluation(mat, points)
