"""Order bases, multivariate interpolation, shift reduction, adversarial inputs."""

import itertools

import pytest

from conftest import poly_eval, random_instance
from popov_interp import (
    InterpInstance,
    Modulus,
    PolyMat,
    interpolant_check,
    iterative_mib,
    popov_mib,
)
from popov_interp.apps import (
    ApproximantProblem,
    GSProblem,
    _derivative_indices,
    adversarial_instance,
    approximant_instance,
    gs_instance,
    order_basis,
    reduce_shift,
)
from popov_interp.ff_poly import poly_mul, poly_mul_trunc, poly_trim, taylor_shift
from reference import poly_add, q_vanishes_at

F = Modulus(97)


def test_order_basis_worked_example():
    prob = ApproximantProblem(F, PolyMat.from_rows(F, [[[1]], [[1]]]), (2,), (0, 0))
    basis, delta = order_basis(prob)
    assert basis.rows == [[[0, 0, 1], []], [[96], [1]]]
    assert delta == (2, 0)


def test_order_basis_zero_input():
    prob = ApproximantProblem(F, PolyMat.zero(F, 3, 2), (4, 2), (1, 0, 2))
    basis, delta = order_basis(prob)
    assert basis.rows == PolyMat.identity(F, 3).rows and delta == (0, 0, 0)


def test_order_basis_validation():
    with pytest.raises(ValueError, match="order"):
        ApproximantProblem(F, PolyMat.zero(F, 2, 1), (0,), (0, 0))
    with pytest.raises(ValueError, match="degree below"):
        ApproximantProblem(F, PolyMat.from_rows(F, [[[1, 2, 3]]]), (2,), (0,))


def test_order_basis_order_conditions(rng):
    # every output row annihilates every column modulo its order,
    # verified by plain truncated polynomial products
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 2)
        orders = tuple(rng.randint(1, 8) for _ in range(n))
        rows = [
            [
                [rng.randrange(97) for _ in range(rng.randint(0, o))]
                for o in orders
            ]
            for _ in range(m)
        ]
        prob = ApproximantProblem(
            F, PolyMat.from_rows(F, rows), orders, tuple(rng.randint(0, 8) for _ in range(m))
        )
        basis, delta = order_basis(prob)
        for row in basis.rows:
            for j, o in enumerate(orders):
                acc = []
                for i in range(m):
                    part = poly_mul_trunc(row[i], prob.F.rows[i][j], o, F)
                    acc = [
                        (x + y) % 97
                        for x, y in zip(acc + [0] * (len(part) - len(acc)), part + [0] * (len(acc) - len(part)))
                    ]
                assert not any(acc)
        # and it matches the engine run on the encoded instance
        assert (basis.rows, delta) == (
            iterative_mib(approximant_instance(prob))[0].rows,
            iterative_mib(approximant_instance(prob))[1],
        )


def test_gs_worked_example():
    prob = GSProblem(F, 1, ((0,), (1,)), ((0, (1,)),), (1,), (0,))
    inst = gs_instance(prob)
    assert inst.E.tolist() == [[1], [1]]
    assert inst.jordan.blocks == ((0, 1),)
    assert inst.shift == (0, 0)
    basis, _ = popov_mib(inst)
    assert basis.rows == [[[0, 1], []], [[96], [1]]]
    # the second row is Q = -1 + Y, vanishing at (0, 1)
    for row in basis.rows:
        assert q_vanishes_at(prob, row, 0)


def test_gs_reed_solomon_case(rng):
    # multiplicity 1 everywhere: classical interpolation Q(x_k, y_k) = 0
    ell = 3
    xs = rng.sample(range(97), 6)
    points = tuple((x, (rng.randrange(97),)) for x in xs)
    prob = GSProblem(F, 1, tuple((g,) for g in range(ell + 1)), points, (1,) * 6, (2,))
    inst = gs_instance(prob)
    assert inst.sigma == 6
    basis, _ = popov_mib(inst)
    for row in basis.rows:
        for x, (y,) in points:
            val = sum(
                poly_eval(row[g], x, 97) * pow(y, g, 97) for g in range(ell + 1)
            )
            assert val % 97 == 0


def test_gs_multiplicity_two_support():
    prob = GSProblem(F, 1, ((0,), (1,), (2,)), ((3, (4,)),), (2,), (1,))
    inst = gs_instance(prob)
    assert inst.sigma == 3  # support {(a,b): a+b<2} has 3 elements
    assert sorted(n for _, n in inst.jordan.blocks) == [1, 2]
    basis, _ = popov_mib(inst)
    for row in basis.rows:
        assert q_vanishes_at(prob, row, 0)


def test_gs_validation_errors():
    # every check is made when the problem is built
    with pytest.raises(ValueError, match="duplicate points"):
        GSProblem(F, 1, ((0,),), ((1, (2,)), (1, (2,))), (1, 1), (0,))
    with pytest.raises(ValueError, match="division-stable"):
        GSProblem(F, 1, ((0,), (2,)), ((1, (2,)),), (1,), (0,))
    with pytest.raises(ValueError, match="nonnegative"):
        GSProblem(F, 1, ((0,), (-1,)), ((1, (2,)),), (1,), (0,))
    with pytest.raises(ValueError, match="duplicate exponent"):
        GSProblem(F, 1, ((0,), (0,)), ((1, (2,)),), (1,), (0,))
    with pytest.raises(ValueError, match="at least one exponent"):
        GSProblem(F, 1, (), ((1, (2,)),), (1,), (0,))
    # a list of exponent tuples is not a multiplicity, triangular or not
    with pytest.raises(ValueError, match="positive integers"):
        GSProblem(F, 1, ((0,),), ((1, (2,)),), ((((0, 0), (1, 1)),)), (0,))
    holed = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))  # mu = 3 without (1, 1)
    tri = ((0, 0), (1, 0), (0, 1))  # the triangular support of mu = 2
    for support in ((), holed, ((0,), (1,)), ((0, 0, 0),), tri, 0, -1, True):
        with pytest.raises(ValueError, match="positive integers"):
            GSProblem(F, 1, ((0,),), ((1, (2,)),), (support,), (0,))


@pytest.mark.parametrize("p", [97, 998244353])
@pytest.mark.parametrize("num_y", [1, 2])
def test_q_vanishes_at_agrees_with_interpolant_check(rng, p, num_y):
    """The explicit check fails exactly where the module check does.

    Rows: the Popov basis rows, random rows, basis rows with one
    coefficient bumped, and basis rows plus (X - x)**(mu - 1) *
    (X - x2)**3.  Points 0 and 1 share the eigenvalue x and multiplicity
    mu, point 2 has x2 and at most 3, so the last kind changes nothing at
    point 2 and nothing below X-degree mu - 1 at points 0 and 1: a prefix
    cut one short of mu would see it vanish everywhere.
    """
    field = Modulus(p)
    exponents = tuple(ex for ex in itertools.product(range(3), repeat=num_y) if sum(ex) <= 2)
    seen = set()
    for mu in (1, 2, 3):
        x, x2 = rng.sample(range(p), 2)
        y = tuple(rng.randrange(p) for _ in range(num_y))
        y1 = ((y[0] + 1) % p,) + y[1:]
        y2 = tuple(rng.randrange(p) for _ in range(num_y))
        points = ((x, y), (x, y1), (x2, y2))
        mus = (mu, mu, rng.randint(1, 3))
        weights = tuple(rng.randint(0, 2) for _ in range(num_y))
        prob = GSProblem(field, num_y, exponents, points, mus, weights)
        inst = gs_instance(prob)
        basis, _ = popov_mib(inst)
        # (X - x)**(mu - 1) * (X - x2)**3
        late = poly_mul(
            taylor_shift([0] * (mu - 1) + [1], -x, field),
            taylor_shift([0, 0, 0, 1], -x2, field),
            field,
        )
        rows = [list(row) for row in basis.rows]
        for _ in range(3):
            rows.append([
                poly_trim([rng.randrange(p) for _ in range(rng.randint(0, inst.sigma + 2))])
                for _ in exponents
            ])
        for row in basis.rows:
            bumped = [list(e) for e in row]
            j = rng.randrange(len(bumped))
            t = rng.randrange(len(bumped[j]) + 1)
            bumped[j] = poly_add(bumped[j], [0] * t + [rng.randrange(1, p)], p)
            rows.append(bumped)
            rows.append([poly_add(row[0], late, p)] + list(row[1:]))
        for row in rows:
            ok = all(q_vanishes_at(prob, row, k) for k in range(len(points)))
            assert ok == interpolant_check(row, inst)
            seen.add(ok)
    assert seen == {True, False}


def test_reduce_shift_examples():
    assert reduce_shift((0, 10, 3), 2) == (0, 4, 2)
    assert reduce_shift((5, 5, 5, 5), 7) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        reduce_shift((0, 1), 0)


def test_reduce_shift_bounds(rng):
    for _ in range(50):
        m = rng.randint(1, 8)
        sigma = rng.randint(1, 30)
        s = [rng.randint(-40, 200) for _ in range(m)]
        t = reduce_shift(s, sigma)
        assert min(t) == 0
        assert max(t) <= (m - 1) * sigma
        assert sum(t) <= m * m * sigma / 2
        # order-compatible: capped gaps never reorder entries
        assert all(
            (t[i] <= t[j]) == (s[i] <= s[j]) or s[i] == s[j]
            for i in range(m)
            for j in range(m)
        )


def test_reduce_shift_preserves_popov_basis(rng):
    done = 0
    while done < 10:
        inst = random_instance(rng, sigma_range=(2, 14), m_range=(1, 4), kill_constant=True)
        if inst.sigma == 0:
            continue
        basis, delta = popov_mib(inst)
        assert sum(delta) < inst.sigma  # killed constants force a degree deficit
        t = reduce_shift(inst.shift, inst.sigma)
        other = InterpInstance(inst.field, inst.E, inst.jordan, t)
        assert popov_mib(other)[0].rows == basis.rows
        done += 1


def test_adversarial_shape():
    prob = adversarial_instance(2, 4, 0)
    assert prob.F.nrows == 4 and prob.F.ncols == 1
    assert prob.orders == (4,)
    assert prob.shift == (0, 0, 4, 4)
    for seed in range(20):
        assert adversarial_instance(3, 6, seed).F.rows[0][0][0] != 0
    with pytest.raises(ValueError):
        adversarial_instance(1, 4, 0)
    with pytest.raises(ValueError):
        adversarial_instance(4, 3, 0)


def test_adversarial_blowup_small():
    m, sigma = 3, 6
    prob = adversarial_instance(m, sigma, 0)
    inst = approximant_instance(prob)
    from popov_interp import minimal_interpolation_basis

    w, _ = minimal_interpolation_basis(inst)
    popov, _ = popov_mib(inst)
    assert w.coefficient_count() >= m * m * (sigma - m) // 2
    assert popov.coefficient_count() <= 2 * m * (sigma + 1)


def test_derivative_indices_are_graded_lexicographic():
    for mu in range(7):
        for r in range(1, 5):
            box = itertools.product(range(mu), repeat=r)
            want = sorted((b for b in box if sum(b) < mu), key=lambda b: (sum(b), b))
            assert _derivative_indices(mu, r) == want
