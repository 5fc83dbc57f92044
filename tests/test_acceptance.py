"""Acceptance suite: one test per criterion, one PASS line per test.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every tolerance is exact; the scaling benchmark is reported only.
"""

import random
import time

from conftest import MIB_ENGINE, POPOV_MIB, capture, leading_at, mib_splits, random_instance
from popov_interp import (
    InterpInstance,
    Modulus,
    PolyMat,
    interpolant_check,
    is_popov,
    is_weak_popov,
    iterative_mib,
    kernel_oracle,
    known_mindeg_mib,
    matmul,
    minimal_interpolation_basis,
    popov_mib,
    shifted_row_degree,
    weak_popov_to_popov,
)
from popov_interp.apps import (
    adversarial_instance,
    approximant_instance,
    ApproximantProblem,
    GSProblem,
    gs_instance,
    reduce_shift,
)
from popov_interp.cli import main as cli_main
from popov_interp.ff_poly import poly_mul_trunc
from popov_interp.linalg import inv_mod
from popov_interp.popov_mib import build_expansion
from reference import q_vanishes_at

SEED = 0xC0FFEE
PRIMES = (97, 998244353)


def _instances(count, seed=SEED, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = PRIMES[len(out) % 2]
        out.append(random_instance(rng, p=p, **kwargs))
    return out


def test_criterion_1_canonicity_oracle_equivalence():
    start = time.perf_counter()
    instances = _instances(500)
    shifts_seen = set()
    for inst in instances:
        popov, delta = popov_mib(inst)
        ref, ref_delta = iterative_mib(inst)
        assert popov.rows == ref.rows, "engines disagree"
        assert delta == ref_delta
        assert is_popov(popov, inst.shift)
        assert sum(delta) <= inst.sigma
        for row in popov.rows:
            assert interpolant_check(row, inst)
        if inst.shift == tuple(i * inst.sigma for i in range(inst.m)):
            shifts_seen.add("hermite")
    elapsed = time.perf_counter() - start
    assert "hermite" in shifts_seen, "generator must exercise the staircase shift"
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1: PASS - 500 instances, popov == iterative, "
          f"Popov + zero residual + degree bound, {elapsed:.1f}s")


def test_criterion_2_kernel_dimension_certificate():
    start = time.perf_counter()
    instances = _instances(100)
    checked = 0
    for inst in instances:
        _, delta = iterative_mib(inst)
        for bound in range(inst.sigma + 1):
            dim = len(kernel_oracle(inst, bound))
            want = sum(
                max(0, bound - si - di + 1) for si, di in zip(inst.shift, delta)
            )
            assert dim == want, (inst.shift, delta, bound, dim, want)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2: PASS - 100 instances, {checked} kernel dimensions "
          f"match sum(max(0, D - s_i - delta_i + 1)), {elapsed:.1f}s")


def test_criterion_3_pivot_degree_additivity(monkeypatch):
    rng = random.Random(SEED + 3)
    mibs = capture(monkeypatch, "minimal_interpolation_basis", (POPOV_MIB, MIB_ENGINE))
    done = 0
    splits_checked = 0
    while done < 50:
        inst = random_instance(
            rng, p=PRIMES[done % 2], sigma_range=(2, 24 * MIB_ENGINE.LEAF), m_range=(1, 5)
        )
        if inst.sigma <= MIB_ENGINE.LEAF * inst.m:
            continue
        mibs.clear()
        popov, delta = popov_mib(inst)
        splits, roots = mib_splits(mibs)
        # two Mib roots: the instance's own, whose pivot degrees popov_mib
        # keeps, then the one inside the rebuild, which keeps the
        # instance's Jordan data and has one row per expansion chunk
        [(root, mib, mib_degrees), (rebuild, _, _)] = roots
        assert root is inst
        [(_, _, _, (half, _, _), _)] = [split for split in splits if split[0] is inst]
        assert half.sigma == -(-inst.sigma // 2)
        assert rebuild.jordan is inst.jordan
        assert rebuild.m == sum(build_expansion(delta, inst.m, inst.sigma).alpha)
        for node, basis, mindeg, (_, left, d1), (_, right, d2) in splits:
            s = node.shift
            assert mindeg == tuple(a + b for a, b in zip(d1, d2))
            assert basis.rows == matmul(right, left).rows
            assert is_weak_popov(basis, s, diagonal=True)
            assert tuple(basis.lengths.diagonal() - 1) == mindeg
            assert weak_popov_to_popov(basis, s).rows == iterative_mib(node)[0].rows
            splits_checked += 1
        assert delta == mib_degrees
        assert weak_popov_to_popov(mib, inst.shift).rows == popov.rows
        done += 1
    print(f"\nACCEPTANCE 3: PASS - {done} instances, {splits_checked} splits: "
          f"delta = delta1 + delta2 and P2*P1 normalizes to the node's Popov basis")


def test_criterion_4_known_degree_path(monkeypatch):
    rng = random.Random(SEED + 4)
    mibs = capture(monkeypatch, "minimal_interpolation_basis")
    done = 0
    while done < 100:
        inst = random_instance(rng, p=PRIMES[done % 2], sigma_range=(1, 40), m_range=(1, 5))
        if inst.sigma < inst.m:
            continue
        popov, delta = iterative_mib(inst)
        mibs.clear()
        rebuilt = known_mindeg_mib(inst, delta)
        assert rebuilt.rows == popov.rows
        [(_, (rbasis, _))] = mibs
        deltabar = build_expansion(delta, inst.m, inst.sigma).deltabar
        assert (rbasis.lengths.max(0) - 1).tolist() == list(deltabar)
        assert inv_mod(leading_at(rbasis, deltabar), inst.field.p) is not None
        done += 1
    print(f"\nACCEPTANCE 4: PASS - {done} instances: true delta reproduces the "
          f"Popov basis, R has column degree deltabar, leading matrix invertible")


def _dense_profile_holds(raw, m, sigma):
    d = sigma - m
    if not all(len(raw.rows[m - 1][j]) - 1 == d + 1 for j in range(m)):
        return False
    return all(
        len(raw.rows[i][j]) - 1 == d for i in range(m, 2 * m) for j in range(m)
    )


def test_criterion_5_adversarial_blowup():
    start = time.perf_counter()
    used_seeds = []
    for m, sigma in ((3, 6), (4, 12), (5, 20)):
        # degenerate draws would fail the profile/size assertions; re-seed
        # until a generic one is found and record the seed used
        for seed in range(10):
            prob = adversarial_instance(m, sigma, seed=seed)
            inst = approximant_instance(prob)
            raw, _ = minimal_interpolation_basis(inst)
            if _dense_profile_holds(raw, m, sigma) and (
                raw.coefficient_count() >= m * m * (sigma - m) / 2
            ):
                used_seeds.append(seed)
                break
        else:
            raise AssertionError(f"no generic draw for m={m}, sigma={sigma}")
        popov, _ = popov_mib(inst)
        assert popov.coefficient_count() <= 2 * m * (sigma + 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 5: PASS - (3,6),(4,12),(5,20) with seeds {used_seeds}: raw "
          f"basis has the dense [d],[d+1] profile and >= m^2(sigma-m)/2 coefficients; "
          f"Popov <= 2m(sigma+1), {elapsed:.1f}s")


def test_criterion_6_shift_reduction():
    rng = random.Random(SEED + 6)
    done = 0
    while done < 100:
        inst = random_instance(
            rng, p=PRIMES[done % 2], sigma_range=(1, 20), m_range=(1, 5),
            kill_constant=True,
        )
        basis, delta = popov_mib(inst)
        if sum(delta) >= inst.sigma:
            continue  # the reduction guarantee needs deg det below sigma
        t = reduce_shift(inst.shift, inst.sigma)
        m = inst.m
        assert min(t) == 0
        assert max(t) <= (m - 1) * inst.sigma
        assert sum(t) <= m * m * inst.sigma / 2
        other = InterpInstance(inst.field, inst.E, inst.jordan, t)
        assert popov_mib(other)[0].rows == basis.rows
        done += 1
    print(f"\nACCEPTANCE 6: PASS - {done} instances: reduced shift in range and "
          f"s-Popov == t-Popov")


def test_criterion_7_order_basis_conformance():
    rng = random.Random(SEED + 7)
    p = 97
    field = Modulus(p)
    for trial in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 3)
        orders = tuple(rng.randint(1, 16) for _ in range(n))
        rows = [
            [[rng.randrange(p) for _ in range(rng.randint(0, o))] for o in orders]
            for _ in range(m)
        ]
        shift = tuple(rng.randint(0, 2 * max(orders)) for _ in range(m))
        prob = ApproximantProblem(field, PolyMat.from_rows(field, rows), orders, shift)
        from popov_interp.apps import order_basis

        basis, delta = order_basis(prob)
        for row in basis.rows:
            for j, o in enumerate(orders):
                acc = [0] * o
                for i in range(m):
                    part = poly_mul_trunc(row[i], prob.F.rows[i][j], o, field)
                    for t, c in enumerate(part):
                        acc[t] = (acc[t] + c) % p
                assert not any(acc), "order condition violated"
        oracle = iterative_mib(approximant_instance(prob))
        assert basis.rows == oracle[0].rows and delta == oracle[1]
    print("\nACCEPTANCE 7: PASS - 40 random order-basis problems satisfy every "
          "order condition and equal the oracle")


def test_criterion_8_multivariate_end_to_end():
    rng = random.Random(SEED + 8)
    p = 97
    field = Modulus(p)
    for trial in range(12):
        ell = rng.randint(1, 3)
        npts = rng.randint(1, 8)
        xs = rng.sample(range(p), npts)
        points = tuple((x, (rng.randrange(p),)) for x in xs)
        mus = tuple(rng.randint(1, 3) for _ in range(npts))
        weights = (rng.randint(0, 3),)
        prob = GSProblem(field, 1, tuple((g,) for g in range(ell + 1)), points, mus, weights)
        inst = gs_instance(prob)
        basis, delta = popov_mib(inst)
        for row in basis.rows:
            for k in range(npts):
                assert q_vanishes_at(prob, row, k)
        min_sdeg = min(shifted_row_degree(basis, inst.shift))
        for bound in range(min_sdeg + 1):
            dim = len(kernel_oracle(inst, bound))
            assert (dim > 0) == (bound == min_sdeg)
    print("\nACCEPTANCE 8: PASS - 12 bivariate instances: every basis row vanishes "
          "with the prescribed multiplicities; minimal s-degree matches the oracle")


def test_criterion_9_scaling_report(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli_main([
        "bench", "--m", "4", "--sigmas", "128,256,512", "--trials", "2",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    rows = {}
    for line in out.read_text().strip().splitlines()[1:]:
        engine, m, sigma, ms = line.split(",")
        rows[(engine, int(sigma))] = float(ms)
    report = []
    for lo, hi in ((128, 256), (256, 512)):
        rp = rows[("popov", hi)] / rows[("popov", lo)]
        ri = rows[("iterative", hi)] / rows[("iterative", lo)]
        report.append(f"sigma {lo}->{hi}: popov x{rp:.2f}, iterative x{ri:.2f}")
    for sigma in (128, 256, 512):
        ratio = rows[("popov", sigma)] / rows[("iterative", sigma)]
        report.append(f"sigma {sigma}: popov/iterative {ratio:.2f}")
    print("\nACCEPTANCE 9: REPORTED (non-blocking) - " + "; ".join(report))
