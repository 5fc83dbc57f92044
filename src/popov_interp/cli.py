"""Batch command-line interface.

Subcommands: solve, check, bench, order-basis, gs-interp, adversarial.
Instances and results are JSON; coefficients are plain integers in
[0, p), low degree first, with [] as the zero polynomial.  Exit codes:
0 success, 1 input error, 2 verification failure or engine mismatch,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from typing import List, Optional

import numpy as np

from .apps import (
    ApproximantProblem,
    GSProblem,
    adversarial_instance,
    approximant_instance,
    gs_instance,
    order_basis,
)
from .ff_poly import Modulus
from .jordan_module import JordanSpec, standardize, x_powers
from .mib_engine import InterpInstance, interpolant_check, iterative_mib
from .polymat import PolyMat, is_popov
from .popov_mib import popov_mib

OK, INPUT_ERROR, CHECK_FAILED, INTERNAL_ERROR = 0, 1, 2, 3


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    _check_integers(data, path)
    return data


def _check_integers(value, path: str) -> None:
    """Reject every number in a JSON document that is not an integer.

    Booleans and floats would otherwise pass as integers (``true`` as 1)
    or be truncated where they are packed into int64 arrays.
    """
    if isinstance(value, (bool, float)):
        raise InputError(f"{path}: {json.dumps(value)} is not an integer")
    if isinstance(value, (list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            _check_integers(v, path)


def _field_of(data: dict) -> Modulus:
    try:
        return Modulus(data["p"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad modulus: {exc}") from exc


def load_instance(path: str) -> InterpInstance:
    """Parse {"p", "m", "jordan", "E", "shift"} into an instance."""
    data = _load_json(path)
    field = _field_of(data)
    try:
        for row in data["E"]:
            if any(not isinstance(v, int) or not 0 <= v < field.p for v in row):
                raise ValueError("E entries must be residues in [0, p)")
        if any(not isinstance(v, int) for v in data["shift"]):
            raise ValueError("shift entries must be integers")
        jordan = JordanSpec.from_json(data["jordan"], field.p)
        inst = InterpInstance(field, data["E"], jordan, tuple(data["shift"]))
        if inst.m != data.get("m", inst.m):
            raise ValueError("m does not match the number of rows of E")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad instance file {path}: {exc}") from exc
    return inst


def instance_to_json(inst: InterpInstance) -> dict:
    return {
        "p": inst.field.p,
        "m": inst.m,
        "jordan": inst.jordan.to_json(),
        "E": inst.E.tolist(),
        "shift": list(inst.shift),
    }


def basis_to_json(basis: PolyMat, delta) -> dict:
    return {
        "p": basis.field.p,
        "basis": [[list(e) for e in row] for row in basis.rows],
        "delta": list(delta),
    }


def _write_out(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.engine == "iterative":
        basis, delta = iterative_mib(inst)
    elif args.engine == "popov":
        basis, delta = popov_mib(inst)
    else:  # oracle-check: run both and diff
        b1, d1 = popov_mib(inst)
        b2, d2 = iterative_mib(inst)
        if b1 != b2 or d1 != d2:
            print("engine mismatch: popov and iterative outputs differ", file=sys.stderr)
            return CHECK_FAILED
        basis, delta = b1, d1
    _write_out(basis_to_json(basis, delta), args.out)
    return OK


def cmd_check(args) -> int:
    inst = load_instance(args.instance)
    data = _load_json(args.basis)
    try:
        basis = PolyMat.from_rows(inst.field, data["basis"])
        delta = [int(v) for v in data["delta"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad basis file {args.basis}: {exc}") from exc

    failed = False
    popov_ok = basis.nrows == inst.m and basis.ncols == inst.m and is_popov(basis, inst.shift)
    print(f"popov-form: {'ok' if popov_ok else 'FAIL'}")
    failed |= not popov_ok

    if basis.ncols == inst.m:
        resid_ok = all(interpolant_check(row, inst) for row in basis.rows)
    else:
        resid_ok = False
    print(f"zero-residual: {'ok' if resid_ok else 'FAIL'}")
    failed |= not resid_ok

    # a Popov basis of interpolants generates the module iff its degree
    # sum is the colength, the rank of the Krylov rows X**k . E_i
    diag_ok = popov_ok and delta == [len(basis.rows[i][i]) - 1 for i in range(inst.m)]
    degree_ok = diag_ok and sum(delta) == _colength(inst)
    print(f"degree-sum: {'ok' if degree_ok else 'FAIL'}")
    failed |= not degree_ok
    return CHECK_FAILED if failed else OK


def _colength(inst: InterpInstance) -> int:
    """Dimension of the span of the rows X**k . E_i.

    The vectors X**k . E_i, k = 0, 1, ..., are reduced one by one against
    a reduced echelon basis of the span so far, and row i stops at its
    first dependent vector: the span of the earlier rows' sequences is
    X-invariant, so every later power of E_i is dependent too.  At most
    colength + m vectors are reduced.
    """
    p = inst.field.p
    sigma = inst.sigma
    basis = np.zeros((sigma, sigma), dtype=np.int64)
    pivots: List[int] = []  # pivot column of each basis row
    for row in inst.E:
        w = np.array([row], dtype=np.int64)
        while True:
            r = len(pivots)
            # in reduced echelon form, w's entries at the pivot columns are
            # its coordinates on the basis rows
            coords = w[0, pivots]
            v = (w[0] - (coords[:, None] * basis[:r] % p).sum(0)) % p
            nonzero = np.flatnonzero(v)
            if nonzero.size == 0:
                break
            col = int(nonzero[0])
            v = v * pow(int(v[col]), p - 2, p) % p
            basis[:r] = (basis[:r] - np.outer(basis[:r, col], v)) % p
            basis[r] = v
            pivots.append(col)
            w = x_powers(w, inst.jordan, inst.field, 1)[1]
    return len(pivots)


def _bench_instance(p: int, m: int, sigma: int, seed: int) -> InterpInstance:
    rng = random.Random(seed)
    field = Modulus(p)
    eigs = rng.sample(range(p), 3)
    blocks = []
    left = sigma
    while left > 0:
        n = min(left, rng.randint(1, max(1, sigma // 4)))
        blocks.append((rng.choice(eigs), n))
        left -= n
    rows = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
    jordan, rows = standardize(blocks, rows)
    shift = tuple(rng.randint(0, m * sigma) for _ in range(m))
    return InterpInstance(field, rows, jordan, shift)


def cmd_bench(args) -> int:
    try:
        Modulus(args.p)
        sigmas = [int(v) for v in args.sigmas.split(",") if v]
    except ValueError as exc:
        raise InputError(f"bad bench arguments: {exc}") from exc
    if args.m < 1 or args.trials < 1 or any(sg < 0 for sg in sigmas):
        raise InputError("bench needs --m >= 1, --trials >= 1 and nonnegative --sigmas")
    lines = ["engine,m,sigma,median_ms"]
    for sigma in sigmas:
        for engine, solver in (("popov", popov_mib), ("iterative", iterative_mib)):
            times = []
            for t in range(args.trials):
                inst = _bench_instance(args.p, args.m, sigma, args.seed + t)
                start = time.perf_counter()
                solver(inst)
                times.append((time.perf_counter() - start) * 1000.0)
            lines.append(f"{engine},{args.m},{sigma},{statistics.median(times):.3f}")
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return OK


def load_approximant(path: str) -> ApproximantProblem:
    data = _load_json(path)
    field = _field_of(data)
    try:
        fmat = PolyMat.from_rows(field, data["F"])
        return ApproximantProblem(field, fmat, tuple(data["orders"]), tuple(data["shift"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad approximant file {path}: {exc}") from exc


def cmd_order_basis(args) -> int:
    basis, delta = order_basis(load_approximant(args.problem))
    _write_out(basis_to_json(basis, delta), args.out)
    return OK


def load_gs(path: str) -> GSProblem:
    data = _load_json(path)
    field = _field_of(data)
    try:
        return GSProblem(
            field,
            int(data["num_y"]),
            tuple(tuple(g) for g in data["exponents"]),
            tuple((x, tuple(ys)) for x, ys in data["points"]),
            tuple(data["multiplicities"]),
            tuple(data["weights"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad interpolation file {path}: {exc}") from exc


def cmd_gs_interp(args) -> int:
    prob = load_gs(args.problem)
    try:
        inst = gs_instance(prob)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    basis, delta = popov_mib(inst)
    payload = basis_to_json(basis, delta)
    payload["instance"] = instance_to_json(inst)
    _write_out(payload, args.out)
    return OK


def cmd_adversarial(args) -> int:
    try:
        prob = adversarial_instance(args.m, args.sigma, args.seed, Modulus(args.p))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = {
        "p": args.p,
        "F": [[list(e) for e in row] for row in prob.F.rows],
        "orders": list(prob.orders),
        "shift": list(prob.shift),
    }
    payload["instance"] = instance_to_json(approximant_instance(prob))
    _write_out(payload, args.out)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popov-interp",
        description="shifted Popov minimal interpolation bases over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance file")
    sp.add_argument("instance")
    sp.add_argument("--engine", choices=["popov", "iterative", "oracle-check"],
                    default="popov")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("check", help="verify a basis against an instance")
    sp.add_argument("instance")
    sp.add_argument("basis")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("bench", help="wall-time scaling of the two engines")
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--sigmas", default="64,128,256")
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--p", type=int, default=998244353)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("order-basis", help="solve an approximation problem file")
    sp.add_argument("problem")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_order_basis)

    sp = sub.add_parser("gs-interp", help="solve a multivariate interpolation file")
    sp.add_argument("problem")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gs_interp)

    sp = sub.add_parser("adversarial", help="emit an adversarial approximation problem")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--sigma", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=int, default=97)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_adversarial)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
