"""Batch command-line interface.

Subcommands: solve, check, bench, order-basis, gs-interp, adversarial.
Instances and results are JSON; coefficients are plain integers in
[0, p), low degree first, with [] as the zero polynomial.  Exit codes:
0 success, 1 input error, 2 verification failure or engine mismatch,
3 internal error.  An input file that cannot be read or parsed, and an
instance that any command would size past ``MAX_CELLS``, explicit
files included, are input errors.  So is any problem that its class
(``InterpInstance``, ``ApproximantProblem``, ``GSProblem``) refuses
when it is built, or a bad argument of ``bench`` or ``adversarial``; an
error raised after that, in an encoder or an engine, is internal.

``check`` rejects a basis entry of more than sigma + 1 coefficients as
an input error before sizing anything by it.  No basis that passes is
cut off: in an s-Popov basis each off-diagonal entry is shorter than the
diagonal entry of its column, and the diagonal degrees sum to at most
sigma.

``check`` certifies that the basis P generates the module M of
interpolants, not only that its rows lie in M.  Let P be in s-Popov form
with diagonal degrees delta.  Its diagonal entries are monic and every
other entry of column j has degree below delta_j, so dividing any row
vector by P leaves a unique combination of the staircase monomials
``X**k . e_j``, k < delta_j: they are a basis of ``F[X]^m / rows(P)``,
whose dimension is ``sum(delta)``.  If the rows of P are interpolants,
the module action ``p -> p . E`` vanishes on ``rows(P)``, a submodule
of its kernel M, so the images ``X**k . E_j`` of the staircase monomials
span its image, whose dimension is the colength ``dim F[X]^m / M``.  So
their rank is the colength, at most ``sum(delta)``, with equality if and
only if ``rows(P) = M``.  The check takes that rank over the rows of
``inst.powers``, which the residual check has already grown that far: a
Popov row reaches degree delta_j in column j.  A rank is at most sigma,
so a degree sum past sigma fails before anything is built.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from typing import List, Optional, Tuple

from . import linalg
from .apps import (
    ApproximantProblem,
    GSProblem,
    adversarial_instance,
    approximant_instance,
    gs_instance,
    order_basis,
)
from .ff_poly import Modulus, int_tuple
from .jordan_module import JordanSpec, standardize
from .mib_engine import InterpInstance, interpolant_check, iterative_mib, minimal_interpolation_basis
from .polymat import PolyMat, is_popov
from .popov_mib import known_mindeg_mib, popov_mib

OK, INPUT_ERROR, CHECK_FAILED, INTERNAL_ERROR = 0, 1, 2, 3

# the largest m*m*(sigma+1) of an instance sized from a few integers
MAX_CELLS = 1 << 24


class InputError(Exception):
    pass


def _check_size(m: int, sigma: int) -> None:
    """Reject m rows and sigma constraints before anything is built.

    The m x m basis is one packed array of up to m*m*(sigma+1) int64
    coefficients, about as many as iterative_weak_popov's, so MAX_CELLS
    (8x the 16 rows at sigma 8192 that bench and the tests reach) keeps
    each near 128 MB at most.  While it runs, polymat.matmul holds both
    operands' spectra: c limbs each, padded to under twice the product's
    length, c = 3 near 2**31 at bench sizes (10x a 16 x 16 int64 output).
    """
    if m * m * (sigma + 1) > MAX_CELLS:
        raise InputError(f"m = {m}, sigma = {sigma}: m*m*(sigma+1) exceeds {MAX_CELLS}")


def _load_json(path: str, keys: Tuple[str, ...]) -> dict:
    """Read a JSON object whose values under ``keys``, the ones the caller
    reads, are nested lists of integers.

    Other values, such as the ``instance`` that ``gs-interp`` writes next
    to its basis, may hold objects; no value anywhere may be a boolean, a
    float or a string.
    """
    # ValueError: not UTF-8, not JSON or past the digit limit; RecursionError: too deep
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            for key, value in data.items():
                _check_integers(value, path, key not in keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def _check_integers(value, path: str, objects: bool) -> None:
    """Reject every boolean, float and string in a JSON value, and every
    object unless ``objects``; object keys stay strings.

    They would otherwise pass as integers (``true`` as 1, ``"3"`` through
    ``int()``, ``{"3": 0}`` as its keys) or be truncated where they are
    packed into int64 arrays.
    """
    if isinstance(value, (bool, float, str)) or isinstance(value, dict) and not objects:
        raise InputError(f"{path}: {json.dumps(value)} is not an integer")
    if isinstance(value, (list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            _check_integers(v, path, objects)


def _check_residues(value, p: int, what: str) -> None:
    """Reject every entry of a nested list that is not a residue in [0, p).

    E, basis and F coefficients are residues; the library would reduce
    any other integer silently, so a 98 at p = 97 would be read as 1.
    It runs after ``_check_integers``, which leaves integers and null.
    """
    if isinstance(value, list):
        for v in value:
            _check_residues(v, p, what)
    elif value is None or not 0 <= value < p:
        raise ValueError(f"{what} entries must be residues in [0, p)")


def _field_of(data: dict) -> Modulus:
    try:
        return Modulus(data["p"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad modulus: {exc}") from exc


def load_instance(path: str) -> InterpInstance:
    """Parse {"p", "m", "jordan", "E", "shift"} into an instance."""
    data = _load_json(path, ("p", "m", "jordan", "E", "shift"))
    field = _field_of(data)
    try:
        _check_residues(data["E"], field.p, "E")
        jordan = JordanSpec.from_json(data["jordan"], field.p)
        inst = InterpInstance(field, data["E"], jordan, tuple(data["shift"]))
        if inst.m != data.get("m", inst.m):
            raise ValueError("m does not match the number of rows of E")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad instance file {path}: {exc}") from exc
    _check_size(inst.m, inst.sigma)
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
    else:  # oracle-check: the Mib's degrees and their rebuild against the elimination
        basis, delta = iterative_mib(inst)
        mindeg = minimal_interpolation_basis(inst)[1]
        if mindeg != delta or known_mindeg_mib(inst, mindeg) != basis:
            print("engine mismatch: known-degree and iterative outputs differ", file=sys.stderr)
            return CHECK_FAILED
    _write_out(basis_to_json(basis, delta), args.out)
    return OK


def cmd_check(args) -> int:
    inst = load_instance(args.instance)
    data = _load_json(args.basis, ("basis", "delta"))
    try:
        _check_residues(data["basis"], inst.field.p, "basis")
        longest = inst.sigma + 1
        if any(len(e) > longest for row in data["basis"] for e in row):
            raise ValueError(f"basis entries must have at most sigma + 1 = {longest} coefficients")
        basis = PolyMat.from_rows(inst.field, data["basis"])
        delta = int_tuple(data["delta"], "delta entries must be integers")
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

    # a Popov basis of interpolants generates the module iff its
    # staircase rows X**k . E_j, k < delta_j, are independent (see above)
    diag_ok = popov_ok and delta == tuple(len(basis.rows[i][i]) - 1 for i in range(inst.m))
    degree_ok = (
        diag_ok
        and sum(delta) <= inst.sigma
        and linalg.rank_mod(inst.powers.gather(delta), inst.field.p) == sum(delta)
    )
    print(f"degree-sum: {'ok' if degree_ok else 'FAIL'}")
    failed |= not degree_ok
    return CHECK_FAILED if failed else OK


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
    _check_size(args.m, max(sigmas, default=0))
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
    data = _load_json(path, ("p", "F", "orders", "shift"))
    field = _field_of(data)
    try:
        _check_residues(data["F"], field.p, "F")
        fmat = PolyMat.from_rows(field, data["F"])
        return ApproximantProblem(field, fmat, tuple(data["orders"]), tuple(data["shift"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad approximant file {path}: {exc}") from exc


def cmd_order_basis(args) -> int:
    prob = load_approximant(args.problem)
    _check_size(prob.F.nrows, sum(prob.orders))
    basis, delta = order_basis(prob)
    _write_out(basis_to_json(basis, delta), args.out)
    return OK


def load_gs(path: str) -> GSProblem:
    data = _load_json(path, ("p", "num_y", "exponents", "points", "multiplicities", "weights"))
    field = _field_of(data)
    try:
        return GSProblem(
            field,
            data["num_y"],
            tuple(tuple(g) for g in data["exponents"]),
            tuple((x, tuple(ys)) for x, ys in data["points"]),
            tuple(data["multiplicities"]),
            tuple(data["weights"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad interpolation file {path}: {exc}") from exc


def cmd_gs_interp(args) -> int:
    prob = load_gs(args.problem)
    _check_size(prob.m, prob.sigma)
    inst = gs_instance(prob)
    basis, delta = popov_mib(inst)
    payload = basis_to_json(basis, delta)
    payload["instance"] = instance_to_json(inst)
    _write_out(payload, args.out)
    return OK


def cmd_adversarial(args) -> int:
    try:
        field = Modulus(args.p)
    except ValueError as exc:
        raise InputError(f"bad modulus: {exc}") from exc
    if not args.sigma >= args.m >= 2:
        raise InputError("adversarial needs --sigma >= --m >= 2")
    _check_size(2 * args.m, args.sigma)
    prob = adversarial_instance(args.m, args.sigma, args.seed, field)
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
