"""End-to-end command-line behavior: files in, files out, exit codes."""

import json
import time

import pytest

from conftest import dense_krylov_rank, random_instance
from popov_interp import InterpInstance, PolyMat, is_popov, popov_mib
from popov_interp.cli import basis_to_json, instance_to_json, load_instance, main
from popov_interp.linalg import rank_mod


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    payload = {
        "p": 97,
        "m": 2,
        "jordan": [[0, [1]]],
        "E": [[1], [1]],
        "shift": [0, 0],
    }
    path.write_text(json.dumps(payload))
    return path


def test_solve_writes_expected_basis(instance_file, tmp_path):
    out = tmp_path / "basis.json"
    assert main(["solve", str(instance_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["basis"] == [[[0, 1], []], [[96], [1]]]
    assert data["delta"] == [1, 0]


def test_solve_zero_instance(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps({"p": 97, "m": 2, "jordan": [[5, [2]]], "E": [[0, 0], [0, 0]], "shift": [1, 0]})
    )
    assert main(["solve", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["basis"] == [[[1], []], [[], [1]]]
    assert data["delta"] == [0, 0]


def test_solve_engines_agree(instance_file, tmp_path):
    outs = []
    for engine in ("popov", "iterative", "oracle-check"):
        out = tmp_path / f"{engine}.json"
        assert main(["solve", str(instance_file), "--engine", engine, "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] == outs[2]


def test_oracle_check_on_random_instances(rng, tmp_path):
    for k in range(50):
        inst = random_instance(rng, sigma_range=(0, 14), m_range=(1, 4))
        path = tmp_path / f"i{k}.json"
        path.write_text(json.dumps(instance_to_json(inst)))
        out = tmp_path / f"o{k}.json"
        assert main(["solve", str(path), "--engine", "oracle-check", "--out", str(out)]) == 0


def test_oracle_check_reports_a_mismatch(instance_file, tmp_path, monkeypatch, capsys):
    # a known-degree side that returns the identity disagrees with the
    # elimination's basis: a verification failure, not an internal error
    from popov_interp import cli

    monkeypatch.setattr(cli, "known_mindeg_mib", lambda inst, mindeg: PolyMat.identity(inst.field, inst.m))
    out = tmp_path / "basis.json"
    assert main(["solve", str(instance_file), "--engine", "oracle-check", "--out", str(out)]) == 2
    assert "engine mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_check_reports_a_degree_mismatch(instance_file, tmp_path, monkeypatch, capsys):
    # a Mib whose degrees disagree with the elimination's fails the check
    # before any rebuild
    from popov_interp import cli

    mib = cli.minimal_interpolation_basis
    monkeypatch.setattr(
        cli, "minimal_interpolation_basis", lambda inst: (mib(inst)[0], (0,) * inst.m)
    )
    out = tmp_path / "basis.json"
    assert main(["solve", str(instance_file), "--engine", "oracle-check", "--out", str(out)]) == 2
    assert "engine mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_solve_is_deterministic(instance_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(instance_file), "--out", str(a)]) == 0
    assert main(["solve", str(instance_file), "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_solve_rejects_out_of_range_residues(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"p": 97, "m": 1, "jordan": [[0, [1]]], "E": [[97]], "shift": [0]})
    )
    assert main(["solve", str(path)]) == 1


def test_check_rejects_wrong_dimension_basis(instance_file, tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"basis": [[[1]]], "delta": [0]}))
    assert main(["check", str(instance_file), str(wrong)]) == 2


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cases = [
        b"{not json",
        b'{"p": 97, "E": [[\xff]]}',  # not UTF-8
        b'{"p": ' + b"9" * 5000 + b"}",  # past Python's integer digit limit
        b'{"p": 97, "E": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # past the stack
    ]
    for text in cases:
        bad.write_bytes(text)
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")


def test_solve_invalid_instance(tmp_path):
    cases = [
        {"p": 96, "m": 1, "jordan": [], "E": [[]], "shift": [0]},
        # an empty run, and sizes that are not positive
        {"p": 97, "m": 1, "jordan": [[0, []]], "E": [[]], "shift": [0]},
        {"p": 97, "m": 1, "jordan": [[0, [0]]], "E": [[]], "shift": [0]},
        {"p": 97, "m": 1, "jordan": [[0, [-1]]], "E": [[]], "shift": [0]},
    ]
    for k, payload in enumerate(cases):
        bad = tmp_path / f"bad{k}.json"
        bad.write_text(json.dumps(payload))
        assert main(["solve", str(bad)]) == 1


def test_solve_and_check_blocks_in_any_order(tmp_path, capsys):
    # eigenvalue 0 recurs after 5, and its sizes increase
    path = tmp_path / "unordered.json"
    payload = {
        "p": 97,
        "m": 2,
        "jordan": [[0, [1, 2]], [5, [1]], [0, [1]]],
        "E": [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]],
        "shift": [0, 0],
    }
    path.write_text(json.dumps(payload))
    out = tmp_path / "basis.json"
    assert main(["solve", str(path), "--engine", "oracle-check", "--out", str(out)]) == 0
    assert main(["check", str(path), str(out)]) == 0
    assert capsys.readouterr().out.count(": ok") == 3
    assert instance_to_json(load_instance(str(path))) == payload


def test_loader_rejects_non_integer_fields(tmp_path):
    cases = [
        {"p": 97, "jordan": [[0, [1]]], "E": [[1]], "shift": [1.5]},
        {"p": 97, "jordan": [[0.5, [1]]], "E": [[1]], "shift": [0]},
        {"p": 97, "jordan": [[0, [1.0]]], "E": [[1]], "shift": [0]},
    ]
    for k, payload in enumerate(cases):
        path = tmp_path / f"c{k}.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", str(path)]) == 1


GS = {"p": 97, "num_y": 1, "exponents": [[0], [1]], "points": [[0, [1]]],
      "multiplicities": [1], "weights": [0]}


@pytest.mark.parametrize("command, payload", [
    ("solve", {"p": 97, "m": 2, "jordan": [[0, [1]]], "E": [[True], [1]], "shift": [0, 0]}),
    ("solve", {"p": 97, "m": 2, "jordan": [[0, [1]]], "E": [[1], [1]], "shift": [0, True]}),
    ("check", {"p": 97, "basis": [[[0, 1.5], []], [[96], [1]]], "delta": [1, 0]}),
    ("order-basis", {"p": 97, "F": [[[2.5]], [[1]]], "orders": [2], "shift": [0, 0]}),
    ("gs-interp", {**GS, "points": [[1.7, [1]]]}),
    ("gs-interp", {**GS, "multiplicities": [2.0]}),
    ("check", {"p": 97, "basis": [[[0, 1], []], [[96], [1]]], "delta": ["1", " 0"]}),
    ("order-basis", {"p": 97, "F": [[[2]], [[1]]], "orders": ["2"], "shift": ["0", 0]}),
    ("gs-interp", {**GS, "num_y": "1"}),
    ("gs-interp", {**GS, "exponents": [{"0": 5}, {"1": 7}]}),
    ("gs-interp", {**GS, "points": [[0, {"1": 0}]]}),
    ("solve", {"p": 97, "m": 2, "jordan": [[0, {"1": 0}]], "E": [[1], [1]], "shift": [0, 0]}),
    ("check", {"p": 97, "basis": [[[0, 1], []], [[96], [1]]], "delta": {"1": 0, "0": 0}}),
    ("gs-interp", {**GS, "weights": {"0": 1}}),
], ids=["solve-E", "solve-shift", "check-basis", "order-basis", "gs-point", "gs-multiplicity",
        "check-delta", "order-basis-orders", "gs-num_y", "gs-exponent-object", "gs-point-object",
        "solve-jordan-object", "check-delta-object", "gs-weights-object"])
def test_loaders_reject_floats_and_booleans(command, payload, instance_file, tmp_path, capsys):
    # each would otherwise be read as an integer (a string through int(),
    # an object as its keys), truncated, or fail inside
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    args = [command, str(instance_file), str(path)] if command == "check" else [command, str(path)]
    assert main(args) == 1
    assert "is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [
    # 98 = 1 + 97: reduced silently, the basis would pass every check
    ("check", {"p": 97, "basis": [[[0, 98], []], [[96], [1]]], "delta": [1, 0]}),
    ("order-basis", {"p": 97, "F": [[[98]], [[1]]], "orders": [2], "shift": [0, 0]}),
], ids=["check-basis", "order-basis-F"])
def test_loaders_reject_non_residues(command, payload, instance_file, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    args = [command, str(instance_file), str(path)] if command == "check" else [command, str(path)]
    assert main(args) == 1
    assert "must be residues in [0, p)" in capsys.readouterr().err


def test_loaders_reject_non_object_json(tmp_path, capsys):
    for k, text in enumerate(("[]", "null", '"hi"', "3")):
        path = tmp_path / f"t{k}.json"
        path.write_text(text)
        for cmd in ("solve", "order-basis", "gs-interp"):
            assert main([cmd, str(path)]) == 1
    assert "expected a JSON object" in capsys.readouterr().err


def test_check_round_trip(instance_file, tmp_path, capsys):
    out = tmp_path / "basis.json"
    main(["solve", str(instance_file), "--out", str(out)])
    assert main(["check", str(instance_file), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "popov-form: ok" in printed
    assert "zero-residual: ok" in printed
    assert "degree-sum: ok" in printed


def test_check_rejects_scaled_row(instance_file, tmp_path):
    out = tmp_path / "basis.json"
    main(["solve", str(instance_file), "--out", str(out)])
    data = json.loads(out.read_text())
    data["basis"][0] = [[0, 2], []]  # scale a row: pivot no longer monic
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    assert main(["check", str(instance_file), str(tampered)]) == 2


def test_check_rejects_unreduced_column(instance_file, tmp_path):
    out = tmp_path / "basis.json"
    main(["solve", str(instance_file), "--out", str(out)])
    data = json.loads(out.read_text())
    data["basis"][1] = [[96, 1], [1]]  # degree-1 entry under a degree-1 pivot
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    assert main(["check", str(instance_file), str(tampered)]) == 2


def test_instance_json_round_trip(rng, tmp_path):
    for _ in range(10):
        inst = random_instance(rng, sigma_range=(0, 12), m_range=(1, 4))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_to_json(inst)))
        back = load_instance(str(path))
        assert back.E.tolist() == inst.E.tolist()
        assert back.jordan == inst.jordan
        assert back.shift == inst.shift
        assert instance_to_json(back) == instance_to_json(inst)


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    assert main([
        "bench", "--m", "2", "--sigmas", "8,16", "--trials", "2",
        "--p", "97", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "engine,m,sigma,median_ms"
    assert len(lines) == 5  # 2 engines x 2 sigmas


def test_order_basis_command(tmp_path):
    path = tmp_path / "approx.json"
    path.write_text(json.dumps({"p": 97, "F": [[[1]], [[1]]], "orders": [2], "shift": [0, 0]}))
    out = tmp_path / "basis.json"
    assert main(["order-basis", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["basis"] == [[[0, 0, 1], []], [[96], [1]]]


def test_gs_interp_command(tmp_path):
    path = tmp_path / "gs.json"
    path.write_text(
        json.dumps(
            {
                "p": 97,
                "num_y": 1,
                "exponents": [[0], [1]],
                "points": [[0, [1]]],
                "multiplicities": [1],
                "weights": [0],
            }
        )
    )
    out = tmp_path / "basis.json"
    assert main(["gs-interp", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["basis"] == [[[0, 1], []], [[96], [1]]]
    assert data["instance"]["E"] == [[1], [1]]


def test_check_reads_gs_interp_output(tmp_path, capsys):
    # the basis file gs-interp writes holds its instance as an object,
    # which check does not read
    path = tmp_path / "gs.json"
    path.write_text(json.dumps({**GS, "exponents": [[0], [1], [2]],
                                "points": [[1, [2]], [3, [4]]], "multiplicities": [2, 2]}))
    out = tmp_path / "gs_out.json"
    assert main(["gs-interp", str(path), "--out", str(out)]) == 0
    inst = tmp_path / "gs_inst.json"
    inst.write_text(json.dumps(json.loads(out.read_text())["instance"]))
    assert main(["check", str(inst), str(out)]) == 0
    assert capsys.readouterr().out.count(": ok") == 3


def test_gs_interp_rejects_duplicates(tmp_path, capsys):
    path = tmp_path / "gs.json"
    path.write_text(
        json.dumps(
            {
                "p": 97,
                "num_y": 1,
                "exponents": [[0]],
                "points": [[0, [1]], [0, [1]]],
                "multiplicities": [1, 1],
                "weights": [0],
            }
        )
    )
    assert main(["gs-interp", str(path)]) == 1
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("exponents, message", [
    ([[0], [-1]], "nonnegative"),
    ([[0], [0]], "duplicate exponent"),
    ([], "at least one exponent"),
], ids=["negative", "duplicate", "empty"])
def test_gs_interp_rejects_bad_exponents(exponents, message, tmp_path, capsys):
    # the first two would otherwise be solved: a Y**-1 column, or a zero row Q
    path = tmp_path / "gs.json"
    path.write_text(json.dumps({**GS, "exponents": exponents}))
    assert main(["gs-interp", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, encoder", [
    ("adversarial", "adversarial_instance"),
    ("gs-interp", "gs_instance"),
])
def test_encoder_fault_is_internal_error(command, encoder, tmp_path, monkeypatch, capsys):
    # the inputs are checked before the encoders run, so a ValueError
    # from one is a fault of the program, not of its input
    from popov_interp import cli

    def broken(*args):
        raise ValueError("encoder fault")

    monkeypatch.setattr(cli, encoder, broken)
    path = tmp_path / "gs.json"
    path.write_text(json.dumps(GS))
    args = ["adversarial", "--m", "2", "--sigma", "4"] if command == "adversarial" else [command, str(path)]
    assert main(args) == 3
    assert "internal error: ValueError: encoder fault" in capsys.readouterr().err


def test_adversarial_command(tmp_path):
    out = tmp_path / "adv.json"
    assert main(["adversarial", "--m", "3", "--sigma", "6", "--seed", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["F"]) == 6
    assert data["shift"] == [0, 0, 0, 6, 6, 6]
    # the emitted instance encoding is solvable directly
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(data["instance"]))
    assert main(["solve", str(inst_path), "--engine", "oracle-check", "--out", str(tmp_path / "b.json")]) == 0


def test_check_rejects_non_generating_basis(tmp_path, capsys):
    # diag(X^3, X) has Popov form and interpolant rows, but the module is
    # generated by diag(X^3, 1): its colength is 3, not 4
    inst = tmp_path / "inst.json"
    inst.write_text(
        json.dumps({"p": 97, "m": 2, "jordan": [[0, [4]]], "E": [[0, 1, 0, 0], [0, 0, 0, 0]], "shift": [0, 0]})
    )
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"p": 97, "basis": [[[0, 0, 0, 1], []], [[], [0, 1]]], "delta": [3, 1]}))
    assert main(["check", str(inst), str(basis)]) == 2
    assert "degree-sum: FAIL" in capsys.readouterr().out
    solved = tmp_path / "solved.json"
    assert main(["solve", str(inst), "--out", str(solved)]) == 0
    assert json.loads(solved.read_text())["basis"] == [[[0, 0, 0, 1], []], [[], [1]]]
    assert main(["check", str(inst), str(solved)]) == 0


PRIMES = (3, 97, 998244353, 2**31 - 1)


def edge_instances(rng, p, count):
    """Instances with sigma from 0 and below m, few (so repeated)
    eigenvalues, and rows of E that are zero or multiples of others."""
    for _ in range(count):
        inst = random_instance(rng, p=p, sigma_range=(0, 20), m_range=(1, 5), max_eigs=2)
        rows = [list(r) for r in inst.E]
        for i in range(1, len(rows)):
            pick = rng.random()
            if pick < 0.2:
                rows[i] = [0] * inst.sigma
            elif pick < 0.4:  # a multiple of an earlier row adds nothing
                rows[i] = [3 * v % p for v in rows[rng.randrange(i)]]
        yield InterpInstance(inst.field, rows, inst.jordan, inst.shift)


@pytest.mark.parametrize("p", PRIMES)
def test_colength_matches_dense_krylov_rank(rng, p):
    # on the Popov basis, the rank check takes, of the staircase rows
    # X**k . E_j for k < delta_j, is the colength and sum(delta)
    for inst in edge_instances(rng, p, 40):
        _, delta = popov_mib(inst)
        staircase = rank_mod(inst.powers.gather(delta), p)
        assert staircase == dense_krylov_rank(inst) == sum(delta)


@pytest.mark.parametrize("p", PRIMES)
def test_check_certifies_generation(rng, p, tmp_path, capsys):
    # every Popov basis passes; one row times X leaves interpolant rows of
    # a proper submodule, and those still in Popov form fail only the
    # degree sum (or are input errors, past sigma + 1 coefficients)
    inst_path, basis_path = tmp_path / "inst.json", tmp_path / "basis.json"
    rejected = 0
    for inst in edge_instances(rng, p, 30):
        inst_path.write_text(json.dumps(instance_to_json(inst)))
        basis, delta = popov_mib(inst)
        basis_path.write_text(json.dumps(basis_to_json(basis, delta)))
        assert main(["check", str(inst_path), str(basis_path)]) == 0
        capsys.readouterr()
        for i in range(inst.m):
            rows = [list(r) for r in basis.rows]
            rows[i] = [[0] + e if e else [] for e in rows[i]]
            sub = PolyMat(inst.field, rows)
            if not is_popov(sub, inst.shift):
                continue
            bumped = [d + (j == i) for j, d in enumerate(delta)]
            basis_path.write_text(json.dumps(basis_to_json(sub, bumped)))
            if bumped[i] > inst.sigma:
                assert main(["check", str(inst_path), str(basis_path)]) == 1
                continue
            assert main(["check", str(inst_path), str(basis_path)]) == 2
            assert capsys.readouterr().out.splitlines() == [
                "popov-form: ok",
                "zero-residual: ok",
                "degree-sum: FAIL",
            ]
            rejected += 1
    assert rejected


def test_oversized_explicit_supports_fail_fast(tmp_path, capsys):
    # 16 and 20 tuples of total degree up to 15 and 19: the box of 16**6
    # or 20**8 derivative indices is never enumerated
    for num_y, size in ((6, 16), (8, 20)):
        support = [[k] + [0] * num_y for k in range(size)]
        path = tmp_path / f"gs{num_y}.json"
        path.write_text(
            json.dumps(
                {
                    "p": 97,
                    "num_y": num_y,
                    "exponents": [[0] * num_y],
                    "points": [[1, [0] * num_y]],
                    "multiplicities": [support],
                    "weights": [0] * num_y,
                }
            )
        )
        start = time.perf_counter()
        assert main(["gs-interp", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert "positive integers" in capsys.readouterr().err


def test_engine_fault_is_internal_error(instance_file, monkeypatch, capsys):
    from popov_interp import cli

    def broken(inst):
        raise ValueError("inconsistent minimal degree")

    monkeypatch.setattr(cli, "popov_mib", broken)
    assert main(["solve", str(instance_file)]) == 3
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["order-basis", "gs-interp", "adversarial", "bench"])
def test_derived_sizes_are_bounded(command, tmp_path, capsys):
    # each asks for far past MAX_CELLS from a few integers, and is refused
    # before anything is built
    path = tmp_path / "problem.json"
    big = {
        "order-basis": {"p": 97, "F": [[[1]], [[2]]], "orders": [10**9], "shift": [0, 0]},
        "gs-interp": {**GS, "multiplicities": [100_000]},
    }
    if command in big:
        path.write_text(json.dumps(big[command]))
        args = [command, str(path)]
    else:
        args = [command, "--m", "1000", "--sigma" + ("s" if command == "bench" else ""), "10000000"]
    start = time.perf_counter()
    assert main(args) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceed" in capsys.readouterr().err


def test_explicit_instance_sizes_are_bounded(tmp_path):
    from popov_interp import cli

    # 3000 rows of one constraint: a small file, but m*m*(sigma+1) = 18e6
    # cells of a basis, past MAX_CELLS
    m = 3000
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(
        {"p": 97, "m": m, "jordan": [[0, [1]]], "E": [[1]] * m, "shift": [0] * m}
    ))
    assert m * m * 2 > cli.MAX_CELLS
    with pytest.raises(cli.InputError, match="exceed"):
        load_instance(str(path))


def test_size_bound_is_inclusive():
    from popov_interp import cli

    # m = 2: 4 * (sigma + 1) reaches MAX_CELLS at sigma = MAX_CELLS // 4 - 1
    cli._check_size(2, cli.MAX_CELLS // 4 - 1)
    with pytest.raises(cli.InputError, match="exceed"):
        cli._check_size(2, cli.MAX_CELLS // 4)


def test_bad_arguments_are_input_errors():
    assert main(["adversarial", "--m", "1", "--sigma", "4"]) == 1
    assert main(["adversarial", "--m", "2", "--sigma", "4", "--p", "96"]) == 1
    assert main(["bench", "--sigmas", "8,x"]) == 1
    assert main(["bench", "--sigmas", "8", "--p", "96"]) == 1
    assert main(["bench", "--m", "0", "--sigmas", "8"]) == 1


def test_check_bounds_basis_entries_by_sigma(tmp_path, capsys):
    # sigma = 4: an entry of sigma + 1 = 5 coefficients is read and checked,
    # one of sigma + 2 is an input error before anything is sized by it
    inst = tmp_path / "inst.json"
    inst.write_text(
        json.dumps({"p": 97, "m": 2, "jordan": [[0, [4]]], "E": [[0, 1, 0, 0], [0, 0, 0, 0]], "shift": [0, 0]})
    )
    basis = tmp_path / "basis.json"
    # diag(X^4, 1): Popov interpolants, but delta sums to 4 > colength 3,
    # so the staircase rows X**k . E_0, k < 4, are dependent
    basis.write_text(json.dumps({"p": 97, "basis": [[[0, 0, 0, 0, 1], []], [[], [1]]], "delta": [4, 0]}))
    assert main(["check", str(inst), str(basis)]) == 2
    out = capsys.readouterr().out
    assert "popov-form: ok" in out and "zero-residual: ok" in out
    assert "degree-sum: FAIL" in out
    basis.write_text(json.dumps({"p": 97, "basis": [[[0, 0, 0, 0, 0, 1], []], [[], [1]]], "delta": [5, 0]}))
    assert main(["check", str(inst), str(basis)]) == 1
    assert "sigma + 1" in capsys.readouterr().err
