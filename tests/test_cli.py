"""End-to-end command-line behavior: files in, files out, exit codes."""

import json

import pytest

from conftest import random_instance
from popov_interp.cli import instance_to_json, load_instance, main


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
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


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
], ids=["solve-E", "solve-shift", "check-basis", "order-basis", "gs-point", "gs-multiplicity"])
def test_loaders_reject_floats_and_booleans(command, payload, instance_file, tmp_path, capsys):
    # each would otherwise be read as an integer, truncated, or fail inside
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    args = [command, str(instance_file), str(path)] if command == "check" else [command, str(path)]
    assert main(args) == 1
    assert "is not an integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("p", (3, 97, 998244353, 2**31 - 1))
def test_colength_matches_dense_krylov_rank(rng, p):
    from popov_interp import InterpInstance
    from popov_interp.cli import _colength
    from popov_interp.jordan_module import x_powers
    from popov_interp.linalg import rank_mod

    for _ in range(40):
        # few eigenvalues, so blocks repeat them; sigma from 0 and below m
        inst = random_instance(rng, p=p, sigma_range=(0, 20), m_range=(1, 5), max_eigs=2)
        rows = [list(r) for r in inst.E]
        for i in range(1, len(rows)):
            pick = rng.random()
            if pick < 0.2:
                rows[i] = [0] * inst.sigma
            elif pick < 0.4:  # a multiple of an earlier row adds nothing
                rows[i] = [3 * v % p for v in rows[rng.randrange(i)]]
        inst = InterpInstance(inst.field, rows, inst.jordan, inst.shift)
        sigma, m = inst.sigma, inst.m
        dense = 0
        if sigma:
            krylov = x_powers(inst.E, inst.jordan, inst.field, sigma - 1)
            dense = rank_mod(krylov.reshape(sigma * m, sigma), p)
        assert _colength(inst) == dense


def test_engine_fault_is_internal_error(instance_file, monkeypatch, capsys):
    from popov_interp import cli

    def broken(inst):
        raise ValueError("inconsistent minimal degree")

    monkeypatch.setattr(cli, "popov_mib", broken)
    assert main(["solve", str(instance_file)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_bad_arguments_are_input_errors():
    assert main(["adversarial", "--m", "1", "--sigma", "4"]) == 1
    assert main(["adversarial", "--m", "2", "--sigma", "4", "--p", "96"]) == 1
    assert main(["bench", "--sigmas", "8,x"]) == 1
    assert main(["bench", "--sigmas", "8", "--p", "96"]) == 1
    assert main(["bench", "--m", "0", "--sigmas", "8"]) == 1
