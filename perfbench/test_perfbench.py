"""Tests of the benchmark itself: the gate, the metrics it prints, and
the counts of the traced run.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gate import certify, krylov_rank, verify
from workloads import WORKLOADS, load_library

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def lib():
    return load_library()


def reproducer(lib):
    """The instance on which ``popov-interp check`` accepts a non-generating basis."""
    field = lib.ff_poly.Modulus(97)
    jordan = lib.jordan_module.JordanSpec.from_json({"groups": [[0, [4]]]}, 97)
    return lib.mib_engine.InterpInstance(field, [[0, 1, 0, 0], [0, 0, 0, 0]], jordan, (0, 0))


def diag(lib, field, *entries):
    return lib.polymat.PolyMat(
        field, [[e if i == j else [] for j in range(len(entries))] for i, e in enumerate(entries)]
    )


def test_gate_rejects_basis_that_does_not_generate(lib):
    inst = reproducer(lib)
    basis = diag(lib, inst.field, [0, 0, 0, 1], [0, 1])
    verified = verify(lib, basis, inst)
    assert verified == (True, [True, True])  # the public verification path passes it
    failures = certify(inst, basis, (3, 1), verified, krylov_rank(lib, inst))
    assert failures == ["sum(delta)=4 is not the colength 3"]


def test_gate_accepts_the_popov_basis(lib):
    inst = reproducer(lib)
    basis = diag(lib, inst.field, [0, 0, 0, 1], [1])
    assert lib.mib_engine.iterative_mib(inst) == (basis, (3, 0))
    assert certify(inst, basis, (3, 0), verify(lib, basis, inst), krylov_rank(lib, inst)) == []


def test_gate_rejects_wrong_delta(lib):
    inst = reproducer(lib)
    basis = diag(lib, inst.field, [0, 0, 0, 1], [1])
    failures = certify(inst, basis, (2, 1), verify(lib, basis, inst), krylov_rank(lib, inst))
    assert failures == ["delta is not the diagonal degrees"]


def run_cli(monkeypatch, capsys, *args):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_CALLS", 3)
    code, lines, result = run_cli(
        monkeypatch, capsys, "--workload", workload, "--seed", "5", "--seconds", "0"
    )
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert sorted(result["metrics"]) == sorted(m["name"] for m in run.SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines)
    for name in list(result["metrics"]) + ["failed_frac"]:
        assert re.search(rf"^{re.escape(name)} .*\(n=\d+\)$", report, re.M)
    assert "crossover popov_ms.p50 / iterative_ms.p50" in report


def test_failures_are_counted_and_the_run_goes_on(monkeypatch, capsys):
    calls = []

    def faulty(lib, prob):
        calls.append(prob)
        if len(calls) == 3:  # the first call is the set-up warm-up
            raise RuntimeError("injected fault")
        basis, delta = lib.popov_mib.popov_mib(prob)
        return basis, tuple(d + 1 for d in delta) if len(calls) == 4 else delta

    wl = dataclasses.replace(WORKLOADS["mpade_ntt"], popov=faulty)
    monkeypatch.setitem(run.WORKLOADS, "mpade_ntt", wl)
    monkeypatch.setattr(run, "MIN_CALLS", 4)
    code, lines, result = run_cli(
        monkeypatch, capsys, "--workload", "mpade_ntt", "--seed", "5", "--seconds", "0"
    )
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 2)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in run.SPEC["end_to_end"])
    assert re.search(r"^failed_frac +0\.5000 frac +\(n=4\)$", "\n".join(lines), re.M)


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of two traced runs at one seed, on every workload."""
    out = {}
    for workload, wl in WORKLOADS.items():
        for attempt in range(2):
            lib, field, _ = run.set_up(wl, 7)
            result = run.Run()
            tracer = run.Tracer()
            for index in range(2):
                result.instance(lib, wl, field, 7, index, tracer)
            assert result.failed == 0
            out[workload, attempt] = run.per_layer(result)
    return out


def counts(metrics):
    return {k: v[0] for k, v in metrics.items() if run.unit_of(k) == "count"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_at_a_seed(traced, workload):
    first, second = counts(traced[workload, 0]), counts(traced[workload, 1])
    assert any(k.endswith(".calls") for k in first)
    assert first == second


def test_traced_counts_follow_the_workloads(traced):
    gs, p97, mpade = (counts(traced[w, 0]) for w in ("gs_list_decode", "order_basis_p97", "mpade_ntt"))
    assert gs["popov.ff_poly.binom_mod.calls"] > 0 and mpade["popov.ff_poly.binom_mod.calls"] > 0
    assert "popov.ff_poly.binom_mod.calls" not in p97  # eigenvalue 0 skips the Taylor shift
    assert p97["popov.ff_poly.poly_mul.karatsuba"] > 0
    assert "popov.ff_poly.poly_mul.karatsuba" not in gs and "popov.ff_poly.poly_mul.karatsuba" not in mpade
    assert mpade["verify.ff_poly.poly_mul.ntt"] > 0 and p97["verify.ff_poly.poly_mul.karatsuba"] > 0


def test_every_declared_per_layer_metric_is_measured(traced):
    seen = {name for metrics in traced.values() for name in metrics}
    declared = {m["name"] for m in run.SPEC["per_layer"]}
    # inside the popov call no product is long enough for the NTT path
    assert declared - seen == {"popov.ff_poly.poly_mul.ntt"}
    assert all(m["unit"] == run.unit_of(m["name"]) for m in run.SPEC["per_layer"])


def test_benchmark_json_follows_its_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mpade_ntt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
