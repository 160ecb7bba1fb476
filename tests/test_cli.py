import json

import numpy as np
import pytest

from liegates.cli import run


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_closure_subcommand(capsys):
    code, out, _ = run_json(capsys, ["closure", "--family", "clifford_full", "--n", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 10
    assert data["dim_ambient"] == 16
    assert not data["spans_su"]
    assert len(data["recipes"]) == 10
    assert all(r["exact"] for r in data["recipes"])


def test_relations_subcommand(capsys):
    code, out, _ = run_json(
        capsys, ["relations", "--family", "torus_full", "--n", "2", "--l", "3"]
    )
    assert code == 0
    assert json.loads(out)["max_violation"] <= 1e-12


def test_span_subcommand(capsys):
    code, out, _ = run_json(capsys, ["span", "--l", "3", "--n", "1"])
    assert code == 0
    assert json.loads(out)["rank"] == 9


def test_gens_subcommand_matrix_roundtrip(capsys):
    code, out, _ = run_json(capsys, ["gens", "--family", "pauli"])
    assert code == 0
    data = json.loads(out)
    sx = np.array([[c[0] + 1j * c[1] for c in row] for row in data["elements"][0]["matrix"]])
    assert np.array_equal(sx, np.array([[0, 1], [1, 0]], dtype=complex))


def test_compile_subcommand(capsys):
    code, out, _ = run_json(
        capsys,
        ["compile", "--family", "clifford_two_local", "--n", "2",
         "--target", "cnot", "--slices", "4"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["phase_invariant_error"] <= 1e-6
    assert data["items"]


def test_compile_random_seed_determinism(capsys):
    argv = ["compile", "--family", "clifford_two_local", "--n", "2",
            "--target", "random", "--seed", "3", "--slices", "8"]
    _, out1, _ = run_json(capsys, argv)
    _, out2, _ = run_json(capsys, argv)
    assert out1 == out2


def test_table_subcommand(capsys):
    code, out, _ = run_json(
        capsys, ["table", "--max-n", "2", "--families", "clifford_full"]
    )
    assert code == 0
    data = json.loads(out)
    dims = {(r["n"]): r["dim"] for r in data["rows"]}
    assert dims == {1: 3, 2: 10}
    assert data["all_match"]


def test_table_all_match_default_families(capsys):
    code, out, _ = run_json(capsys, ["table", "--max-n", "2"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 9
    assert data["all_match"]


def test_verify_self(capsys):
    code, out, _ = run_json(capsys, ["verify", "--self", "--seed", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"]
    assert all(c["ok"] for c in data["checks"])


def test_unknown_flag_exits_2(capsys):
    code, out, err = run_json(capsys, ["closure", "--family", "clifford_full", "--wat"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_bad_family_exits_2(capsys):
    code, _, err = run_json(capsys, ["gens", "--family", "not_a_family"])
    assert code == 2
    assert "error" in json.loads(err)


def test_capacity_error_exits_2(capsys):
    code, _, err = run_json(capsys, ["closure", "--family", "clifford_full", "--n", "13"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "validation"


def test_not_member_exits_1(capsys, tmp_path):
    # a diagonal pattern outside the rotation algebra of the gamma-only set
    from liegates.linalg import expm_antiherm
    from liegates.cli import _matrix_to_json

    SZ = np.array([[1, 0], [0, -1]], dtype=complex)
    u = expm_antiherm(0.5j * np.kron(SZ, SZ))
    path = tmp_path / "target.json"
    path.write_text(json.dumps(_matrix_to_json(u)))
    code, _, err = run_json(
        capsys,
        ["compile", "--family", "clifford_full", "--n", "2",
         "--target-file", str(path)],
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "not_member"


def test_eigensolver_failure_exits_1(capsys, monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, _, err = run_json(
        capsys,
        ["compile", "--family", "clifford_two_local", "--n", "2", "--target", "cnot"],
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "numerical"


def test_out_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_json(
        capsys, ["span", "--l", "2", "--n", "1", "--out", str(path)]
    )
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_compile_sweep_mode(capsys):
    code, out, _ = run_json(
        capsys,
        ["compile", "--family", "clifford_two_local", "--n", "2",
         "--target", "cnot", "--sweep", "1", "4", "16"],
    )
    assert code == 0
    data = json.loads(out)
    assert [r["slices"] for r in data["sweep"]] == [1, 4, 16]
    assert data["monotone"]


def test_closure_include_basis(capsys):
    code, out, _ = run_json(
        capsys,
        ["closure", "--family", "clifford_full", "--n", "1", "--include-basis"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["basis"]) == data["dim"] == 3
    assert len(data["basis"][0]) == 2


def test_byte_identical_reruns(capsys):
    for argv in (
        ["closure", "--family", "torus_splits", "--n", "1", "--l", "3"],
        ["table", "--max-n", "1", "--families", "clifford_full"],
    ):
        _, out1, _ = run_json(capsys, argv)
        _, out2, _ = run_json(capsys, argv)
        assert out1 == out2
