import argparse
import json

import numpy as np
import pytest

from liegates.cli import build_parser, run
from liegates.errors import FamilyMismatchError
from liegates.generators import GeneratorSet, relation_report
from liegates.lieclosure import _BUILDERS, build_family


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


@pytest.mark.parametrize("argv", [
    ["closure", "--family", "clifford_two_local", "--n", "1"],
    ["gens", "--family", "weyl", "--l", "1"],
    ["span", "--l", "1", "--n", "1"],
    ["compile", "--family", "clifford_two_local", "--n", "2", "--slices", "0"],
])
def test_out_of_range_value_exits_2(capsys, argv):
    code, out, err = run_json(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("argv", [
    ["gens", "--family", "weyl", "--n", "3", "--l", "3"],
    ["relations", "--family", "pauli", "--n", "4", "--l", "7"],
    ["closure", "--family", "clifford_full", "--n", "2", "--l", "5"],
    ["gens", "--family", "tau", "--n", "2", "--l", "3"],
    ["relations", "--family", "clifford_two_local", "--n", "2", "--l", "9"],
])
def test_pinned_parameter_refused(capsys, argv):
    # each family reads only some of --n/--l; the other is pinned
    code, out, err = run_json(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "validation"


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


def test_compile_bare_sweep_runs_default_slices(capsys):
    code, out, _ = run_json(
        capsys,
        ["compile", "--family", "clifford_two_local", "--n", "2",
         "--target", "cnot", "--sweep"],
    )
    assert code == 0
    data = json.loads(out)
    assert "items" not in data
    assert [r["slices"] for r in data["sweep"]] == [1, 2, 4, 8, 16, 32, 64]


# (n, l) per label where the default (2, 2) is not the interesting case
REGISTRY_SIZES = {"pauli": (1, 2), "weyl": (1, 3), "tau": (1, 3), "torus_full": (2, 3),
                  "torus_splits": (1, 3), "torus_two_local": (2, 3)}


@pytest.mark.parametrize("label", list(_BUILDERS))
def test_registry_label_is_family(capsys, label):
    n, l = REGISTRY_SIZES.get(label, (2, 2))
    gens = build_family(label, n, l)
    assert gens.family == label
    code, out, _ = run_json(
        capsys, ["gens", "--family", label, "--n", str(n), "--l", str(l), "--no-matrices"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == data["label"] == label
    if label in ("clifford_plus_u", "torus_splits"):
        with pytest.raises(FamilyMismatchError):
            relation_report(gens)
    else:
        assert relation_report(gens)["family"] == label
    # a user-built set may take any name; relations are keyed by family
    user_set = GeneratorSet(f"user_{label}", gens.n, gens.l, gens.elements)
    with pytest.raises(FamilyMismatchError):
        relation_report(user_set)


def _family_choices(subcommand):
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in subs.choices[subcommand]._actions if a.dest == "family")


def test_family_choices_per_subcommand():
    closure_families = ["clifford_full", "clifford_plus_u", "clifford_two_local",
                        "torus_splits", "torus_two_local"]
    assert list(_family_choices("gens")) == (
        ["pauli", "weyl", "tau", "torus_full"] + closure_families)
    assert list(_family_choices("relations")) == [
        "pauli", "weyl", "tau", "torus_full", "clifford_full",
        "clifford_two_local", "torus_two_local"]
    assert list(_family_choices("closure")) == closure_families
    assert list(_family_choices("compile")) == closure_families


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
