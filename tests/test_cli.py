import argparse
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

from liegates import cli, lieclosure, linalg, symalg
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


def test_verify_exits_1_when_a_self_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "span_dimension", lambda l, n: 0)
    code, out, _ = run_json(capsys, ["verify", "--self", "--seed", "0"])
    assert code == 1
    # the document is still printed, naming the failed check
    data = json.loads(out)
    assert data["ok"] is False
    assert [c["name"] for c in data["checks"] if not c["ok"]] == ["monomial_span"]


def test_bare_verify_exits_2(capsys):
    code, out, err = run_json(capsys, ["verify"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"


def test_compile_word_over_the_gate_cap_exits_2(capsys):
    code, out, err = run_json(capsys, ["compile", "--family", "clifford_two_local", "--n", "2",
                                       "--slices", str(10**9)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert "gates, above the cap" in error["message"]


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


@pytest.mark.parametrize("argv", [
    ["span", "--l", "3", "--n", "10000"],
    ["closure", "--family", "torus_splits", "--l", "3", "--n", "10000000"],
], ids=["span", "closure"])
def test_huge_power_refused_without_forming_it(capsys, argv):
    # 3^n is never multiplied out past the cap, so the refusal is immediate
    # and its message names the power instead of printing it
    code, _, err = run_json(capsys, argv)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert "exceeds cap" in error["message"]
    assert f"3^{argv[-1]}" in error["message"]


def test_span_exits_1_when_a_monomial_has_trace(capsys, monkeypatch):
    monkeypatch.setattr(symalg, "mono_eval", lambda a, gens: np.eye(gens.dim))
    code, _, err = run_json(capsys, ["span", "--l", "2", "--n", "1"])
    assert code == 1
    assert "monomial T0 T1 has trace 2" in json.loads(err)["error"]["message"]


def test_weyl_capacity_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(linalg, "DEFAULTS", replace(linalg.DEFAULTS, dim_cap=4))
    code, _, err = run_json(capsys, ["gens", "--family", "weyl", "--l", "5"])
    assert code == 2
    assert json.loads(err)["error"] == {
        "type": "validation", "message": "matrix dimension 5 exceeds cap 4"}


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


OUT_OF_RANGE = [
    (["closure", "--family", "clifford_two_local", "--n", "1"],
     "family 'clifford_two_local' needs n >= 2, got n = 1"),
    (["gens", "--family", "weyl", "--l", "1"], "family 'weyl' needs l >= 2, got l = 1"),
    (["span", "--l", "1", "--n", "1"], "span needs l >= 2 and n >= 1, got l = 1, n = 1"),
    (["compile", "--family", "clifford_two_local", "--n", "2", "--slices", "0"],
     "slices must be at least 1"),
    (["compile", "--family", "clifford_two_local", "--n", "3", "--target", "cnot"],
     "cnot target needs a dimension-4 generator set, got 8"),
    (["table", "--max-n", "0"], "max_n must be at least 1, got 0"),
    (["table", "--max-n", "-1", "--families", "torus_splits"],
     "max_n must be at least 1, got -1"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                         ids=[f"argv{k}" for k in range(len(OUT_OF_RANGE))])
def test_out_of_range_value_exits_2(capsys, argv, message):
    # the message names the parameter, its bound and the value given
    code, out, err = run_json(capsys, argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert message in error["message"]


FLOAT_FLAGS = [
    (["closure", "--family", "clifford_full", "--n", "2"], "--tol", "tol"),
    (["compile", "--family", "clifford_two_local", "--n", "2", "--target", "cnot"],
     "--tau-clip", "tau_clip"),
    (["compile", "--family", "clifford_two_local", "--n", "2", "--target", "cnot"],
     "--target-error", "target_error"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv, flag, name", FLOAT_FLAGS, ids=[f for _, f, _ in FLOAT_FLAGS])
def test_float_flag_must_be_finite_and_positive(capsys, argv, flag, name, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_json(capsys, argv + [flag, value])
    assert caught == []
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert f"{name} must be finite and positive" in error["message"]


def test_huge_table_max_n_refused_at_once(capsys):
    # the n sweep of the l-pinned families is checked before any case is listed
    start = time.perf_counter()
    code, out, err = run_json(capsys, ["table", "--max-n", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert "2^100000000" in error["message"]


def test_oversize_closure_refused_at_once(capsys):
    # a 128 x 128 closure frame could reach 128^2 rows of 128^2 entries
    start = time.perf_counter()
    code, out, err = run_json(capsys, ["closure", "--family", "clifford_plus_u", "--n", "7"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "validation", "message": "matrix dimension 16384 exceeds cap 4096"}


def test_table_max_n_refuses_oversize_closure_before_any_case(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("closure called")

    monkeypatch.setattr(lieclosure, "closure", fail)
    code, out, err = run_json(capsys, ["table", "--max-n", "7"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "validation", "message": "matrix dimension 16384 exceeds cap 4096"}


def test_table_max_n_unbounded_without_pinned_family(capsys):
    # torus families take fixed cases, so --max-n does not size them
    code, out, _ = run_json(capsys, ["table", "--max-n", "100000000", "--families",
                                     "torus_splits"])
    assert code == 0
    assert [(r["n"], r["l"]) for r in json.loads(out)["rows"]] == [(1, 3), (1, 4), (2, 3)]


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


def test_unwritable_out_file_exits_2_and_prints_nothing(capsys, tmp_path):
    code, out, err = run_json(
        capsys, ["span", "--l", "2", "--n", "1", "--out", str(tmp_path / "missing" / "x.json")]
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "io"


@pytest.mark.parametrize("content", [
    [[1, 0], [0, 1]],
    {"re": [[1, 0]], "im": [[0, 0]]},
    [[[1, 0], [0, 0]], [[0, 0]]],
    [[[1, 0], [0, 0]]],
    [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
], ids=["real-entries", "dict", "ragged", "not-square", "strings"])
def test_malformed_target_file_exits_2(capsys, tmp_path, content):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(content))
    code, out, err = run_json(capsys, ["compile", "--family", "clifford_two_local", "--n", "2",
                                       "--target-file", str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("argv", [
    ["table", "--families", "nope"],
    ["table", "--families", "clifford_full", "pauli"],
    ["compile", "--family", "clifford_two_local", "--n", "2", "--target", "nope"],
], ids=["table-unknown-family", "table-family-without-prediction", "compile-unknown-target"])
def test_unknown_name_exits_2(capsys, argv):
    code, out, err = run_json(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "usage"


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


@pytest.mark.parametrize("flag", [["--target-error", "1e-6"], ["--slices", "5"], ["--slices", "1"]])
def test_compile_sweep_refuses_flags_it_ignores(capsys, flag):
    code, out, err = run_json(
        capsys,
        ["compile", "--family", "clifford_two_local", "--n", "2",
         "--target", "cnot", "--sweep", "1", "2", *flag],
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert flag[0] in error["message"]


@pytest.mark.parametrize("target, split", [("cnot", True), ("random", False)])
def test_compile_sweep_rows_show_square_root_split(capsys, target, split):
    base = ["compile", "--family", "clifford_two_local", "--n", "2", "--target", target]
    code, out, _ = run_json(capsys, base + ["--sweep", "1", "2"])
    assert code == 0
    rows = json.loads(out)["sweep"]
    for row in rows:
        code, out, _ = run_json(capsys, base + ["--slices", str(row["slices"])])
        report = json.loads(out)["report"]
        assert row["gate_count"] == report["gate_count"]
        assert row.get("square_root_split") == report.get("square_root_split")
        assert ("square_root_split" in row) == split


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


def test_closure_with_every_generator_refused(capsys):
    # tol * N = 2e9 is above every generator's norm: an empty closure
    code, out, _ = run_json(capsys, ["closure", "--family", "clifford_full", "--n", "1",
                                     "--tol", "1e9", "--include-basis"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 0
    assert data["recipes"] == data["generations"] == data["basis"] == []
    assert data["max_recipe_residual"] == 0.0


def test_byte_identical_reruns(capsys):
    for argv in (
        ["closure", "--family", "torus_splits", "--n", "1", "--l", "3"],
        ["table", "--max-n", "1", "--families", "clifford_full"],
    ):
        _, out1, _ = run_json(capsys, argv)
        _, out2, _ = run_json(capsys, argv)
        assert out1 == out2


@pytest.mark.parametrize("target", [
    ["--family", "clifford_two_local", "--n", "3", "--target-file", "toffoli.json"],
    ["--family", "clifford_two_local", "--n", "2", "--target", "cnot",
     "--target-error", "1e-12"],
], ids=["toffoli", "cnot_target_error"])
def test_compile_stdout_independent_of_hash_seed(tmp_path, target):
    # no word order may follow dict or set iteration of strings
    from liegates.cli import _matrix_to_json

    toffoli = np.eye(8, dtype=complex)
    toffoli[6:, 6:] = [[0, 1], [1, 0]]
    (tmp_path / "toffoli.json").write_text(json.dumps(_matrix_to_json(toffoli)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from liegates.cli import run; "
             "sys.exit(run(sys.argv[1:]))", "compile", *target],
            cwd=tmp_path, env=env, capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and len(outs[0]) > 1000
