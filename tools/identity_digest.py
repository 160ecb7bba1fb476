"""Print one SHA-256 per closure, membership, eigensolver and CLI record, to prove byte identity.

Run it once against each source tree and diff the two outputs; equal lines
mean equal bytes:

    OPENBLAS_NUM_THREADS=1 python tools/identity_digest.py > after.txt
    OPENBLAS_NUM_THREADS=1 python tools/identity_digest.py --src ../old/src > before.txt
    diff before.txt after.txt

--src names the tree whose `liegates` package is imported (default: the
`src/` beside this script).  Pin the BLAS thread count: sums split over
threads round differently, so a seeded compile differs at rounding between
one thread and two.

Two kinds of record were added after the others, and are printed after
them, so every earlier record keeps its line number:

* `report`, one per `cli compile` record: that run's JSON report (or
  sweep rows) without its gate_count, so a change that only rewrites
  words moves the `cli compile` records and leaves the `report` ones equal;
* `scalars`, last, one per Pauli closure record (a basis with
  LieBasis.scalars): the raw bytes of its stored string scalars, so a
  change that moves only those, say the sign of a zero part, shows.

A closure record hashes the basis's tri; where tri is None (a Pauli basis,
whose frame is the basis) it hashes the bytes of the identity np.eye(dim),
streamed one row at a time so no dim x dim array is built.  So the record
is the same whether a tree stores no tri or an identity one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

TOLS = (None, 1e-3, 0.05)
# every dimension_table(max_n=3) row comes first; then su(16), su(32) and the torus (2, 4)
EXTRA = [("clifford_plus_u", 4, 2), ("clifford_plus_u", 5, 2), ("torus_splits", 2, 4)]
# the largest dense closure and su(64), a 268 MB stack, at the default tol only: several
# seconds
SLOW = [("torus_splits", 3, 3), ("clifford_two_local", 6, 2)]
# the l >= 3 sets, and two Pauli sets
L3 = [("torus_splits", 1, 3), ("torus_splits", 1, 4), ("torus_splits", 2, 3),
      ("torus_two_local", 2, 3)]
COMPILED = L3 + [("clifford_plus_u", 2, 2), ("clifford_two_local", 3, 2)]
MEMBER_BASES = L3 + [("torus_splits", 2, 4), ("clifford_plus_u", 4, 2)]
# target-error climbs with multi-step Newton solves, a slice sweep and the self checks
LADDER = [["compile", "--family", "clifford_two_local", "--n", "2", "--target-error", "1e-8",
           "--seed", str(seed)] for seed in (1, 2, 3, 4)]
RUNS = LADDER + [
    ["compile", "--family", "torus_two_local", "--n", "2", "--l", "3", "--seed", "1",
     "--sweep", "1", "2", "4", "8"],
    ["verify", "--self", "--seed", "0"],
]
EIG_DIMS = (2, 3, 4, 8, 9, 16)


def digest(*parts) -> str:
    """SHA-256 of the parts: bytes as they are, an iterator as its byte chunks, else repr."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, Iterator):
            for chunk in p:
                h.update(chunk)
        else:
            h.update(p if isinstance(p, (bytes, memoryview)) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def raw(a: np.ndarray) -> memoryview:
    """The bytes of a in C order, as tobytes() gives them, without a copy when a is contiguous."""
    return np.ascontiguousarray(a).data


def identity_rows(dim: int):
    """The bytes of np.eye(dim), one row at a time."""
    row = np.zeros(dim)
    for k in range(dim):
        row[k] = 1.0
        yield row.tobytes()
        row[k] = 0.0


def closure_digest(basis) -> str:
    recipes = [(r.kind, r.gen_id, r.left, r.right, float(r.coeff).hex()) for r in basis.recipes]
    keys = None if basis.keys is None else raw(basis.keys)
    tri = identity_rows(basis.dim) if basis.tri is None else raw(basis.tri)
    return digest(raw(basis.basis), raw(basis.frame), tri, recipes,
                  basis.generations, float(basis.max_recipe_residual()).hex(), keys)


def eig_inputs(rng: np.random.Generator, random_unitary):
    """(solver, dim, spectrum, matrix): seeded Hermitian and unitary matrices.

    The tied ones are I_2 (x) m, whose eigenvalues repeat exactly at most dimensions.
    """
    for dim in EIG_DIMS:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        u = random_unitary(dim, rng)
        for spectrum, lift in (("distinct", np.eye(1)), ("tied", np.eye(2))):
            yield "herm_eig", dim, spectrum, np.kron(lift, h)
            yield "unitary_eig", dim, spectrum, np.kron(lift, u)


def cli_digest(run, argv: list[str]) -> tuple[str, str]:
    """The digest of a CLI run's exit code, stdout and stderr, and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return digest(code, out.getvalue(), err.getvalue()), out.getvalue()


def report_digest(stdout: str) -> str:
    """A compile run's report, or its sweep rows and monotone flag, without gate_count."""
    data = json.loads(stdout)
    rows = [data["report"]] if "report" in data else data["sweep"]
    return digest(json.dumps([{k: v for k, v in row.items() if k != "gate_count"}
                              for row in rows]), data.get("monotone"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from liegates.cli import run
    from liegates.lieclosure import build_family, closure, dimension_table, membership
    from liegates import linalg

    rows = [(r["family"], r["n"], r["l"]) for r in dimension_table(max_n=3)]
    cases = [(case, tol) for case in rows + EXTRA for tol in TOLS] + [(c, None) for c in SLOW]
    scalars = []
    for (label, n, l), tol in cases:
        basis = closure(build_family(label, n, l), tol)
        print("closure", label, n, l, tol, closure_digest(basis))
        if basis.scalars is not None:
            scalars.append(("scalars", label, n, l, tol, digest(raw(basis.scalars))))

    rng = np.random.default_rng(7)
    for label, n, l in MEMBER_BASES:
        basis = closure(build_family(label, n, l))
        shape = (basis.matrix_dim, basis.matrix_dim)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        probes = [a - a.conj().T, 0.3 * basis.basis[-1] - 1.7 * basis.basis[1],
                  1j * np.eye(basis.matrix_dim)]
        res = [membership(m, basis) for m in probes]
        print("membership", label, n, l, digest(
            [(r.member, r.coefficients.tobytes(), float(r.residual).hex()) for r in res]))

    argvs = [["closure", "--family", label, "--n", str(n), "--l", str(l), *extra]
             for label, n, l in L3[:2] + [("clifford_plus_u", 2, 2)]
             for extra in ([], ["--include-basis"], ["--tol", "1e-3"])]
    argvs += [["compile", "--family", label, "--n", str(n), "--l", str(l), "--seed", str(seed)]
              for label, n, l in COMPILED for seed in (1, 2)]
    compiled = []
    for argv in argvs + RUNS:
        record, stdout = cli_digest(run, argv)
        print("cli", *argv, record)
        if argv[0] == "compile":
            compiled.append((argv, stdout))

    for solver, dim, spectrum, m in eig_inputs(np.random.default_rng(11), linalg.random_unitary):
        print(solver, dim, spectrum,
              digest(*(part.tobytes() for part in getattr(linalg, solver)(m))))
    for argv, stdout in compiled:
        print("report", *argv, report_digest(stdout))
    for record in scalars:
        print(*record)


if __name__ == "__main__":
    main()
