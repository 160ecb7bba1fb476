"""The benchmark's workloads: set-up, one pass of operations, output checks.

Every workload is a fixed list of operations (a "pass") that the runner
repeats in a closed loop.  Set-up builds what the timed phase needs from
the seed; the library only ever receives the generated inputs.  Each
operation's output is checked after the timed phase by a Verdict:

* ``failed``: the output is wrong (wrong dimension, a reported error that
  an independent re-evaluation contradicts, an unexpected exit code or
  exception);
* ``missed``: the output is right but misses a target the library states
  (phase-invariant error, recipe fidelity, byte-identical output on repeat).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

ACCURACY_TARGET = 1e-8   # phase-invariant error every compile is held to
RECIPE_TOL = 1e-8        # recipe residual the closure's recipes are held to
HAAR_POOL = 128          # seeded targets per generator set; passes cycle them
WORD_CHUNK = 4096        # gates multiplied at once when a word is re-evaluated
# closure_table rows on matrices up to 4x4 close in milliseconds, where one
# sample swings by a third on a shared machine: they run this often per pass
CHEAP_ROW_DIM = 4
CHEAP_ROW_REPEATS = 30


@dataclass
class Verdict:
    failed: str | None = None
    missed: str | None = None
    err: float | None = None       # verified error (compile) or recipe residual
    gates: int | None = None
    payload: str | None = None     # compared across repeats of the same op


@dataclass
class Op:
    key: str                       # position in the pass; repeats share it
    fn: Callable[[], Any]
    check: Callable[[Any], Verdict]


@dataclass
class Plan:
    pass_ops: Callable[[int], list[Op]]
    # latency percentile reported as the tail, fixed per workload so that
    # every run names the same one; chosen so that a typical run has at
    # least ten samples beyond it
    tail_pct: float


# ---------------------------------------------------------------------------
# independent checks (numpy's LAPACK eigh, not the library's eigensolver)
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def phase_free_dist(u: np.ndarray, v: np.ndarray) -> float:
    s = np.trace(u.conj().T @ v)
    phase = np.conj(s) / abs(s) if abs(s) > 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


class WordEvaluator:
    """Product of generator exponentials, first item leftmost."""

    def __init__(self, gens):
        self.dim = gens.dim
        self.eig = {el.id: np.linalg.eigh(-1j * el.matrix) for el in gens.elements}

    def product(self, items) -> np.ndarray:
        # words run to 450k gates: a chunk at a time keeps the check's memory
        # small, because it runs inside the run whose peak memory is reported
        result = np.eye(self.dim, dtype=complex)
        for lo in range(0, len(items), WORD_CHUNK):
            result = result @ self._chunk_product(items[lo:lo + WORD_CHUNK])
        return result

    def _chunk_product(self, items) -> np.ndarray:
        eye = np.eye(self.dim, dtype=complex)
        ids = np.array([gen_id for gen_id, _ in items])
        taus = np.array([float(tau) for _, tau in items])
        gates = np.empty((len(items), self.dim, self.dim), dtype=complex)
        for gen_id, (lam, w) in self.eig.items():
            sel = ids == gen_id
            phases = np.exp(1j * np.outer(taus[sel], lam))
            gates[sel] = (w * phases[:, None, :]) @ w.conj().T
        # pairwise products keep the order
        while len(gates) > 1:
            if len(gates) % 2:
                gates = np.concatenate([gates, eye[None]])
            gates = gates[0::2] @ gates[1::2]
        return gates[0]


def check_word(items, reported: float, target: np.ndarray, ev: WordEvaluator) -> Verdict:
    """Re-evaluate a compiled word and compare with the error it reports."""
    err = phase_free_dist(target, ev.product(items))
    if not abs(err - reported) <= 1e-9 + 1e-6 * err:
        return Verdict(failed=f"reported error {reported:.6g}, re-evaluated {err:.6g}",
                       err=err, gates=len(items))
    missed = None if err <= ACCURACY_TARGET else f"error {err:.3g} > {ACCURACY_TARGET:g}"
    return Verdict(missed=missed, err=err, gates=len(items))


def expected_closure_dim(label: str, n: int, dim: int) -> int:
    """Mathematically expected closure dimensions (not the pinned u(N) counts)."""
    if label == "clifford_full":
        return 2 * n * n + n
    return dim * dim - 1


def closure_verdict(dim: int, expected: int, residual: float, gates=None) -> Verdict:
    if dim != expected:
        return Verdict(failed=f"dim {dim} != {expected}", err=residual, gates=gates)
    missed = None if residual <= RECIPE_TOL else f"recipe residual {residual:.3g}"
    return Verdict(missed=missed, err=residual, gates=gates)


# ---------------------------------------------------------------------------
# closure_table
# ---------------------------------------------------------------------------

def closure_cases(size: str) -> list[tuple[str, int, int]]:
    """dimension_table(max_n=3) rows with its default torus cases, plus su(16)."""
    if size == "tiny":
        return [("clifford_full", 2, 2), ("clifford_plus_u", 2, 2),
                ("clifford_two_local", 2, 2), ("torus_splits", 1, 3)]
    cases = [("clifford_plus_u", 4, 2)]
    for label in ("clifford_full", "clifford_plus_u"):
        cases += [(label, n, 2) for n in (1, 2, 3)]
    cases += [("clifford_two_local", n, 2) for n in (2, 3)]
    torus = ((1, 3), (1, 4), (2, 3))
    cases += [("torus_splits", n, l) for n, l in torus]
    cases += [("torus_two_local", n, l) for n, l in torus if n >= 2]
    return cases


def setup_closure_table(lib, rng, size, workdir) -> Plan:
    ops, cheap = [], []
    for label, n, l in closure_cases(size):
        gens = lib.lieclosure.build_family(label, n, l)
        expected = expected_closure_dim(label, n, gens.dim)

        def check(basis, expected=expected):
            gates = sum(4 ** basis.depth(i) for i in range(basis.dim))
            return closure_verdict(basis.dim, expected, basis.max_recipe_residual(), gates)

        op = Op(f"{label}:n={n}:l={l}", lambda gens=gens: lib.lieclosure.closure(gens), check)
        ops.append(op)
        if gens.dim <= CHEAP_ROW_DIM:
            cheap.append(op)
    ops += cheap * (CHEAP_ROW_REPEATS - 1)
    # 216 closures a pass, 2-3 passes a run.  Each cheap row has 30/216 of
    # the samples, so p50 and p90 fall inside one row's share (near its
    # middle), not on the edge between two rows; p90 leaves 43-65 beyond it
    return Plan(lambda k: ops, tail_pct=90.0)


# ---------------------------------------------------------------------------
# compile_haar
# ---------------------------------------------------------------------------

def compile_sets(size: str):
    """(key, family, n, l, CompileConfig fields, compiles a pass) per generator set.

    The seed draws the targets, and a run compiles 60-130 of them, so the
    latency percentiles move with the seed.  SU(4), whose cost per target
    spreads widest (the slice count doubles until the error is met), and
    SU(9) compile twice a pass.  Resampling 150 measured targets per set,
    the seed-to-seed spread of the median latency is 0.05 with this pass
    and 0.11 with one compile of each set.
    """
    su4 = ("su4", "clifford_two_local", 2, 2, {"slices": 1, "target_error": ACCURACY_TARGET}, 2)
    if size == "tiny":
        return [su4, ("su3", "torus_splits", 1, 3, {"slices": 1}, 1)]
    return [su4,
            ("su8", "clifford_two_local", 3, 2, {"slices": 1}, 1),
            ("su9", "torus_two_local", 2, 3, {"slices": 1}, 2)]


def setup_compile_haar(lib, rng, size, workdir) -> Plan:
    sets = []
    for key, label, n, l, fields, per_pass in compile_sets(size):
        gens = lib.lieclosure.build_family(label, n, l)
        basis = lib.lieclosure.closure(gens)
        cfg = lib.compiler.CompileConfig(**fields)
        targets = [haar_unitary(gens.dim, rng) for _ in range(HAAR_POOL)]
        sets.append((key, gens, basis, cfg, targets, WordEvaluator(gens), per_pass))

    def pass_ops(k: int) -> list[Op]:
        ops = []
        for key, gens, basis, cfg, targets, ev, per_pass in sets:
            for j in range(per_pass):
                u = targets[(k * per_pass + j) % HAAR_POOL]
                ops.append(Op(
                    key,
                    lambda u=u, gens=gens, basis=basis, cfg=cfg: lib.compiler.compile(
                        u, gens, basis, cfg),
                    lambda seq, u=u, ev=ev: check_word(
                        seq.items, seq.report["phase_invariant_error"], u, ev),
                ))
        return ops

    # 60-130 compiles a run: p80 leaves 12-26 beyond it, p90 needs 100
    return Plan(pass_ops, tail_pct=80.0)


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _toffoli() -> np.ndarray:
    u = np.eye(8, dtype=complex)
    u[6:, 6:] = [[0, 1], [1, 0]]
    return u


def _qutrit_fourier() -> np.ndarray:
    w = np.exp(2j * math.pi / 3)
    return np.array([[w ** (j * k) for k in range(3)] for j in range(3)]) / math.sqrt(3)


def _write_matrix(path, m: np.ndarray) -> str:
    with open(path, "w") as fh:
        json.dump([[[float(z.real), float(z.imag)] for z in row] for row in m], fh)
    return str(path)


def cli_call(lib, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.run(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _family(label, n=1, l=2):
    return ["--family", label, "--n", str(n), "--l", str(l)]


def setup_cli_session(lib, rng, size, workdir) -> Plan:
    workdir.mkdir(parents=True, exist_ok=True)
    two_local2 = lib.lieclosure.build_family("clifford_two_local", 2, 2)
    ev2 = WordEvaluator(two_local2)
    haar4 = haar_unitary(4, rng)
    # exponentials of pairwise commuting generators: the logarithm has sparse
    # coordinates, so the compiled word should be a few primitive gates
    mats = {el.id: el.matrix for el in two_local2.elements}
    commuting: list[str] = []
    for gid, m in mats.items():
        if all(np.allclose(m @ mats[c], mats[c] @ m) for c in commuting):
            commuting.append(gid)
    angles = rng.uniform(-1.0, 1.0, size=len(commuting))
    expprod = ev2.product(list(zip(commuting, angles)))
    verify_seed = int(rng.integers(0, 2**31))
    files = {
        "haar4": _write_matrix(workdir / "haar4.json", haar4),
        "expprod": _write_matrix(workdir / "expprod.json", expprod),
        "toffoli": _write_matrix(workdir / "toffoli.json", _toffoli()),
        "qutrit": _write_matrix(workdir / "qutrit_fourier.json", _qutrit_fourier()),
    }
    evaluators = {("clifford_two_local", 2, 2): ev2}

    def evaluator(label, n, l):
        if (label, n, l) not in evaluators:
            evaluators[(label, n, l)] = WordEvaluator(lib.lieclosure.build_family(label, n, l))
        return evaluators[(label, n, l)]

    def gens_check(dim):
        def check(p):
            ok = p["dim"] == dim and bool(p["elements"])
            return Verdict(failed=None if ok else f"dim {p['dim']} != {dim}")
        return check

    def relations_check(p):
        v = p["max_violation"]
        return Verdict(failed=None if v <= 1e-10 else f"relation violation {v:.3g}")

    def closure_check(label, n, l):
        def check(p):
            return closure_verdict(p["dim"], expected_closure_dim(label, n, l ** n),
                                   p["max_recipe_residual"])
        return check

    def span_check(l, n):
        def check(p):
            return Verdict(failed=None if p["rank"] == l ** (2 * n) else f"rank {p['rank']}")
        return check

    def compile_check(label, n, l, target):
        def check(p):
            return check_word(p["items"], p["report"]["phase_invariant_error"], target,
                              evaluator(label, n, l))
        return check

    def sweep_check(slices):
        def check(p):
            got = [r["slices"] for r in p["sweep"]]
            errs = [r["phase_invariant_error"] for r in p["sweep"]]
            ok = got == slices and all(math.isfinite(e) for e in errs)
            return Verdict(failed=None if ok else f"sweep rows {got}")
        return check

    def verify_check(p):
        bad = [c["name"] for c in p["checks"] if not c["ok"]]
        return Verdict(failed=f"self checks failed: {bad}" if bad or not p["ok"] else None)

    def table_check(p):
        bad = [r for r in p["rows"]
               if r["dim"] != expected_closure_dim(r["family"], r["n"], r["l"] ** r["n"])]
        return Verdict(failed=f"{len(bad)} table rows off" if bad else None)

    def error_check(kind):
        def check(stderr):
            got = json.loads(stderr)["error"]["type"]
            return Verdict(failed=None if got == kind else f"error type {got}")
        return check

    ct2 = _family("clifford_two_local", 2)
    sweep = [1, 2, 4, 8]
    # (key, argv, expected exit code, check of the payload or of stderr)
    steps = [
        ("gens:pauli", ["gens", *_family("pauli")], 0, gens_check(2)),
        ("gens:torus_full:2:3", ["gens", *_family("torus_full", 2, 3)], 0, gens_check(9)),
        ("gens:clifford_two_local:3", ["gens", *_family("clifford_two_local", 3),
                                       "--no-matrices"], 0, gens_check(8)),
        ("gens:unknown", ["gens", "--family", "nope"], 2, error_check("usage")),
        ("relations:tau:3", ["relations", *_family("tau", 1, 3)], 0, relations_check),
        ("relations:clifford_full:3", ["relations", *_family("clifford_full", 3)], 0,
         relations_check),
        ("relations:torus_two_local:2:3", ["relations", *_family("torus_two_local", 2, 3)],
         0, relations_check),
        ("closure:clifford_full:2", ["closure", *_family("clifford_full", 2)], 0,
         closure_check("clifford_full", 2, 2)),
        ("closure:clifford_two_local:2", ["closure", *ct2], 0,
         closure_check("clifford_two_local", 2, 2)),
        ("closure:torus_splits:1:3", ["closure", *_family("torus_splits", 1, 3)], 0,
         closure_check("torus_splits", 1, 3)),
        ("span:3:2", ["span", "--l", "3", "--n", "2"], 0, span_check(3, 2)),
        ("span:4:2", ["span", "--l", "4", "--n", "2"], 0, span_check(4, 2)),
        ("compile:cnot", ["compile", *ct2, "--target", "cnot", "--slices", "8"], 0,
         compile_check("clifford_two_local", 2, 2, CNOT)),
        ("compile:toffoli", ["compile", *_family("clifford_two_local", 3),
                             "--target-file", files["toffoli"]], 0,
         compile_check("clifford_two_local", 3, 2, _toffoli())),
        ("compile:qutrit_fourier", ["compile", *_family("torus_splits", 1, 3),
                                    "--target-file", files["qutrit"], "--slices", "4"], 0,
         compile_check("torus_splits", 1, 3, _qutrit_fourier())),
        ("compile:identity", ["compile", *ct2, "--target", "identity"], 0,
         compile_check("clifford_two_local", 2, 2, np.eye(4, dtype=complex))),
        ("compile:exp_product", ["compile", *ct2, "--target-file", files["expprod"]], 0,
         compile_check("clifford_two_local", 2, 2, expprod)),
        ("compile:outside_algebra", ["compile", *_family("clifford_full", 2),
                                     "--target-file", files["haar4"]], 1,
         error_check("not_member")),
        # a Haar target's sweep costs 0.1-0.45 s depending on the seed, and
        # one such call per run would set the run-to-run spread of wall_s
        ("compile:sweep", ["compile", *ct2, "--target", "cnot",
                           "--sweep", *map(str, sweep)], 0, sweep_check(sweep)),
        ("verify:self", ["verify", "--self", "--seed", str(verify_seed)], 0, verify_check),
        ("table:clifford", ["table", "--max-n", "2", "--families", "clifford_full",
                            "clifford_plus_u"], 0, table_check),
    ]
    if size == "tiny":
        keep = ("gens:pauli", "gens:unknown", "closure:clifford_full:2", "span:3:2",
                "compile:cnot", "compile:identity", "table:clifford")
        steps = [s for s in steps if s[0] in keep]

    def make_op(key, argv, rc_expected, check):
        def verdict(out):
            rc, stdout, stderr = out
            payload = f"{rc}\n{stdout}\n{stderr}"
            if rc != rc_expected:
                return Verdict(failed=f"exit {rc}, expected {rc_expected}: {stderr[:200]}",
                               payload=payload)
            try:
                v = check(json.loads(stdout) if rc == 0 else stderr)
            except (ValueError, KeyError, TypeError) as exc:
                v = Verdict(failed=f"malformed output: {exc!r}")
            v.payload = payload
            return v
        return Op(key, lambda: cli_call(lib, argv), verdict)

    ops = [make_op(*s) for s in steps]
    # 21 calls a pass, 23-27 passes a run: p97.5 leaves 12-14 samples beyond
    # it, inside the slowest call's share (1/21).  p95 falls on the edge
    # between the slowest call and the next, and jumps between them.
    return Plan(lambda k: ops, tail_pct=97.5)


WORKLOADS = {
    "closure_table": setup_closure_table,
    "compile_haar": setup_compile_haar,
    "cli_session": setup_cli_session,
}
