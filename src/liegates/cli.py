"""Command-line front end.

Every capability is a subcommand writing a single JSON document to stdout:

    gens       build a generator family and serialise it
    relations  max violation of a family's defining relations
    closure    commutator closure: dimension, generations, recipes
    span       complex rank of the phase-free monomial values
    compile    unitary target to gate sequence
    verify     self checks (--self), seeded
    table      closure dimensions against the predicted counts

Exit codes: 0 success, 1 numerical failure (for example a target outside
the generated algebra, or a failed self check, whose document is still
printed), 2 validation failure.  Errors are JSON on stderr.
Complex numbers serialise as [re, im] pairs; matrices as nested lists.
With a fixed --seed the output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from .config import DEFAULTS
from .errors import BranchCutWarning, LieGatesError, NotMemberError
from . import generators as gen_mod
from .compiler import CompileConfig, compile as compile_target, compile_report, evaluate
from .generators import FAMILIES, GeneratorSet, relation_report, torus_T
from .lieclosure import build_family, closure, dimension_table, spin_subgroup_check
from .linalg import frob_norm, random_anti_hermitian, random_unitary, expm_antiherm, logm_unitary
from .symalg import span_dimension

# every family choice comes from the registry, in its order
GEN_FAMILIES = tuple(FAMILIES)
CLOSURE_FAMILIES = tuple(label for label, f in FAMILIES.items() if f.predicted)
RELATION_FAMILIES = tuple(label for label, f in FAMILIES.items() if f.relations)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    json.dump({"error": {"type": kind, "message": str(message)}}, sys.stderr)
    sys.stderr.write("\n")


def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_to_json(z) for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(data) -> np.ndarray:
    """A square matrix from rows of [re, im] number pairs; ValueError for anything else."""
    try:
        pairs = np.array(data)
    except ValueError:  # ragged nesting
        pairs = np.empty(0)
    if (pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2
            or pairs.shape[0] != pairs.shape[1]):
        raise ValueError("a target file holds a square matrix as rows of [re, im] pairs")
    return pairs.astype(float).view(complex)[..., 0]


def _serialize_set(gens: GeneratorSet, include_matrices: bool = True) -> dict:
    out = {
        "family": gens.family,
        "label": gens.family,
        "n": gens.n,
        "l": gens.l,
        "dim": gens.dim,
        "elements": [
            {
                "id": el.id,
                "locality": el.locality,
                "hermiticity": el.hermiticity,
                **({"matrix": _matrix_to_json(el.matrix)} if include_matrices else {}),
            }
            for el in gens.elements
        ],
    }
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gens(args) -> dict:
    gens = build_family(args.family, args.n, args.l)
    return _serialize_set(gens, include_matrices=not args.no_matrices)


def _cmd_relations(args) -> dict:
    return relation_report(build_family(args.family, args.n, args.l))


def _cmd_closure(args) -> dict:
    gens = build_family(args.family, args.n, args.l)
    basis = closure(gens, tol=args.tol)
    scales = basis.recipe_scales()
    out = {
        "family": gens.family,
        "label": gens.family,
        "n": gens.n,
        "l": gens.l,
        "dim": basis.dim,
        "dim_ambient": basis.dim_ambient,
        "spans_su": basis.spans_su,
        "generations": basis.generations,
        "max_recipe_residual": basis.max_recipe_residual(),
        # every element is its normalised tree value: exact is always true
        "recipes": [
            {"index": i, "sexpr": basis.sexpr(i), "scale": scale, "exact": True}
            for i, scale in enumerate(scales)
        ],
    }
    if args.include_basis:
        out["basis"] = [_matrix_to_json(b) for b in basis.basis]
    return out


def _cmd_span(args) -> dict:
    return {"l": args.l, "n": args.n, "rank": span_dimension(args.l, args.n)}


def _target_matrix(args, dim: int) -> np.ndarray:
    if args.target_file:
        with open(args.target_file) as fh:
            return _matrix_from_json(json.load(fh))
    if args.target == "identity":
        return np.eye(dim, dtype=complex)
    if args.target == "cnot":
        if dim != 4:
            raise ValueError(f"cnot target needs a dimension-4 generator set, got {dim}")
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    return random_unitary(dim, np.random.default_rng(args.seed))


def _cmd_compile(args) -> dict:
    if args.sweep is not None:
        for flag, given in (("--target-error", args.target_error), ("--slices", args.slices)):
            if given is not None:
                raise ValueError(f"{flag} does not apply to --sweep, which takes its slice "
                                 "counts as arguments")
    cfg = CompileConfig(
        slices=1 if args.slices is None else args.slices,
        max_commutator_depth=args.max_depth,
        target_error=args.target_error,
        tau_clip=args.tau_clip,
        refine=not args.no_refine,
        merge=args.merge,
    )
    gens = build_family(args.family, args.n, args.l)
    basis = closure(gens)
    target = _target_matrix(args, gens.dim)
    if args.sweep is not None:
        # a bare --sweep runs the default slice counts
        report = compile_report(target, gens, basis, tuple(args.sweep) or None, cfg)
        return {
            "gens": gens.family,
            "n": gens.n,
            "l": gens.l,
            "sweep": report["rows"],
            "monotone": report["monotone"],
        }
    seq = compile_target(target, gens, basis, cfg)
    return {
        "gens": gens.family,
        "n": gens.n,
        "l": gens.l,
        "items": [[gid, tau] for gid, tau in seq.items],
        "report": seq.report,
    }


def _cmd_table(args) -> dict:
    rows = dimension_table(
        max_n=args.max_n,
        families=tuple(args.families) if args.families else None,
    )
    return {"rows": rows, "all_match": all(r["match"] for r in rows)}


def _cmd_verify(args) -> dict:
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    rng = np.random.default_rng(args.seed)

    rep = relation_report(gen_mod.clifford_gammas(2))
    record("clifford_relations", rep["max_violation"] <= 1e-12,
           f"max violation {rep['max_violation']:.3g}")

    rep = relation_report(torus_T(1, 3))
    record("torus_relations", rep["max_violation"] <= 1e-12,
           f"max violation {rep['max_violation']:.3g}")

    record("monomial_span", span_dimension(2, 1) == 4)

    basis = closure(gen_mod.clifford_gammas(2))
    record("rotation_algebra_dimension", basis.dim == 10, f"dim {basis.dim}")
    record("recipes_exact", basis.max_recipe_residual() <= 1e-8)

    spin = spin_subgroup_check(2)
    record("rotation_algebra_span", spin["ok"])

    ok = True
    for _ in range(3):
        a = random_anti_hermitian(4, rng)
        a *= 0.5 / frob_norm(a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            ok = ok and frob_norm(logm_unitary(expm_antiherm(a)) - a) <= 1e-9
    record("exp_log_roundtrip", ok)

    gens = gen_mod.two_local_clifford_set(2)
    cb = closure(gens)
    u = expm_antiherm(0.3 * gens.by_id("G0").matrix)
    seq = compile_target(u, gens, cb, CompileConfig(slices=1))
    record("compile_primitive", seq.report["phase_invariant_error"] <= 1e-10)
    record("evaluate_identity", frob_norm(evaluate([], gens) - np.eye(4)) == 0.0)

    # every subcommand's JSON payload against its documented schema
    def payload(*argv: str) -> dict:
        parsed = _parser().parse_args(argv)
        return parsed.fn(parsed)

    schemas = {
        "gens": (
            payload("gens", "--family", "pauli"),
            {"family", "label", "n", "l", "dim", "elements"},
        ),
        "relations": (
            payload("relations", "--family", "pauli"),
            {"family", "label", "n", "l", "checks", "max_violation"},
        ),
        "closure": (
            payload("closure", "--family", "clifford_full"),
            {"family", "label", "n", "l", "dim", "dim_ambient", "spans_su",
             "generations", "max_recipe_residual", "recipes"},
        ),
        "span": (
            payload("span", "--l", "2", "--n", "1"),
            {"l", "n", "rank"},
        ),
        "compile": (
            payload("compile", "--family", "clifford_two_local", "--n", "2",
                    "--target", "identity", "--seed", str(args.seed)),
            {"gens", "n", "l", "items", "report"},
        ),
        "table": (
            payload("table", "--max-n", "1", "--families", "clifford_full"),
            {"rows", "all_match"},
        ),
    }
    for name, (doc, required) in schemas.items():
        missing = required - doc.keys()
        record(f"schema_{name}", not missing,
               f"missing keys {sorted(missing)}" if missing else "")

    return {"ok": all(c["ok"] for c in checks), "seed": args.seed, "checks": checks}


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, families) -> None:
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--l", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="liegates", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gens", help="build and serialise a generator family")
    _add_common(p, GEN_FAMILIES)
    p.add_argument("--no-matrices", action="store_true")
    p.set_defaults(fn=_cmd_gens)

    p = sub.add_parser("relations", help="check a family's defining relations")
    _add_common(p, RELATION_FAMILIES)
    p.set_defaults(fn=_cmd_relations)

    p = sub.add_parser("closure", help="commutator closure of a family")
    _add_common(p, CLOSURE_FAMILIES)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--include-basis", action="store_true")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("span", help="rank of the monomial span")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_span)

    p = sub.add_parser("compile", help="compile a unitary into gates")
    _add_common(p, CLOSURE_FAMILIES)
    p.add_argument("--target", default="random", choices=("identity", "cnot", "random"),
                   help="a named target, unless --target-file is given")
    p.add_argument("--target-file", default=None)
    p.add_argument("--slices", type=int, default=None, help="default 1")
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--target-error", type=float, default=None)
    p.add_argument("--tau-clip", type=float, default=DEFAULTS.tau_clip)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--merge", action="store_true")
    p.add_argument("--sweep", type=int, nargs="*", default=None,
                   help="slice counts for a convergence sweep")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("verify", help="run the built-in self checks")
    p.add_argument("--self", action="store_true", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("table", help="closure dimensions vs predicted counts")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--families", nargs="*", default=None, choices=CLOSURE_FAMILIES)
    p.set_defaults(fn=_cmd_table)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="also write the JSON to a file")
    return parser


# One parser per process, built on first use rather than at import.  Sharing it
# is safe: parse_args leaves the parser as it was, no argument has a mutable
# default (each nargs="*" list is made afresh by the parse), and error()
# raises at once, keeping nothing.
_parser = functools.cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.fn(args)
        text = json.dumps(payload, indent=2)
        # written before anything is printed, so a failed write prints nothing
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    except NotMemberError as exc:
        _emit_error("not_member", f"{exc} (residual {exc.residual:.6g})")
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error("io", str(exc))
        return 2
    except ValueError as exc:
        _emit_error("validation", str(exc))
        return 2
    except LieGatesError as exc:
        _emit_error("numerical", str(exc))
        return 1
    print(text)
    # verify's document reports a failed self check with ok false
    return 1 if payload.get("ok") is False else 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
