"""Single place for the package's shared numerical defaults.

The CLI overrides three of them: `closure --tol` (closure_tol),
`compile --tau-clip` (tau_clip) and `compile --sweep` (slice counts;
a bare --sweep runs m_sweep).  In the library, `closure(gens, tol)`,
`CompileConfig.tau_clip`, the `m_values` of `compile_report` and the
`tol` of the `is_hermitian`, `is_anti_hermitian` and `is_unitary`
predicates take a per-call value; every other default is fixed, and no
environment variables are consulted.  dim_cap is read only by
`linalg.check_capacity` and `linalg.check_stack`, which run before any
dense allocation sized from input.
"""

from dataclasses import dataclass
import math


@dataclass(frozen=True)
class Defaults:
    # predicate tolerances (max absolute entry deviation)
    unitary_tol: float = 1e-9
    hermitian_tol: float = 1e-9
    anti_hermitian_tol: float = 1e-9

    # principal logarithm branch handling
    branch_warn_margin: float = 1e-6

    # dense matrix capacity
    dim_cap: int = 4096

    # Lie closure
    closure_tol: float = 1e-8       # admission threshold is closure_tol * dim
    membership_tol: float = 1e-8

    # monomial span: largest trace of a non-identity monomial
    span_rank_tol: float = 1e-9

    # compiler
    m_sweep: tuple = (1, 2, 4, 8, 16, 32, 64)
    tau_clip: float = math.pi


DEFAULTS = Defaults()
