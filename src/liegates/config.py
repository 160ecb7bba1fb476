"""Single place for the package's shared numerical defaults.

The CLI overrides three of them: `closure --tol` (closure_tol),
`compile --tau-clip` (tau_clip) and `compile --sweep` (slice counts;
a bare --sweep runs m_sweep).  The others are fixed: no function takes a
per-call override, and no environment variables are consulted.  dim_cap
is read only by `linalg.check_capacity`, which runs before any dense
allocation sized from input.
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
