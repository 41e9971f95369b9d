"""Linear programming used by the polytope and shareability tests.

Constraint matrices may be dense arrays or ``scipy.sparse`` arrays; the
polytope builders emit sparse rows.  Solves are delegated to HiGHS via scipy;
feasibility questions go through an explicit elastic phase-one program, so
that infeasible systems come back with the minimized total (L1) constraint
violation as a certificate value rather than a bare status.  The elastic
system is assembled as one CSR array, its slack entries appended to each row
by index arithmetic; only ``_highs`` densifies a system, and only up to
``DENSE_ENTRY_LIMIT``.  Every optimal solution is re-verified by independent
constraint evaluation before it is returned, and every outcome carries an
``LpStats`` record of the system HiGHS received.  scipy is imported inside
the functions that build or solve a program, so importing this module does
not load it.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

FEASIBILITY_TOL = 1e-7

# Constraint systems with at most this many entries (rows x columns) reach
# HiGHS as dense arrays: scipy's sparse input path costs a fixed few tenths
# of a millisecond per call, which small LPs such as a single NS maximum
# (64 x 27 Collins-Gisin rows) cannot earn back.  Larger systems stay
# sparse, among them a block-diagonal support LP of 7 or more directions
# (448 x 189 and up).
DENSE_ENTRY_LIMIT = 2**16


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"


Bound = tuple[float | None, float | None]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximize ``objective @ x`` subject to equalities, inequalities
    (rows mean ``a @ x <= rhs``), and per-variable bounds (default x >= 0).
    Constraint matrices may be dense or ``scipy.sparse``; sparse ones are
    kept as CSR."""

    objective: np.ndarray
    eq_lhs: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ub_lhs: np.ndarray | None = None
    ub_rhs: np.ndarray | None = None
    bounds: list[Bound] | None = None

    def __post_init__(self):
        import scipy.sparse as sp

        obj = np.atleast_1d(np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "objective", obj)
        n = obj.size
        for name in ("eq", "ub"):
            lhs = getattr(self, f"{name}_lhs")
            rhs = getattr(self, f"{name}_rhs")
            if (lhs is None) != (rhs is None):
                raise ValueError(f"{name} constraints need both sides")
            if lhs is not None:
                lhs = _as_matrix(lhs)
                rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
                if lhs.shape != (rhs.size, n):
                    raise ValueError(
                        f"{name} constraint matrix must be (rows, {n})"
                    )
                values = lhs.data if sp.issparse(lhs) else lhs
                if not (np.all(np.isfinite(values)) and np.all(np.isfinite(rhs))):
                    raise ValueError(f"{name} constraints must be finite")
                object.__setattr__(self, f"{name}_lhs", lhs)
                object.__setattr__(self, f"{name}_rhs", rhs)
        if not np.all(np.isfinite(obj)):
            raise ValueError("objective must be finite")
        if self.bounds is not None and len(self.bounds) != n:
            raise ValueError("need one bound pair per variable")

    @property
    def n_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpStats:
    """The system HiGHS received (the elastic system, for a phase-one) and
    the seconds spent building it, solving it and re-checking the answer."""

    rows: int
    cols: int
    nnz: int
    # Whether the constraint matrices reached HiGHS as dense arrays.
    dense: bool
    build_s: float
    solve_s: float
    verify_s: float = 0.0


@dataclass(frozen=True, eq=False)
class LpOutcome:
    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    max_residual: float = 0.0
    # Minimized total L1 constraint violation; positive only when infeasible.
    violation: float = 0.0
    message: str = ""
    # HiGHS iterations summed over the solves behind this outcome.
    iterations: int = 0
    # The HiGHS call that decided the outcome; for an infeasible ``solve``,
    # that is its phase-one confirmation.
    stats: LpStats | None = None


def _as_matrix(a) -> np.ndarray | sp.csr_array:
    """A float constraint matrix: sparse input as CSR, anything else as a
    dense 2-D array."""
    import scipy.sparse as sp

    if sp.issparse(a):
        return sp.csr_array(a, dtype=float)
    return np.atleast_2d(np.asarray(a, dtype=float))


def _residual(eq_lhs, eq_rhs, ub_lhs, ub_rhs, bounds, x) -> float:
    """Largest violation at ``x`` of the given rows (either may be None) and
    of ``bounds`` (None: every variable >= 0)."""
    res = 0.0
    if eq_lhs is not None:
        res = max(res, float(np.max(np.abs(eq_lhs @ x - eq_rhs))))
    if ub_lhs is not None:
        res = max(res, float(max(0.0, np.max(ub_lhs @ x - ub_rhs))))
    if bounds is None:
        # 0 - x rather than -x, which would report a zero residual as -0.0.
        return float(np.max(0.0 - x, initial=res))
    # A missing bound reads as NaN here and as an infinite bound below.
    bounds = np.array(bounds, dtype=float).reshape(-1, 2)
    lo = np.nan_to_num(bounds[:, 0], nan=-np.inf)
    hi = np.nan_to_num(bounds[:, 1], nan=np.inf)
    return float(np.max(np.concatenate([lo - x, x - hi]), initial=res))


def constraint_residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of any constraint or bound at ``x``."""
    return _residual(lp.eq_lhs, lp.eq_rhs, lp.ub_lhs, lp.ub_rhs, lp.bounds, x)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call so that
    importing the package does not load scipy.  Every solve goes through
    this module attribute."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _highs(started, cost, a_ub, b_ub, a_eq, b_eq, bounds):
    """The one call into HiGHS, for a system whose build began at
    ``started`` (a ``time.perf_counter`` reading).  Sparse constraint
    matrices with few entries are densified first (see
    ``DENSE_ENTRY_LIMIT``); the solver sees the same nonzeros either way.
    Returns scipy's result and the call's stats."""
    import scipy.sparse as sp

    blocks = [a for a in (a_ub, a_eq) if a is not None]
    rows = sum(a.shape[0] for a in blocks)
    nnz = sum(a.nnz if sp.issparse(a) else int(np.count_nonzero(a)) for a in blocks)
    if rows * len(cost) <= DENSE_ENTRY_LIMIT:
        a_ub, a_eq = (a.toarray() if sp.issparse(a) else a for a in (a_ub, a_eq))
    dense = not any(sp.issparse(a) for a in (a_ub, a_eq))
    begun = time.perf_counter()
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    solved = time.perf_counter()
    return result, LpStats(rows, len(cost), nnz, dense, begun - started, solved - begun)


def solve(lp: LinearProgram, tol: float = FEASIBILITY_TOL) -> LpOutcome:
    """Maximize the objective; statuses are Optimal / Infeasible / Unbounded,
    with numerical breakdowns reported as a distinct Failed status."""
    result, stats = _highs(
        time.perf_counter(),
        -lp.objective,
        lp.ub_lhs,
        lp.ub_rhs,
        lp.eq_lhs,
        lp.eq_rhs,
        (0.0, None) if lp.bounds is None else lp.bounds,
    )
    iterations = int(result.nit)
    if result.status == 0:
        x = np.asarray(result.x, dtype=float)
        checked = time.perf_counter()
        residual = constraint_residual(lp, x)
        stats = replace(stats, verify_s=time.perf_counter() - checked)
        if residual > 10 * tol:
            return LpOutcome(
                LpStatus.FAILED,
                x=x,
                max_residual=residual,
                message=f"solution residual {residual:.3e} exceeds 10*tol",
                iterations=iterations,
                stats=stats,
            )
        return LpOutcome(
            LpStatus.OPTIMAL,
            x=x,
            value=float(lp.objective @ x),
            max_residual=residual,
            iterations=iterations,
            stats=stats,
        )
    if result.status == 2:
        # Confirm with the elastic phase-one so callers get a violation score.
        phase1 = feasibility(
            eq=(lp.eq_lhs, lp.eq_rhs) if lp.eq_lhs is not None else None,
            ub=(lp.ub_lhs, lp.ub_rhs) if lp.ub_lhs is not None else None,
            bounds=lp.bounds,
            n_variables=lp.n_variables,
            tol=tol,
        )
        iterations += phase1.iterations
        if phase1.status == LpStatus.OPTIMAL:
            return LpOutcome(
                LpStatus.FAILED,
                message="solver reported infeasible but phase-one found a point",
                iterations=iterations,
                stats=phase1.stats,
            )
        return replace(phase1, iterations=iterations)
    status = LpStatus.UNBOUNDED if result.status == 3 else LpStatus.FAILED
    return LpOutcome(status, message=result.message, iterations=iterations, stats=stats)


def _csr_rows(block, n: int):
    """A constraint block ``(lhs, rhs)`` as CSR rows and a float right-hand
    side; None rows when the block is absent or empty."""
    import scipy.sparse as sp

    if block is None:
        return None, np.zeros(0)
    lhs = _as_matrix(block[0])
    lhs = lhs if sp.issparse(lhs) else sp.csr_array(lhs)
    if lhs.shape[1] != n:
        raise ValueError(f"constraint matrix must have {n} columns")
    rhs = np.asarray(block[1], dtype=float)
    return (lhs if rhs.size else None), rhs


def _with_slacks(rows, starts, signs, width: int):
    """``rows`` widened to ``width`` columns, each row i with one entry
    ``signs[k]`` appended at column ``starts[k] + i`` for every k.  Built
    on ``indptr`` / ``indices`` / ``data`` directly: no identity block."""
    import scipy.sparse as sp

    m, k = rows.shape[0], len(starts)
    indptr = rows.indptr + k * np.arange(m + 1, dtype=rows.indptr.dtype)
    slots = indptr[1:, None] - k + np.arange(k)
    kept = np.ones(indptr[-1], dtype=bool)
    kept[slots] = False
    indices = np.empty(indptr[-1], dtype=rows.indices.dtype)
    data = np.empty(indptr[-1])
    indices[kept], data[kept] = rows.indices, rows.data
    indices[slots] = np.arange(m)[:, None] + np.asarray(starts)
    data[slots] = signs
    return sp.csr_array((data, indices, indptr), shape=(m, width))


def feasibility(
    eq: tuple[np.ndarray, np.ndarray] | None = None,
    ub: tuple[np.ndarray, np.ndarray] | None = None,
    bounds: list[Bound] | None = None,
    n_variables: int | None = None,
    tol: float = FEASIBILITY_TOL,
) -> LpOutcome:
    """Phase-one only: find a point satisfying the constraints and bounds.

    Elastic slacks are added to every equality (two-sided) and inequality
    (one-sided) row and their total is minimized; bounds stay hard.  An
    optimum above ``tol`` means Infeasible, and that optimum is returned as
    the violation certificate.
    """
    started = time.perf_counter()
    if eq is None and ub is None and n_variables is None:
        raise ValueError("cannot infer the number of variables")
    if n_variables is None:
        n_variables = (eq[0].shape[1] if eq is not None else ub[0].shape[1])
    n = int(n_variables)
    eq_lhs, eq_rhs = _csr_rows(eq, n)
    ub_lhs, ub_rhs = _csr_rows(ub, n)
    m_eq, m_ub = eq_rhs.size, ub_rhs.size
    width = n + 2 * m_eq + m_ub

    # Variables: [x, s_plus, s_minus, s_ub], all slack blocks >= 0.  Equality
    # row i gains +s_plus[i] - s_minus[i]; inequality row j gains -s_ub[j].
    cost = np.concatenate([np.zeros(n), np.ones(width - n)])
    a_eq = _with_slacks(eq_lhs, (n, n + m_eq), (1.0, -1.0), width) if m_eq else None
    a_ub = _with_slacks(ub_lhs, (n + 2 * m_eq,), (-1.0,), width) if m_ub else None
    var_bounds = (0.0, None) if bounds is None else list(bounds) + [(0.0, None)] * (width - n)

    result, stats = _highs(
        started,
        cost,
        a_ub,
        ub_rhs if m_ub else None,
        a_eq,
        eq_rhs if m_eq else None,
        var_bounds,
    )
    iterations = int(result.nit)
    if result.status != 0:
        return LpOutcome(
            LpStatus.FAILED,
            message=f"elastic phase-one did not solve: {result.message}",
            iterations=iterations,
            stats=stats,
        )
    total_violation = float(result.fun)
    x = np.asarray(result.x[:n], dtype=float)
    if total_violation > tol:
        return LpOutcome(
            LpStatus.INFEASIBLE,
            violation=total_violation,
            message=f"minimum total violation {total_violation:.3e}",
            iterations=iterations,
            stats=stats,
        )
    checked = time.perf_counter()
    residual = _residual(eq_lhs, eq_rhs, ub_lhs, ub_rhs, bounds, x)
    return LpOutcome(
        LpStatus.OPTIMAL,
        x=x,
        value=0.0,
        max_residual=residual,
        iterations=iterations,
        stats=replace(stats, verify_s=time.perf_counter() - checked),
    )
