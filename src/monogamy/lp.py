"""Linear programming used by the polytope and shareability tests.

Constraint matrices may be dense arrays or ``scipy.sparse`` arrays; the
polytope builders emit sparse rows.  Solves are delegated to HiGHS via scipy;
feasibility questions go through an explicit elastic phase-one program, built
in sparse form, so that infeasible systems come back with the minimized total
(L1) constraint violation as a certificate value rather than a bare status.
Every optimal solution is re-verified by independent constraint evaluation
before it is returned.  scipy is imported inside the functions that build
or solve a program, so importing this module does not load it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

FEASIBILITY_TOL = 1e-7

# Constraint systems with at most this many entries (rows x columns) reach
# HiGHS as dense arrays: scipy's sparse input path costs a fixed few tenths
# of a millisecond per call, which small LPs such as a support direction
# cannot earn back.  Larger systems stay sparse.
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

    def effective_bounds(self) -> list[Bound]:
        if self.bounds is None:
            return [(0.0, None)] * self.n_variables
        return list(self.bounds)


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


def _as_matrix(a) -> np.ndarray | sp.csr_array:
    """A float constraint matrix: sparse input as CSR, anything else as a
    dense 2-D array."""
    import scipy.sparse as sp

    if sp.issparse(a):
        return sp.csr_array(a, dtype=float)
    return np.atleast_2d(np.asarray(a, dtype=float))


def constraint_residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of any constraint or bound at ``x``."""
    res = 0.0
    if lp.eq_lhs is not None:
        res = max(res, float(np.max(np.abs(lp.eq_lhs @ x - lp.eq_rhs))))
    if lp.ub_lhs is not None:
        res = max(res, float(max(0.0, np.max(lp.ub_lhs @ x - lp.ub_rhs))))
    # A missing bound reads as NaN here and as an infinite bound below.
    bounds = np.array(lp.effective_bounds(), dtype=float).reshape(-1, 2)
    lo = np.nan_to_num(bounds[:, 0], nan=-np.inf)
    hi = np.nan_to_num(bounds[:, 1], nan=np.inf)
    return float(np.max(np.concatenate([lo - x, x - hi]), initial=res))


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call so that
    importing the package does not load scipy.  Every solve goes through
    this module attribute."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _highs(cost, a_ub, b_ub, a_eq, b_eq, bounds):
    """The one call into HiGHS.  Sparse constraint matrices with few entries
    are densified first (see ``DENSE_ENTRY_LIMIT``); the solver sees the
    same nonzeros either way."""
    import scipy.sparse as sp

    blocks = [a for a in (a_ub, a_eq) if a is not None]
    entries = sum(a.shape[0] for a in blocks) * len(cost)
    if entries <= DENSE_ENTRY_LIMIT:
        a_ub, a_eq = (a.toarray() if sp.issparse(a) else a for a in (a_ub, a_eq))
    return linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )


def solve(lp: LinearProgram, tol: float = FEASIBILITY_TOL) -> LpOutcome:
    """Maximize the objective; statuses are Optimal / Infeasible / Unbounded,
    with numerical breakdowns reported as a distinct Failed status."""
    result = _highs(
        -lp.objective,
        lp.ub_lhs,
        lp.ub_rhs,
        lp.eq_lhs,
        lp.eq_rhs,
        lp.effective_bounds(),
    )
    iterations = int(result.nit)
    if result.status == 0:
        x = np.asarray(result.x, dtype=float)
        residual = constraint_residual(lp, x)
        if residual > 10 * tol:
            return LpOutcome(
                LpStatus.FAILED,
                x=x,
                max_residual=residual,
                message=f"solution residual {residual:.3e} exceeds 10*tol",
                iterations=iterations,
            )
        return LpOutcome(
            LpStatus.OPTIMAL,
            x=x,
            value=float(lp.objective @ x),
            max_residual=residual,
            iterations=iterations,
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
            )
        return replace(phase1, iterations=iterations)
    if result.status == 3:
        return LpOutcome(LpStatus.UNBOUNDED, message=result.message, iterations=iterations)
    return LpOutcome(LpStatus.FAILED, message=result.message, iterations=iterations)


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
    import scipy.sparse as sp

    if eq is None and ub is None and n_variables is None:
        raise ValueError("cannot infer the number of variables")
    if n_variables is None:
        n_variables = (eq[0].shape[1] if eq is not None else ub[0].shape[1])
    n = int(n_variables)

    eq_lhs = sp.csr_array(_as_matrix(eq[0])) if eq is not None else sp.csr_array((0, n))
    eq_rhs = np.asarray(eq[1], dtype=float) if eq is not None else np.zeros(0)
    ub_lhs = sp.csr_array(_as_matrix(ub[0])) if ub is not None else sp.csr_array((0, n))
    ub_rhs = np.asarray(ub[1], dtype=float) if ub is not None else np.zeros(0)
    m_eq, m_ub = eq_rhs.size, ub_rhs.size

    # Variables: [x, s_plus, s_minus, s_ub], all slack blocks >= 0.
    cost = np.concatenate([
        np.zeros(n), np.ones(m_eq), np.ones(m_eq), np.ones(m_ub)
    ])
    a_eq = sp.hstack([
        eq_lhs, sp.eye_array(m_eq), -sp.eye_array(m_eq), sp.csr_array((m_eq, m_ub))
    ], format="csr") if m_eq else None
    a_ub = sp.hstack([
        ub_lhs, sp.csr_array((m_ub, 2 * m_eq)), -sp.eye_array(m_ub)
    ], format="csr") if m_ub else None
    var_bounds = (bounds if bounds is not None else [(0.0, None)] * n)
    var_bounds = list(var_bounds) + [(0.0, None)] * (2 * m_eq + m_ub)

    result = _highs(
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
        )
    total_violation = float(result.fun)
    x = np.asarray(result.x[:n], dtype=float)
    if total_violation > tol:
        return LpOutcome(
            LpStatus.INFEASIBLE,
            violation=total_violation,
            message=f"minimum total violation {total_violation:.3e}",
            iterations=iterations,
        )
    check = LinearProgram(
        np.zeros(n),
        eq_lhs=eq_lhs if m_eq else None,
        eq_rhs=eq_rhs if m_eq else None,
        ub_lhs=ub_lhs if m_ub else None,
        ub_rhs=ub_rhs if m_ub else None,
        bounds=bounds,
    )
    residual = constraint_residual(check, x)
    return LpOutcome(
        LpStatus.OPTIMAL, x=x, value=0.0, max_residual=residual, iterations=iterations
    )
