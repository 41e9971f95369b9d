"""Linear programming used by the polytope and shareability tests.

Every program is solved by HiGHS (Huangfu & Hall, Math. Prog. Comp. 10,
119 (2018)) through the Python binding that scipy ships,
``scipy.optimize._highspy._core``.  ``linprog`` is the one call into it: it
hands HiGHS canonical CSR rows with their row and column bounds, and reads
back the status, solution, objective, iterations and row duals.  Each
thread keeps one configured solver, and every call passes its model to that
solver with ``passModel``, which discards the previous model and basis, so
every call starts cold.  Given a stack of row bounds, ``linprog`` passes the
model once and re-solves it once per row of the stack, changing only the
row bounds in between, so that each run starts from the previous optimal
basis; ``solve_stacked`` is ``solve`` over such a stack of equality
right-hand sides.  The binding is loaded on the first solve, by file path
when scipy.optimize has not loaded it already, so neither importing this
module nor solving runs ``scipy.optimize``'s package import; only
``scipy.sparse`` is loaded, for the rows.

Constraint matrices may be given dense or as ``scipy.sparse`` arrays;
``LinearProgram`` stores them as CSR.  It is the one parsed form of a
system: ``solve`` and ``phase_one`` take one and ``feasibility`` builds one,
so all refuse alike non-finite data, a matrix whose shape does not match
its right-hand side and the variable count, and NaN or crossed bounds.
Feasibility questions, and the confirmation of an infeasible ``solve``, go
through one explicit elastic phase-one program, ``phase_one``, so that
infeasible systems come back with the minimized total (L1) constraint
violation as a certificate value rather than a bare status; its rows are
the blocks ``[A | I | -I]`` of equality rows and ``[A | -I]`` of
inequality rows.  A program builds its elastic system once, on its first
phase-one, and ``LinearProgram.with_rhs`` gives the same program with
other right-hand sides, sharing that system: a caller that asks the same
question of many right-hand sides prepares one program and builds only
the new row bounds for each.  Every optimal solution of either entry point is
re-verified by ``constraint_residual`` on the program's own rows and bounds
(its own right-hand side, for a run of a stack; one call checks all the
optima of a stack) and refused as Failed when that residual exceeds 10 *
tol, and every outcome carries an ``LpStats`` record of the system HiGHS
received and of its own run.
"""

from __future__ import annotations

import copy
import enum
import functools
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

FEASIBILITY_TOL = 1e-7

_BINDING = "scipy.optimize._highspy._core"

# No output, dual simplex and no presolve.  The models reach HiGHS
# reduced already: Collins-Gisin coordinates, orbit-symmetric rows, and no
# fixed column (``sharing.ns_extension`` folds its pinned columns into the
# row bounds), so presolve would only cost time.
_OPTIONS = (("output_flag", False), ("presolve", "off"), ("simplex_strategy", 1))

# Each thread's HiGHS solver, as ``highs``: made and configured on the
# thread's first ``linprog`` call, dropped after a rejected model or a run
# error.
_SOLVERS = threading.local()

# HiGHS model status -> linprog status, as scipy's
# ``_highs_to_scipy_status_message`` maps them; any other status reads 4.
_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1, "kInfeasible": 2,
           "kModelError": 2, "kUnbounded": 3}


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"


Bound = tuple[float | None, float | None]


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximize ``objective @ x`` subject to equalities, inequalities
    (rows mean ``a @ x <= rhs``), and per-variable bounds (default x >= 0;
    None leaves a side unbounded).  Constraint matrices may be dense or
    ``scipy.sparse``; both are stored as CSR, checked against their
    right-hand sides, and the bounds parsed to ``lower`` / ``upper``.  The
    elastic phase-one system is built on the first ``phase_one`` of the
    program or of any ``with_rhs`` copy of it, and shared by them all."""

    objective: np.ndarray
    eq_lhs: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ub_lhs: np.ndarray | None = None
    ub_rhs: np.ndarray | None = None
    bounds: list[Bound] | None = None
    lower: np.ndarray = field(init=False, repr=False)
    upper: np.ndarray = field(init=False, repr=False)
    # The elastic system once built (``_elastic_system``), in one list that
    # every ``with_rhs`` copy shares.
    _elastic: list = field(init=False, repr=False, default_factory=list)

    def __post_init__(self):
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
                rhs = _checked_rhs(name, lhs, rhs, n)
                if not np.all(np.isfinite(lhs.data)):
                    raise ValueError(f"{name} constraints must be finite")
                object.__setattr__(self, f"{name}_lhs", lhs)
                object.__setattr__(self, f"{name}_rhs", rhs)
        if not np.all(np.isfinite(obj)):
            raise ValueError("objective must be finite")
        lower, upper = _bound_arrays(self.bounds, n)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_variables(self) -> int:
        return self.objective.size

    def with_rhs(self, eq_rhs=None, ub_rhs=None) -> LinearProgram:
        """This program with ``eq_rhs`` and / or ``ub_rhs`` in place of its
        own (None keeps a side's own), checked for length and finiteness as
        the constructor checks them.  The copy shares the parsed rows, the
        bounds and the elastic phase-one system."""
        program = copy.copy(self)
        for name, rhs in (("eq", eq_rhs), ("ub", ub_rhs)):
            if rhs is not None:
                lhs = getattr(self, f"{name}_lhs")
                if lhs is None:
                    raise ValueError(f"{name} constraints need both sides")
                rhs = _checked_rhs(name, lhs, rhs, self.n_variables)
                object.__setattr__(program, f"{name}_rhs", rhs)
        return program


@dataclass(frozen=True)
class LpStats:
    """The system HiGHS received (the elastic system, for a phase-one), the
    seconds spent building it, solving it and re-checking the answer, and
    whether the run started from the previous run's optimal basis.  Runs of
    one stack share a build, whose seconds the first run carries.  A
    phase-one of a program whose elastic system is already built (see
    ``LinearProgram``) builds only its row bounds from the right-hand side,
    and ``build_s`` covers only that.  For an ``ns_extension``, ``cols``
    counts the free columns and the elastic slacks: the pinned marginal
    columns are folded into the row bounds."""

    rows: int
    cols: int
    nnz: int
    build_s: float
    solve_s: float
    verify_s: float = 0.0
    warm: bool = False


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
    # Row duals of that call when it reached an optimum, inequality rows
    # first: the derivative of the optimum by each right-hand side.  For
    # ``solve`` that is the maximized ``value`` (inequality duals >= 0; value
    # = duals @ rhs + reduced costs ``objective - lhs.T @ duals`` times the
    # bounds they rest on), for a phase-one the minimized total violation.
    duals: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class HighsResult:
    """What one HiGHS run returned.  ``status`` follows
    ``scipy.optimize.linprog``: 0 optimal, 1 iteration or time limit,
    2 infeasible, 3 unbounded, 4 anything else.  ``x``, ``fun`` and
    ``duals`` (HiGHS's ``row_dual``: the derivative of the minimum with
    respect to each row's bound) are set only at status 0.  ``warm`` says
    whether the run started from the previous run's optimal basis, and
    ``seconds`` is its time in ``linprog``: the first run's includes the
    pass of the model to HiGHS, a later run's the change of its bounds."""

    status: int
    message: str
    nit: int
    x: np.ndarray | None = None
    fun: float | None = None
    duals: np.ndarray | None = None
    warm: bool = False
    seconds: float = 0.0


def _checked_rhs(name: str, lhs: sp.csr_array, rhs, n: int) -> np.ndarray:
    """``rhs`` as a float array, refused unless it is finite and ``lhs`` is
    its m x ``n`` matrix, one row per entry."""
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if lhs.shape != (rhs.size, n):
        raise ValueError(
            f"{name} constraint matrix must have {rhs.size} rows, one per"
            f" right-hand side entry, and {n} columns; it is {lhs.shape}"
        )
    if not np.all(np.isfinite(rhs)):
        raise ValueError(f"{name} constraints must be finite")
    return rhs


def _as_matrix(a) -> sp.csr_array:
    """A float constraint matrix as CSR, from dense or sparse input."""
    import scipy.sparse as sp

    if not sp.issparse(a):
        a = np.atleast_2d(np.asarray(a, dtype=float))
    return sp.csr_array(a, dtype=float)


def _bound_arrays(bounds: list[Bound] | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable lower and upper bounds, infinite where a pair has None;
    ``bounds`` None means every variable >= 0.  Refuses a pair that is NaN,
    crossed, or has lower +inf or upper -inf."""
    if bounds is None:
        return np.zeros(n), np.full(n, np.inf)
    if len(bounds) != n:
        raise ValueError("need one bound pair per variable")
    lower, upper = np.array(
        [(-np.inf if lo is None else lo, np.inf if hi is None else hi) for lo, hi in bounds],
        dtype=float,
    ).reshape(-1, 2).T.copy()
    # Every comparison with NaN is False.
    if not np.all((lower <= upper) & (lower < np.inf) & (upper > -np.inf)):
        raise ValueError("bound pairs need lower <= upper, no NaN, lower < inf and upper > -inf")
    return lower, upper


def constraint_residual(
    lp: LinearProgram, x: np.ndarray, eq_rhs: np.ndarray | None = None
) -> float | np.ndarray:
    """Largest violation of any constraint or bound at ``x``, with
    ``eq_rhs``, when given, in place of the program's equality right-hand
    side.  ``x`` may be a (k, n) stack of points, and ``eq_rhs`` then a
    (k, m) stack; the k residuals come back as an array."""
    points = np.atleast_2d(x).T
    res = np.zeros(points.shape[1])
    if lp.eq_lhs is not None:
        rhs = np.atleast_2d(lp.eq_rhs if eq_rhs is None else eq_rhs).T
        res = np.maximum(res, np.max(np.abs(lp.eq_lhs @ points - rhs), axis=0, initial=0.0))
    if lp.ub_lhs is not None:
        res = np.maximum(res, np.max(lp.ub_lhs @ points - lp.ub_rhs[:, None], axis=0, initial=0.0))
    # lower - x rather than -x, which would report a zero residual as -0.0.
    bounds = np.concatenate([lp.lower[:, None] - points, points - lp.upper[:, None]])
    res = np.maximum(res, np.max(bounds, axis=0, initial=0.0))
    return float(res[0]) if np.ndim(x) == 1 else res


def _binding():
    """scipy's HiGHS binding: the module that ``sys.modules`` holds, or else
    its extension file loaded by path under its dotted name, which skips
    ``scipy/optimize/__init__`` and registers the module for scipy's own
    later imports."""
    module = sys.modules.get(_BINDING)
    if module is not None:
        return module
    import importlib.machinery
    import importlib.util
    from pathlib import Path

    import scipy

    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    paths = [folder / f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    try:
        spec = importlib.util.spec_from_file_location(_BINDING, next(filter(Path.is_file, paths)))
        module = importlib.util.module_from_spec(spec)
        sys.modules[_BINDING] = module
        spec.loader.exec_module(module)
    except (StopIteration, ImportError, OSError) as err:
        sys.modules.pop(_BINDING, None)
        raise ImportError(
            f"cannot load the HiGHS binding of scipy {scipy.__version__} from {folder}"
        ) from err
    return module


def linprog(cost, rows, row_lower, row_upper, col_lower, col_upper):
    """The one call into HiGHS: minimize ``cost @ x`` subject to
    ``row_lower <= rows @ x <= row_upper`` and ``col_lower <= x <=
    col_upper`` (float arrays, infinite where a side is absent), on this
    thread's solver, which has the options ``_OPTIONS``: dual simplex, no
    presolve.  The solver is made on the thread's first call and reused by
    the next: each call passes it the model with ``passModel``, which
    discards the previous model, solution and basis, so the first run
    starts cold as on a new solver.  After a model that HiGHS rejects, or a
    run that errors, the solver is dropped and the next call makes a new
    one.  ``rows`` is a CSR array, or None when there are none.  Rows with
    duplicate or unsorted entries are made canonical on a copy first, since
    HiGHS does not accept them.  Every solve goes through this module
    attribute, so a caller can wrap it to observe HiGHS calls.

    The row bounds may also be (k, m) stacks: the model is then passed once
    and run k times, in order, and between runs only the bounds of the rows
    that differ from the previous run's change (``changeRowBounds``).  A
    run after an optimal one starts from that run's basis; a run after any
    other outcome starts cold.  A stack returns a list of k results."""
    core = _binding()
    started = time.perf_counter()
    # HiGHS reads as many entries as the sizes it is given say.
    cost, col_lower, col_upper = (
        np.ascontiguousarray(a, dtype=float) for a in (cost, col_lower, col_upper)
    )
    stacked = np.ndim(row_lower) == 2
    lowers, uppers = (np.atleast_2d(np.ascontiguousarray(a, dtype=float))
                      for a in (row_lower, row_upper))
    n, m = len(cost), 0 if rows is None else rows.shape[0]
    fits = (rows is None or rows.shape[1] == n) and {len(col_lower), len(col_upper)} == {n}
    if not (fits and lowers.shape == uppers.shape and lowers.shape[1] == m):
        raise ValueError(f"need {n} column bounds and {m} row bounds for a {m} x {n} system")
    if rows is None:
        indptr, indices, data = np.zeros(1, np.int32), np.zeros(0, np.int32), np.zeros(0)
    else:
        if not rows.has_canonical_format:
            rows = rows.copy()
            rows.sum_duplicates()
        indptr, indices = (a.astype(np.int32, copy=False) for a in (rows.indptr, rows.indices))
        data = np.ascontiguousarray(rows.data, dtype=float)
    results = []
    if len(lowers):
        highs = _solver(core)
        loaded = highs.passModel(
            n, m, len(data), int(core.MatrixFormat.kRowwise), int(core.ObjSense.kMinimize), 0.0,
            cost, col_lower, col_upper, lowers[0], uppers[0], indptr, indices, data,
            np.zeros(n, np.int32),
        )
        if loaded == core.HighsStatus.kError:
            _SOLVERS.highs = None
            results = [HighsResult(2, "HiGHS rejected the model", 0)] * len(lowers)
    changed = (lowers[1:] != lowers[:-1]) | (uppers[1:] != uppers[:-1])
    for j in range(len(results), len(lowers)):
        warm = j > 0 and results[-1].status == 0
        if j:
            if not warm:
                highs.clearSolver()
            lower, upper = lowers[j].tolist(), uppers[j].tolist()
            for i in np.flatnonzero(changed[j - 1]).tolist():
                highs.changeRowBounds(i, lower[i], upper[i])
        results.append(_run(core, highs, warm, started))
        started = time.perf_counter()
    return results if stacked else results[0]


def _solver(core):
    """This thread's solver, made and given ``_OPTIONS`` when the thread
    has none."""
    highs = getattr(_SOLVERS, "highs", None)
    if highs is None:
        highs = core._Highs()
        for option, value in _OPTIONS:
            highs.setOptionValue(option, value)
        _SOLVERS.highs = highs
    return highs


def _run(core, highs, warm: bool, started: float) -> HighsResult:
    """One ``run`` of the model that ``highs`` holds, read back as a result
    whose ``seconds`` count from ``started``; a run error drops the
    thread's solver.  Info values are read one by one: ``getInfo`` copies
    the whole record, at several times the cost."""
    ran = highs.run()
    if ran == core.HighsStatus.kError:
        _SOLVERS.highs = None
    model_status = highs.getModelStatus()
    status = _linprog_status(model_status)
    message = f"HiGHS model status {int(model_status)}: {highs.modelStatusToString(model_status)}"
    simplex, ipm = (highs.getInfoValue(f"{kind}_iteration_count")[1] for kind in ("simplex", "ipm"))
    if status != 0 or ran == core.HighsStatus.kError:
        # Without a solution to read, an "optimal" run error reads 4.
        fields = (status or 4, message, simplex or ipm)
    else:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        if np.all(np.isfinite(x)):
            fields = (status, message, simplex or ipm, x, highs.getObjectiveValue(),
                      np.array(solution.row_dual))
        else:
            fields = (4, f"solution is not finite {message}", simplex or ipm)
    return HighsResult(*fields, warm=warm, seconds=time.perf_counter() - started)


@functools.cache
def _linprog_status(model_status) -> int:
    """The ``_STATUS`` of a HiGHS model status, memoised (one entry per
    member of the enum): reading an enum's ``name`` through the binding
    costs several microseconds."""
    return _STATUS.get(model_status.name, 4)


def _stacked_rows(ub_lhs, eq_lhs):
    """Inequality rows over equality rows as one CSR array, either block
    None; None when both are."""
    import scipy.sparse as sp

    rows = [lhs for lhs in (ub_lhs, eq_lhs) if lhs is not None]
    return sp.vstack(rows, format="csr") if len(rows) == 2 else rows[0] if rows else None


def _row_bounds(ub_rhs, eq_rhs) -> tuple[np.ndarray, np.ndarray]:
    """Row lower and upper bounds of the rows of ``_stacked_rows``: each
    inequality row below its ``ub_rhs`` entry, each equality row at its
    ``eq_rhs`` entry.  ``eq_rhs`` may be a (k, m) stack, which gives
    (k, rows) bounds, one per run."""
    runs = np.shape(eq_rhs)[:-1]
    # (row lower bounds, row upper bounds) per block.
    blocks = []
    if ub_rhs is not None:
        blocks.append((np.full(len(ub_rhs), -np.inf), ub_rhs))
    if eq_rhs is not None:
        blocks.append((eq_rhs, eq_rhs))
    return tuple(
        np.concatenate([np.broadcast_to(block[k], runs + block[k].shape[-1:]) for block in blocks]
                       or [np.zeros(0)], axis=-1)
        for k in (0, 1)
    )


def _highs(started, cost, rows, row_lower, row_upper, col_lower, col_upper):
    """Solve for a system whose build began at ``started`` (a
    ``time.perf_counter`` reading), given as ``linprog``'s arguments.  Row
    bounds that are (k, m) stacks are solved as k runs of one model.
    Returns one (``linprog`` result, stats) pair per run."""
    begun = time.perf_counter()
    results = linprog(cost, rows, row_lower, row_upper, col_lower, col_upper)
    m, nnz = (0, 0) if rows is None else (rows.shape[0], rows.nnz)
    return [
        (result, LpStats(m, len(cost), nnz, 0.0 if j else begun - started, result.seconds,
                         warm=result.warm))
        for j, result in enumerate(results if np.ndim(row_lower) == 2 else [results])
    ]


def _checked(lp: LinearProgram, tol, optima, eq_rhs=None) -> list[LpOutcome]:
    """The optima of ``lp``, (x, iterations, stats, value, duals) each,
    after their independent check: one ``constraint_residual`` call over
    all their points, against the rows of ``eq_rhs`` in place of the
    program's equality right-hand side when given, its time shared among
    their ``stats.verify_s``.  Each is Failed unless its residual is at
    most 10 * tol."""
    checked = time.perf_counter()
    residuals = constraint_residual(lp, np.array([optimum[0] for optimum in optima]), eq_rhs)
    verify_s = (time.perf_counter() - checked) / len(optima)
    outcomes = []
    for (x, iterations, stats, value, duals), residual in zip(optima, residuals.tolist()):
        stats = replace(stats, verify_s=verify_s)
        if not residual <= 10 * tol:
            outcomes.append(LpOutcome(
                LpStatus.FAILED, x=x, max_residual=residual, iterations=iterations, stats=stats,
                message=f"solution residual {residual:.3e} exceeds 10*tol",
            ))
        else:
            outcomes.append(LpOutcome(LpStatus.OPTIMAL, x=x, value=value, max_residual=residual,
                                      iterations=iterations, stats=stats, duals=duals))
    return outcomes


def solve(lp: LinearProgram, tol: float = FEASIBILITY_TOL) -> LpOutcome:
    """Maximize the objective; statuses are Optimal / Infeasible / Unbounded,
    with numerical breakdowns reported as a distinct Failed status.  An
    infeasible answer is confirmed by the elastic phase-one, which supplies
    the violation certificate."""
    return _solve(lp, None, tol, time.perf_counter())[0]


def solve_stacked(lp: LinearProgram, eq_rhs: np.ndarray,
                  tol: float = FEASIBILITY_TOL) -> list[LpOutcome]:
    """``solve`` once per row of the (k, m) ``eq_rhs``, which takes the
    place of the program's equality right-hand side: k runs of one HiGHS
    model, in order, each after an optimal run starting from its basis (see
    ``linprog``).  Each outcome is checked, and an infeasible one confirmed,
    against its own right-hand side."""
    started = time.perf_counter()
    eq_rhs = np.array(eq_rhs, dtype=float, ndmin=2)
    if lp.eq_rhs is None or eq_rhs.shape[1:] != lp.eq_rhs.shape:
        raise ValueError("need one equality right-hand side of the program's length per run")
    if not np.all(np.isfinite(eq_rhs)):
        raise ValueError("eq constraints must be finite")
    return _solve(lp, eq_rhs, tol, started)


def _solve(lp: LinearProgram, eq_rhs, tol: float, started: float) -> list[LpOutcome]:
    """The outcomes of ``solve`` for ``lp``'s own right-hand side (``eq_rhs``
    None) or for each row of the stack ``eq_rhs``, the build begun at
    ``started``; every optimum is checked in one ``_checked`` call."""
    rows = _stacked_rows(lp.ub_lhs, lp.eq_lhs)
    row_lower, row_upper = _row_bounds(lp.ub_rhs, lp.eq_rhs if eq_rhs is None else eq_rhs)
    runs = _highs(started, -lp.objective, rows, row_lower, row_upper, lp.lower, lp.upper)
    outcomes = [
        None if result.status == 0
        else _unsolved(lp if eq_rhs is None else lp.with_rhs(eq_rhs=eq_rhs[j]), tol, result, stats)
        for j, (result, stats) in enumerate(runs)
    ]
    solved = [j for j, outcome in enumerate(outcomes) if outcome is None]
    if solved:
        # HiGHS minimized -objective.
        optima = [(result.x, result.nit, stats, float(lp.objective @ result.x), -result.duals)
                  for result, stats in (runs[j] for j in solved)]
        rhs = None if eq_rhs is None else eq_rhs[solved]
        for j, outcome in zip(solved, _checked(lp, tol, optima, rhs)):
            outcomes[j] = outcome
    return outcomes


def _unsolved(lp: LinearProgram, tol: float, result: HighsResult, stats) -> LpOutcome:
    """The outcome of a HiGHS run of ``lp`` that reached no optimum: an
    infeasible status is confirmed by the elastic phase-one."""
    if result.status == 2:
        phase1 = phase_one(lp, tol)
        iterations = result.nit + phase1.iterations
        if phase1.status == LpStatus.OPTIMAL:
            return LpOutcome(
                LpStatus.FAILED,
                message="solver reported infeasible but phase-one found a point",
                iterations=iterations,
                stats=phase1.stats,
            )
        return replace(phase1, iterations=iterations)
    status = LpStatus.UNBOUNDED if result.status == 3 else LpStatus.FAILED
    return LpOutcome(status, message=result.message, iterations=result.nit, stats=stats)


def _elastic_system(lp: LinearProgram):
    """The elastic phase-one of ``lp``'s rows and bounds, as ``linprog``'s
    (cost, rows, column lower bounds, column upper bounds): built on the
    first call for ``lp`` or any ``with_rhs`` copy of it, then shared.

    Variables: [x, s_plus, s_minus, s_ub], all slack blocks >= 0.  The rows
    are the blocks [[ub_lhs, 0, 0, -I], [eq_lhs, I, -I, 0]], made canonical
    here, once, with HiGHS's int32 indices."""
    if not lp._elastic:
        import scipy.sparse as sp

        n = lp.n_variables
        m_eq, m_ub = (0 if rhs is None else rhs.size for rhs in (lp.eq_rhs, lp.ub_rhs))
        cost = np.concatenate([np.zeros(n), np.ones(2 * m_eq + m_ub)])
        # CSR identities keep ``hstack`` on scipy's fast path for CSR blocks.
        i_eq, i_ub = (sp.eye_array(m, format="csr") for m in (m_eq, m_ub))
        rows = _stacked_rows(
            sp.hstack([lp.ub_lhs, sp.csr_array((m_ub, 2 * m_eq)), -i_ub], "csr") if m_ub else None,
            sp.hstack([lp.eq_lhs, i_eq, -i_eq, sp.csr_array((m_eq, m_ub))], "csr") if m_eq else None,
        )
        if rows is not None:
            rows.sum_duplicates()
            rows.indptr, rows.indices = (a.astype(np.int32, copy=False)
                                         for a in (rows.indptr, rows.indices))
        slack_lower, slack_upper = _bound_arrays(None, 2 * m_eq + m_ub)
        lp._elastic.append((cost, rows, np.concatenate([lp.lower, slack_lower]),
                            np.concatenate([lp.upper, slack_upper])))
    return lp._elastic[0]


def phase_one(lp: LinearProgram, tol: float = FEASIBILITY_TOL) -> LpOutcome:
    """The elastic phase-one of ``lp``'s rows and bounds: elastic slacks
    are added to every equality (two-sided) and inequality (one-sided) row
    and their total is minimized; bounds stay hard, and the objective is
    not read.  An optimum above ``tol`` means Infeasible, and that optimum
    is returned as the violation certificate; a point at most ``tol`` off
    is checked by ``constraint_residual`` as every optimum is.  The elastic
    system is built once per program (see ``LinearProgram``); each call
    builds only the row bounds of its right-hand sides."""
    started = time.perf_counter()
    cost, rows, col_lower, col_upper = _elastic_system(lp)
    row_lower, row_upper = _row_bounds(lp.ub_rhs, lp.eq_rhs)
    ((result, stats),) = _highs(started, cost, rows, row_lower, row_upper, col_lower, col_upper)
    if result.status != 0:
        return LpOutcome(
            LpStatus.FAILED,
            message=f"elastic phase-one did not solve: {result.message}",
            iterations=result.nit,
            stats=stats,
        )
    total_violation = float(result.fun)
    if total_violation > tol:
        return LpOutcome(
            LpStatus.INFEASIBLE,
            violation=total_violation,
            message=f"minimum total violation {total_violation:.3e}",
            iterations=result.nit,
            stats=stats,
            duals=result.duals,
        )
    n = lp.n_variables
    return _checked(lp, tol, [(result.x[:n], result.nit, stats, 0.0, result.duals)])[0]


def feasibility(
    eq: tuple[np.ndarray, np.ndarray] | None = None,
    ub: tuple[np.ndarray, np.ndarray] | None = None,
    bounds: list[Bound] | None = None,
    n_variables: int | None = None,
    tol: float = FEASIBILITY_TOL,
) -> LpOutcome:
    """Phase-one only: find a point satisfying the constraints and bounds,
    given and checked as ``LinearProgram``'s (``eq`` and ``ub`` are (lhs,
    rhs) pairs; ``n_variables`` defaults to the first block's columns), by
    ``phase_one``, which also confirms an infeasible ``solve``."""
    if n_variables is None:
        if eq is None and ub is None:
            raise ValueError("cannot infer the number of variables")
        n_variables = np.shape((eq if eq is not None else ub)[0])[-1]
    program = LinearProgram(
        np.zeros(int(n_variables)), *(eq or (None, None)), *(ub or (None, None)), bounds
    )
    return phase_one(program, tol)
