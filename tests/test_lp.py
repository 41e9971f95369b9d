"""Linear-programming wrapper: statuses, certificates, duality."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from scipy.optimize import linprog

import monogamy.lp as lp
from monogamy.lp import (
    DENSE_ENTRY_LIMIT,
    LinearProgram,
    LpStatus,
    constraint_residual,
    feasibility,
    solve,
)


def test_bounded_maximum():
    out = solve(LinearProgram(np.array([1.0]), ub_lhs=[[1.0]], ub_rhs=[3.0]))
    assert out.status == LpStatus.OPTIMAL
    assert out.value == pytest.approx(3.0, abs=1e-9)


def test_infeasible_with_violation_certificate():
    # x <= -1 against the default bound x >= 0.
    out = solve(LinearProgram(np.array([1.0]), ub_lhs=[[1.0]], ub_rhs=[-1.0]))
    assert out.status == LpStatus.INFEASIBLE
    assert out.violation == pytest.approx(1.0, abs=1e-7)


def test_unbounded():
    out = solve(LinearProgram(np.array([1.0])))
    assert out.status == LpStatus.UNBOUNDED


def test_feasibility_simplex():
    eq = (np.ones((1, 4)), np.array([1.0]))
    out = feasibility(eq=eq)
    assert out.status == LpStatus.OPTIMAL
    assert out.x.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(out.x >= -1e-12)


def test_feasibility_contradictory_sums():
    eq = (np.vstack([np.ones(4), np.ones(4)]), np.array([1.0, 2.0]))
    out = feasibility(eq=eq)
    assert out.status == LpStatus.INFEASIBLE
    assert out.violation >= 1.0 - 1e-9


def test_feasibility_empty_constraints():
    out = feasibility(n_variables=3)
    assert out.status == LpStatus.OPTIMAL
    assert np.all(out.x >= -1e-12)


def dense_elastic_violation(a_eq, b_eq, a_ub, b_ub):
    """Reference: the elastic phase-one over dense blocks, x >= 0."""
    (m_eq, n), m_ub = a_eq.shape, a_ub.shape[0]
    cost = np.concatenate([np.zeros(n), np.ones(2 * m_eq + m_ub)])
    result = linprog(
        cost,
        A_eq=np.hstack([a_eq, np.eye(m_eq), -np.eye(m_eq), np.zeros((m_eq, m_ub))]),
        b_eq=b_eq,
        A_ub=np.hstack([a_ub, np.zeros((m_ub, 2 * m_eq)), -np.eye(m_ub)]),
        b_ub=b_ub,
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0
    return result.fun


@pytest.mark.parametrize("n, m_eq, m_ub, densified", [(12, 6, 4, True), (150, 120, 60, False)])
def test_feasibility_matches_dense_elastic(n, m_eq, m_ub, densified, rng):
    # One size reaches HiGHS densified, the other in sparse form.
    assert ((m_eq + m_ub) * (n + 2 * m_eq + m_ub) <= DENSE_ENTRY_LIMIT) == densified
    for _ in range(3):
        # Nonnegative rows against some negative right-hand sides: no x >= 0
        # fits, so the elastic optimum is positive.
        a_eq = rng.random((m_eq, n)) * (rng.random((m_eq, n)) < 0.2)
        a_ub = rng.standard_normal((m_ub, n)) * (rng.random((m_ub, n)) < 0.2)
        b_eq = rng.standard_normal(m_eq)
        b_ub = rng.standard_normal(m_ub)
        expected = dense_elastic_violation(a_eq, b_eq, a_ub, b_ub)
        for form in (np.asarray, sp.csr_array):
            out = feasibility(eq=(form(a_eq), b_eq), ub=(form(a_ub), b_ub))
            assert out.status == LpStatus.INFEASIBLE
            assert out.violation == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_sparse_program_matches_dense(rng):
    a = rng.random((5, 8)) * (rng.random((5, 8)) < 0.5)
    c = rng.standard_normal(8)
    rows = np.vstack([a, np.ones(8)])
    rhs = np.concatenate([rng.random(5) + 0.5, [3.0]])
    dense = solve(LinearProgram(c, ub_lhs=rows, ub_rhs=rhs))
    sparse = solve(LinearProgram(c, ub_lhs=sp.csr_array(rows), ub_rhs=rhs))
    assert sparse.status == dense.status == LpStatus.OPTIMAL
    assert sparse.value == dense.value
    assert np.array_equal(sparse.x, dense.x)


def loop_residual(program, x):
    """Reference: the bounds checked one variable at a time."""
    res = 0.0
    if program.eq_lhs is not None:
        res = max(res, float(np.max(np.abs(program.eq_lhs @ x - program.eq_rhs))))
    if program.ub_lhs is not None:
        res = max(res, float(max(0.0, np.max(program.ub_lhs @ x - program.ub_rhs))))
    for xi, (lo, hi) in zip(x, program.effective_bounds()):
        if lo is not None:
            res = max(res, lo - xi)
        if hi is not None:
            res = max(res, xi - hi)
    return float(res)


def test_residual_matches_loop(rng):
    choices = [(0.0, None), (None, None), (-1.0, 1.0), (None, 0.5), (0.2, 0.3)]
    for _ in range(20):
        n = 7
        bounds = [choices[i] for i in rng.integers(len(choices), size=n)]
        program = LinearProgram(
            rng.standard_normal(n),
            eq_lhs=sp.csr_array(rng.standard_normal((3, n))),
            eq_rhs=rng.standard_normal(3),
            ub_lhs=rng.standard_normal((2, n)),
            ub_rhs=rng.standard_normal(2),
            bounds=bounds,
        )
        bounds_only = LinearProgram(program.objective, bounds=bounds)
        x = 2.0 * rng.standard_normal(n)
        for p in (program, bounds_only):
            assert constraint_residual(p, x) == loop_residual(p, x)
    free = LinearProgram(np.ones(2), bounds=[(None, None)] * 2)
    assert constraint_residual(free, np.array([-5.0, 5.0])) == 0.0


def test_malformed_rows_rejected():
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0, 2.0]), eq_lhs=[[1.0]], eq_rhs=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(np.array([np.inf]))
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), eq_lhs=sp.csr_array([[1.0, np.nan]]), eq_rhs=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), eq_lhs=sp.csr_array([[1.0, 1.0]]), eq_rhs=[1.0, 2.0])


def test_optimal_solutions_reverified(rng):
    for _ in range(20):
        n, m = 6, 4
        a = rng.standard_normal((m, n))
        b = rng.random(m) + 0.5
        c = rng.standard_normal(n)
        cap = np.vstack([a, np.ones(n)])
        rhs = np.concatenate([b, [10.0]])
        program = LinearProgram(c, ub_lhs=cap, ub_rhs=rhs)
        out = solve(program)
        assert out.status == LpStatus.OPTIMAL
        assert out.max_residual <= 10 * 1e-7
        assert constraint_residual(program, out.x) <= 1e-6


def test_deterministic_repeat():
    program = LinearProgram(
        np.array([1.0, 2.0, 0.5]),
        ub_lhs=[[1.0, 1.0, 1.0], [2.0, 0.5, 1.0]],
        ub_rhs=[4.0, 3.0],
    )
    first = solve(program)
    second = solve(program)
    assert first.status == second.status
    assert first.value == second.value
    assert np.array_equal(first.x, second.x)


def test_duality_spot_check(rng):
    # Primal: max c.x, A x <= b, x >= 0.  Dual (built here, not by the
    # solver): min b.y, A^T y >= c, y >= 0.
    for _ in range(25):
        n, m = 5, 7
        a = rng.random((m, n))
        b = rng.random(m) + 0.5
        c = rng.random(n)
        primal = solve(LinearProgram(c, ub_lhs=a, ub_rhs=b))
        assert primal.status == LpStatus.OPTIMAL
        dual = solve(
            LinearProgram(-b, ub_lhs=-a.T, ub_rhs=-c)
        )
        assert dual.status == LpStatus.OPTIMAL
        assert primal.value == pytest.approx(-dual.value, abs=1e-6)


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that every call is counted; returns the
    list the calls are appended to."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_every_solve_goes_through_module_linprog(monkeypatch):
    # The module attribute is what a caller wraps to observe HiGHS calls.
    calls = counting(monkeypatch, lp, "linprog")
    program = LinearProgram(np.array([1.0, 1.0]), ub_lhs=[[1.0, 2.0]], ub_rhs=[2.0])
    assert solve(program).status == LpStatus.OPTIMAL
    assert len(calls) == 1
    assert feasibility(eq=(np.array([[1.0, 1.0]]), np.array([1.0]))).status == LpStatus.OPTIMAL
    assert len(calls) == 2
    assert feasibility(eq=(np.array([[1.0, 1.0]]), np.array([-1.0]))).status == LpStatus.INFEASIBLE
    assert len(calls) == 3


def test_module_linprog_resolves_scipy_at_call_time(monkeypatch):
    calls = counting(monkeypatch, scipy.optimize, "linprog")
    assert solve(LinearProgram(np.array([1.0]), ub_lhs=[[1.0]], ub_rhs=[3.0])).value == pytest.approx(3.0)
    assert calls == ["linprog"]


def test_outcomes_report_highs_iterations(monkeypatch):
    # Every outcome carries the summed iterations of the HiGHS calls behind it.
    linprog_nits = []
    original = lp.linprog

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        linprog_nits.append(int(result.nit))
        return result

    monkeypatch.setattr(lp, "linprog", recording)
    program = LinearProgram(
        np.array([1.0, 2.0, 1.0]),
        ub_lhs=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
        ub_rhs=[1.0, 1.0, 1.0],
    )
    outcome = solve(program)
    assert outcome.status == LpStatus.OPTIMAL
    assert outcome.iterations == linprog_nits[-1] > 0
    outcome = feasibility(eq=(np.array([[1.0, 1.0]]), np.array([-1.0])))
    assert outcome.status == LpStatus.INFEASIBLE
    assert outcome.iterations == linprog_nits[-1]
    # An infeasible solve adds its phase-one confirmation's iterations.
    linprog_nits.clear()
    infeasible = LinearProgram(np.array([1.0]), eq_lhs=[[1.0]], eq_rhs=[-1.0])
    outcome = solve(infeasible)
    assert outcome.status == LpStatus.INFEASIBLE
    assert len(linprog_nits) == 2
    assert outcome.iterations == sum(linprog_nits)
