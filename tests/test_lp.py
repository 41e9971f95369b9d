"""Linear-programming wrapper: statuses, certificates, duality."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import monogamy.lp as lp
from conftest import chsh_scenario, child_env, linprog_reference, ns_polytope
from monogamy import Scenario, chsh, local_decomposition, ns_extension, pr_box, uniform_box
from monogamy.bell import functional_row
from monogamy.model import mixture, symmetric_cg_marginal_split
from monogamy.lp import (
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


def dense_elastic_violation(a_eq, b_eq, a_ub, b_ub, bounds=None):
    """Reference: the elastic phase-one over dense blocks, x >= 0 unless
    ``bounds`` are given."""
    (m_eq, n), m_ub = a_eq.shape, a_ub.shape[0]
    cost = np.concatenate([np.zeros(n), np.ones(2 * m_eq + m_ub)])
    result = linprog(
        cost,
        A_eq=np.hstack([a_eq, np.eye(m_eq), -np.eye(m_eq), np.zeros((m_eq, m_ub))]),
        b_eq=b_eq,
        A_ub=np.hstack([a_ub, np.zeros((m_ub, 2 * m_eq)), -np.eye(m_ub)]),
        b_ub=b_ub,
        bounds=(0, None) if bounds is None else list(bounds) + [(0, None)] * (2 * m_eq + m_ub),
        method="highs",
    )
    assert result.status == 0
    return result.fun


@pytest.mark.parametrize("n, m_eq, m_ub", [(12, 6, 4), (150, 120, 60)])
def test_feasibility_matches_dense_elastic(n, m_eq, m_ub, rng):
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


@pytest.mark.parametrize("form", [np.asarray, sp.csr_array])
def test_feasible_systems_solve_within_tolerance(form, rng):
    # Right-hand sides taken at a nonnegative point: every system is feasible.
    for n, m_eq, m_ub in [(12, 6, 4), (150, 120, 60), (9, 0, 5), (9, 5, 0)]:
        x0 = rng.random(n)
        a_eq = rng.standard_normal((m_eq, n)) * (rng.random((m_eq, n)) < 0.3)
        a_ub = rng.standard_normal((m_ub, n)) * (rng.random((m_ub, n)) < 0.3)
        eq = (form(a_eq), a_eq @ x0) if m_eq else None
        ub = (form(a_ub), a_ub @ x0 + rng.random(m_ub)) if m_ub else None
        out = feasibility(eq=eq, ub=ub, n_variables=n)
        assert out.status == LpStatus.OPTIMAL
        assert out.max_residual <= 10 * lp.FEASIBILITY_TOL
        # The check reads the same CSR rows as an independent program would.
        reference = LinearProgram(
            np.zeros(n),
            eq_lhs=sp.csr_array(a_eq) if m_eq else None, eq_rhs=eq[1] if m_eq else None,
            ub_lhs=sp.csr_array(a_ub) if m_ub else None, ub_rhs=ub[1] if m_ub else None,
        )
        assert out.max_residual == constraint_residual(reference, out.x)


def test_explicit_bounds_match_dense_elastic(rng):
    # Free and boxed variables: the elastic system keeps them as given.
    n, m_eq, m_ub = 10, 5, 4
    choices = [(None, None), (-1.0, 1.0), (0.0, None), (None, 0.5), (0.2, 0.3)]
    for _ in range(5):
        bounds = [choices[i] for i in rng.integers(len(choices), size=n)]
        a_eq = rng.standard_normal((m_eq, n)) * (rng.random((m_eq, n)) < 0.4)
        a_ub = rng.standard_normal((m_ub, n)) * (rng.random((m_ub, n)) < 0.4)
        b_eq = 5.0 * rng.standard_normal(m_eq)
        b_ub = 5.0 * rng.standard_normal(m_ub)
        expected = dense_elastic_violation(a_eq, b_eq, a_ub, b_ub, bounds)
        for form in (np.asarray, sp.csr_array):
            out = feasibility(eq=(form(a_eq), b_eq), ub=(form(a_ub), b_ub), bounds=bounds)
            assert out.violation == pytest.approx(expected, rel=1e-9, abs=1e-12)
            if out.status == LpStatus.OPTIMAL:
                program = LinearProgram(np.zeros(n), eq_lhs=a_eq, eq_rhs=b_eq,
                                        ub_lhs=a_ub, ub_rhs=b_ub, bounds=bounds)
                assert out.max_residual == pytest.approx(constraint_residual(program, out.x), abs=1e-15)
            else:
                assert out.status == LpStatus.INFEASIBLE and expected > 1e-7


def test_single_block_systems():
    # x1 + x2 = -1 or x1 + x2 <= -1: only the row's own slack can absorb it.
    row = np.array([[1.0, 1.0]])
    for eq, ub in [((row, [-1.0]), None), (None, (row, [-1.0]))]:
        out = feasibility(eq=eq, ub=ub)
        assert out.status == LpStatus.INFEASIBLE
        assert out.violation == pytest.approx(1.0, abs=1e-9)
        assert out.stats.cols == 2 + (2 if eq else 1)
    for eq, ub in [((row, [1.0]), None), (None, (row, [1.0]))]:
        out = feasibility(eq=eq, ub=ub)
        assert out.status == LpStatus.OPTIMAL and out.max_residual <= 1e-9
    # Within a loose tolerance the violated row passes as feasible, and the
    # residual check still reports that row's violation.
    for eq, ub in [((row, [-0.3]), None), (None, (row, [-0.3]))]:
        out = feasibility(eq=eq, ub=ub, tol=0.5)
        assert out.status == LpStatus.OPTIMAL
        assert out.max_residual == pytest.approx(0.3, abs=1e-9)


# Solves the systems of ``test_duplicate_sparse_entries_are_summed``: the
# elastic phase-one of rows with a repeated entry, and ``lp.linprog`` on
# rows with unsorted and repeated entries.  Prints the phase-one's status
# and violation, the optimum, and whether the callers' arrays are intact.
DUPLICATE_SOLVE = """
import json
import numpy as np
import scipy.sparse as sp
from monogamy import lp

cols, values = np.array([1, 1, 0, 2]), np.array([0.5, 0.5, 1.0, 1.0])
dup = sp.csr_array((values, cols, np.array([0, 2, 4])), shape=(2, 3))
assert not dup.has_canonical_format
out = lp.feasibility(eq=(dup, np.array([-2.0, 3.0])))
# Row 0: x2 + 2 x0 <= 4 (unsorted), row 1: 0.5 x1 + 0.5 x1 <= 1.
rows = sp.csr_array((np.array([1.0, 2.0, 0.5, 0.5]), np.array([2, 0, 1, 1]), np.array([0, 2, 4])),
                    shape=(2, 3))
kept = rows.indices.copy(), rows.data.copy()
result = lp.linprog(-np.ones(3), rows, np.full(2, -np.inf), np.array([4.0, 1.0]),
                    np.zeros(3), np.full(3, np.inf))
intact = dup.nnz == 4 and all(np.array_equal(a, b) for a, b in zip((rows.indices, rows.data), kept))
print(json.dumps([out.status.value, out.violation, result.status, result.fun, intact]))
"""


def test_duplicate_sparse_entries_are_summed():
    # CSR input with a repeated (row, column): the entries add, as in the
    # dense matrix, and the caller's array is left as it was.  HiGHS given
    # such rows can spin in C code that ignores SIGINT, so the solve runs in
    # a child process that a timeout kills.
    child = subprocess.run(
        [sys.executable, "-c", DUPLICATE_SOLVE],
        capture_output=True, text=True, env=child_env(), timeout=20,
    )
    assert child.returncode == 0, child.stderr
    status, violation, linprog_status, optimum, intact = json.loads(child.stdout)
    dense = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    b = np.array([-2.0, 3.0])
    expected = dense_elastic_violation(dense, b, np.zeros((0, 3)), np.zeros(0))
    assert status == "infeasible"
    assert violation == pytest.approx(expected, rel=1e-9)
    # x1 <= 1 and x2 <= 4 at x0 = 0.
    assert linprog_status == 0 and optimum == pytest.approx(-5.0, abs=1e-12)
    assert intact
    dup = sp.csr_array((np.ones(4), np.array([1, 1, 0, 2]), np.array([0, 2, 4])), shape=(2, 3))
    with pytest.raises(ValueError, match="2 columns"):
        feasibility(eq=(dup, b), n_variables=2)


def test_linprog_refuses_mismatched_sizes():
    # HiGHS would read past a short array, so the sizes are checked first.
    rows = sp.csr_array(np.ones((2, 3)))
    inf, zeros = np.full(3, np.inf), np.zeros(3)
    with pytest.raises(ValueError, match="3 column bounds and 2 row bounds"):
        lp.linprog(np.ones(3), rows, np.zeros(1), np.ones(2), zeros, inf)
    with pytest.raises(ValueError, match="3 column bounds"):
        lp.linprog(np.ones(3), rows, np.zeros(2), np.ones(2), zeros[:2], inf)
    with pytest.raises(ValueError, match="0 row bounds"):
        lp.linprog(np.ones(3), None, np.zeros(1), np.ones(1), zeros, inf)
    with pytest.raises(ValueError, match="2 x 4"):
        lp.linprog(np.ones(4), rows, np.zeros(2), np.ones(2), np.zeros(4), np.full(4, np.inf))


def test_stacked_row_bounds_run_on_one_model(rng):
    """A (k, m) stack of row bounds is k runs of one model, each with the
    optimum of its own single call; a run after an optimal one starts
    warm, and the run after an infeasible one starts cold."""
    rows = sp.csr_array(rng.random((4, 7)) + 0.1)
    cost = rng.standard_normal(7)
    zeros, ones = np.zeros(7), np.full(7, 2.0)
    rhs = rng.random((6, 4)) + 1.0
    rhs[3] = -1.0  # Positive rows with x >= 0 cannot reach a negative sum.
    lower, upper = rhs - 0.5, rhs
    stacked = lp.linprog(cost, rows, lower, upper, zeros, ones)
    assert [run.warm for run in stacked] == [False, True, True, True, False, True]
    for j, run in enumerate(stacked):
        single = lp.linprog(cost, rows, lower[j], upper[j], zeros, ones)
        assert not single.warm and run.status == single.status == (2 if j == 3 else 0)
        assert run.seconds > 0
        if run.status == 0:
            assert run.fun == pytest.approx(single.fun, abs=1e-9)
            assert np.all(rows @ run.x <= upper[j] + 1e-9) and np.all(rows @ run.x >= lower[j] - 1e-9)
    assert lp.linprog(cost, rows, lower[:0], upper[:0], zeros, ones) == []
    with pytest.raises(ValueError, match="4 row bounds"):
        lp.linprog(cost, rows, lower, upper[:5], zeros, ones)


def test_solve_stacked_checks_each_right_hand_side(monkeypatch, rng):
    """Each outcome of ``solve_stacked`` is that of ``solve`` with its own
    right-hand side: optima checked against their own rows in one
    residual call, an infeasible one confirmed by the phase-one."""
    a = rng.random((3, 5)) + 0.1
    program = LinearProgram(-np.ones(5), eq_lhs=a, eq_rhs=np.ones(3))
    rhs = np.vstack([np.ones(3), 2.0 * np.ones(3), -np.ones(3), 0.5 * np.ones(3)])
    calls = counting(monkeypatch, lp, "constraint_residual")
    outcomes = lp.solve_stacked(program, rhs)
    # One check of the stack's optima; the infeasible run has no point.
    assert calls == ["constraint_residual"]
    assert [o.status for o in outcomes] == [LpStatus.OPTIMAL, LpStatus.OPTIMAL,
                                            LpStatus.INFEASIBLE, LpStatus.OPTIMAL]
    assert outcomes[2].violation > 0
    for b, outcome in zip(rhs, outcomes):
        single = solve(replace(program, eq_rhs=b))
        assert single.status == outcome.status
        if outcome.status == LpStatus.OPTIMAL:
            assert outcome.value == pytest.approx(single.value, abs=1e-9)
            assert outcome.max_residual == constraint_residual(program, outcome.x, b)
            assert outcome.max_residual <= 10 * lp.FEASIBILITY_TOL
            assert (outcome.stats.rows, outcome.stats.cols, outcome.stats.nnz) == (3, 5, 15)
    assert [o.stats.warm for o in outcomes if o.status == LpStatus.OPTIMAL] == [False, True, False]
    with pytest.raises(ValueError, match="one equality right-hand side"):
        lp.solve_stacked(program, np.ones((2, 4)))
    with pytest.raises(ValueError, match="finite"):
        lp.solve_stacked(program, np.full((2, 3), np.nan))


def test_stacked_residual_matches_single_points(rng):
    program = LinearProgram(np.ones(4), eq_lhs=rng.random((2, 4)), eq_rhs=np.ones(2),
                            ub_lhs=rng.random((3, 4)), ub_rhs=np.ones(3),
                            bounds=[(0.0, 1.0)] * 4)
    points, rhs = rng.standard_normal((5, 4)), rng.standard_normal((5, 2))
    residuals = constraint_residual(program, points, rhs)
    assert residuals.shape == (5,)
    for x, b, residual in zip(points, rhs, residuals):
        assert residual == constraint_residual(program, x, b) == loop_residual(
            replace(program, eq_rhs=b), x)
    assert constraint_residual(program, points[0]) == loop_residual(program, points[0])


def highs_calls(monkeypatch):
    """Spy on ``lp.linprog``: the list gets the arguments and the result of
    each call."""
    seen = []
    original = lp.linprog

    def spy(*args):
        seen.append((args, original(*args)))
        return seen[-1][1]

    monkeypatch.setattr(lp, "linprog", spy)
    return seen


def test_extension_systems_reach_highs_dense_or_sparse(monkeypatch):
    # Every system reaches HiGHS as CSR rows, whatever its size.
    seen = highs_calls(monkeypatch)
    base = uniform_box(Scenario(2, (2, 2), (2, 2)))
    ns_extension(base, 4)
    ns_extension(base, 6)
    (four, _), (six, _) = seen
    # 140 positivity rows over the 36 free of 45 CG columns, each row with
    # one slack; the 9 pinned columns' product is the rows' upper bound.
    for (cost, rows, row_lower, row_upper, *_), n_clones, shape in zip(
            (four, six), (4, 6), [(140, 176), (336, 411)]):
        assert sp.issparse(rows) and rows.format == "csr" and rows.shape == shape
        assert len(cost) == shape[1] and np.all(row_lower == -np.inf)
        scenario = Scenario(1 + n_clones, (2,) * (1 + n_clones), (2,) * (1 + n_clones))
        blocks = ((0,), tuple(range(1, 1 + n_clones)))
        _, marginal = symmetric_cg_marginal_split(scenario, blocks)
        # The uniform box's CG coordinates: products of 1 and q(a|x) = 1/2.
        base = np.outer([1.0, 0.5, 0.5], [1.0, 0.5, 0.5]).ravel()
        assert np.allclose(row_upper, marginal @ base, rtol=0, atol=1e-12)
        # Each slack column holds one -1, on its own row.
        m = shape[0]
        assert np.array_equal(rows.toarray()[:, -m:], -np.eye(m))


def outcomes_of(monkeypatch):
    """Record every outcome ``lp.phase_one`` returns."""
    outcomes = []
    original = lp.phase_one

    def recording(*args, **kwargs):
        outcomes.append(original(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(lp, "phase_one", recording)
    return outcomes


def test_stats_record_the_system_highs_received(monkeypatch):
    outcomes = outcomes_of(monkeypatch)
    chsh = Scenario(2, (2, 2), (2, 2))
    local_decomposition(uniform_box(chsh))
    ns_extension(uniform_box(chsh), 4)
    ns_extension(uniform_box(chsh), 6)
    sizes = [(o.stats.rows, o.stats.cols, o.stats.nnz) for o in outcomes]
    assert sizes == [(17, 50, 114), (140, 176, 770), (336, 411, 2922)]
    for o in outcomes:
        assert o.status == LpStatus.OPTIMAL
        assert o.stats.build_s > 0 and o.stats.solve_s > 0 and o.stats.verify_s > 0
    infeasible = local_decomposition(pr_box())
    assert infeasible.score > 0 and outcomes[-1].stats.verify_s == 0.0


def test_solve_stats():
    program = LinearProgram(np.array([1.0, 1.0]), ub_lhs=[[1.0, 2.0], [0.0, 1.0]], ub_rhs=[2.0, 1.0])
    stats = solve(program).stats
    assert (stats.rows, stats.cols, stats.nnz) == (2, 2, 3)
    assert stats.build_s >= 0 and stats.solve_s > 0 and stats.verify_s > 0
    # An infeasible program reports its phase-one system: one slack per row.
    out = solve(LinearProgram(np.array([1.0]), ub_lhs=[[1.0]], ub_rhs=[-1.0]))
    assert out.status == LpStatus.INFEASIBLE
    assert (out.stats.rows, out.stats.cols, out.stats.nnz) == (1, 2, 2)
    big = solve(LinearProgram(np.ones(300), ub_lhs=sp.csr_array(np.eye(300)), ub_rhs=np.ones(300)))
    assert (big.stats.rows, big.stats.cols, big.stats.nnz) == (300, 300, 300)


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
    bounds = program.bounds if program.bounds is not None else [(0.0, None)] * len(x)
    for xi, (lo, hi) in zip(x, bounds):
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
    # Default bounds (x >= 0); a zero residual is +0.0, not -0.0.
    default = LinearProgram(np.ones(3), eq_lhs=[[1.0, 1.0, 1.0]], eq_rhs=[1.0])
    assert constraint_residual(default, np.array([-0.25, 0.5, 0.75])) == 0.25
    assert str(constraint_residual(default, np.array([0.0, 1.0, 0.0]))) == "0.0"


def test_malformed_rows_rejected():
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0, 2.0]), eq_lhs=[[1.0]], eq_rhs=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(np.array([np.inf]))
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), eq_lhs=sp.csr_array([[1.0, np.nan]]), eq_rhs=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), eq_lhs=sp.csr_array([[1.0, 1.0]]), eq_rhs=[1.0, 2.0])


BAD_BOUNDS = {
    "nan-lower": (np.nan, 1.0),
    "nan-upper": (0.0, np.nan),
    "crossed": (1.0, 0.0),
    "lower-inf": (np.inf, None),
    "upper-minus-inf": (None, -np.inf),
}


@pytest.mark.parametrize("pair", BAD_BOUNDS.values(), ids=BAD_BOUNDS)
@pytest.mark.parametrize("entry", ["solve", "feasibility"])
def test_bad_bound_pairs_refused(entry, pair):
    with pytest.raises(ValueError, match="bound pairs need"):
        if entry == "solve":
            solve(LinearProgram([1.0], ub_lhs=[[1.0]], ub_rhs=[3.0], bounds=[pair]))
        else:
            feasibility(ub=([[1.0]], [3.0]), bounds=[pair])


def test_none_and_infinite_bounds_read_as_unbounded():
    # max x subject to x <= 3, then the feasibility of x <= -3.
    cases = [((None, None), 3.0, True), ((-np.inf, np.inf), 3.0, True), ((None, 2.0), 2.0, True),
             ((-np.inf, 2.0), 2.0, True), ((2.0, 2.0), 2.0, False)]
    for pair, maximum, below in cases:
        out = solve(LinearProgram([1.0], ub_lhs=[[1.0]], ub_rhs=[3.0], bounds=[pair]))
        assert out.status == LpStatus.OPTIMAL and out.value == pytest.approx(maximum)
        out = feasibility(ub=([[1.0]], [-3.0]), bounds=[pair])
        assert out.status == (LpStatus.OPTIMAL if below else LpStatus.INFEASIBLE)


# (row, right-hand side) of one block, each made wrong in one way.
BAD_BLOCKS = {
    "nan-row": ([[np.nan, 1.0]], [1.0]),
    "inf-row": ([[1.0, -np.inf]], [1.0]),
    "nan-rhs": ([[1.0, 1.0]], [np.nan]),
    "inf-rhs": ([[1.0, 1.0]], [np.inf]),
    "rhs-length": ([[1.0, 1.0]], [1.0, 2.0]),
}


@pytest.mark.parametrize("bad", BAD_BLOCKS)
@pytest.mark.parametrize("block", ["eq", "ub"])
def test_feasibility_refuses_bad_blocks(block, bad):
    # Refused by LinearProgram, as solve refuses them, with the block named.
    with pytest.raises(ValueError, match=f"^{block} constraint"):
        feasibility(**{block: BAD_BLOCKS[bad]})
    with pytest.raises(ValueError, match=f"^{block} constraint"):
        lhs, rhs = BAD_BLOCKS[bad]
        LinearProgram(np.zeros(2), **{f"{block}_lhs": lhs, f"{block}_rhs": rhs})


def test_empty_blocks_read_as_absent():
    out = feasibility(eq=(np.zeros((0, 3)), np.zeros(0)), ub=(np.zeros((0, 3)), np.zeros(0)))
    assert out.status == LpStatus.OPTIMAL and out.max_residual == 0.0
    assert (out.stats.rows, out.stats.cols) == (0, 3)


def test_phase_one_answer_off_its_rows_fails(monkeypatch):
    # HiGHS's point moved by 1 in every coordinate, its optimum kept: the
    # residual check refuses it, with the residual in the message.
    original = lp.linprog

    def shifted(*args):
        result = original(*args)
        return replace(result, x=result.x + 1.0) if result.status == 0 else result

    monkeypatch.setattr(lp, "linprog", shifted)
    out = feasibility(eq=(np.ones((1, 2)), np.array([1.0])))
    assert out.status == LpStatus.FAILED and out.x is not None
    assert out.max_residual == pytest.approx(2.0)
    assert f"{out.max_residual:.3e}" in out.message
    with pytest.raises(RuntimeError, match="extension LP failed"):
        ns_extension(uniform_box(chsh_scenario()), 2)


def test_one_residual_check_per_optimum(monkeypatch):
    # Every optimal outcome, from either entry point and through every
    # caller, is checked by one lp.constraint_residual call, and reports it.
    from monogamy.tradeoffs import ns_maximum

    residuals, outcomes = [], []
    check = lp.constraint_residual

    def spy(program, x, *eq_rhs):
        residuals.append(check(program, x, *eq_rhs))
        return residuals[-1]

    def recording(entry):
        def wrapper(*args, **kwargs):
            result = entry(*args, **kwargs)
            outcomes.extend(result if isinstance(result, list) else [result])
            return result
        return wrapper

    monkeypatch.setattr(lp, "constraint_residual", spy)
    for name in ("solve", "solve_stacked", "phase_one"):
        monkeypatch.setattr(lp, name, recording(getattr(lp, name)))
    scenario = chsh_scenario()
    calls = [
        lambda: lp.solve(LinearProgram([1.0, 1.0], ub_lhs=[[1.0, 2.0]], ub_rhs=[2.0])),
        lambda: lp.feasibility(eq=(np.ones((1, 4)), np.array([1.0]))),
        lambda: ns_maximum(scenario, functional_row(scenario, chsh(), (0, 1))),
        lambda: ns_extension(uniform_box(scenario), 3),
        lambda: local_decomposition(uniform_box(scenario)),
    ]
    for call in calls:
        residuals.clear()
        outcomes.clear()
        call()
        (outcome,) = outcomes
        assert outcome.status == LpStatus.OPTIMAL
        assert residuals == [outcome.max_residual]
        assert outcome.stats.verify_s > 0
    # An infeasible answer has no point to check.
    residuals.clear()
    assert lp.solve(LinearProgram([1.0], ub_lhs=[[1.0]], ub_rhs=[-1.0])).status == LpStatus.INFEASIBLE
    assert residuals == []


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


# Solves one LP in a fresh interpreter and prints the scipy modules loaded.
FRESH_SOLVE = """
import json, sys
from monogamy.lp import LinearProgram, solve

value = solve(LinearProgram([1.0], ub_lhs=[[1.0]], ub_rhs=[3.0])).value
print(json.dumps([value, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_solve_leaves_scipy_optimize_unloaded():
    # HiGHS comes from scipy's binding, loaded by path: the package
    # scipy.optimize and its linprog are never imported.
    child = subprocess.run(
        [sys.executable, "-c", FRESH_SOLVE],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert child.returncode == 0, child.stderr
    value, loaded = json.loads(child.stdout)
    assert value == pytest.approx(3.0)
    assert "scipy.optimize._highspy._core" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize") and "_highspy._core" not in m]


def test_binding_already_loaded_is_reused():
    # In this process scipy.optimize is loaded, so its module is the one.
    import scipy.optimize._highspy._core as core

    assert lp._binding() is core


def test_missing_binding_names_scipy_version(monkeypatch):
    import importlib.machinery
    from importlib.metadata import version

    monkeypatch.delitem(sys.modules, lp._BINDING)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=f"scipy {version('scipy')}"):
        lp._binding()
    assert lp._BINDING not in sys.modules


def test_outcomes_report_highs_iterations(monkeypatch):
    # Every outcome carries the summed iterations of the HiGHS calls behind it.
    linprog_nits = []
    original = lp.linprog

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        linprog_nits.append(result.nit)
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


def test_duals_rebuild_the_chsh_ns_maximum():
    # Equality form over the table, x >= 0: the dual bound is duals @ rhs.
    scenario = chsh_scenario()
    objective = functional_row(scenario, chsh(), (0, 1))
    eq_lhs, eq_rhs = ns_polytope(scenario)
    outcome = solve(LinearProgram(objective, eq_lhs=eq_lhs, eq_rhs=eq_rhs))
    assert outcome.value == pytest.approx(4.0, abs=1e-9)
    assert outcome.duals @ eq_rhs == pytest.approx(4.0, abs=1e-9)
    # Dual feasibility of the maximise form: objective <= lhs.T @ duals.
    assert np.all(objective <= eq_lhs.T @ outcome.duals + 1e-9)


def test_duals_of_the_cg_ns_maximum(monkeypatch):
    # The repo's own NS optimum, max c @ q over rows @ q >= 0 with q[0]
    # fixed at 1 and the other coordinates free, solved in its dual form:
    # the LP's solution is the row multipliers lam >= 0, the free
    # coordinates have zero reduced cost c + rows.T @ lam, and the fixed
    # one carries the value.
    from monogamy.model import ns_orbit_dual_rows, symmetric_cg_rows
    from monogamy.tradeoffs import _ns_maxima

    seen = []
    original = lp.solve_stacked
    monkeypatch.setattr(
        lp, "solve_stacked",
        lambda program, rhs, tol: seen.append(program) or original(program, rhs, tol),
    )
    scenario = chsh_scenario()
    objective = functional_row(scenario, chsh(), (0, 1))
    singletons = ((0,), (1,))
    values, _, (outcome,) = _ns_maxima(scenario, objective[None], singletons, lp.FEASIBILITY_TOL)
    (program,) = seen
    rows = symmetric_cg_rows(scenario, singletons)
    expand = ns_orbit_dual_rows(scenario, singletons)[2]
    assert program.ub_lhs is None and program.bounds is None
    assert values[0] == pytest.approx(4.0, abs=1e-9)
    # The outcome is the dual run's: x is lam, duals the free coordinates.
    lam = outcome.x
    assert lam.shape == (rows.shape[0],)
    assert np.all(lam >= -1e-12)
    reduced = objective @ expand + rows.T @ lam
    assert np.abs(reduced[1:]).max() <= 1e-9
    assert reduced[0] == pytest.approx(values[0], abs=1e-9)
    z = np.concatenate([[1.0], outcome.duals])
    assert np.all(rows @ z >= -1e-9)
    assert objective @ expand @ z == pytest.approx(values[0], abs=1e-9)


def _runs(args, result) -> list:
    """The runs of one ``lp.linprog`` call: (arguments of a single run,
    its result) pairs, one for an unstacked call and one per row of the
    row-bound stacks for a stacked one."""
    cost, rows, row_lower, row_upper, col_lower, col_upper = args
    if np.ndim(row_lower) == 1:
        return [(args, result)]
    assert len(result) == len(row_lower) == len(row_upper)
    return [((cost, rows, lower, upper, col_lower, col_upper), run)
            for lower, upper, run in zip(row_lower, row_upper, result)]


def _row_residual(args, x) -> float:
    """Largest violation at ``x`` of the rows and bounds that one run of
    ``lp.linprog`` got."""
    cost, rows, row_lower, row_upper, col_lower, col_upper = args
    activity = np.zeros(0) if rows is None else rows @ x
    return float(np.max(np.concatenate([
        row_lower - activity, activity - row_upper, col_lower - x, x - col_upper,
    ]), initial=0.0))


def _chsh_ns_maximum():
    from monogamy.tradeoffs import ns_maximum

    scenario = chsh_scenario()
    ns_maximum(scenario, functional_row(scenario, chsh(), (0, 1)))
    return 1


def _ns_support_block():
    # One call, whose 16 runs share the model.
    from monogamy.tradeoffs import ns_support

    ns_support(np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    return 1


def _pb_probe_lps():
    from monogamy.tradeoffs import pb_probe

    return [(record["rows"], record["cols"]) for record in pb_probe().lps]


def _extensions():
    uniform = uniform_box(chsh_scenario())
    for base in (pr_box(), uniform, mixture([pr_box(), uniform], [0.3, 0.7])):
        for n_clones in range(2, 8):
            ns_extension(base, n_clones)
    return 18


def _local_decompositions():
    local_decomposition(pr_box())
    local_decomposition(uniform_box(chsh_scenario()))
    return 2


def _draws():
    from monogamy.sharing import random_shareable_behavior

    rng = np.random.default_rng(25)
    for _ in range(3):
        random_shareable_behavior(rng)
    return 3


def _unbounded():
    # Without rows, and with a row that leaves a ray open.
    assert solve(LinearProgram(np.array([1.0]))).status == LpStatus.UNBOUNDED
    ray = LinearProgram(np.array([1.0, 1.0]), ub_lhs=[[1.0, -1.0]], ub_rhs=[1.0])
    assert solve(ray).status == LpStatus.UNBOUNDED
    return 2


def _empty():
    assert feasibility(n_variables=3).status == LpStatus.OPTIMAL
    return 1


@pytest.mark.parametrize("workload", [
    _chsh_ns_maximum, _ns_support_block, _pb_probe_lps, _extensions,
    _local_decompositions, _unbounded, _empty,
], ids=lambda f: f.__name__.strip("_"))
def test_direct_highs_matches_linprog_reference(workload, monkeypatch):
    # Every LP the workload hands HiGHS, each run of a stacked call with
    # its own row bounds, solved again by scipy.optimize.linprog(method=
    # "highs"): same status, same optimum, and both solutions within the
    # acceptance residual.
    seen = highs_calls(monkeypatch)
    expected = workload()
    if isinstance(expected, list):
        # pb_probe: one call per recorded LP, of the recorded size.
        assert [(args[1].shape[0], len(args[0])) for args, _ in seen] == expected
    else:
        assert len(seen) == expected
    for args, result in (run for call in seen for run in _runs(*call)):
        reference = linprog_reference(*args)
        assert result.status == reference.status
        if result.status == 0:
            assert result.fun == pytest.approx(reference.fun, abs=1e-9)
            assert _row_residual(args, result.x) <= 10 * lp.FEASIBILITY_TOL
            assert _row_residual(args, reference.x) <= 10 * lp.FEASIBILITY_TOL


@pytest.mark.parametrize("workload", [
    _chsh_ns_maximum, _ns_support_block, _pb_probe_lps, _extensions,
    _local_decompositions, _draws,
], ids=lambda f: f.__name__.strip("_"))
def test_no_model_reaches_highs_with_a_fixed_column(workload, monkeypatch):
    # HiGHS runs without presolve, which is what would remove a fixed
    # column: every column the toolkit's models send has room to move.
    assert ("presolve", "off") in lp._OPTIONS
    seen = highs_calls(monkeypatch)
    workload()
    assert seen
    for (cost, rows, row_lower, row_upper, col_lower, col_upper), _ in seen:
        assert np.all(col_lower < col_upper)


def test_with_rhs_checks_like_the_constructor():
    program = LinearProgram(np.ones(2), eq_lhs=[[1.0, 1.0]], eq_rhs=[1.0],
                            ub_lhs=np.eye(2), ub_rhs=[1.0, 1.0], bounds=[(None, 3.0)] * 2)
    with pytest.raises(ValueError, match="eq constraint matrix must have 2 rows"):
        program.with_rhs(eq_rhs=[1.0, 2.0])
    with pytest.raises(ValueError, match="ub constraint matrix must have 1 rows"):
        program.with_rhs(ub_rhs=[1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="ub constraints must be finite"):
            program.with_rhs(ub_rhs=[1.0, bad])
        with pytest.raises(ValueError, match="eq constraints must be finite"):
            program.with_rhs(eq_rhs=[bad])
    with pytest.raises(ValueError, match="eq constraints need both sides"):
        LinearProgram(np.ones(2), ub_lhs=np.eye(2), ub_rhs=[1.0, 1.0]).with_rhs(eq_rhs=[1.0])
    # The copy shares everything but the new side; the program keeps its own.
    moved = program.with_rhs(ub_rhs=[-3.0, -3.0])
    assert np.array_equal(moved.ub_rhs, [-3.0, -3.0]) and np.array_equal(program.ub_rhs, [1.0, 1.0])
    for name in ("objective", "eq_lhs", "eq_rhs", "ub_lhs", "lower", "upper", "_elastic"):
        assert getattr(moved, name) is getattr(program, name)
    assert lp.phase_one(program).status == LpStatus.OPTIMAL
    assert lp.phase_one(moved).status == LpStatus.INFEASIBLE


def test_prepared_programs_build_their_elastic_system_once(monkeypatch):
    # Extensions at one clone count share one program, and so do the
    # membership LPs of one scenario: only the right-hand side is new.
    from monogamy import localpoly, sharing

    sharing._extension_program.cache_clear()
    localpoly._membership_program.cache_clear()
    # Every phase-one reads its program's system; a build makes a new one.
    systems = []
    original = lp._elastic_system
    monkeypatch.setattr(lp, "_elastic_system",
                        lambda program: systems.append(original(program)) or systems[-1])
    boxes = (pr_box(), uniform_box(chsh_scenario()))
    verdicts = [type(ns_extension(b, 3)).__name__ for b in boxes]
    built = {id(system) for system in systems}
    assert verdicts == ["InfeasibleExtension", "ExtensionCertificate"] and len(built) == 1
    verdicts = [type(local_decomposition(b)).__name__ for b in boxes]
    built = {id(system) for system in systems}
    assert verdicts == ["NotLocal", "LocalModel"] and len(built) == 2
    assert len(systems) == 4


@st.composite
def _programs(draw):
    """A program of 1-6 variables with 0-4 equality and 0-4 inequality
    rows, each block dense or CSR with duplicate and unsorted entries, and
    its dense blocks summed."""
    n = draw(st.integers(1, 6))
    blocks = {}
    for name in ("eq", "ub"):
        m = draw(st.integers(0, 4))
        entries = draw(st.lists(st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, n - 1),
                                          st.integers(-3, 3)), max_size=3 * m * n))
        rows, cols, values = np.array(entries, dtype=int).reshape(-1, 3).T
        dense = np.zeros((m, n))
        np.add.at(dense, (rows, cols), values)
        if not m:
            blocks[name] = (None, None, dense)
            continue
        if draw(st.booleans()):
            # Row by row, in drawn order: unsorted, with every duplicate kept.
            order = np.argsort(rows, kind="stable")
            indptr = np.searchsorted(rows[order], np.arange(m + 1))
            lhs = sp.csr_array((values[order].astype(float), cols[order], indptr), shape=(m, n))
        else:
            lhs = dense
        blocks[name] = (lhs, draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)), dense)
    bounds = draw(st.none() | st.lists(
        st.tuples(st.none() | st.integers(-2, 0), st.none() | st.integers(1, 3)),
        min_size=n, max_size=n))
    program = LinearProgram(np.zeros(n), *blocks["eq"][:2], *blocks["ub"][:2], bounds)
    return program, blocks["eq"][2], blocks["ub"][2]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_programs())
def test_elastic_system_is_the_dense_block_form(case):
    program, a_eq, a_ub = case
    (m_eq, n), m_ub = a_eq.shape, a_ub.shape[0]
    cost, rows, col_lower, col_upper = lp._elastic_system(program)
    reference = np.block([[a_ub, np.zeros((m_ub, 2 * m_eq)), -np.eye(m_ub)],
                          [a_eq, np.eye(m_eq), -np.eye(m_eq), np.zeros((m_eq, m_ub))]])
    if m_eq + m_ub:
        assert rows.shape == reference.shape and np.array_equal(rows.toarray(), reference)
        assert rows.indptr.dtype == rows.indices.dtype == np.int32
        starts = np.repeat(rows.indptr[:-1], np.diff(rows.indptr))
        # Canonical: strictly increasing columns within every row.
        assert np.all(np.diff(rows.indices)[starts[1:] == starts[:-1]] > 0)
        assert rows.has_canonical_format
    else:
        assert rows is None
    assert np.array_equal(cost, np.r_[np.zeros(n), np.ones(2 * m_eq + m_ub)])
    assert np.array_equal(col_lower, np.r_[program.lower, np.zeros(2 * m_eq + m_ub)])
    assert np.array_equal(col_upper, np.r_[program.upper, np.full(2 * m_eq + m_ub, np.inf)])


def _same_runs(first, second):
    """Whether two lists of ``linprog`` results agree bit for bit."""
    def key(r):
        return (r.status, r.message, r.nit, r.warm, r.fun,
                *(None if a is None else a.tobytes() for a in (r.x, r.duals)))
    return [key(r) for r in first] == [key(r) for r in second]


def _interleaved_runs(fresh: bool) -> list:
    """The ``linprog`` results of one sequence of every LP kind, run on the
    thread's reused solver, or on a new one per call with ``fresh``."""
    from monogamy.tradeoffs import ns_support, pb_probe

    results = []
    original = lp.linprog

    def recording(*args):
        if fresh:
            lp._SOLVERS.highs = None
        result = original(*args)
        results.extend(result if isinstance(result, list) else [result])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "linprog", recording)
        ns_extension(mixture([pr_box(), uniform_box(chsh_scenario())], [0.3, 0.7]), 7)
        pb_probe()
        local_decomposition(pr_box())
        ns_support(np.linspace(0.0, 2.0 * np.pi, 9))
        ns_extension(pr_box(), 2)
    return results


def test_reused_solver_answers_as_a_new_one():
    # The solver keeps nothing from one model to the next: x, objective,
    # duals and iterations are those of a new solver per call.
    fresh = _interleaved_runs(fresh=True)
    reused = _interleaved_runs(fresh=False)
    assert len(fresh) == len(reused) > 5 and all(r.status == 0 for r in fresh)
    assert _same_runs(fresh, reused)


def test_rejected_model_drops_the_solver():
    cost, rows = -np.ones(3), sp.csr_array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    args = (cost, rows, np.full(2, -np.inf), np.array([4.0, 1.0]), np.zeros(3), np.full(3, np.inf))
    lp._SOLVERS.highs = None
    expected = lp.linprog(*args)
    assert expected.status == 0 and expected.nit > 0
    nan_bound = np.array([np.nan, 0.0, 0.0])
    rejected = lp.linprog(*args[:4], nan_bound, args[5])
    assert (rejected.status, rejected.message) == (2, "HiGHS rejected the model")
    assert getattr(lp._SOLVERS, "highs", None) is None
    assert _same_runs([lp.linprog(*args)], [expected])
