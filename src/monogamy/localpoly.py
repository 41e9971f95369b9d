"""Local-polytope machinery: deterministic strategies, membership by LP,
and Bell bounds over local models."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .bell import (  # noqa: F401 - perfbench/spans.py wraps bell_value here
    BellFunctional,
    bell_value,
    functional_row,
)
from .model import Behavior, Scenario, _capped_product, deterministic_box

STRATEGY_CAP = 2**23  # strategy matrix entries, table size x strategy count: 64 MiB
_RECONSTRUCTION_TOL = 1e-8  # largest error of a feasible local model's table


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per party, a fixed response outcome for each setting."""

    assignment: tuple[tuple[int, ...], ...]

    def to_behavior(self, scenario: Scenario) -> Behavior:
        return deterministic_box(scenario, self.assignment)


@dataclass(frozen=True, eq=False)
class LocalModel:
    """Weights over the enumerated deterministic strategies reproducing a
    target behavior."""

    scenario: Scenario
    weights: np.ndarray
    reconstruction_error: float

    def behavior(self) -> Behavior:
        table = strategy_matrix(self.scenario) @ self.weights
        return Behavior(self.scenario, table.reshape(self.scenario.table_shape))


@dataclass(frozen=True)
class NotLocal:
    """LP infeasibility certificate; the score is the minimized total L1
    constraint violation (a diagnostic, not a calibrated distance)."""

    score: float


def _refuse_oversized(scenario: Scenario) -> None:
    """Refuse a strategy matrix, table size x prod_p o_p^s_p, past the cap."""
    responses = (o for s, o in zip(scenario.settings, scenario.outcomes) for _ in range(s))
    _capped_product(itertools.chain(scenario.table_shape, responses), STRATEGY_CAP,
                    "strategy matrix size")


def deterministic_strategies(scenario: Scenario) -> list[DeterministicStrategy]:
    """Enumerate all per-party deterministic response functions."""
    _refuse_oversized(scenario)
    per_party = (itertools.product(range(o), repeat=s)
                 for s, o in zip(scenario.settings, scenario.outcomes))
    return [DeterministicStrategy(combo) for combo in itertools.product(*per_party)]


def deterministic_behaviors(scenario: Scenario) -> list[Behavior]:
    return [s.to_behavior(scenario) for s in deterministic_strategies(scenario)]


def strategy_matrix(scenario: Scenario) -> np.ndarray:
    """Dense matrix with one flattened deterministic table per column, the
    columns in the order of :func:`deterministic_strategies`.

    Party p's response function r answers setting x with digit x of r in
    base o_p, most significant first.  Its one-hot table ``[x, a, r]`` is 1
    where r answers a at x; the matrix is the broadcast product of the
    parties' tables over axes (settings, outcomes, responses)."""
    _refuse_oversized(scenario)
    k = scenario.parties
    matrix = np.ones(())
    for p, (s, o) in enumerate(zip(scenario.settings, scenario.outcomes)):
        answers = np.arange(o ** s) // o ** np.arange(s - 1, -1, -1)[:, None] % o
        shape = [1] * (3 * k)
        shape[p], shape[k + p], shape[2 * k + p] = s, o, o ** s
        matrix = matrix * (answers[:, None, :] == np.arange(o)[:, None]).reshape(shape)
    return matrix.reshape(scenario.table_size, -1)


@functools.lru_cache(maxsize=8)
def _membership_program(scenario: Scenario) -> lp.LinearProgram:
    """The membership LP of :func:`local_decomposition` up to its
    right-hand side: the strategy columns of :func:`strategy_matrix` over
    one row of ones (the weights' normalization) as equality rows, CSR and
    read-only as ``model.cg_map`` is, with weights >= 0 and zeros in place
    of the table.  Memoised per scenario; each behavior gives its table
    through ``with_rhs``."""
    matrix = strategy_matrix(scenario)  # refuses before scipy is imported
    import scipy.sparse as sp

    rows = sp.csr_array(np.vstack([matrix, np.ones((1, matrix.shape[1]))]))
    for part in (rows.data, rows.indices, rows.indptr):
        part.setflags(write=False)
    return lp.LinearProgram(np.zeros(rows.shape[1]), eq_lhs=rows, eq_rhs=np.zeros(rows.shape[0]))


def local_decomposition(b: Behavior) -> LocalModel | NotLocal:
    """Find hidden-variable weights reproducing ``b``, or certify none exist.

    Feasibility of  D w = b,  sum(w) = 1,  w >= 0  over the deterministic
    strategy columns D; infeasibility comes back with the minimized L1
    violation as a non-locality score.
    """
    scenario = b.scenario
    program = _membership_program(scenario)
    eq_rhs = np.concatenate([b.table.reshape(-1), [1.0]])
    outcome = lp.phase_one(program.with_rhs(eq_rhs=eq_rhs), lp.FEASIBILITY_TOL)
    if outcome.status == lp.LpStatus.INFEASIBLE:
        return NotLocal(score=outcome.violation)
    if outcome.status != lp.LpStatus.OPTIMAL:
        raise RuntimeError(f"local membership LP failed: {outcome.message}")
    weights = np.clip(outcome.x, 0.0, None)
    weights = weights / weights.sum()
    reconstruction = (program.eq_lhs @ weights)[:-1]
    err = float(np.max(np.abs(reconstruction - b.table.reshape(-1))))
    if err > _RECONSTRUCTION_TOL:
        # Feasible per the LP but imprecise reconstruction: a numerical
        # failure, not evidence of non-locality.
        raise RuntimeError(f"feasible weights reconstruct with error {err:.3e}")
    return LocalModel(scenario=scenario, weights=weights, reconstruction_error=err)


def local_bound(f: BellFunctional) -> float:
    """Maximum of the functional over all deterministic strategies (the
    vertices of the two-party dichotomic local polytope of its settings);
    exact up to float evaluation."""
    scenario = Scenario(2, f.settings, (2, 2))
    return float(np.max(functional_row(scenario, f, (0, 1)) @ strategy_matrix(scenario)))
