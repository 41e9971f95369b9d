"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from monogamy import (
    Behavior,
    Scenario,
    born_behavior,
    chsh,
    chsh_value,
    collins_gisin,
    deterministic_behaviors,
    lp,
    mixture,
    phi_plus,
    planar_observable,
    pr_box,
)
from monogamy.bell import functional_row
from monogamy.model import no_signalling_constraints, normalization_constraints
from monogamy.sharing import _extended_scenario, clone_symmetry_constraints
from monogamy.tradeoffs import pb_scenario, triple_scenario

TSIRELSON_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def chsh_scenario() -> Scenario:
    return Scenario(2, (2, 2), (2, 2))


def flat_index(scenario: Scenario, context: tuple, outcomes: tuple) -> int:
    """Position of a table entry in the row-major flattened table."""
    return int(np.ravel_multi_index(context + outcomes, scenario.table_shape))


def random_behavior(rng: np.random.Generator, scenario: Scenario) -> Behavior:
    """Random strictly positive behavior (generally signalling)."""
    table = rng.random(scenario.table_shape) + 1e-3
    axes = tuple(range(scenario.parties, 2 * scenario.parties))
    table = table / table.sum(axis=axes, keepdims=True)
    return Behavior(scenario, table)


def observables_from_angles(angles) -> list[list[np.ndarray]]:
    """Four planar angles (a0, a1, b0, b1) to per-party observable lists."""
    a0, a1, b0, b1 = angles
    return [
        [planar_observable(a0), planar_observable(a1)],
        [planar_observable(b0), planar_observable(b1)],
    ]


def tsirelson_behavior() -> Behavior:
    return born_behavior(phi_plus(), observables_from_angles(TSIRELSON_ANGLES))


def random_violating_behavior(rng: np.random.Generator, threshold: float = 2.1) -> Behavior:
    """Quantum two-party behavior with CHSH above the threshold, produced by
    jittering the maximally violating configuration."""
    from monogamy import density_from_vector

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    while True:
        vec = bell + 0.25 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        jitter = rng.uniform(-0.25, 0.25, 4)
        angles = tuple(base + j for base, j in zip(TSIRELSON_ANGLES, jitter))
        behavior = born_behavior(
            density_from_vector(vec), observables_from_angles(angles)
        )
        if abs(chsh_value(behavior)) > threshold:
            return behavior


def random_ns_behavior(rng: np.random.Generator, scenario: Scenario, pr_weight: float) -> Behavior:
    """A PR box embedded in a two-party scenario with two-outcome, two-setting
    Bob, mixed with weight ``pr_weight`` into a random mixture of 2-5
    deterministic vertices.  On Alice's settings beyond the first two she
    answers 0 and Bob answers uniformly, so the embedding is no-signalling."""
    table = np.zeros(scenario.table_shape)
    table[:2, :, :2, :] = pr_box().table
    table[2:, :, 0, :] = 0.5
    vertices = deterministic_behaviors(scenario)
    k = int(rng.integers(2, 6))
    picks = rng.choice(len(vertices), size=k, replace=False)
    local = mixture([vertices[i] for i in picks], list(rng.dirichlet(np.ones(k))))
    return mixture([Behavior(scenario, table), local], [pr_weight, 1.0 - pr_weight])


def ns_polytope(scenario: Scenario):
    """Reference equality rows of the no-signalling polytope over the flat
    table: the one normalization row stacked over the no-signalling rows
    against each party's setting 0, as a CSR matrix, and their right-hand
    side.  They span the same row space as every context's normalization
    and every pair of settings, with fewer rows."""
    import scipy.sparse as sp

    norm = normalization_constraints(scenario)
    ns = no_signalling_constraints(scenario)
    return sp.vstack([norm[0], ns[0]], format="csr"), np.concatenate([norm[1], ns[1]])


def loop_pair_marginal_rows(scen, base):
    """Dense reference: clone 1's pair marginal, other clones at setting 0."""
    n_clones = scen.parties - 1
    rows, rhs = [], []
    for sa, sb, a, bb in itertools.product(*map(range, base.scenario.table_shape)):
        ctx = (sa, sb) + (0,) * (n_clones - 1)
        row = np.zeros(scen.table_size)
        for tail in itertools.product(range(scen.outcomes[1]), repeat=n_clones - 1):
            row[flat_index(scen, ctx, (a, bb) + tail)] = 1.0
        rows.append(row)
        rhs.append(base.table[sa, sb, a, bb])
    return np.array(rows), np.array(rhs)


def full_table_extension_lp(base: Behavior, n_clones: int) -> lp.LpOutcome:
    """Reference NS extension LP over the raw (N+1)-party table: the NS
    polytope, clone symmetry as transposition rows, and clone 1's pair
    marginals."""
    import scipy.sparse as sp

    scen = _extended_scenario(base.scenario, n_clones)
    marg_lhs, marg_rhs = loop_pair_marginal_rows(scen, base)
    blocks = [ns_polytope(scen), clone_symmetry_constraints(scen),
              (sp.csr_array(marg_lhs), marg_rhs)]
    lhs = sp.vstack([blk[0] for blk in blocks], format="csr")
    rhs = np.concatenate([blk[1] for blk in blocks])
    return lp.feasibility(eq=(lhs, rhs), n_variables=scen.table_size)


def reference_shareable_draw(rng: np.random.Generator, n_vertices: int = 3) -> np.ndarray:
    """The witness table of ``random_shareable_behavior`` from the
    equality-form LP over the raw three-party table: the ``ns_polytope``
    rows plus the clone-swap rows, one ``lp.solve`` per vertex, with the
    objectives and the mixture weights drawn in the same order."""
    import scipy.sparse as sp

    scen = _extended_scenario(chsh_scenario(), 2)
    blocks = [ns_polytope(scen), clone_symmetry_constraints(scen)]
    eq_lhs = sp.vstack([blk[0] for blk in blocks], format="csr")
    eq_rhs = np.concatenate([blk[1] for blk in blocks])
    vertices = []
    for _ in range(n_vertices):
        objective = rng.standard_normal(scen.table_size)
        outcome = lp.solve(lp.LinearProgram(objective, eq_lhs=eq_lhs, eq_rhs=eq_rhs))
        assert outcome.status == lp.LpStatus.OPTIMAL
        vertices.append(np.clip(outcome.x, 0.0, None))
    weights = rng.dirichlet(np.ones(n_vertices))
    return sum(w * v for w, v in zip(weights, vertices)).reshape(scen.table_shape)


def full_table_probe() -> tuple[list[float], float, int]:
    """Reference four-party probe over the raw 1 296-entry table: the LPs of
    the four sorted sign patterns and the max-min LP, each over the full
    ``ns_polytope`` rows.  Returns the eight sign values in product order,
    t* and the summed HiGHS iterations of the five LPs."""
    import scipy.sparse as sp

    scenario = pb_scenario()
    rows = [functional_row(scenario, collins_gisin(), pair) for pair in ((0, 1), (0, 2), (0, 3))]
    eq_lhs, eq_rhs = ns_polytope(scenario)
    n = scenario.table_size
    optima, iterations = {}, 0
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)):
        objective = sum(s * row for s, row in zip(signs, rows))
        outcome = lp.solve(lp.LinearProgram(objective, eq_lhs=eq_lhs, eq_rhs=eq_rhs))
        assert outcome.status == lp.LpStatus.OPTIMAL
        optima[signs], iterations = outcome.value, iterations + outcome.iterations
    outcome = lp.solve(lp.LinearProgram(
        np.concatenate([np.zeros(n), [1.0]]),
        eq_lhs=sp.hstack([eq_lhs, sp.csr_array((eq_lhs.shape[0], 1))], format="csr"),
        eq_rhs=eq_rhs,
        ub_lhs=np.array([np.concatenate([-(rows[0] + row), [1.0]]) for row in rows[1:]]),
        ub_rhs=np.zeros(2),
        bounds=[(0.0, None)] * n + [(None, None)],
    ))
    assert outcome.status == lp.LpStatus.OPTIMAL
    sign_values = [
        optima[tuple(sorted(signs, reverse=True))]
        for signs in itertools.product((1, -1), repeat=3)
    ]
    return sign_values, outcome.value, iterations + outcome.iterations


def per_direction_ns_support(thetas) -> list[float]:
    """Reference NS support values: one ``lp.solve`` per direction over the
    ``ns_polytope`` rows, maximizing cos(theta) CHSH_ab + sin(theta) CHSH_ac."""
    scenario = triple_scenario()
    ab, ac = (functional_row(scenario, chsh(), pair) for pair in ((0, 1), (0, 2)))
    eq_lhs, eq_rhs = ns_polytope(scenario)
    values = []
    for theta in thetas:
        objective = math.cos(theta) * ab + math.sin(theta) * ac
        outcome = lp.solve(lp.LinearProgram(objective, eq_lhs=eq_lhs, eq_rhs=eq_rhs))
        assert outcome.status == lp.LpStatus.OPTIMAL
        values.append(outcome.value)
    return values
