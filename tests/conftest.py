"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

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
from monogamy import model
from monogamy.bell import functional_row
from monogamy.model import (
    _clone_multisets,
    _multiset_ranks,
    cg_map,
    no_signalling_constraints,
    normalization_constraints,
    ns_orbit_dual_rows,
    permute_parties,
    symmetric_cg_rows,
)
from monogamy.sharing import _extended_scenario, clone_symmetry_constraints
from monogamy.tradeoffs import pb_scenario, triple_scenario

TSIRELSON_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

# Every property runs the same examples on every run, with no example
# database and no per-example deadline; each sets only its max_examples.
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def definition_passes(monkeypatch):
    """The arguments of every ``model.definition_reports`` call, recorded at
    each package module that binds the name."""
    calls = []
    original = model.definition_reports

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "monogamy" and getattr(module, "definition_reports", None) is original:
            monkeypatch.setattr(module, "definition_reports", counting)
    return calls


def child_env() -> dict:
    """Environment for a child interpreter that imports the package from
    this checkout's src, installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


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


def block_swaps(n_parties: int, blocks) -> tuple[tuple[int, ...], ...]:
    """The party permutations that swap neighbouring parties of a block:
    they generate the permutations within ``blocks``."""
    swaps = []
    for block in blocks:
        for p, q in zip(block, block[1:]):
            perm = list(range(n_parties))
            perm[p], perm[q] = q, p
            swaps.append(tuple(perm))
    return tuple(swaps)


def _orbit_minima(n: int, images: list[np.ndarray]) -> np.ndarray:
    """The smallest member of each index's orbit among 0..n-1 under the
    permutations ``images`` (index j and ``image[j]`` share an orbit)."""
    label = np.arange(n)
    while True:
        smallest = label
        for image in images:
            smallest = np.minimum(smallest, smallest[image])
        if np.array_equal(smallest, label):
            return label
        label = smallest


def orbit_polytope(scenario: Scenario, blocks):
    """Reference rows of the NS polytope restricted to the tables fixed by
    the permutations within ``blocks``, from the full ``cg_map`` M: one
    variable per orbit of CG columns under the neighbour swaps of
    :func:`block_swaps` (a party permutation transposes the columns'
    per-party digit grid), orbits in order of their smallest column.
    Returns ``(rows, expand)``: ``expand = M @ P`` for the 0/1 matrix P of
    column c in orbit k, and ``rows`` the rows of ``expand`` at each
    orbit of table entries' smallest entry, in increasing order."""
    import scipy.sparse as sp

    generators = block_swaps(scenario.parties, blocks)
    m = cg_map(scenario)
    n_cols = m.shape[1]
    columns = np.arange(n_cols).reshape(
        tuple(1 + s * (o - 1) for s, o in zip(scenario.settings, scenario.outcomes))
    )
    column_minima = _orbit_minima(n_cols, [columns.transpose(perm).ravel() for perm in generators])
    column_orbit = np.unique(column_minima, return_inverse=True)[1]
    members = sp.csr_array(
        (np.ones(n_cols), (np.arange(n_cols), column_orbit)),
        shape=(n_cols, int(column_orbit.max()) + 1),
    )
    expand = (m @ members).tocsr()
    entries = np.arange(scenario.table_size)
    representatives = np.unique(_orbit_minima(
        scenario.table_size, [permute_parties(scenario, entries, perm) for perm in generators]
    ))
    return expand[representatives].tocsr(), expand


def row_set(rows) -> np.ndarray:
    """The rows of a sparse matrix as a dense array in lexicographic order,
    so that two matrices with the same rows in any order compare equal."""
    dense = rows.toarray()
    return dense[np.lexsort(dense.T[::-1])]


def assert_matches_orbit_reference(scenario: Scenario, blocks) -> None:
    """``symmetric_cg_rows`` against :func:`orbit_polytope`: the same set
    of rows, in Kronecker order rather than by smallest table entry, the
    same columns in the same order, and ``ns_orbit_dual_rows``' expand
    equal to the reference's entry for entry."""
    rows, expand = orbit_polytope(scenario, blocks)
    built = symmetric_cg_rows(scenario, blocks)
    built_expand = ns_orbit_dual_rows(scenario, blocks)[2]
    assert built.shape == rows.shape and built_expand.shape == expand.shape
    assert np.array_equal(row_set(built), row_set(rows))
    assert np.array_equal(built_expand.toarray(), expand.toarray())


def linprog_reference(cost, rows, row_lower, row_upper, col_lower, col_upper):
    """Reference solve of the arguments of ``lp.linprog`` by
    ``scipy.optimize.linprog(method="highs")``: rows with equal bounds as
    equality rows, and every other finite row bound as an inequality row
    (upper bounds first).  Returns scipy's result."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    rows = sp.csr_array((0, len(cost))) if rows is None else sp.csr_array(rows)
    eq = row_lower == row_upper
    upper, lower = ~eq & np.isfinite(row_upper), ~eq & np.isfinite(row_lower)
    b_ub = np.concatenate([row_upper[upper], -row_lower[lower]])
    return linprog(
        cost,
        A_ub=sp.vstack([rows[upper], -rows[lower]], format="csr") if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=rows[eq] if eq.any() else None,
        b_eq=row_upper[eq] if eq.any() else None,
        bounds=np.column_stack([col_lower, col_upper]),
        method="highs",
    )


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


def full_table_extension_rows(base: Behavior, n_clones: int):
    """Reference NS extension rows over the raw (N+1)-party table: the NS
    polytope, clone symmetry as transposition rows, and clone 1's pair
    marginals, as CSR equality rows and their right-hand side."""
    import scipy.sparse as sp

    scen = _extended_scenario(base.scenario, n_clones)
    marg_lhs, marg_rhs = loop_pair_marginal_rows(scen, base)
    blocks = [ns_polytope(scen), clone_symmetry_constraints(scen),
              (sp.csr_array(marg_lhs), marg_rhs)]
    lhs = sp.vstack([blk[0] for blk in blocks], format="csr")
    return lhs, np.concatenate([blk[1] for blk in blocks])


def full_table_extension_lp(base: Behavior, n_clones: int) -> lp.LpOutcome:
    """The elastic phase-one of :func:`full_table_extension_rows`."""
    return lp.feasibility(eq=full_table_extension_rows(base, n_clones))


def full_table_extension_exists(base: Behavior, n_clones: int) -> bool:
    """The verdict of :func:`full_table_extension_rows` from HiGHS's own
    status (no elastic phase-one, which costs seconds on an infeasible
    table of a few thousand entries)."""
    lhs, rhs = full_table_extension_rows(base, n_clones)
    n = lhs.shape[1]
    status = linprog_reference(np.zeros(n), lhs, rhs, rhs, np.zeros(n), np.full(n, np.inf)).status
    assert status in (0, 2)
    return status == 0


def _multinomials(multisets: np.ndarray, n_letters: int) -> np.ndarray:
    """Number of letter sequences with each multiset: n!/prod(count!)."""
    n = multisets.shape[1]
    factorial = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    counts = (multisets[:, :, None] == np.arange(n_letters)).sum(axis=1)
    return factorial[n] / factorial[counts].prod(axis=1)


def equality_extension_lp(base: Behavior, n_clones: int) -> lp.LpOutcome:
    """Reference NS extension LP in equality form over clone-symmetric
    table variables: v[x, a, m] (flat, row-major) is the table entry shared
    by every clone letter sequence ``l = y * o_B + b`` with multiset m.
    Row blocks, in order:

    - normalization: one row at the all-zero context, multinomial weights;
    - Alice NS: sum_a v[x, a, m] = sum_a v[0, a, m] for x > 0;
    - last-clone NS: sum_b v[x, a, m' + (y, b)] = sum_b v[x, a, m' + (0, b)]
      for y > 0 and every multiset m' of N-1 letters;
    - pair marginals: one row per base entry (x, y, a, b), in flat base
      order, summing v[x, a, m' + (y, b)] over the m' of setting-0 letters,
      weighted by (N-1)!/prod(count!).

    Symmetry carries the last-clone NS rows to every clone, and NS carries
    normalization to every context.  Its size grows like the positivity
    form's, so it serves as the reference where the full table is too
    large."""
    import scipy.sparse as sp

    (s_a, s_b), (o_a, o_b) = base.scenario.settings, base.scenario.outcomes
    n_letters = s_b * o_b
    multisets = _clone_multisets(n_letters, n_clones)
    fewer = _clone_multisets(n_letters, n_clones - 1)
    var = np.arange(s_a * o_a * len(multisets)).reshape(s_a, o_a, len(multisets))
    # grown[m', y, b]: rank of m' + (y, b).
    grown = np.column_stack([np.repeat(fewer, n_letters, axis=0),
                             np.tile(np.arange(n_letters), len(fewer))])
    grown = _multiset_ranks(grown, n_letters).reshape(len(fewer), s_b, o_b)
    zero = np.all(multisets < o_b, axis=1)
    fewer_zero = np.all(fewer < o_b, axis=1)

    def block(cols, vals):
        """One row per leading index of ``cols``, its terms along the last axis."""
        cols = cols.reshape(-1, cols.shape[-1])
        row_ids = np.repeat(np.arange(len(cols)), cols.shape[1])
        values = np.broadcast_to(vals, cols.shape).ravel()
        return sp.coo_array((values, (row_ids, cols.ravel())), shape=(len(cols), var.size))

    def ns_block(cols):
        """Per leading index and setting s > 0 of the second-last axis: the
        sum along the last axis at s minus the same sum at setting 0."""
        rest = cols[..., 1:, :]
        first = np.broadcast_to(cols[..., :1, :], rest.shape)
        return block(np.concatenate([rest, first], axis=-1), np.repeat([1.0, -1.0], cols.shape[-1]))

    lhs = sp.vstack([
        block(var[0][:, zero].reshape(1, -1),
              np.tile(_multinomials(multisets[zero], n_letters), o_a)),
        ns_block(np.moveaxis(var, 2, 0)),  # m, x, a
        ns_block(var[:, :, grown]),  # x, a, m', y, b
        block(np.transpose(var[:, :, grown[fewer_zero]], (0, 3, 1, 4, 2)),  # x, y, a, b, m'
              _multinomials(fewer[fewer_zero], n_letters)),
    ], format="csr")
    rhs = np.concatenate([[1.0], np.zeros(lhs.shape[0] - 1 - base.table.size),
                          base.table.ravel()])
    return lp.feasibility(eq=(lhs, rhs), n_variables=lhs.shape[1])


def reference_shareable_draw(rng: np.random.Generator) -> np.ndarray:
    """The witness table of ``random_shareable_behavior`` from the
    equality-form LP over the raw three-party table: the ``ns_polytope``
    rows plus the clone-swap rows, one ``lp.solve`` per vertex (three), with the
    objectives and the mixture weights drawn in the same order."""
    import scipy.sparse as sp

    scen = _extended_scenario(chsh_scenario(), 2)
    blocks = [ns_polytope(scen), clone_symmetry_constraints(scen)]
    eq_lhs = sp.vstack([blk[0] for blk in blocks], format="csr")
    eq_rhs = np.concatenate([blk[1] for blk in blocks])
    vertices = []
    for _ in range(3):
        objective = rng.standard_normal(scen.table_size)
        outcome = lp.solve(lp.LinearProgram(objective, eq_lhs=eq_lhs, eq_rhs=eq_rhs))
        assert outcome.status == lp.LpStatus.OPTIMAL
        vertices.append(np.clip(outcome.x, 0.0, None))
    weights = rng.dirichlet(np.ones(3))
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
