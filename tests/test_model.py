"""Behavior tables: validation, marginals, no-signalling, constructors."""

import itertools
import math

import numpy as np
import pytest

from monogamy import (
    Behavior,
    Scenario,
    behavior_from_json_dict,
    behavior_to_json_dict,
    chsh_value,
    correlator,
    deterministic_box,
    is_no_signalling,
    marginal,
    mixture,
    partial_local_box,
    pr_box,
    product_box,
    uniform_box,
    validate_behavior,
)
from monogamy.localpoly import deterministic_behaviors, strategy_matrix
from monogamy.model import (
    _clone_multisets,
    _multiset_ranks,
    cg_map,
    definition_reports,
    no_signalling_constraints,
    normalization_constraints,
    ns_orbit_dual_rows,
    symmetric_cg_index,
    symmetric_cg_rows,
)
from monogamy.sharing import _extended_scenario
from monogamy.tradeoffs import pb_scenario, triple_scenario
from conftest import (
    assert_matches_orbit_reference,
    chsh_scenario,
    flat_index,
    ns_polytope,
    orbit_polytope,
    random_behavior,
    row_set,
)


def brute_force_marginal(b, keep, context):
    """Index-loop oracle for marginal distributions."""
    s = b.scenario
    shape = tuple(s.outcomes[p] for p in keep)
    out = np.zeros(shape)
    for outs in itertools.product(*(range(o) for o in s.outcomes)):
        key = tuple(outs[p] for p in keep)
        out[key] += b.table[tuple(context) + outs]
    return out


class TestScenario:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            Scenario(0, (), ())
        with pytest.raises(ValueError):
            Scenario(1, (0,), (2,))
        with pytest.raises(ValueError):
            Scenario(1, (1,), (1,))

    def test_table_cap(self):
        with pytest.raises(ValueError):
            Scenario(10, (4,) * 10, (4,) * 10)

    def test_shape(self):
        s = Scenario(2, (3, 2), (2, 4))
        assert s.table_shape == (3, 2, 2, 4)
        assert s.table_size == 3 * 2 * 2 * 4
        assert s.n_contexts == 6


class TestValidate:
    def test_uniform_passes(self):
        report = validate_behavior(uniform_box(chsh_scenario()))
        assert report.passed
        assert report.max_normalization_deviation < 1e-14

    def test_negative_entry_reported_at_index(self):
        b = uniform_box(chsh_scenario())
        table = b.table.copy()
        table[0, 0, 0, 0] = -0.1
        table[0, 0, 1, 1] += 0.35  # keep the context normalized
        bad = Behavior(b.scenario, table)
        report = validate_behavior(bad)
        assert not report.passed
        assert ((0, 0), (0, 0), -0.1) in report.positivity_violations

    def test_normalization_deviation_reported(self):
        b = uniform_box(chsh_scenario())
        table = b.table.copy()
        table[1, 0] *= 1.2
        report = validate_behavior(Behavior(b.scenario, table))
        assert not report.passed
        contexts = {ctx for ctx, _ in report.normalization_deviations}
        assert contexts == {(1, 0)}
        deviation = dict(report.normalization_deviations)[(1, 0)]
        assert deviation == pytest.approx(0.2, abs=1e-12)

    def test_shape_mismatch_is_structural(self):
        with pytest.raises(ValueError):
            Behavior(chsh_scenario(), np.zeros((2, 2)))


class TestNoSignalling:
    def test_pr_box_is_ns(self):
        report = is_no_signalling(pr_box())
        assert report.is_no_signalling
        assert report.max_violation == 0.0

    def test_exhaustive_marginal_oracle_on_pr(self):
        # Independent check: every single-party marginal of the PR box is
        # uniform at every context.
        b = pr_box()
        for keep in ((0,), (1,)):
            for context in b.scenario.contexts():
                dist = brute_force_marginal(b, keep, context)
                assert np.allclose(dist, 0.5, atol=1e-15)

    def test_setting_echo_is_signalling(self):
        # Party 1's outcome equals party 0's setting index.
        s = chsh_scenario()
        table = np.zeros(s.table_shape)
        for x, y in s.contexts():
            table[x, y, 0, x] = 1.0
        report = is_no_signalling(Behavior(s, table))
        assert not report.is_no_signalling
        assert report.max_violation == pytest.approx(1.0)
        assert report.witness.party == 0

    def test_product_behavior_is_ns(self, rng):
        f1 = random_behavior(rng, Scenario(1, (2,), (2,)))
        f2 = random_behavior(rng, Scenario(1, (2,), (3,)))
        report = is_no_signalling(product_box([f1, f2]))
        assert report.is_no_signalling


def loop_signalling(b):
    """Reference no-signalling scan, one party and settings pair at a
    time: the largest marginal difference and where it first occurs, as
    (party, settings, peer context, peer outcomes)."""
    s = b.scenario
    best, where = 0.0, None
    for k in range(s.parties):
        reduced = np.moveaxis(b.table.sum(axis=s.parties + k), k, 0)
        for s1, s2 in itertools.combinations(range(s.settings[k]), 2):
            diff = np.abs(reduced[s1] - reduced[s2])
            if diff.max() > best:
                best = float(diff.max())
                at = tuple(int(i) for i in np.unravel_index(np.argmax(diff), diff.shape))
                where = (k, (s1, s2), at[:s.parties - 1], at[s.parties - 1:])
    return best, where


class TestDefinitionReports:
    @pytest.mark.parametrize("settings, outcomes", [
        ((2, 2), (2, 2)), ((3, 1, 2), (2, 3, 2)), ((2, 3, 2, 2), (2, 2, 3, 2)),
        ((1, 1), (2, 2)), ((3,), (4,)),
    ])
    def test_stack_matches_one_table_at_a_time(self, settings, outcomes, rng):
        """Each member of a stack gets the reports of ``validate_behavior``
        and ``is_no_signalling`` on it alone, and the signalling scan of
        one party and settings pair at a time, witness and ties included:
        normalized, unnormalized, negative and rounded tables mixed."""
        s = Scenario(len(settings), settings, outcomes)
        sums = tuple(range(1 + s.parties, 1 + 2 * s.parties))
        tables = rng.random((12,) + s.table_shape)
        tables[::2] /= tables[::2].sum(axis=sums, keepdims=True)
        tables[::3] = np.round(4.0 * tables[::3]) / 4.0
        tables[1::4] -= 0.3
        tables[4] = uniform_box(s).table
        reports = definition_reports(s, tables, 1e-9)
        assert len(reports) == 12
        assert reports[4][0].passed and reports[4][1].is_no_signalling
        for table, (validity, signalling) in zip(tables, reports):
            b = Behavior(s, table)
            assert validity == validate_behavior(b, 1e-9)
            assert signalling == is_no_signalling(b, 1e-9)
            best, where = loop_signalling(b)
            assert signalling.max_violation == best
            witness = signalling.witness
            assert where is None or witness is None or where == (
                witness.party, witness.settings, witness.peer_context, witness.peer_outcomes
            )
            assert (witness is None) == (best <= 1e-9)


def loop_normalization_rows(s, all_contexts=False):
    """Dense reference: one row over the outcome tuples of the all-zero
    context, or of every context with ``all_contexts``."""
    contexts = list(s.contexts()) if all_contexts else [(0,) * s.parties]
    rows = np.zeros((len(contexts), s.table_size))
    for r, ctx in enumerate(contexts):
        for outs in s.outcome_tuples():
            rows[r, flat_index(s, ctx, outs)] = 1.0
    return rows


def loop_no_signalling_rows(s, all_pairs=False):
    """Dense reference: per party k, pair (0, j) of its settings (every pair
    with ``all_pairs``), context and outcomes of the other parties
    (row-major), party k's marginal at the first setting minus that at the
    second."""
    rows = []
    for k in range(s.parties):
        others = [p for p in range(s.parties) if p != k]
        if all_pairs:
            pairs = itertools.combinations(range(s.settings[k]), 2)
        else:
            pairs = ((0, j) for j in range(1, s.settings[k]))
        for s1, s2 in pairs:
            for ctx in itertools.product(*(range(s.settings[p]) for p in others)):
                for outs in itertools.product(*(range(s.outcomes[p]) for p in others)):
                    row = np.zeros(s.table_size)
                    for setting, sign in ((s1, 1.0), (s2, -1.0)):
                        full_ctx = ctx[:k] + (setting,) + ctx[k:]
                        for a in range(s.outcomes[k]):
                            row[flat_index(s, full_ctx, outs[:k] + (a,) + outs[k:])] = sign
                    rows.append(row)
    return np.array(rows).reshape(-1, s.table_size)


class TestNsPolytope:
    SCENARIOS = (
        Scenario(2, (2, 2), (2, 2)),
        Scenario(3, (2, 2, 2), (2, 2, 2)),
        Scenario(2, (3, 2), (3, 2)),
    )

    @staticmethod
    def residual(b):
        lhs, rhs = ns_polytope(b.scenario)
        return float(np.max(np.abs(lhs @ b.table.reshape(-1) - rhs)))

    @staticmethod
    def ns_boxes(scenario):
        """The non-local extremal box of the scenario, if any: the PR box,
        alone or beside a deterministic third party."""
        if scenario == chsh_scenario():
            return [pr_box()]
        if scenario.parties == 3:
            third = deterministic_box(Scenario(1, (2,), (2,)), ((0, 1),))
            return [product_box([pr_box(), third])]
        return []

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_rows_vanish_on_ns_behaviors(self, scenario, rng):
        vertices = deterministic_behaviors(scenario)
        boxes = self.ns_boxes(scenario)
        for b in vertices + boxes:
            assert self.residual(b) == 0.0
        for _ in range(5):
            picks = rng.choice(len(vertices), size=4, replace=False)
            parts = [vertices[i] for i in picks] + boxes
            b = mixture(parts, list(rng.dirichlet(np.ones(len(parts)))))
            assert self.residual(b) <= 1e-12

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_rows_detect_signalling(self, scenario, rng):
        b = random_behavior(rng, scenario)
        assert not is_no_signalling(b).is_no_signalling
        assert self.residual(b) > 1e-3

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_rows_match_loop(self, scenario):
        norm = loop_normalization_rows(scenario)
        ns = loop_no_signalling_rows(scenario)
        lhs, rhs = normalization_constraints(scenario)
        assert np.array_equal(lhs.toarray(), norm)
        assert np.array_equal(rhs, np.ones(len(norm)))
        lhs, rhs = no_signalling_constraints(scenario)
        assert np.array_equal(lhs.toarray(), ns)
        assert np.array_equal(rhs, np.zeros(len(ns)))
        lhs, rhs = ns_polytope(scenario)
        assert np.array_equal(lhs.toarray(), np.vstack([norm, ns]))
        assert np.array_equal(rhs, np.concatenate([np.ones(len(norm)), np.zeros(len(ns))]))

    @pytest.mark.parametrize("scenario", SCENARIOS + (pb_scenario(),))
    def test_same_row_space_as_all_pairs(self, scenario):
        """The rows span what every context's normalization and every pair
        of settings span, so they cut out the same polytope."""
        new = ns_polytope(scenario)[0].toarray()
        old = np.vstack([
            loop_normalization_rows(scenario, all_contexts=True),
            loop_no_signalling_rows(scenario, all_pairs=True),
        ])
        rank = np.linalg.matrix_rank
        assert rank(new) == rank(old) == rank(np.vstack([new, old]))


CG_SCENARIOS = [triple_scenario(), pb_scenario(), Scenario(2, (2, 3), (3, 2))]


def cg_reading(scenario):
    """The 0/1 matrix R with q = R @ t the Collins-Gisin coordinates of a
    no-signalling table t: for each per-party digit, the constant sums the
    party's outcomes at setting 0, and digit 1 + x (o - 1) + a reads
    outcome a at setting x."""
    index = np.arange(scenario.table_size).reshape(scenario.table_shape)
    digits = [range(1 + s * (o - 1)) for s, o in zip(scenario.settings, scenario.outcomes)]
    reading = []
    for column in itertools.product(*digits):
        context, outcomes = [], []
        for d, o in zip(column, scenario.outcomes):
            x, a = divmod(d - 1, o - 1) if d else (0, slice(None))
            context.append(x)
            outcomes.append(a)
        row = np.zeros(scenario.table_size)
        row[index[tuple(context)][tuple(outcomes)].ravel()] = 1.0
        reading.append(row)
    return np.array(reading)


class TestCgMap:
    @pytest.mark.parametrize("scenario", CG_SCENARIOS)
    def test_ns_rows_vanish_off_the_constant(self, scenario):
        """Every M q meets the ns_polytope rows at q[0] = 1: the rows see
        only the constant column, through their right-hand side."""
        lhs, rhs = ns_polytope(scenario)
        applied = (lhs @ cg_map(scenario)).toarray()
        assert np.allclose(applied[:, 0], rhs, rtol=0.0, atol=1e-12)
        assert np.allclose(applied[:, 1:], 0.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scenario", CG_SCENARIOS)
    def test_full_column_rank(self, scenario):
        m = cg_map(scenario)
        n_cols = 1
        for s, o in zip(scenario.settings, scenario.outcomes):
            n_cols *= 1 + s * (o - 1)
        assert m.shape == (scenario.table_size, n_cols)
        assert np.linalg.matrix_rank(m.toarray()) == n_cols

    @pytest.mark.parametrize("scenario", CG_SCENARIOS)
    def test_reproduces_deterministic_tables(self, scenario):
        tables = strategy_matrix(scenario)
        q = cg_reading(scenario) @ tables
        assert np.array_equal(q[0], np.ones(tables.shape[1]))
        assert np.array_equal(cg_map(scenario) @ q, tables)

    @pytest.mark.parametrize("behavior", [
        pr_box(),
        product_box([pr_box(), deterministic_box(Scenario(1, (2,), (2,)), ((0, 1),))]),
    ])
    def test_reproduces_pr_box(self, behavior):
        table = behavior.table.ravel()
        q = cg_reading(behavior.scenario) @ table
        assert q[0] == 1.0
        assert np.array_equal(cg_map(behavior.scenario) @ q, table)

    def test_memoised_read_only(self):
        first = cg_map(pb_scenario())
        assert cg_map(pb_scenario()) is first
        assert first.format == "csr"
        for part in (first.data, first.indices, first.indptr):
            assert not part.flags.writeable


def peer_images(scenario, group):
    """Per permutation of parties b, c, d in ``group``, the flat table
    index that each entry of the permuted table comes from."""
    index = np.arange(scenario.table_size).reshape(scenario.table_shape)
    return np.stack([
        index.transpose((0, *peers) + tuple(4 + p for p in (0, *peers))).ravel()
        for peers in group
    ])


# Cases of the builder against the orbit reference: the probe's three block
# patterns, the triple scenario with singletons and with b, c as clones, the
# extension of both two-party bases by 2-4 clones, and two kinds of party.
ORBIT_CASES = [
    pytest.param(pb_scenario(), ((0,), (1, 2, 3)), id="probe-bcd"),
    pytest.param(pb_scenario(), ((0,), (1, 2), (3,)), id="probe-bc"),
    pytest.param(pb_scenario(), ((0,), (1,), (2, 3)), id="probe-cd"),
    pytest.param(triple_scenario(), ((0,), (1,), (2,)), id="triple-singletons"),
    pytest.param(triple_scenario(), ((0,), (1, 2)), id="triple-bc"),
    *(
        pytest.param(_extended_scenario(base, n), ((0,), tuple(range(1, n + 1))),
                     id=f"extension-{n}-base{i}")
        for i, base in enumerate((Scenario(2, (2, 2), (2, 2)), Scenario(2, (3, 2), (3, 2))))
        for n in (2, 3, 4)
    ),
    pytest.param(Scenario(3, (2, 3, 3), (2, 2, 2)), ((0,), (1, 2)), id="mixed-kinds"),
]


class TestMultisetRanks:
    @staticmethod
    def reference_ranks(rows, n_letters):
        """Index of each sorted row among combinations_with_replacement."""
        wanted = {tuple(sorted(row)) for row in rows}
        index = {combo: i for i, combo in enumerate(
            itertools.combinations_with_replacement(range(n_letters), len(rows[0])))
            if combo in wanted}
        return [index[tuple(sorted(row))] for row in rows]

    @pytest.mark.parametrize("n_letters, k", [(4, 32), (6, 25)])
    def test_long_rows_past_int64_place_values(self, n_letters, k, rng):
        # n^k >= 2^63 here, so base-n codes of the rows would wrap.
        assert n_letters ** k >= 2 ** 63
        rows = [[0] * k, [n_letters - 1] * k, [0] * (k - 1) + [1]]
        rows += [list(rng.integers(0, n_letters, k)) for _ in range(3)]
        ranks = _multiset_ranks(np.array(rows, dtype=np.int64), n_letters)
        assert list(ranks) == self.reference_ranks(rows, n_letters)
        assert ranks[1] == math.comb(n_letters + k - 1, k) - 1

    def test_every_short_multiset_in_any_order(self, rng):
        for n_letters in (1, 2, 4, 6):
            for k in range(5):
                rows = _clone_multisets(n_letters, k)
                shuffled = rng.permuted(rows, axis=1)
                assert np.array_equal(_multiset_ranks(shuffled, n_letters), np.arange(len(rows)))

    def test_too_many_multisets_refused(self):
        with pytest.raises(ValueError, match="overflow int64"):
            _multiset_ranks(np.zeros((1, 40), dtype=np.int64), 40)


class TestNsOrbitPolytope:
    # Blocks of the probe's parties: b, c and d permuted together, and c
    # with d.
    S3 = ((0,), (1, 2, 3))
    SWAP_CD = ((0,), (1,), (2, 3))

    @pytest.mark.parametrize("scenario, blocks", ORBIT_CASES)
    def test_matches_the_orbit_reference(self, scenario, blocks):
        assert_matches_orbit_reference(scenario, blocks)

    @pytest.mark.parametrize("blocks, group, n_orbits", [
        (S3, list(itertools.permutations((1, 2, 3))), 336),
        (SWAP_CD, [(1, 2, 3), (1, 3, 2)], 756),
    ])
    def test_orbit_map(self, blocks, group, n_orbits, rng):
        """One positivity row per orbit of table entries, those of the
        reference in another order; the index is constant on each orbit
        and tells orbits apart, and every expanded table is constant on
        those orbits."""
        scenario = pb_scenario()
        rows = symmetric_cg_rows(scenario, blocks)
        index = symmetric_cg_index(scenario, blocks)
        images = peer_images(scenario, group)
        assert np.unique(images.min(axis=0)).size == n_orbits == rows.shape[0]
        assert np.array_equal(row_set(rows), row_set(orbit_polytope(scenario, blocks)[0]))
        assert np.unique(index).size == n_orbits
        # An expanded table is unchanged by the group's party
        # permutations, settings and outcomes moving together.
        table = (rows @ rng.standard_normal(rows.shape[1]))[index]
        for image in images:
            assert np.array_equal(index[image], index)
            assert np.allclose(table[image], table, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("blocks, group, n_cols", [
        (S3, list(itertools.permutations((1, 2, 3))), 80),
        (SWAP_CD, [(1, 2, 3), (1, 3, 2)], 160),
    ])
    def test_cg_column_orbits(self, blocks, group, n_cols):
        """``expand`` is M @ P for the 0/1 membership matrix P of the orbits
        of CG columns, whose per-party digit grids the group transposes;
        the constant column is an orbit of its own, the first."""
        scenario = pb_scenario()
        m = cg_map(scenario)
        expand = ns_orbit_dual_rows(scenario, blocks)[2]
        assert expand.shape == (scenario.table_size, n_cols)
        members = np.linalg.lstsq(m.toarray(), expand.toarray(), rcond=None)[0]
        assert np.allclose(members, np.round(members), rtol=0.0, atol=1e-12)
        members = np.round(members)
        assert np.array_equal(members.sum(axis=1), np.ones(m.shape[1]))
        assert members[0, 0] == 1.0 and members[:, 0].sum() == 1.0
        columns = np.arange(m.shape[1]).reshape((4,) * 4)
        orbit = members.argmax(axis=1)
        for peers in group:
            moved = columns.transpose((0, *peers)).ravel()
            assert np.array_equal(orbit[moved], orbit)
            # Moving the columns like the parties moves the table entries.
            moved_rows = m[peer_images(scenario, [peers])[0]]
            assert np.array_equal(moved_rows[:, moved].toarray(), m.toarray())

    def test_rows_are_the_full_rows_on_expanded_tables(self, rng):
        """The rows are the positivity of the full table at the orbit
        representatives, in some order, and an expanded table with
        y[0] = 1 meets every ns_polytope row."""
        scenario = pb_scenario()
        rows = symmetric_cg_rows(scenario, self.S3)
        expand = ns_orbit_dual_rows(scenario, self.S3)[2]
        full_lhs, full_rhs = ns_polytope(scenario)
        y = rng.random(expand.shape[1])
        y[0] = 1.0
        table = expand @ y
        representatives = np.unique(
            peer_images(scenario, itertools.permutations((1, 2, 3))).min(axis=0)
        )
        assert rows.shape == (336, 80)
        assert np.allclose(np.sort(rows @ y), np.sort(table[representatives]), rtol=0.0, atol=1e-12)
        assert np.allclose(full_lhs @ table, full_rhs, rtol=0.0, atol=1e-12)

    def test_memoised_read_only(self):
        scenario = pb_scenario()
        index = symmetric_cg_index(scenario, self.SWAP_CD)
        dual = ns_orbit_dual_rows(scenario, self.SWAP_CD)
        assert symmetric_cg_index(scenario, self.SWAP_CD) is index
        assert ns_orbit_dual_rows(scenario, self.SWAP_CD) is dual
        constant, free_t, expand = dual
        assert not index.flags.writeable and not constant.flags.writeable
        for part in (free_t, expand):
            assert part.format == "csr"
            for array in (part.data, part.indices, part.indptr):
                assert not array.flags.writeable

    def test_non_symmetry_rejected(self):
        scenario = Scenario(2, (2, 3), (2, 2))
        for build in (symmetric_cg_rows, symmetric_cg_index):
            with pytest.raises(ValueError, match="mixes parties"):
                build(scenario, ((0, 1),))
            for blocks in (((0,),), ((0,), (1,), (1,)), ((0,), (), (1,)), ((0,), (2,))):
                with pytest.raises(ValueError, match="do not partition"):
                    build(scenario, blocks)
            with pytest.raises(ValueError, match="do not partition"):
                build(pb_scenario(), ((0,), (1, 1, 3)))


class TestMarginal:
    def test_pr_single_party_uniform(self):
        m = marginal(pr_box(), (0,), (0, 0))
        assert np.allclose(m.table, 0.5)

    def test_product_recovers_factor(self, rng):
        f1 = random_behavior(rng, Scenario(1, (2,), (2,)))
        f2 = random_behavior(rng, Scenario(1, (3,), (2,)))
        b = product_box([f1, f2])
        m = marginal(b, (1,), (0, 0))
        assert np.allclose(m.table, f2.table, atol=1e-14)

    def test_deterministic_point_mass(self):
        s = Scenario(3, (2, 2, 2), (2, 2, 2))
        b = deterministic_box(s, ((0, 0), (0, 0), (0, 0)))
        m = marginal(b, (1,), (0, 0, 0))
        assert np.allclose(m.table[:, 0], 1.0)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            marginal(pr_box(), (), (0, 0))

    @pytest.mark.parametrize("keep, context, party", [
        ((0,), (0, 7), 1), ((0,), (0, 2), 1), ((1,), (-1, 0), 0), ((0, 1), (2, 0), 0),
    ])
    def test_context_out_of_range_refused(self, keep, context, party):
        # Neither an IndexError nor a wrapped-around negative index.
        with pytest.raises(ValueError, match=f"of party {party} is outside"):
            marginal(pr_box(), keep, context)

    def test_context_independent_for_ns(self, rng):
        # Mixture of deterministic boxes is no-signalling; its marginals must
        # agree across the discarded party's settings.
        s = chsh_scenario()
        boxes = [
            deterministic_box(s, ((0, 1), (1, 0))),
            deterministic_box(s, ((1, 1), (0, 0))),
            uniform_box(s),
        ]
        b = mixture(boxes, [0.3, 0.5, 0.2])
        for keep, other in (((0,), 1), ((1,), 0)):
            tables = []
            for setting in range(s.settings[other]):
                ctx = [0, 0]
                ctx[other] = setting
                tables.append(marginal(b, keep, tuple(ctx)).table)
            assert np.max(np.abs(tables[0] - tables[1])) <= 1e-12

    def test_three_party_marginals_context_independent(self, rng):
        # Every single-party discard, quantified over all full contexts.
        s = Scenario(3, (2, 2, 2), (2, 2, 2))
        boxes = [
            deterministic_box(
                s, tuple(tuple(int(v) for v in rng.integers(0, 2, 2)) for _ in range(3))
            )
            for _ in range(6)
        ]
        b = mixture(boxes, list(rng.dirichlet(np.ones(6))))
        for drop in range(3):
            keep = tuple(p for p in range(3) if p != drop)
            tables = [
                marginal(b, keep, ctx).table for ctx in s.contexts()
            ]
            for other in tables[1:]:
                assert np.max(np.abs(tables[0] - other)) <= 1e-12


class TestCorrelator:
    def test_pr_flagged_context(self):
        assert correlator(pr_box(), (1, 1)) == pytest.approx(-1.0)
        assert correlator(pr_box(), (0, 0)) == pytest.approx(1.0)

    def test_uniform_zero(self):
        assert correlator(uniform_box(chsh_scenario()), (0, 1)) == 0.0

    def test_deterministic_all_zero_outputs(self):
        b = deterministic_box(chsh_scenario(), ((0, 0), (0, 0)))
        assert correlator(b, (1, 0)) == 1.0

    def test_requires_dichotomic(self):
        b = uniform_box(Scenario(2, (2, 2), (2, 3)))
        with pytest.raises(ValueError):
            correlator(b, (0, 0))

    @pytest.mark.parametrize("context, party", [((1, -1), 1), ((-1, 0), 0), ((2, 0), 0), ((0, 5), 1)])
    def test_context_out_of_range_refused(self, context, party):
        # (1, -1) would otherwise read the (1, 1) context of the PR box.
        with pytest.raises(ValueError, match=f"of party {party} is outside"):
            correlator(pr_box(), context)

    def test_affine_in_behavior(self, rng):
        s = chsh_scenario()
        for _ in range(25):
            b1 = random_behavior(rng, s)
            b2 = random_behavior(rng, s)
            w = rng.random()
            mixed = mixture([b1, b2], [w, 1 - w])
            for ctx in s.contexts():
                expected = w * correlator(b1, ctx) + (1 - w) * correlator(b2, ctx)
                assert correlator(mixed, ctx) == pytest.approx(expected, abs=1e-12)


class TestConstructors:
    def test_pr_chsh_value(self):
        assert chsh_value(pr_box()) == pytest.approx(4.0)

    def test_uniform_chsh_zero(self):
        assert chsh_value(uniform_box(chsh_scenario())) == 0.0

    def test_mixture_linearity(self):
        mixed = mixture([pr_box(), uniform_box(chsh_scenario())], [0.5, 0.5])
        assert chsh_value(mixed) == pytest.approx(2.0)

    def test_constructors_validate_tightly(self, rng):
        s = chsh_scenario()
        candidates = [
            uniform_box(s),
            pr_box(),
            deterministic_box(s, ((0, 1), (1, 1))),
            product_box([
                random_behavior(rng, Scenario(1, (2,), (2,))),
                random_behavior(rng, Scenario(1, (2,), (2,))),
            ]),
            mixture([pr_box(), uniform_box(s)], [0.25, 0.75]),
        ]
        for b in candidates:
            report = validate_behavior(b, tol=1e-12)
            assert report.passed

    def test_mixture_requires_distribution(self):
        with pytest.raises(ValueError):
            mixture([pr_box(), pr_box()], [0.7, 0.7])

    def test_product_of_three_factors_matches_oracle(self, rng):
        factors = [
            random_behavior(rng, Scenario(1, (3,), (2,))),
            random_behavior(rng, Scenario(2, (2, 1), (3, 2))),
            random_behavior(rng, Scenario(1, (2,), (4,))),
        ]
        b = product_box(factors)
        assert b.scenario == Scenario(4, (3, 2, 1, 2), (2, 3, 2, 4))
        for ctx in b.scenario.contexts():
            for outs in b.scenario.outcome_tuples():
                expected = (
                    factors[0].table[ctx[0], outs[0]]
                    * factors[1].table[ctx[1], ctx[2], outs[1], outs[2]]
                    * factors[2].table[ctx[3], outs[3]]
                )
                assert b.table[ctx + outs] == expected

    def test_deterministic_mixed_outcomes_matches_oracle(self):
        s = Scenario(3, (2, 3, 1), (3, 2, 4))
        assignment = ((2, 0), (1, 1, 0), (3,))
        b = deterministic_box(s, assignment)
        for ctx in s.contexts():
            for outs in s.outcome_tuples():
                hit = all(outs[p] == assignment[p][ctx[p]] for p in range(3))
                assert b.table[ctx + outs] == (1.0 if hit else 0.0)


class TestPartialLocal:
    def test_uniform_blocks_give_uniform(self):
        u2 = uniform_box(chsh_scenario())
        u1 = uniform_box(Scenario(1, (2,), (2,)))
        b = partial_local_box(((0, 1), (2,)), [(u2, u1)], [1.0])
        assert np.allclose(b.table, uniform_box(b.scenario).table)

    def test_pr_block_marginal_is_pr(self, rng):
        u1 = random_behavior(rng, Scenario(1, (2,), (2,)))
        b = partial_local_box(((0, 1), (2,)), [(pr_box(), u1)], [1.0])
        m = marginal(b, (0, 1), (0, 0, 0))
        assert np.allclose(m.table, pr_box().table, atol=1e-14)

    def test_two_terms_average(self, rng):
        s1 = chsh_scenario()
        s2 = Scenario(1, (2,), (2,))
        t1 = (random_behavior(rng, s1), random_behavior(rng, s2))
        t2 = (random_behavior(rng, s1), random_behavior(rng, s2))
        mixed = partial_local_box(((0, 1), (2,)), [t1, t2], [0.5, 0.5])
        one = partial_local_box(((0, 1), (2,)), [t1], [1.0])
        two = partial_local_box(((0, 1), (2,)), [t2], [1.0])
        assert np.allclose(mixed.table, 0.5 * one.table + 0.5 * two.table)

    def test_noncontiguous_blocks(self, rng):
        # Blocks {0, 2} | {1}, and {0, 2, 4} | {1, 3} with mixed settings and
        # outcomes: check against an index-level oracle.
        cases = [
            (((0, 2), (1,)), chsh_scenario(), Scenario(1, (2,), (2,))),
            (((0, 2, 4), (1, 3)), Scenario(3, (2, 1, 3), (3, 2, 2)), Scenario(2, (3, 2), (2, 3))),
        ]
        for blocks, s1, s2 in cases:
            first = random_behavior(rng, s1)
            second = random_behavior(rng, s2)
            b = partial_local_box(blocks, [(first, second)], [1.0])
            for ctx in b.scenario.contexts():
                for outs in b.scenario.outcome_tuples():
                    expected = math.prod(
                        beh.table[tuple(ctx[p] for p in blk) + tuple(outs[p] for p in blk)]
                        for blk, beh in zip(blocks, (first, second))
                    )
                    assert b.table[ctx + outs] == pytest.approx(expected, abs=1e-14)

    def test_ns_blocks_give_ns_output(self, rng):
        u1 = random_behavior(rng, Scenario(1, (2,), (2,)))
        b = partial_local_box(((0, 1), (2,)), [(pr_box(), u1)], [1.0])
        assert is_no_signalling(b).is_no_signalling

    def test_signalling_inside_block_localized(self):
        # The signalling block behavior echoes party 0's setting into
        # party 1's outcome; the witness must point inside that block.
        s = chsh_scenario()
        table = np.zeros(s.table_shape)
        for x, y in s.contexts():
            table[x, y, 0, x] = 1.0
        echo = Behavior(s, table)
        u1 = uniform_box(Scenario(1, (2,), (2,)))
        b = partial_local_box(((0, 1), (2,)), [(echo, u1)], [1.0])
        report = is_no_signalling(b)
        assert not report.is_no_signalling
        assert report.witness.party in (0, 1)

    def test_partition_validated(self):
        u1 = uniform_box(Scenario(1, (2,), (2,)))
        with pytest.raises(ValueError, match="two-block partition"):
            partial_local_box(((0,), (0,)), [(u1, u1)], [1.0])

    def test_overlapping_blocks_refused(self):
        u1 = uniform_box(Scenario(1, (2,), (2,)))
        with pytest.raises(ValueError, match="two-block partition"):
            partial_local_box(((0, 1), (1,)), [(pr_box(), u1)], [1.0])

    def test_repeated_party_refused(self):
        # Not read as ((0,), (1,)).
        u1 = uniform_box(Scenario(1, (2,), (2,)))
        with pytest.raises(ValueError, match="two-block partition"):
            partial_local_box(((0, 0), (1,)), [(u1, u1)], [1.0])

    def test_term_party_counts_checked(self):
        # A one-party behavior on the two-party block, and a pair on the single.
        u1 = uniform_box(Scenario(1, (2,), (2,)))
        with pytest.raises(ValueError, match="term behavior does not match its block"):
            partial_local_box(((0, 1), (2,)), [(u1, pr_box())], [1.0])


class TestJson:
    def test_round_trip(self, rng):
        b = random_behavior(rng, Scenario(2, (2, 3), (2, 2)))
        data = behavior_to_json_dict(b)
        back = behavior_from_json_dict(data)
        assert back.scenario == b.scenario
        assert np.array_equal(back.table, b.table)

    def test_schema_fields(self):
        data = behavior_to_json_dict(pr_box())
        assert set(data) == {"parties", "settings", "outcomes", "table"}
        assert data["parties"] == 2
        assert data["table"]["1,1"] == [0.0, 0.5, 0.5, 0.0]

    def test_missing_field_rejected(self):
        data = behavior_to_json_dict(pr_box())
        del data["table"]
        with pytest.raises(ValueError, match="table"):
            behavior_from_json_dict(data)

    @pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), 1e308, -1.5e300],
                             ids=["integer", "negative-integer", "float", "negative-float"])
    def test_entry_above_1e300_refused(self, value):
        # Compared exactly: an integer too large for float64 is refused, not
        # converted.
        data = behavior_to_json_dict(pr_box())
        data["table"]["1,0"][2] = value
        with pytest.raises(ValueError, match=r"^context '1,0' entry 2 exceeds 1e300 in magnitude$"):
            behavior_from_json_dict(data)

    def test_entries_at_1e300_read(self):
        data = behavior_to_json_dict(pr_box())
        data["table"]["1,0"] = [1e300, -1e300, 10 ** 300, 0.0]
        assert behavior_from_json_dict(data).table[1, 0].tolist() == [[1e300, -1e300], [1e300, 0.0]]

    def test_wrong_row_length_rejected(self):
        data = behavior_to_json_dict(pr_box())
        data["table"]["0,0"] = [1.0]
        with pytest.raises(ValueError):
            behavior_from_json_dict(data)

    @pytest.mark.parametrize("key, value, named", [
        ("parties", 2.0, "'parties'"),
        ("parties", True, "'parties'"),
        ("parties", "2", "'parties'"),
        ("settings", [2.7, 2], "'settings' entry"),
        ("settings", [True, 2], "'settings' entry"),
        ("outcomes", [2, "2"], "'outcomes' entry"),
        ("outcomes", [2, 2.0], "'outcomes' entry"),
    ], ids=["parties-float", "parties-bool", "parties-string", "settings-float",
            "settings-bool", "outcomes-string", "outcomes-integral-float"])
    def test_non_integer_counts_refused(self, key, value, named):
        # A count that int() would truncate or parse is refused, naming its field.
        data = behavior_to_json_dict(pr_box())
        data[key] = value
        with pytest.raises(ValueError, match=f"behavior JSON {named} must be a JSON integer"):
            behavior_from_json_dict(data)
