"""Trade-off checkers, support sweeps, and violation searches."""

import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monogamy import (
    Behavior,
    Scenario,
    TradeoffPoint,
    bell_value,
    chsh,
    check_key_corollary,
    check_ns_tradeoff,
    check_strengthened,
    check_triple,
    check_tv_tradeoff,
    collins_gisin,
    correlator,
    deterministic_box,
    density_from_vector,
    mixture,
    ns_support,
    pair_values,
    phi_plus,
    pr_box,
    product_box,
    product_state,
    quantum_boundary_search,
    separable_orthogonal_max,
    state_pair_point,
    triple_values,
    uniform_box,
)
import monogamy.bell as bell
import monogamy.tradeoffs as tradeoffs
from monogamy import born_behavior, planar_observable, random_pure_state
from monogamy.bell import BellFunctional, functional_row
from monogamy.model import marginal_behavior, ns_orbit_dual_rows, symmetric_cg_rows
from conftest import (
    block_swaps,
    full_table_probe,
    linprog_reference,
    ns_polytope,
    per_direction_ns_support,
)

ROOT8 = 2 * math.sqrt(2)
SZ_ANGLE = math.pi / 2


def kron_terms_operator(terms, party_angles):
    """The sum of weight * f on each term's pair, built observable by
    observable with np.kron; ``party_angles[p]`` holds party p's planar
    angles."""
    def embed(ops):
        factors = [ops.get(party, np.eye(2)) for party in range(3)]
        return np.kron(np.kron(factors[0], factors[1]), factors[2])

    op = np.zeros((8, 8), dtype=complex)
    for (p, q), f, weight in terms:
        first = [planar_observable(x) for x in party_angles[p]]
        second = [planar_observable(x) for x in party_angles[q]]
        for x, a in enumerate(first):
            op += weight * f.marginals_a[x] * embed({p: a})
            for y, b in enumerate(second):
                op += weight * f.correlators[x, y] * embed({p: a, q: b})
        for y, b in enumerate(second):
            op += weight * f.marginals_b[y] * embed({q: b})
    return op


def direction_terms(theta):
    return [((0, 1), chsh(), math.cos(theta)), ((0, 2), chsh(), math.sin(theta))]


def kron_direction_operator(angles, theta):
    """cos(theta) CHSH_ab (x) I + sin(theta) CHSH_ac at the planar angles
    (a0, a1, b0, b1, c0, c1)."""
    return kron_terms_operator(direction_terms(theta), (angles[:2], angles[2:4], angles[4:]))


def split_angles(terms, flat):
    """Per-party angles from a flat vector in the terms' party order."""
    offsets = np.cumsum((0,) + terms.settings)
    return [flat[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


# <P_i (x) P_j> of two qubits of a pure 3-qubit tensor, P = (sigma_x,
# sigma_z, I): row and column 2 hold the Bloch components.
PAIR_MOMENT_SPECS = {
    (0, 1): "abc,iax,jby,xyc->ij",
    (0, 2): "abc,iax,jcz,xbz->ij",
    (1, 2): "abc,iby,jcz,ayz->ij",
}


def einsum_pair_moments(t, pair):
    basis = np.stack([np.array([[0, 1], [1, 0]]), np.diag([1, -1]), np.eye(2)])
    return np.einsum(PAIR_MOMENT_SPECS[pair], t.conj(), basis, basis, t).real


def reference_pair_value(moments, f, angles_1, angles_2):
    """u^T M v per setting pair plus the single-party Bloch terms, from a
    pair's 3x3 moments."""
    u, v = ([(math.cos(x), math.sin(x)) for x in angles] for angles in (angles_1, angles_2))
    u, v = np.array(u), np.array(v)
    value = np.sum(f.correlators * (u @ moments[:2, :2] @ v.T))
    return value + f.marginals_a @ (u @ moments[:2, 2]) + f.marginals_b @ (v @ moments[2, :2])


def random_tensor(rng):
    return tradeoffs._pure_vector(random_pure_state(3, rng)).reshape(2, 2, 2)


def central_differences(fun, x, step=1e-6):
    return np.array([(fun(x + step * e) - fun(x - step * e)) / (2 * step) for e in np.eye(len(x))])


def three_party_uniform():
    return uniform_box(Scenario(3, (2, 2, 2), (2, 2, 2)))


class TestBellValue:
    def test_pr_chsh(self):
        assert bell_value(pr_box(), chsh()) == pytest.approx(4.0)

    def test_all_plus_vertex_on_three_setting_functional(self):
        b = deterministic_box(Scenario(2, (3, 3), (2, 2)), ((0, 0, 0), (0, 0, 0)))
        # Correlators contribute 6 - 2, marginals 1 + 1 - 1 - 1.
        assert bell_value(b, collins_gisin()) == pytest.approx(4.0)

    def test_uniform_zero(self):
        assert bell_value(uniform_box(Scenario(2, (3, 3), (2, 2))), collins_gisin()) == 0.0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            bell_value(pr_box(), collins_gisin())

    def test_memoised_rows_are_read_only(self):
        scenario, f = tradeoffs.triple_scenario(), chsh()
        memo = bell._functional_row(scenario, f, (0, 2))
        assert memo is bell._functional_row(scenario, f, (0, 2))
        assert not memo.flags.writeable
        row = functional_row(scenario, f, (0, 2))
        assert row.flags.writeable and np.array_equal(row, memo)
        row[:] = 0.0
        assert np.array_equal(functional_row(scenario, f, (0, 2)), memo)

    def test_functional_arrays_are_read_only_copies(self):
        weights = np.array([[1.0, 1.0], [1.0, -1.0]])
        f = BellFunctional(weights, np.zeros(2), np.zeros(2), local_bound=2.0)
        assert weights.flags.writeable
        for values in (f.correlators, f.marginals_a, f.marginals_b):
            assert not values.flags.writeable
        weights[1, 1] = 1.0
        assert bell_value(pr_box(), f) == pytest.approx(4.0)


class TestPairValues:
    def test_pr_times_uniform(self):
        b = product_box([pr_box(), uniform_box(Scenario(1, (2,), (2,)))])
        point = pair_values(b)
        assert point.chsh_ab == pytest.approx(4.0)
        assert point.chsh_ac == pytest.approx(0.0)

    def test_uniform(self):
        point = pair_values(three_party_uniform())
        assert (point.chsh_ab, point.chsh_ac) == (0.0, 0.0)

    def test_bell_pair_with_spectator(self):
        rho = product_state([phi_plus(), density_from_vector([1, 0])])
        angles = [
            [planar_observable(0.0), planar_observable(math.pi / 2)],
            [planar_observable(math.pi / 4), planar_observable(-math.pi / 4)],
            [planar_observable(0.0), planar_observable(0.0)],
        ]
        point = pair_values(born_behavior(rho, angles))
        assert point.chsh_ab == pytest.approx(ROOT8, abs=1e-9)
        assert point.chsh_ac == pytest.approx(0.0, abs=1e-12)

    def test_wrong_scenario(self):
        with pytest.raises(ValueError):
            pair_values(pr_box())


class TestStatePairPoint:
    def test_agrees_with_behavior_route(self, rng):
        # Dual route: reduced-state traces vs the full Born table.
        for _ in range(10):
            psi = random_pure_state(3, rng)
            angles = rng.uniform(-math.pi, math.pi, 6)
            fast = state_pair_point(
                psi, (angles[0], angles[1]), (angles[2], angles[3]),
                (angles[4], angles[5]),
            )
            observables = [
                [planar_observable(angles[0]), planar_observable(angles[1])],
                [planar_observable(angles[2]), planar_observable(angles[3])],
                [planar_observable(angles[4]), planar_observable(angles[5])],
            ]
            slow = triple_values(born_behavior(psi, observables))
            assert fast.chsh_ab == pytest.approx(slow.chsh_ab, abs=1e-10)
            assert fast.chsh_ac == pytest.approx(slow.chsh_ac, abs=1e-10)
            assert fast.chsh_bc == pytest.approx(slow.chsh_bc, abs=1e-10)

    def test_moment_tensor_agrees_with_pair_moments(self, rng):
        # The moment tensor's pair blocks against the einsum pair moments,
        # and every field of the point against values computed from them
        # and from the single-qubit densities' sigma_y traces.
        sy = np.array([[0, -1j], [1j, 0]])
        singles = ("abc,xbc->ax", "abc,ayc->by", "abc,abz->cz")
        for _ in range(20):
            psi = random_pure_state(3, rng)
            angles = rng.uniform(-math.pi, math.pi, 6)
            a, b, c = (angles[0], angles[1]), (angles[2], angles[3]), (angles[4], angles[5])
            point = state_pair_point(psi, a, b, c)
            t = tradeoffs._pure_vector(psi).reshape(2, 2, 2)
            m = tradeoffs._moment_tensor(t)
            m_ab, m_ac, m_bc = (einsum_pair_moments(t, pair) for pair in ((0, 1), (0, 2), (1, 2)))
            for block, want in ((m[:3, :3, 2], m_ab), (m[:3, 2, :3], m_ac), (m[2, :3, :3], m_bc)):
                assert np.max(np.abs(block - want)) <= 1e-14
            chsh_f = chsh()
            want = [
                reference_pair_value(m_ab, chsh_f, a, b),
                reference_pair_value(m_ac, chsh_f, a, c),
                reference_pair_value(m_bc, chsh_f, b, c),
                *(np.trace(sy @ np.einsum(spec, t, t.conj())).real for spec in singles),
                np.array([math.cos(a[0]), math.sin(a[0])]) @ m_ac[:2, :2]
                @ np.array([math.cos(c[0]), math.sin(c[0])]),
            ]
            got = [point.chsh_ab, point.chsh_ac, point.chsh_bc, *point.sigma_y, point.corr_ac]
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12

    @pytest.mark.parametrize("vector, message", [
        (np.zeros(8), "nonzero"),
        (np.array([1.0, math.nan, 0, 0, 0, 0, 0, 0]), "non-finite"),
        (np.array([math.inf, 0, 0, 0, 0, 0, 0, 0]), "non-finite"),
    ], ids=["zero", "nan", "inf"])
    def test_bad_state_vector_refused(self, vector, message):
        angles = (0.0, math.pi / 2)
        with pytest.raises(ValueError, match=message) as raised:
            state_pair_point(vector, angles, angles, angles)
        with pytest.raises(ValueError) as direct:
            density_from_vector(vector)
        assert str(raised.value) == str(direct.value)

    def test_angle_counts_checked_per_party(self):
        with pytest.raises(ValueError, match=r"the parties need \(2, 2, 2\) angles"):
            state_pair_point(np.eye(8)[0], (0.0, 0.0), (0.0, 0.0, 0.0), (0.0,))

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            TradeoffPoint(chsh_ab=4.5, chsh_ac=0.0)


class TestCheckers:
    def test_ns_tradeoff_corner(self):
        report = check_ns_tradeoff(TradeoffPoint(4.0, 0.0))
        assert report.passed and report.slack == pytest.approx(0.0)
        assert report.inequality == "NS-13"

    def test_ns_tradeoff_double_tsirelson_fails(self):
        report = check_ns_tradeoff(TradeoffPoint(ROOT8, ROOT8))
        assert not report.passed
        assert report.lhs == pytest.approx(5.656854, abs=1e-6)

    def test_ns_tradeoff_classical_corner(self):
        report = check_ns_tradeoff(TradeoffPoint(2.0, 2.0))
        assert report.passed and report.slack == pytest.approx(0.0)

    def test_tv_boundary(self):
        assert check_tv_tradeoff(TradeoffPoint(ROOT8, 0.0)).slack == pytest.approx(0.0)
        assert check_tv_tradeoff(TradeoffPoint(2.0, 2.0)).passed
        assert not check_tv_tradeoff(TradeoffPoint(2.5, 2.5)).passed

    def test_strengthened(self):
        p = TradeoffPoint(ROOT8, 0.0, sigma_y=(0.0, 0.0, 0.0))
        report = check_strengthened(p)
        assert report.passed and report.slack == pytest.approx(0.0)

        p = TradeoffPoint(0.0, 0.0, sigma_y=(1.0, 0.0, 0.0))
        report = check_strengthened(p)
        assert report.bound == 0.0 and report.passed

        p = TradeoffPoint(2.0, 2.0, sigma_y=(0.5, 0.0, 0.0))
        assert not check_strengthened(p).passed

    def test_strengthened_needs_context(self):
        with pytest.raises(ValueError):
            check_strengthened(TradeoffPoint(1.0, 1.0))

    def test_triple_product_state_reaches_twelve(self):
        point = state_pair_point(
            np.eye(8)[0], (SZ_ANGLE, SZ_ANGLE), (SZ_ANGLE, SZ_ANGLE),
            (SZ_ANGLE, SZ_ANGLE),
        )
        report = check_triple(point)
        assert report.naive_lhs == pytest.approx(12.0, abs=1e-9)
        assert not report.naive_holds
        assert report.main.passed and report.main.bound == pytest.approx(12.0)

    def test_triple_bell_pair_with_spectator(self):
        vec = np.zeros(8)
        vec[0b000] = vec[0b110] = 1 / math.sqrt(2)
        point = state_pair_point(
            vec, (0.0, math.pi / 2), (math.pi / 4, -math.pi / 4), (SZ_ANGLE, SZ_ANGLE)
        )
        assert point.chsh_ab == pytest.approx(ROOT8, abs=1e-9)
        report = check_triple(point)
        assert report.main.passed
        for cylinder in report.cylinders:
            assert cylinder.passed

    def test_triple_uniform(self):
        point = triple_values(three_party_uniform())
        point = TradeoffPoint(
            point.chsh_ab, point.chsh_ac, point.chsh_bc, sigma_y=(0.0, 0.0, 0.0)
        )
        report = check_triple(point)
        assert report.main.passed and report.naive_holds

    def test_key_corollary(self):
        assert check_key_corollary(ROOT8, 0.0).slack == pytest.approx(0.0)
        assert check_key_corollary(2.0, 1.0).slack == pytest.approx(0.0)
        assert not check_key_corollary(2.5, 1.0).passed


class TestNsSupport:
    def test_axis_and_diagonal_values(self):
        points = ns_support(np.array([0.0, math.pi / 4, math.pi / 2]))
        values = [p.value for p in points]
        assert values[0] == pytest.approx(4.0, abs=1e-6)
        assert values[1] == pytest.approx(ROOT8, abs=1e-6)
        assert values[2] == pytest.approx(4.0, abs=1e-6)

    def test_argmax_behaviors_are_ns(self):
        from monogamy import is_no_signalling, validate_behavior

        for point in ns_support(np.array([0.3, 2.0])):
            assert validate_behavior(point.behavior, tol=1e-6).passed
            assert is_no_signalling(point.behavior, tol=1e-6).is_no_signalling

    def test_tilted_square_symmetry(self):
        thetas = np.array([0.1, 0.45, 1.0])
        base = [p.value for p in ns_support(thetas)]
        mirrored = [p.value for p in ns_support(math.pi / 2 - thetas)]
        assert np.allclose(base, mirrored, atol=1e-6)
        flipped = [p.value for p in ns_support(thetas + math.pi)]
        assert np.allclose(base, flipped, atol=1e-6)

    @staticmethod
    def refuse_solves(monkeypatch):
        def linprog(*args, **kwargs):
            raise AssertionError("no LP should be solved")

        monkeypatch.setattr(tradeoffs.lp, "linprog", linprog)

    @pytest.mark.parametrize("count", [1, 16, 17, 192])
    def test_block_lp_matches_one_lp_per_direction(self, count, monkeypatch):
        """A block of directions is one LP model re-solved once per
        direction, and all its tables are checked in one pass: the values
        of the per-direction LPs, tables that pass the model's own checks
        and reproduce their values, and each run's own record on its
        point."""
        from monogamy import is_no_signalling, validate_behavior

        thetas = np.random.default_rng(count).uniform(-math.pi, math.pi, count)
        reference = per_direction_ns_support(thetas)
        solved, checked = [], []
        solve, ns_tables = tradeoffs.lp.solve_stacked, tradeoffs._ns_tables

        def counting_solve(program, eq_rhs, *args, **kwargs):
            solved.append((program.n_variables, len(eq_rhs)))
            return solve(program, eq_rhs, *args, **kwargs)

        def counting_tables(scenario, points, tol):
            checked.append(points.shape)
            return ns_tables(scenario, points, tol)

        monkeypatch.setattr(tradeoffs.lp, "solve_stacked", counting_solve)
        monkeypatch.setattr(tradeoffs, "_ns_tables", counting_tables)
        points = ns_support(thetas)

        scenario = tradeoffs.triple_scenario()
        # The Collins-Gisin rows, 64 x 27 with no orbits to merge, in dual
        # form: 26 free-coordinate rows over 64 multipliers.
        singletons = ((0,), (1,), (2,))
        free_t = ns_orbit_dual_rows(scenario, singletons)[1]
        assert symmetric_cg_rows(scenario, singletons).shape == (64, 27)
        assert free_t.shape == (26, 64)
        assert solved == [(free_t.shape[1], count)]
        assert checked == [(count, scenario.table_size)]
        assert [p.theta for p in points] == list(thetas)
        assert np.allclose([p.value for p in points], reference, rtol=0.0, atol=1e-9)

        ab, ac = (functional_row(scenario, chsh(), pair) for pair in ((0, 1), (0, 2)))
        # The runs go in the order of theta mod 2 pi: only the first is cold.
        first = int(np.argmin(np.mod(thetas, 2.0 * math.pi)))
        for i, point in enumerate(points):
            assert is_no_signalling(point.behavior, 1e-7).is_no_signalling
            assert validate_behavior(point.behavior, 1e-7).passed
            objective = math.cos(point.theta) * ab + math.sin(point.theta) * ac
            value = objective @ point.behavior.table.reshape(-1)
            assert value == pytest.approx(point.value, abs=1e-9)
            record = dict(point.params)
            iterations = record.pop("iterations")
            assert iterations > 0 if i == first else iterations >= 0
            assert record == {"warm": i != first, "rows": 26, "cols": 64, "nnz": free_t.nnz}
        assert free_t.nnz == 208

    def test_order_of_directions_does_not_change_values(self):
        """Directions are solved in the order of theta mod 2 pi, and come
        back in input order: permuted, repeated and shifted-by-2-pi copies
        of a set of directions give its values at the same positions."""
        thetas = np.random.default_rng(31).uniform(-math.pi, math.pi, 24)
        values = np.array([p.value for p in ns_support(thetas)])
        perm = np.random.default_rng(32).permutation(24)
        variants = [
            (thetas[perm], values[perm]),
            (np.concatenate([thetas, thetas[::-1]]), np.concatenate([values, values[::-1]])),
            (thetas - 2.0 * math.pi, values),
            (-thetas, np.array(per_direction_ns_support(-thetas))),
        ]
        for directions, expected in variants:
            points = ns_support(directions)
            assert [p.theta for p in points] == [float(t) for t in directions]
            assert np.abs([p.value for p in points] - expected).max() <= 1e-9

    def test_support_of_the_ns_diamond(self):
        """1 024 seeded directions at tol 1e-9: the NS region in the
        (chsh_ab, chsh_ac) plane is |chsh_ab| + |chsh_ac| <= 4, whose
        support is 4 max(|cos theta|, |sin theta|)."""
        thetas = np.random.default_rng(1024).uniform(-math.pi, math.pi, 1024)
        points = ns_support(thetas, tol=1e-9)
        expected = 4.0 * np.maximum(np.abs(np.cos(thetas)), np.abs(np.sin(thetas)))
        assert np.abs([p.value for p in points] - expected).max() <= 1e-9

    @pytest.mark.parametrize("failing", ["warm", "cold"])
    def test_failed_run_raises(self, failing, monkeypatch):
        """A run that reaches no optimum is refused alike whether it
        started from the previous run's basis (here the third warm run) or
        from scratch (every cold run), and the run after it starts cold."""
        run, warmth = tradeoffs.lp._run, []

        def failing_run(core, highs, warm, started):
            warmth.append(warm)
            if warmth.count(True) == 3 and warm if failing == "warm" else not warm:
                return tradeoffs.lp.HighsResult(1, "HiGHS model status 14: Iteration limit", 7)
            return run(core, highs, warm, started)

        monkeypatch.setattr(tradeoffs.lp, "_run", failing_run)
        with pytest.raises(RuntimeError) as failure:
            ns_support(np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
        assert str(failure.value) == (
            "no-signalling LP failed: LpStatus.FAILED HiGHS model status 14: Iteration limit"
        )
        if failing == "warm":
            assert warmth == [False, True, True, True, False] + [True] * 11
        else:
            assert warmth == [False] * 16

    def test_no_directions_solve_nothing(self, monkeypatch):
        self.refuse_solves(monkeypatch)
        assert ns_support(np.array([])) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_refused_before_any_solve(self, bad, monkeypatch):
        self.refuse_solves(monkeypatch)
        with pytest.raises(ValueError, match="finite"):
            ns_support(np.array([0.0, bad]))


class TestNsMaximum:
    @staticmethod
    def marginal_objective():
        """p(a = 0 | x = 0, y = 0) + p(a = 1 | x = 0, y = 1): 1 over the NS
        polytope, 2 over normalized tables, where only signalling reaches it."""
        scenario = Scenario(2, (2, 2), (2, 2))
        objective = np.zeros(scenario.table_shape)
        objective[0, 0, 0, :] = 1.0
        objective[0, 1, 1, :] = 1.0
        return scenario, objective.reshape(-1)

    def test_ns_optimum(self):
        scenario, objective = self.marginal_objective()
        value, _ = tradeoffs.ns_maximum(scenario, objective)
        assert value == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def normalization_only(monkeypatch):
        """Replace the Collins-Gisin coordinates, whose tables are
        no-signalling by construction, by coordinates of every normalized
        table: the constant column is the uniform table, and each other
        column moves weight from a context's last outcome tuple to another
        of its outcome tuples.  Positivity rows are the table entries."""
        import scipy.sparse as sp

        def dual_rows(s, blocks):
            assert blocks == tuple((p,) for p in range(s.parties))
            per_context = s.table_size // s.n_contexts
            moves = np.vstack([np.eye(per_context - 1), -np.ones((1, per_context - 1))])
            rows = sp.hstack([
                np.full((s.table_size, 1), 1.0 / per_context),
                sp.kron(sp.eye_array(s.n_contexts), moves),
            ], format="csr")
            return rows[:, [0]].toarray().ravel(), rows[:, 1:].T.tocsr(), rows

        monkeypatch.setattr(tradeoffs, "ns_orbit_dual_rows", dual_rows)

    def test_signalling_optimum_raises(self, monkeypatch):
        """With every normalized table admitted, the LP accepts a
        signalling table; the independent check must refuse it."""
        scenario, objective = self.marginal_objective()
        self.normalization_only(monkeypatch)
        with pytest.raises(RuntimeError, match="fails the definitions"):
            tradeoffs.ns_maximum(scenario, objective)

    def test_signalling_support_block_raises(self, monkeypatch):
        """The same refusal for a block of support directions re-solved on
        one LP model."""
        self.normalization_only(monkeypatch)
        thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        with pytest.raises(RuntimeError, match="fails the definitions"):
            ns_support(thetas)

    @pytest.mark.parametrize("defect, member", [("signalling", 1), ("unnormalised", 2)])
    def test_stack_check_names_the_failing_member(self, defect, member):
        """Every table of a stack is checked in one pass; the first that
        signals, or whose contexts do not sum to 1, is refused by its
        position in the stack."""
        scenario, _ = self.marginal_objective()
        uniform = np.full(scenario.table_size, 0.25)
        bad = uniform.copy().reshape(scenario.table_shape)
        if defect == "signalling":
            # Party a's marginal at setting 0 depends on b's setting.
            bad[0, 0] = [[0.5, 0.0], [0.5, 0.0]]
            bad[0, 1] = [[0.0, 0.5], [0.0, 0.5]]
        else:
            bad[1, 1] *= 1.5
        points = np.stack([uniform] * 4)
        points[member] = bad.reshape(-1)
        assert len(tradeoffs._ns_tables(scenario, np.stack([uniform] * 4), 1e-9)) == 4
        with pytest.raises(RuntimeError, match=f"optimum of objective {member} fails the definitions"):
            tradeoffs._ns_tables(scenario, points, 1e-9)

    @pytest.mark.parametrize("scenario", [
        Scenario(2, (3, 2), (2, 3)), Scenario(3, (2, 2, 2), (2, 3, 2)),
    ], ids=["settings-32-outcomes-23", "settings-222-outcomes-232"])
    def test_matches_full_table_reference_beyond_binary(self, scenario):
        """Seeded random objectives over scenarios with three outcomes or
        three settings: the optimum of the full-table equality form."""
        eq_lhs, eq_rhs = ns_polytope(scenario)
        n = scenario.table_size
        rng = np.random.default_rng(scenario.table_size)
        for objective in rng.standard_normal((4, n)):
            value, behavior = tradeoffs.ns_maximum(scenario, objective)
            reference = linprog_reference(
                -objective, eq_lhs, eq_rhs, eq_rhs, np.zeros(n), np.full(n, np.inf)
            )
            assert reference.status == 0
            assert value == pytest.approx(-reference.fun, abs=1e-7)
            assert value == pytest.approx(objective @ behavior.table.reshape(-1), abs=1e-9)


class TestPbProbe:
    # Blocks of the probe's parties: b, c and d permuted together, and c
    # with d.
    S3 = ((0,), (1, 2, 3))
    SWAP_CD = ((0,), (1,), (2, 3))

    @pytest.fixture(scope="class")
    def probe(self):
        """The report and, per LP it solved, the LP's column count and
        HiGHS iterations."""
        calls = []
        solve = tradeoffs.lp.solve_stacked

        def counting_solve(program, *args, **kwargs):
            (outcome,) = solve(program, *args, **kwargs)
            calls.append((program.n_variables, outcome.iterations))
            return [outcome]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tradeoffs.lp, "solve_stacked", counting_solve)
            report = tradeoffs.pb_probe()
        return report, calls

    @pytest.fixture(scope="class")
    def reference(self):
        return full_table_probe()

    def test_values(self, probe):
        report, _ = probe
        values = [value for _, value in report.sign_values]
        assert [signs for signs, _ in report.sign_values] == list(
            itertools.product((1, -1), repeat=3)
        )
        assert values == pytest.approx([12, 16, 16, 20, 16, 20, 20, 24], abs=1e-6)
        assert report.max_sum == pytest.approx(24.0, abs=1e-6)
        assert report.t_star == pytest.approx(10.0, abs=1e-6)

    def test_tables_reproduce_values(self, probe):
        from monogamy import is_no_signalling, validate_behavior

        report, _ = probe
        scenario = tradeoffs.pb_scenario()
        rows = [
            functional_row(scenario, collins_gisin(), pair)
            for pair in ((0, 1), (0, 2), (0, 3))
        ]
        for behavior in (report.argmax_behavior, report.t_behavior):
            assert validate_behavior(behavior, tol=1e-7).passed
            assert is_no_signalling(behavior, tol=1e-7).is_no_signalling
        signs, value = max(report.sign_values, key=lambda item: item[1])
        values = [row @ report.argmax_behavior.table.reshape(-1) for row in rows]
        assert value == report.max_sum
        assert sum(s * v for s, v in zip(signs, values)) == pytest.approx(value, abs=1e-6)
        ab, ac, ad = (row @ report.t_behavior.table.reshape(-1) for row in rows)
        assert min(ab + ac, ab + ad) == pytest.approx(report.t_star, abs=1e-6)

    def test_peer_permutation_permutes_objectives(self, rng):
        """Permuting parties b, c and d of any table permutes the three pair
        values, which is why a sign pattern shares its orbit's optimum."""
        scenario = tradeoffs.pb_scenario()
        rows = [
            functional_row(scenario, collins_gisin(), pair)
            for pair in ((0, 1), (0, 2), (0, 3))
        ]
        table = rng.random(scenario.table_shape)
        values = [row @ table.reshape(-1) for row in rows]
        for peers in itertools.permutations((1, 2, 3)):
            parties = (0, *peers)
            moved = table.transpose(parties + tuple(4 + p for p in parties))
            moved_values = [row @ moved.reshape(-1) for row in rows]
            assert moved_values == pytest.approx([values[p - 1] for p in peers], abs=1e-12)

    def test_one_lp_per_sign_orbit(self, probe):
        # Four orbit representatives plus the mean of the two sums, each
        # over the orbits of its blocks of peers: b, c, d; b, c; c, d;
        # b, c, d; c, d, in dual form: one equality row per free coordinate,
        # one multiplier column per positivity row.
        report, calls = probe
        assert len(calls) == len(report.lps) == 5
        s3, swap_bc, swap_cd = ((0,), (1, 2, 3)), ((0,), (1, 2), (3,)), ((0,), (1,), (2, 3))
        assert [record["blocks"] for record in report.lps] == [
            s3, swap_bc, swap_cd, s3, swap_cd
        ]
        assert [record["cols"] for record in report.lps] == [336, 756, 756, 336, 756]
        assert [columns for columns, _ in calls] == [336, 756, 756, 336, 756]
        assert [record["iterations"] for record in report.lps] == [nit for _, nit in calls]
        assert [record["rows"] for record in report.lps] == [79, 159, 159, 79, 159]
        assert all(record["nnz"] > 0 for record in report.lps)
        # Each LP is a model of its own, solved from scratch.
        assert not any(record["warm"] for record in report.lps)

    def test_expanded_tables_are_orbit_constant(self, monkeypatch):
        """Each LP keeps one positivity row per orbit of table entries,
        which holds the whole table only if the expanded solution is
        constant on those orbits: checked before clipping, on all 1 296
        entries, with no entry below -10 * tol."""
        tol = 1e-7
        expanded = []
        ns_tables = tradeoffs._ns_tables

        def recording(scenario, points, tol):
            expanded.extend(np.array(points))
            return ns_tables(scenario, points, tol)

        monkeypatch.setattr(tradeoffs, "_ns_tables", recording)
        report = tradeoffs.pb_probe(tol)
        scenario = tradeoffs.pb_scenario()
        assert len(expanded) == len(report.lps) == 5
        for x, record in zip(expanded, report.lps):
            assert x.shape == (scenario.table_size,)
            assert x.min() >= -10 * tol
            for perm in block_swaps(scenario.parties, record["blocks"]):
                moved = tradeoffs.permute_parties(scenario, x, perm)
                assert np.allclose(moved, x, rtol=0.0, atol=1e-12)

    def test_t_behavior_is_swap_symmetric(self, probe):
        """The mean's optimum is fixed by swapping c and d, so it reaches
        t* on both sums."""
        report, _ = probe
        scenario, ab, ac, ad = self.probe_rows()
        x = report.t_behavior.table.reshape(-1)
        moved = tradeoffs.permute_parties(scenario, x, (0, 1, 3, 2))
        assert np.allclose(moved, x, rtol=0.0, atol=1e-12)
        for f in (ac, ad):
            assert (ab + f) @ x == pytest.approx(report.t_star, abs=1e-9)

    def test_matches_full_table_reference(self, probe, reference):
        report, calls = probe
        sign_values, t_star, iterations = reference
        assert [value for _, value in report.sign_values] == pytest.approx(sign_values, abs=1e-7)
        assert report.t_star == pytest.approx(t_star, abs=1e-7)
        assert sum(nit for _, nit in calls) < iterations

    @staticmethod
    def probe_rows():
        scenario = tradeoffs.pb_scenario()
        ab, ac, ad = (
            functional_row(scenario, collins_gisin(), pair) for pair in ((0, 1), (0, 2), (0, 3))
        )
        return scenario, ab, ac, ad

    @staticmethod
    def inflate_value(outcome):
        from dataclasses import replace

        return replace(outcome, value=outcome.value + 1.0)

    @staticmethod
    def shift_duals(outcome):
        """Moves the first free coordinate by 100: its column has entries
        of both signs, so some row of the primal point falls below -99."""
        from dataclasses import replace

        duals = outcome.duals.copy()
        duals[0] += 100.0
        return replace(outcome, duals=duals)

    def test_values_come_from_the_full_table(self, monkeypatch):
        """A t* that the returned table does not reach on both sums is not
        returned: the probe re-checks it there.  The mean LP's value is
        inflated in what ``_ns_maxima`` hands back, past its own checks."""
        maxima, calls = tradeoffs._ns_maxima, []

        def inflated(scenario, objectives, blocks, tol):
            calls.append(blocks)
            values, tables, outcomes = maxima(scenario, objectives, blocks, tol)
            # The four sign LPs come first; the fifth is the mean's.
            if len(calls) == 5:
                values = [value + 1.0 for value in values]
            return values, tables, outcomes

        monkeypatch.setattr(tradeoffs, "_ns_maxima", inflated)
        with pytest.raises(RuntimeError, match="exceeds its rows"):
            tradeoffs.pb_probe(1e-7)
        assert calls == [self.S3, ((0,), (1, 2), (3,)), self.SWAP_CD, self.S3, self.SWAP_CD]

    @pytest.mark.parametrize("tamper, message", [
        ("inflate_value", "duality gap"), ("shift_duals", "row residual"),
    ], ids=["inflate_value", "shift_duals"])
    def test_dual_solution_is_checked_on_the_primal_side(self, tamper, message, monkeypatch):
        """A dual value above the primal point's value, or dual multipliers
        whose primal point breaks a positivity row, is refused before any
        table is built."""
        solve, change = tradeoffs.lp.solve_stacked, getattr(self, tamper)

        def tampered(*args, **kwargs):
            return [change(outcome) for outcome in solve(*args, **kwargs)]

        monkeypatch.setattr(tradeoffs.lp, "solve_stacked", tampered)
        monkeypatch.setattr(tradeoffs, "_ns_tables", None)
        scenario, ab, ac, ad = self.probe_rows()
        with pytest.raises(RuntimeError, match=message):
            tradeoffs._ns_maxima(scenario, (ab + ac + ad)[None], self.S3, 1e-7)

    def test_invariance_guard(self, monkeypatch):
        scenario = tradeoffs.pb_scenario()
        row = functional_row(scenario, collins_gisin(), (0, 1))
        with pytest.raises(ValueError, match="not invariant"):
            tradeoffs._require_invariant(scenario, row, self.S3)
        # The max-min rows C_ab + C_ac and C_ab + C_ad are swapped by
        # c <-> d, but neither is fixed by it: a stack maximizes each row on
        # its own, so each is refused.  Their mean is fixed by c <-> d, not
        # by b <-> c.
        ac, ad = (functional_row(scenario, collins_gisin(), pair) for pair in ((0, 2), (0, 3)))
        for objective in (row + ac, row + ad):
            with pytest.raises(ValueError, match=r"permutation \(0, 1, 3, 2\)"):
                tradeoffs._require_invariant(scenario, objective, self.SWAP_CD)
        tradeoffs._require_invariant(scenario, row + (ac + ad) / 2.0, self.SWAP_CD)
        with pytest.raises(ValueError, match="not invariant"):
            tradeoffs._require_invariant(scenario, row + (ac + ad) / 2.0, self.S3)
        # The probe checks each sign LP's objective against its blocks:
        # with C_ad doubled, (+++) is not fixed by swapping c and d.
        row_of = tradeoffs.functional_row

        def doubled_ad(scenario, functional, pair):
            return (2.0 if pair == (0, 3) else 1.0) * row_of(scenario, functional, pair)

        monkeypatch.setattr(tradeoffs, "functional_row", doubled_ad)
        with pytest.raises(ValueError, match=r"not invariant under the party permutation \(0, 1, 3, 2\)"):
            tradeoffs.pb_probe()


def test_optimum_lps_have_only_equality_rows(monkeypatch, rng):
    """Every NS optimum LP runs on the Collins-Gisin positivity rows in
    dual form: each ``lp.solve_stacked`` reached from these entry points
    gets equality rows, no inequality rows, and the default bounds,
    multipliers >= 0, and ``lp.solve`` is not reached."""
    from monogamy import random_shareable_behavior

    programs = []
    solve = tradeoffs.lp.solve_stacked

    def recording(program, *args, **kwargs):
        programs.append(program)
        return solve(program, *args, **kwargs)

    monkeypatch.setattr(tradeoffs.lp, "solve_stacked", recording)
    monkeypatch.setattr(tradeoffs.lp, "solve", None)
    scenario, objective = TestNsMaximum.marginal_objective()
    tradeoffs.ns_maximum(scenario, objective)
    ns_support(np.linspace(0.0, 2.0 * math.pi, 17))
    tradeoffs.pb_probe()
    random_shareable_behavior(rng)
    assert len(programs) == 1 + 1 + 5 + 1
    assert all(program.ub_lhs is None and program.eq_lhs is not None for program in programs)
    assert all(program.bounds is None for program in programs)



def test_extension_lp_has_no_equality_rows(monkeypatch):
    """The NS extension LP runs on clone-symmetric Collins-Gisin positivity
    rows: the ``lp.feasibility`` call reached from ``ns_extension`` gets no
    equality rows and one inequality block over the free coordinates only:
    the 9 pair-marginal coordinates of a 2x2 base are folded into the
    right-hand side, and no ``cg_map`` of the extended scenario is built."""
    import monogamy.sharing as sharing
    from monogamy import ns_extension, pr_box, uniform_box

    calls, mapped = [], []
    feasibility, cg_map = sharing.lp.feasibility, sharing.cg_map

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return feasibility(*args, **kwargs)

    def recording_map(scenario):
        mapped.append(scenario.parties)
        return cg_map(scenario)

    monkeypatch.setattr(sharing.lp, "feasibility", recording)
    monkeypatch.setattr(sharing, "cg_map", recording_map)
    sharing.symmetric_cg_rows.cache_clear()
    for box, n_clones in ((pr_box(), 2), (uniform_box(pr_box().scenario), 4)):
        ns_extension(box, n_clones)
    assert len(calls) == 2
    for (args, kwargs), n_clones in zip(calls, (2, 4)):
        assert args == () and kwargs.get("eq") is None
        lhs, rhs = kwargs["ub"]
        assert lhs.shape[0] == rhs.size and rhs.any()
        # 3 C(N+2, 2) CG columns, 9 of them pinned and folded.
        assert lhs.shape[1] == 3 * math.comb(n_clones + 2, 2) - 9
        assert kwargs["bounds"] == [(None, None)] * lhs.shape[1]
    assert mapped and max(mapped) <= 2

class TestQuantumSearch:
    def test_axis_directions_reach_tsirelson(self, rng):
        points = quantum_boundary_search(
            np.array([0.0, math.pi / 2]), restarts=2, rng=rng
        )
        for point in points:
            assert point.value >= ROOT8 - 1e-6
            assert point.value <= ROOT8 + 1e-9

    def test_diagonal_in_expected_window(self, rng):
        point = quantum_boundary_search(np.array([math.pi / 4]), restarts=2, rng=rng)[0]
        assert 2.0 < point.value <= ROOT8 + 1e-9

    def test_every_direction_reaches_tsirelson(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        for restarts in (0, 4):
            points = quantum_boundary_search(
                thetas, restarts=restarts, rng=np.random.default_rng(1601)
            )
            for theta, point in zip(thetas, points):
                assert ROOT8 - 1e-9 <= point.value <= ROOT8 + 1e-9
                x = point.params["x"]
                pair = state_pair_point(
                    x[:8] + 1j * x[8:16], tuple(x[16:18]), tuple(x[18:20]), tuple(x[20:22])
                )
                value = math.cos(theta) * pair.chsh_ab + math.sin(theta) * pair.chsh_ac
                assert value == pytest.approx(point.value, abs=1e-9)
                assert point.params["starts"] == 2 + restarts
                assert point.params["evaluations"] > 0
                assert point.params["ceiling_gap"] == ROOT8 - point.value

    def test_fine_grid_reaches_tsirelson_without_restarts(self):
        # A simplex search stalls in narrow bands of directions near
        # theta = pi/4 + k pi/2 that the 16-point grid above misses.
        thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        points = quantum_boundary_search(thetas, restarts=0, rng=np.random.default_rng(2560))
        for point in points:
            assert ROOT8 - 1e-9 <= point.value <= ROOT8 + 1e-9

    def test_random_starts_draw_six_uniforms_each(self):
        # A sweep that shares the generator sees the same stream after it.
        rng, twin = np.random.default_rng(1201), np.random.default_rng(1201)
        tradeoffs.sweep("quantum", 16, restarts=4, rng=rng)
        twin.uniform(-math.pi, math.pi, (16 * 4, 6))
        assert rng.uniform() == twin.uniform()

    def test_value_and_gradient(self, rng):
        for k in range(20):
            angles = rng.uniform(-math.pi, math.pi, 6)
            theta = (0.0, math.pi / 2)[k] if k < 2 else rng.uniform(0.0, 2.0 * math.pi)
            terms = tradeoffs._PairTerms(direction_terms(theta))
            value, grad = terms.objective(angles)
            top = np.linalg.eigvalsh(terms.operator(angles))[-1]
            assert value == pytest.approx(-top, abs=1e-12)
            differences = central_differences(lambda x: terms.objective(x)[0], angles)
            assert np.allclose(grad, differences, rtol=0.0, atol=1e-6)
            if k < 2:
                # On an axis the top eigenvalue is that of one pair's CHSH
                # operator, doubly degenerate on the third qubit.
                want = np.linalg.eigvalsh(kron_direction_operator(angles, theta))
                assert want[-1] == pytest.approx(want[-2], abs=1e-12)
                assert value == pytest.approx(-want[-1], abs=1e-12)

    def test_top_objective_gradient_with_bloch_terms(self, rng):
        # Terms with single-party weights, a reversed pair and all three
        # pairs: the eigenvalue's gradient against central differences.
        cg = collins_gisin()
        for _ in range(10):
            w = rng.uniform(-1.0, 1.0, 3)
            terms = tradeoffs._PairTerms([((0, 1), cg, w[0]), ((2, 0), cg, w[1]), ((1, 2), cg, w[2])])
            angles = rng.uniform(-math.pi, math.pi, 9)
            value, grad = terms.objective(angles)
            top = np.linalg.eigvalsh(terms.operator(angles))[-1]
            assert value == pytest.approx(-top, abs=1e-12)
            differences = central_differences(lambda x: terms.objective(x)[0], angles)
            assert np.allclose(grad, differences, rtol=0.0, atol=1e-6)

    def test_operator_matches_kron_reference(self, rng):
        # CHSH and the three-setting functional (with its Bloch terms) on
        # every pair in both orders, one term at a time, then the direction
        # operator's two CHSH terms and a three-term sum.
        cg = collins_gisin()
        pairs = list(itertools.permutations(range(3), 2))
        term_lists = [[(pair, f, rng.uniform(-2.0, 2.0))] for f in (chsh(), cg) for pair in pairs]
        term_lists += [direction_terms(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(5)]
        term_lists.append([((0, 1), cg, 0.3), ((0, 2), cg, -1.1), ((2, 1), cg, 0.7)])
        for term_list in term_lists:
            terms = tradeoffs._PairTerms(term_list)
            angles = rng.uniform(-math.pi, math.pi, sum(terms.settings))
            got = terms.operator(angles)
            want = kron_terms_operator(term_list, split_angles(terms, angles))
            assert got.dtype == float and np.array_equal(got, got.T)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_terms_refuse_bad_pairs_and_setting_counts(self):
        with pytest.raises(ValueError, match="two distinct parties"):
            tradeoffs._PairTerms([((1, 1), chsh(), 1.0)])
        with pytest.raises(ValueError, match="two distinct parties"):
            tradeoffs._PairTerms([((0, 3), chsh(), 1.0)])
        with pytest.raises(ValueError, match="party 1 has 2 settings and 3"):
            tradeoffs._PairTerms([((0, 1), chsh(), 1.0), ((2, 1), collins_gisin(), 1.0)])
        assert tradeoffs._PairTerms([((2, 1), collins_gisin(), 1.0)]).settings == (0, 3, 3)

    @pytest.mark.parametrize("search", [
        lambda thetas, rng: quantum_boundary_search(thetas, 0, rng),
        lambda thetas, rng: tradeoffs.separable_orthogonal_support(thetas, 1, rng),
        lambda thetas, rng: tradeoffs.local_support(thetas),
    ], ids=["quantum_boundary_search", "separable_orthogonal_support", "local_support"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_refused(self, search, bad):
        with pytest.raises(ValueError, match="support directions must be finite"):
            search(np.array([0.0, bad]), np.random.default_rng(0))

    def test_one_minimize_call_per_start(self, monkeypatch):
        original = tradeoffs.minimize
        evaluations = []

        def counting_minimize(*args, **kwargs):
            result = original(*args, **kwargs)
            evaluations.append(result.nfev)
            return result

        monkeypatch.setattr(tradeoffs, "minimize", counting_minimize)
        restarts = 2
        point = quantum_boundary_search(
            np.array([math.pi / 8]), restarts=restarts, rng=np.random.default_rng(7)
        )[0]
        assert len(evaluations) == 2 + restarts
        assert point.params["evaluations"] == sum(evaluations)

    @pytest.mark.parametrize("search, calls, want", [
        (lambda rng: quantum_boundary_search(np.array([0.3]), 0, rng)[0].value, 2, ROOT8),
        (lambda rng: tradeoffs.cg_double_violation_search(np.array([0.9]), 0, rng).min_value,
         3, 4.043839398106216),
        (lambda rng: separable_orthogonal_max(1, rng), 2, math.sqrt(2)),
        (lambda rng: tradeoffs.separable_orthogonal_support(np.array([0.3]), 1, rng)[0].value,
         1, math.sqrt(2) * (math.cos(0.3) + math.sin(0.3))),
    ], ids=["quantum_boundary_search", "cg_double_violation_search",
            "separable_orthogonal_max", "separable_orthogonal_support"])
    def test_search_goes_through_module_minimize(self, search, calls, want, monkeypatch):
        # tradeoffs.minimize is what a caller wraps to observe searches; it
        # must reach scipy's L-BFGS-B on every call.
        methods, reached = [], []
        wrapped, scipy_minimize = tradeoffs.minimize, scipy.optimize.minimize

        def routed(*args, **kwargs):
            methods.append(kwargs["method"])
            return wrapped(*args, **kwargs)

        def counted(*args, **kwargs):
            reached.append(1)
            return scipy_minimize(*args, **kwargs)

        monkeypatch.setattr(tradeoffs, "minimize", routed)
        monkeypatch.setattr(scipy.optimize, "minimize", counted)
        value = search(np.random.default_rng(1))
        assert methods == ["L-BFGS-B"] * calls
        assert len(reached) == calls
        assert value == pytest.approx(want, abs=1e-9)


class TestSeparableOrthogonal:
    def test_two_party_maximum(self, rng):
        value = separable_orthogonal_max(restarts=12, rng=rng)
        assert value == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_no_starts_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one restart"):
            separable_orthogonal_max(restarts=0, rng=rng)
        with pytest.raises(ValueError, match="at least one restart"):
            tradeoffs.separable_orthogonal_support(np.array([0.0]), restarts=0, rng=rng)

    @pytest.mark.parametrize("grid, restarts", [(16, 4), (256, 1)], ids=["grid16", "grid256"])
    def test_support_records_reach_the_closed_form(self, grid, restarts):
        # Coarse grids can hide bands of directions where a search falls short.
        points = tradeoffs.sweep("separable-orthogonal", grid, restarts, np.random.default_rng(0))
        for point in points:
            ceiling = math.sqrt(2) * (abs(math.cos(point.theta)) + abs(math.sin(point.theta)))
            assert point.params["starts"] == restarts
            assert point.params["evaluations"] > 0
            assert point.params["ceiling_gap"] == ceiling - point.value
            assert abs(point.params["ceiling_gap"]) <= 1e-9

    def test_value_and_gradient(self, rng):
        for weights in ([1.0], [-1.0], rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)):
            betas = rng.uniform(-math.pi, math.pi, len(weights) + 1)
            value, grad = tradeoffs._separable_value_grad(betas, weights)
            (x0, z0), *rest = [(math.sin(b), math.cos(b)) for b in betas]
            pairs = [x0 * x + x0 * z + z0 * x - z0 * z for x, z in rest]
            assert value == pytest.approx(-np.dot(weights, pairs), abs=1e-14)
            differences = central_differences(
                lambda x: tradeoffs._separable_value_grad(x, weights)[0], betas
            )
            assert np.allclose(grad, differences, rtol=0.0, atol=1e-8)


class TestCgSearch:
    def test_finds_double_violation_at_known_mu(self, rng):
        result = tradeoffs.cg_double_violation_search(
            np.array([0.9]), restarts=3, rng=rng
        )
        assert result.min_value > 4.005
        assert result.value_ab == pytest.approx(result.value_ac, abs=1e-9)

    def test_product_state_stays_local(self, rng):
        result = tradeoffs.cg_double_violation_search(
            np.array([1.0]), restarts=3, rng=rng
        )
        assert result.min_value <= 4.0 + 1e-9

    def test_records_sum_over_mu(self, monkeypatch):
        original, evaluations = tradeoffs.minimize, []

        def counting_minimize(*args, **kwargs):
            result = original(*args, **kwargs)
            evaluations.append(result.nfev)
            return result

        monkeypatch.setattr(tradeoffs, "minimize", counting_minimize)
        result = tradeoffs.cg_double_violation_search(
            np.array([0.87, 0.9]), restarts=1, rng=np.random.default_rng(3)
        )
        assert result.starts == len(evaluations) == 2 * (3 + 1)
        assert result.evaluations == sum(evaluations)

    def test_empty_mu_grid_rejected(self, rng):
        with pytest.raises(ValueError, match="mu"):
            tradeoffs.cg_double_violation_search(np.array([]), restarts=1, rng=rng)


class TestObjectiveBuilders:
    @pytest.mark.parametrize("functional", [chsh(), collins_gisin()], ids=["chsh", "collins-gisin"])
    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2), (2, 0), (2, 1)])
    def test_planar_value_and_gradient(self, functional, pair, rng):
        # The fixed-state path.  Only the three-setting functional has
        # single-party weights, so only it exercises the Bloch terms.
        n = functional.correlators.shape[0]
        for _ in range(5):
            t = random_tensor(rng)
            weight = rng.uniform(-2.0, 2.0)
            terms = tradeoffs._PairTerms([(pair, functional, weight)])
            m = tradeoffs._moment_tensor(t)
            angles = rng.uniform(-math.pi, math.pi, 2 * n)
            value, grad = terms.objective(angles, m)
            moments = einsum_pair_moments(t, tuple(sorted(pair)))
            first, second = angles[:n], angles[n:]
            if pair[0] > pair[1]:
                # The functional's first party comes second in party order.
                moments, first, second = moments.T, second, first
            want = weight * reference_pair_value(moments, functional, first, second)
            assert value == pytest.approx(-want, abs=1e-12)
            got = terms.values(split_angles(terms, angles), m).tolist()
            assert got == [pytest.approx(want, abs=1e-12)]
            differences = central_differences(lambda x: terms.objective(x, m)[0], angles)
            assert np.allclose(grad, differences, rtol=0.0, atol=1e-8)

    def test_chsh_objective_matches_behavior_evaluation(self, rng):
        scenario = Scenario(3, (2, 2, 2), (2, 2, 2))
        obj = functional_row(scenario, chsh(), (0, 1))
        # On no-signalling behaviors the flattened objective reproduces the
        # pair CHSH; mixtures of deterministic boxes are no-signalling.
        from monogamy import deterministic_behaviors

        vertices = deterministic_behaviors(scenario)
        picks = rng.choice(len(vertices), size=6, replace=False)
        b = mixture([vertices[i] for i in picks], list(rng.dirichlet(np.ones(6))))
        assert obj @ b.table.reshape(-1) == pytest.approx(
            pair_values(b).chsh_ab, abs=1e-12
        )

    def test_cg_objective_matches_behavior_evaluation(self, rng):
        scenario = Scenario(2, (3, 3), (2, 2))
        obj = functional_row(scenario, collins_gisin(), (0, 1))
        b = deterministic_box(scenario, ((0, 1, 0), (1, 0, 0)))
        assert obj @ b.table.reshape(-1) == pytest.approx(
            bell_value(b, collins_gisin()), abs=1e-12
        )


def marginal_route(b):
    """CHSH_ab, CHSH_ac, CHSH_bc and the a-c correlator at the first
    settings, each on the two-party marginal at context (0, 0, 0)."""
    pairs = [marginal_behavior(b, pair, (0, 0, 0)) for pair in ((0, 1), (0, 2), (1, 2))]
    return [bell_value(pair, chsh()) for pair in pairs] + [correlator(pairs[1], (0, 0))]


class TestTableTermsProperties:
    # Derandomized and without an example database, so every run draws the
    # same examples.
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.floats(-0.125, 0.125), min_size=64, max_size=64),
        kind=st.sampled_from(["raw", "normalized", "local"]),
    )
    def test_table_terms_are_the_marginal_route(self, entries, kind):
        # Raw entries of at most 1/8 in size keep each correlator in [-1, 1]
        # and each CHSH value in [-4, 4]; normalized tables are generally
        # signalling; local ones mix the 64 deterministic strategies.
        scenario = tradeoffs.triple_scenario()
        weights = np.abs(entries) + 1e-3
        table = np.array(entries)
        if kind == "normalized":
            table = weights.reshape(scenario.table_shape)
            table = table / table.sum(axis=(3, 4, 5), keepdims=True)
        elif kind == "local":
            table = tradeoffs.strategy_matrix(scenario) @ (weights / weights.sum())
        b = Behavior(scenario, table.reshape(scenario.table_shape))
        ab, ac, bc, corr_ac = marginal_route(b)
        point = triple_values(b)
        assert np.allclose([point.chsh_ab, point.chsh_ac, point.chsh_bc], [ab, ac, bc],
                           rtol=0.0, atol=1e-12)
        # behavior_checks hands its a-c correlator to the key-rate check.
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            key = tradeoffs.check_key_corollary
            patch.setattr(tradeoffs, "check_key_corollary",
                          lambda chsh_ab, corr, tol: seen.append(corr) or key(chsh_ab, corr, tol))
            tradeoffs.behavior_checks(b)
        assert seen == [pytest.approx(corr_ac, abs=1e-12)]


class TestPairTermsProperties:
    # Derandomized and without an example database, so every run draws the
    # same examples; the budget is a few seconds.
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        amplitudes=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
        angles=st.lists(st.floats(-math.pi, math.pi), min_size=9, max_size=9),
        pair=st.sampled_from(sorted(PAIR_MOMENT_SPECS)),
        functional=st.sampled_from([chsh(), collins_gisin()]),
    )
    def test_fixed_state_value_is_the_born_value_below_the_top_eigenvalue(
        self, amplitudes, angles, pair, functional
    ):
        vector = np.array(amplitudes[:8]) + 1j * np.array(amplitudes[8:])
        assume(np.linalg.norm(vector) > 1e-3)
        terms = tradeoffs._PairTerms([(pair, functional, 1.0)])
        party_angles = [angles[3 * p:3 * p + terms.settings[p]] for p in range(3)]
        rho = density_from_vector(vector)
        t = tradeoffs._pure_vector(rho).reshape(2, 2, 2)
        (value,) = terms.values(party_angles, tradeoffs._moment_tensor(t))

        # A party outside the pair measures sigma_z; it is summed out.
        observables = [
            [planar_observable(x) for x in party_angles[p]] or [planar_observable(SZ_ANGLE)]
            for p in range(3)
        ]
        behavior = born_behavior(rho, observables)
        want = bell_value(marginal_behavior(behavior, pair, (0, 0, 0)), functional)
        assert abs(value - want) <= 1e-10
        top = np.linalg.eigvalsh(terms.operator(np.concatenate(party_angles)))[-1]
        assert value <= top + 1e-12
