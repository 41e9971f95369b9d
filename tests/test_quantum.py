"""Qubit states, observables, partial traces, and Born-rule behaviors."""

import math

import numpy as np
import pytest

from monogamy import (
    DensityMatrix,
    born_behavior,
    cg_state,
    chsh_value,
    correlator,
    density_from_vector,
    eig_hermitian,
    expectation,
    ghz,
    is_no_signalling,
    named_state,
    partial_trace,
    phi_plus,
    planar_observable,
    product_state,
    random_pure_state,
    singlet,
    state_from_json_dict,
    state_to_json_dict,
    w_state,
)
from monogamy.quantum import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _checked_densities,
    bloch_observable,
    tensor,
)
from conftest import TSIRELSON_ANGLES, observables_from_angles


def brute_partial_trace(matrix, n, keep):
    """Loop-level oracle for the reduced matrix."""
    keep = sorted(keep)
    drop = [q for q in range(n) if q not in keep]
    dim = 2 ** len(keep)
    out = np.zeros((dim, dim), dtype=complex)

    def bits(idx):
        return [(idx >> (n - 1 - q)) & 1 for q in range(n)]

    def pack(bitlist, subset):
        value = 0
        for q in subset:
            value = (value << 1) | bitlist[q]
        return value

    for i in range(2 ** n):
        for j in range(2 ** n):
            bi, bj = bits(i), bits(j)
            if all(bi[q] == bj[q] for q in drop):
                out[pack(bi, keep), pack(bj, keep)] += matrix[i, j]
    return out


class TestDensityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3) / 3)  # not a qubit dimension

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_entries_refused(self, bad):
        # NaN passes every comparison-based check as False.
        with pytest.raises(ValueError, match="density matrix has non-finite entries"):
            DensityMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="state vector has non-finite entries"):
            density_from_vector(np.array([bad, 1.0]))

    def test_pure_state_normalization(self):
        rho = density_from_vector([2.0, 0.0])
        assert rho.matrix[0, 0] == pytest.approx(1.0)

    def test_kept_spectrum_is_the_largest_eigenvalue(self, rng):
        for qubits in (1, 2, 3):
            g = rng.standard_normal((2 ** qubits,) * 2) + 1j * rng.standard_normal((2 ** qubits,) * 2)
            rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T))
            assert rho.largest_eigenvalue() == float(np.linalg.eigvalsh(rho.matrix)[-1])
            assert not rho.matrix.flags.writeable


def seeded_stacks(rng):
    """Stacks of seeded pure 3- and 4-qubit states, of their pair and
    single-qubit reductions, and of mixed two-qubit states."""
    stacks = []
    for qubits in (3, 4):
        states = [random_pure_state(qubits, rng) for _ in range(6)]
        stacks.append(np.stack([rho.matrix for rho in states]))
        for keep in ((0, 1), (0, qubits - 1), (1,)):
            stacks.append(np.stack([partial_trace(rho, keep).matrix for rho in states]))
    g = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    mixed = g @ g.conj().swapaxes(1, 2)
    stacks.append(mixed / np.trace(mixed, axis1=1, axis2=2)[:, None, None])
    return stacks


def bad_member(kind):
    return {
        "non-finite": np.diag([math.nan, 0.5, 0.25, 0.25]).astype(complex),
        "non-Hermitian": np.diag([0.5, 0.5, 0.0, 0.0]) + np.eye(4, k=1) * 0.1,
        "non-unit-trace": np.eye(4) / 2,
        "non-PSD": np.diag([0.75, 0.5, -0.25, 0.0]),
    }[kind]


class TestCheckedDensities:
    def test_stack_agrees_with_single_matrices(self, rng):
        for stack in seeded_stacks(rng):
            spectra = _checked_densities(stack)
            assert spectra.shape == stack.shape[:2]
            for member, spectrum in zip(stack, spectra):
                rho = DensityMatrix(member)
                assert np.max(np.abs(spectrum - np.linalg.eigvalsh(member))) <= 1e-12
                assert rho.largest_eigenvalue() == pytest.approx(spectrum[-1], abs=1e-12)

    @pytest.mark.parametrize("kind", ["non-finite", "non-Hermitian", "non-unit-trace", "non-PSD"])
    def test_one_bad_member_refuses_the_stack(self, kind):
        bad = bad_member(kind)
        with pytest.raises(ValueError) as single:
            DensityMatrix(bad)
        stack = np.stack([np.eye(4) / 4, bad, np.diag([1.0, 0.0, 0.0, 0.0])])
        with pytest.raises(ValueError) as stacked:
            _checked_densities(stack)
        assert str(stacked.value) == str(single.value)

    def test_shapes_refused_with_single_matrix_messages(self):
        with pytest.raises(ValueError, match="density matrix must be square"):
            _checked_densities(np.ones((2, 4, 2)) / 4)
        with pytest.raises(ValueError, match="density matrix must be square"):
            DensityMatrix(np.ones((1, 2, 2)) / 2)
        with pytest.raises(ValueError, match="dimension 3 is not a power of 2"):
            _checked_densities(np.stack([np.eye(3) / 3] * 2))


class TestObservables:
    def test_planar_family_involutive(self):
        for alpha in np.linspace(-math.pi, math.pi, 17):
            op = planar_observable(alpha)
            assert np.allclose(op @ op, np.eye(2), atol=1e-12)
            assert abs(np.trace(op)) < 1e-12

    def test_bloch_requires_unit_norm(self):
        with pytest.raises(ValueError):
            bloch_observable(1.0, 1.0, 0.0)
        op = bloch_observable(0.0, 1.0, 0.0)
        assert np.allclose(op, SIGMA_Y)


class TestBornBehavior:
    def test_tsirelson_value(self):
        b = born_behavior(phi_plus(), observables_from_angles(TSIRELSON_ANGLES))
        assert chsh_value(b) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_product_eigenstate_deterministic(self):
        rho = density_from_vector([1, 0, 0, 0])  # |00>
        sz = planar_observable(math.pi / 2)
        b = born_behavior(rho, [[sz, sz], [sz, sz]])
        assert b.table[0, 0, 0, 0] == pytest.approx(1.0)
        assert chsh_value(b) == pytest.approx(2.0)

    def test_maximally_mixed_uncorrelated(self, rng):
        rho = DensityMatrix(np.eye(4) / 4)
        angles = rng.uniform(-math.pi, math.pi, 4)
        b = born_behavior(rho, observables_from_angles(angles))
        for ctx in b.scenario.contexts():
            assert correlator(b, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_non_involutive_rejected(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            born_behavior(phi_plus(), [[bad, SIGMA_Z], [SIGMA_X, SIGMA_Z]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            born_behavior(phi_plus(), [[SIGMA_Z], [SIGMA_Z], [SIGMA_Z]])

    def test_array_observables_match_lists(self, rng):
        angles = rng.uniform(-math.pi, math.pi, 6)
        listed = [[planar_observable(a) for a in angles[2 * p:2 * p + 2]] for p in range(3)]
        stacked = np.array(listed)  # (party, setting, 2, 2)
        rho = random_pure_state(3, rng)
        assert np.array_equal(born_behavior(rho, stacked).table, born_behavior(rho, listed).table)

    def test_observable_checks(self):
        with pytest.raises(ValueError, match="party 1 needs at least one observable"):
            born_behavior(phi_plus(), [[SIGMA_Z], np.zeros((0, 2, 2))])
        with pytest.raises(ValueError, match="observables must be 2x2"):
            born_behavior(phi_plus(), [[SIGMA_Z, np.eye(3)], [SIGMA_Z]])
        for bad in (SIGMA_X + 1j * SIGMA_Z, 2 * SIGMA_Z, np.full((2, 2), math.nan)):
            with pytest.raises(ValueError, match="observable must square to the identity"):
                born_behavior(phi_plus(), [[SIGMA_Z], [SIGMA_X, bad]])

    def test_outputs_no_signalling(self, rng):
        worst = 0.0
        for _ in range(1000):
            qubits = int(rng.integers(2, 4))
            rho = random_pure_state(qubits, rng)
            observables = [
                [planar_observable(a) for a in rng.uniform(-math.pi, math.pi, 2)]
                for _ in range(qubits)
            ]
            report = is_no_signalling(born_behavior(rho, observables))
            worst = max(worst, report.max_violation)
        assert worst <= 1e-10

    def test_affine_in_state(self, rng):
        angles = rng.uniform(-math.pi, math.pi, 4)
        obs = observables_from_angles(angles)
        r1 = random_pure_state(2, rng)
        r2 = random_pure_state(2, rng)
        w = rng.random()
        mixed = DensityMatrix(w * r1.matrix + (1 - w) * r2.matrix)
        b_mixed = born_behavior(mixed, obs)
        expected = w * born_behavior(r1, obs).table + (1 - w) * born_behavior(r2, obs).table
        assert np.max(np.abs(b_mixed.table - expected)) <= 1e-12


class TestPartialTrace:
    def test_ghz_single_qubit(self):
        reduced = partial_trace(ghz(), (0,))
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_keeps_factor(self):
        rho = density_from_vector([0, 1, 0, 0])  # |01>
        assert np.allclose(partial_trace(rho, (0,)).matrix, np.diag([1.0, 0.0]))
        assert np.allclose(partial_trace(rho, (1,)).matrix, np.diag([0.0, 1.0]))

    def test_w_pair_against_brute_force(self):
        w = w_state()
        reduced = partial_trace(w, (0, 1))
        oracle = brute_partial_trace(w.matrix, 3, (0, 1))
        assert np.max(np.abs(reduced.matrix - oracle)) <= 1e-14
        # 1/3 on |00><00| plus 2/3 on the symmetric one-excitation state.
        assert reduced.matrix[0, 0] == pytest.approx(1 / 3)
        assert reduced.matrix[1, 2] == pytest.approx(1 / 3)

    def test_random_states_against_brute_force(self, rng):
        for _ in range(20):
            rho = random_pure_state(3, rng)
            keep = tuple(sorted(rng.choice(3, size=int(rng.integers(1, 3)), replace=False)))
            got = partial_trace(rho, keep).matrix
            oracle = brute_partial_trace(rho.matrix, 3, keep)
            assert np.max(np.abs(got - oracle)) <= 1e-12

    def test_tensor_then_trace_is_identity(self, rng):
        r1 = random_pure_state(1, rng)
        r2 = random_pure_state(2, rng)
        joint = product_state([r1, r2])
        assert np.max(np.abs(partial_trace(joint, (0,)).matrix - r1.matrix)) <= 1e-12
        assert np.max(np.abs(partial_trace(joint, (1, 2)).matrix - r2.matrix)) <= 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(ghz(), (3,))


def faddeev_leverrier(matrix):
    """Characteristic polynomial coefficients by the trace recursion."""
    n = matrix.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(matrix)
    for k in range(1, n + 1):
        m = matrix @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(matrix @ m).real / k)
    return np.array(coeffs)


class TestEigHermitian:
    def test_pauli_z(self):
        values, vectors = eig_hermitian(SIGMA_Z)
        assert np.allclose(values, [1.0, -1.0])
        assert np.allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-12)

    def test_half_identity(self):
        values, _ = eig_hermitian(np.eye(2) / 2)
        assert np.allclose(values, [0.5, 0.5])

    def test_against_characteristic_polynomial(self, rng):
        for _ in range(10):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = (raw + raw.conj().T) / 2
            values, vectors = eig_hermitian(m)
            assert np.all(np.diff(values) <= 1e-12)
            recon = vectors @ np.diag(values) @ vectors.conj().T
            assert np.max(np.abs(m - recon)) <= 1e-9 * 4
            roots = np.sort(np.roots(faddeev_leverrier(m)).real)[::-1]
            assert np.max(np.abs(roots - values)) <= 1e-8

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestNamedStates:
    def test_w_reduced_pairs_identical(self):
        w = w_state()
        pairs = [partial_trace(w, p).matrix for p in ((0, 1), (0, 2), (1, 2))]
        for other in pairs[1:]:
            assert np.max(np.abs(pairs[0] - other)) <= 1e-14

    def test_cg_extremes(self):
        assert np.allclose(cg_state(1.0).matrix[0, 0], 1.0)
        vec_part = cg_state(0.0).matrix
        assert vec_part[0, 0] == pytest.approx(0.0)
        with pytest.raises(ValueError):
            cg_state(1.5)

    def test_ghz_cut_tangle_value(self):
        reduced = partial_trace(ghz(), (0,))
        assert 4 * np.linalg.det(reduced.matrix).real == pytest.approx(1.0)

    def test_named_state_dispatch(self):
        assert named_state("w").qubits == 3
        assert named_state("singlet").qubits == 2
        with pytest.raises(ValueError):
            named_state("cg")
        with pytest.raises(ValueError):
            named_state("nope")

    def test_singlet_anticorrelated(self):
        sz = planar_observable(math.pi / 2)
        b = born_behavior(singlet(), [[sz], [sz]])
        assert correlator(b, (0, 0)) == pytest.approx(-1.0)


class TestExpectation:
    def test_sigma_y_on_zero_ket(self):
        assert expectation(density_from_vector([1, 0]), SIGMA_Y) == pytest.approx(0.0)

    def test_sigma_y_eigenstate(self):
        plus_y = density_from_vector([1, 1j])
        assert expectation(plus_y, SIGMA_Y) == pytest.approx(1.0)

    def test_xx_on_phi_plus_direct_trace(self):
        xx = tensor(SIGMA_X, SIGMA_X)
        # Oracle: explicit 4x4 trace.
        oracle = np.trace(xx @ phi_plus().matrix).real
        assert expectation(phi_plus(), xx) == pytest.approx(oracle) == pytest.approx(1.0)

    def test_bloch_norm_bound(self, rng):
        for _ in range(200):
            rho = random_pure_state(2, rng)
            reduced = partial_trace(rho, (int(rng.integers(0, 2)),))
            norm_sq = sum(
                expectation(reduced, op) ** 2 for op in (SIGMA_X, SIGMA_Y, SIGMA_Z)
            )
            assert norm_sq <= 1 + 1e-9


class TestStateJson:
    def test_round_trip(self, rng):
        rho = random_pure_state(2, rng)
        data = state_to_json_dict(rho)
        back = state_from_json_dict(data)
        assert np.max(np.abs(back.matrix - rho.matrix)) == 0.0

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            state_from_json_dict({"dimension": 2, "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("entry", [["a", 0.0], 1.0, [1.0, 0.0, 0.0], [True, 0.0], None])
    def test_malformed_entry_named(self, entry):
        entries = [[0.5, 0.0], [0.0, 0.0], entry, [0.5, 0.0]]
        with pytest.raises(ValueError, match=r"entry 2 must be a pair of real numbers \(re, im\)"):
            state_from_json_dict({"dimension": 2, "entries": entries})

    @pytest.mark.parametrize("data", [
        {"dimension": None, "entries": []},
        {"dimension": 1, "entries": 1.0},
        {"dimension": 1, "entries": "ab"},
    ])
    def test_malformed_fields_refused(self, data):
        with pytest.raises(ValueError, match="state JSON"):
            state_from_json_dict(data)

    @pytest.mark.parametrize("dimension", [4.9, 4.0, "4", True],
                             ids=["float", "integral-float", "string", "bool"])
    def test_non_integer_dimension_refused(self, dimension):
        data = state_to_json_dict(phi_plus())
        data["dimension"] = dimension
        with pytest.raises(ValueError, match="state JSON 'dimension' must be a JSON integer"):
            state_from_json_dict(data)
