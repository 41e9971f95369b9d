"""Concurrence, tangle, cut tangle, and the distributed-entanglement check."""

import numpy as np
import pytest

from monogamy import (
    DensityMatrix,
    ckw_check,
    concurrence,
    cut_tangle,
    density_from_vector,
    ghz,
    partial_trace,
    phi_plus,
    random_pure_state,
    tangle,
    w_state,
)
from monogamy.entanglement import _concurrences
from monogamy.quantum import SIGMA_Y, tensor


def pure_concurrence_oracle(vec):
    """|<psi| sigma_y x sigma_y |psi*>| for pure two-qubit states."""
    yy = tensor(SIGMA_Y, SIGMA_Y)
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return abs(vec.conj() @ yy @ vec.conj())


class TestConcurrence:
    def test_phi_plus_maximal(self):
        assert concurrence(phi_plus()) == pytest.approx(1.0, abs=1e-12)
        assert pure_concurrence_oracle([1, 0, 0, 1]) == pytest.approx(1.0)

    def test_product_state_zero(self):
        assert concurrence(density_from_vector([1, 0, 0, 0])) == 0.0

    def test_w_reduced_pair(self):
        # Analytic spectrum of the spin-flipped product for this state is
        # (4/9, 0, 0, 0), so the concurrence is 2/3.
        reduced = partial_trace(w_state(), (0, 1))
        assert concurrence(reduced) == pytest.approx(2 / 3, abs=1e-12)

    def test_matches_pure_oracle_on_random_states(self, rng):
        for _ in range(50):
            rho = random_pure_state(2, rng)
            vec = rho.matrix[:, int(np.argmax(np.diag(rho.matrix.real)))]
            vec = vec / np.linalg.norm(vec)
            assert concurrence(rho) == pytest.approx(
                pure_concurrence_oracle(vec), abs=1e-9
            )

    def test_local_unitary_invariance(self, rng):
        for _ in range(20):
            rho = random_pure_state(2, rng)
            u1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            u2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            u = tensor(u1, u2)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_separable_mixtures_zero(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(k))
            rho = np.zeros((4, 4), dtype=complex)
            for w in weights:
                rho += w * tensor(
                    random_pure_state(1, rng).matrix, random_pure_state(1, rng).matrix
                )
            assert concurrence(DensityMatrix(rho)) <= 1e-7

    def test_stack_agrees_with_single_states(self, rng):
        # Pair reductions of seeded 3- and 4-qubit states, and mixed states.
        for qubits in (3, 4):
            states = [random_pure_state(qubits, rng) for _ in range(20)]
            for pair in ((0, 1), (1, qubits - 1)):
                reduced = [partial_trace(psi, pair) for psi in states]
                stack = np.stack([rho.matrix for rho in reduced])
                loop = [concurrence(rho) for rho in reduced]
                assert np.max(np.abs(_concurrences(stack) - loop)) <= 1e-12
        g = rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4))
        mixed = [DensityMatrix(m @ m.conj().T / np.trace(m @ m.conj().T)) for m in g]
        loop = [concurrence(rho) for rho in mixed]
        assert np.max(np.abs(_concurrences(np.stack([rho.matrix for rho in mixed])) - loop)) <= 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            concurrence(ghz())


class TestTangle:
    def test_square_of_concurrence(self, rng):
        for _ in range(10):
            rho = random_pure_state(2, rng)
            assert tangle(rho) == pytest.approx(concurrence(rho) ** 2, abs=1e-12)

    def test_values(self):
        assert tangle(phi_plus()) == pytest.approx(1.0, abs=1e-12)
        assert tangle(density_from_vector([1, 0, 0, 0])) == 0.0
        assert tangle(partial_trace(w_state(), (0, 1))) == pytest.approx(4 / 9, abs=1e-12)


class TestCutTangle:
    def test_ghz_pivot(self):
        assert cut_tangle(ghz(), 0) == pytest.approx(1.0, abs=1e-12)

    def test_product_zero(self):
        assert cut_tangle(density_from_vector([1] + [0] * 7), 0) == pytest.approx(0.0)

    def test_w_state(self):
        assert cut_tangle(w_state(), 0) == pytest.approx(8 / 9, abs=1e-12)

    def test_mixed_input_rejected(self):
        mixed = DensityMatrix(np.eye(8) / 8)
        with pytest.raises(ValueError, match="pure"):
            cut_tangle(mixed, 0)


class TestCkwCheck:
    def test_w_state_equality_case(self):
        report = ckw_check(w_state(), 0)
        assert report.pairwise == pytest.approx((4 / 9, 4 / 9), abs=1e-9)
        assert report.cut == pytest.approx(8 / 9, abs=1e-9)
        assert report.residual == pytest.approx(0.0, abs=1e-9)
        assert report.passed

    def test_ghz_fully_frustrated(self):
        report = ckw_check(ghz(), 0)
        assert report.pairwise == pytest.approx((0.0, 0.0), abs=1e-12)
        assert report.cut == pytest.approx(1.0, abs=1e-12)
        assert report.residual == pytest.approx(1.0, abs=1e-9)

    def test_product_all_zero(self):
        report = ckw_check(density_from_vector([1] + [0] * 7), 0)
        assert report.cut == pytest.approx(0.0, abs=1e-12)
        assert report.residual == pytest.approx(0.0, abs=1e-9)

    def test_every_pivot_of_random_states(self, rng):
        for _ in range(200):
            psi = random_pure_state(3, rng)
            for pivot in range(3):
                assert ckw_check(psi, pivot).passed

    def test_four_qubits(self, rng):
        for _ in range(50):
            psi = random_pure_state(4, rng)
            report = ckw_check(psi, 0)
            assert len(report.pairwise) == 3
            assert report.passed

    def test_tangles_of_checked_pair_states(self, rng):
        # The report's pairwise tangles are those of partial_trace's states.
        for qubits in (3, 4):
            psi = random_pure_state(qubits, rng)
            for pivot in range(qubits):
                report = ckw_check(psi, pivot)
                want = [tangle(partial_trace(psi, (pivot, q))) for q in report.partners]
                assert np.max(np.abs(np.subtract(report.pairwise, want))) <= 1e-12
                assert report.cut == pytest.approx(cut_tangle(psi, pivot), abs=1e-12)

    def test_mixed_state_and_pivot_refused_by_cut_tangle(self):
        with pytest.raises(ValueError, match="cut tangle requires a pure global state"):
            ckw_check(DensityMatrix(np.eye(8) / 8), 0)
        with pytest.raises(ValueError, match="pivot qubit out of range"):
            ckw_check(w_state(), 3)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            ckw_check(phi_plus(), 0)
        with pytest.raises(ValueError):
            ckw_check(density_from_vector([1] + [0] * 31), 0)
