"""Two-qubit entanglement measures and the distributed-entanglement check.

The tangle is the squared concurrence; across the pivot|rest cut of a pure
multi-qubit state it equals 4 det(rho_pivot).  The monogamy check verifies
that the pairwise tangles with the pivot never exceed the cut tangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import (
    SIGMA_Y,
    DensityMatrix,
    _checked_densities,
    _reduced_matrix,
    partial_trace,
    tensor,
)

PURITY_TOL = 1e-9
_YY = tensor(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class TangleReport:
    """Pairwise tangles against a pivot qubit, the pivot|rest cut tangle,
    and the residual cut - sum(pairwise); nonnegative residual means the
    monogamy constraint holds."""

    pivot: int
    partners: tuple[int, ...]
    pairwise: tuple[float, ...]
    cut: float
    residual: float
    passed: bool


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state.

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_i the
    eigenvalues of rho (sy x sy) rho* (sy x sy) in non-increasing order;
    the conjugate is taken entry-wise in the computational basis.  Zero iff
    the state is separable.
    """
    if rho.dimension != 4:
        raise ValueError("concurrence is defined for two-qubit states")
    return float(_concurrences(rho.matrix[None])[0])


def _concurrences(stack: np.ndarray) -> np.ndarray:
    """:func:`concurrence` of each member of a checked (k, 4, 4) stack."""
    # sqrt(l_i) equal the singular values of sqrt(rho) (sy x sy) sqrt(rho)^T,
    # which is numerically far better conditioned than eigenvalues of the
    # non-normal product rho (sy x sy) rho* (sy x sy).
    values, vectors = np.linalg.eigh(stack)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))[:, None, :]) @ vectors.conj().swapaxes(1, 2)
    roots = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return np.maximum(0.0, roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3])


def tangle(rho: DensityMatrix) -> float:
    """Squared concurrence; lies in [0, 1]."""
    c = concurrence(rho)
    return c * c


def cut_tangle(psi: DensityMatrix, pivot: int) -> float:
    """Tangle across the pivot|rest bipartition of a pure state:
    4 det(rho_pivot)."""
    if psi.largest_eigenvalue() < 1.0 - PURITY_TOL:
        raise ValueError("cut tangle requires a pure global state")
    if not 0 <= pivot < psi.qubits:
        raise ValueError("pivot qubit out of range")
    reduced = partial_trace(psi, (pivot,))
    det = np.linalg.det(reduced.matrix)
    return float(4.0 * det.real)


def ckw_check(psi: DensityMatrix, pivot: int, tol: float = 1e-9) -> TangleReport:
    """Distributed-entanglement trade-off for a pure 3- or 4-qubit state:
    sum of pairwise tangles with the pivot <= cut tangle."""
    n = psi.qubits
    if n not in (3, 4):
        raise ValueError("check supports 3- and 4-qubit pure states")
    cut = cut_tangle(psi, pivot)
    partners = tuple(q for q in range(n) if q != pivot)
    # The pair-reduced states, checked and measured as one stack.
    pairs = np.stack([_reduced_matrix(psi.matrix, (pivot, q)) for q in partners])
    _checked_densities(pairs)
    pairwise = tuple(float(c * c) for c in _concurrences(pairs))
    residual = cut - sum(pairwise)
    return TangleReport(
        pivot=pivot,
        partners=partners,
        pairwise=pairwise,
        cut=cut,
        residual=float(residual),
        passed=residual >= -tol,
    )
