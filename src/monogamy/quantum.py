"""Dense complex linear algebra for few-qubit states and +-1 observables.

Qubit ordering: party a holds the most significant qubit, so the basis state
|abc> has a's bit first.  Measurements are projective with spectrum {+1, -1};
the planar family cos(alpha)*sigma_x + sin(alpha)*sigma_z covers every
computation in this package, with sigma_y kept for context expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Behavior, Scenario, _is_json_number, _json_integer

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def planar_observable(alpha: float) -> np.ndarray:
    """Real traceless qubit observable cos(a)*sigma_x + sin(a)*sigma_z."""
    return np.cos(alpha) * SIGMA_X + np.sin(alpha) * SIGMA_Z


def bloch_observable(nx: float, ny: float, nz: float) -> np.ndarray:
    """Observable n . sigma for a unit Bloch vector n."""
    norm = float(np.sqrt(nx * nx + ny * ny + nz * nz))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("Bloch vector must have unit norm")
    return nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z


def _all_dichotomic(ops: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True iff every member of a (k, d, d) stack is Hermitian and squares
    to the identity."""
    if np.max(np.abs(ops - ops.conj().swapaxes(1, 2))) > tol:
        return False
    return bool(np.max(np.abs(ops @ ops - np.eye(ops.shape[1]))) <= tol)


def tensor(*ops: np.ndarray) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _checked_densities(stack: np.ndarray) -> np.ndarray:
    """Ascending spectra of a (k, d, d) stack of density matrices.

    Each check runs once over the whole stack: finite entries, square
    members of a power-of-2 dimension, Hermitian, unit trace and positive
    semidefinite (one ``eigvalsh`` call).  The first failed check raises
    ``ValueError`` with the message of a single :class:`DensityMatrix`."""
    m = np.asarray(stack, dtype=complex)
    # Every check below compares False against NaN.
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix has non-finite entries")
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("density matrix must be square")
    dim = m.shape[1]
    if 2 ** (dim.bit_length() - 1) != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    if np.max(np.abs(m - m.conj().swapaxes(1, 2))) > HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian")
    trace = np.trace(m, axis1=1, axis2=2)
    if np.max(np.abs(trace.real - 1.0)) > HERMITIAN_TOL or np.max(np.abs(trace.imag)) > HERMITIAN_TOL:
        raise ValueError("density matrix must have unit trace")
    spectra = np.linalg.eigvalsh(m)
    smallest = float(np.min(spectra[:, 0]))
    if smallest < -PSD_TOL:
        raise ValueError(f"density matrix has eigenvalue {smallest:.3e} < 0")
    return spectra


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive semidefinite operator on n qubits.

    The checks are those of :func:`_checked_densities` on a stack of one.
    ``matrix`` is a read-only copy, and the spectrum that the positivity
    check computed is kept, so :meth:`largest_eigenvalue` solves nothing."""

    matrix: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        spectrum = _checked_densities(m[None])[0]
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def qubits(self) -> int:
        return self.dimension.bit_length() - 1

    def largest_eigenvalue(self) -> float:
        return float(self._spectrum[-1])


def _unit_vector(vec: np.ndarray) -> np.ndarray:
    """A state vector, flattened and normalized; refuses non-finite or zero ones."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite entries")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("state vector must be nonzero")
    return v / norm


def density_from_vector(vec: np.ndarray) -> DensityMatrix:
    """Pure-state density matrix |psi><psi| from a state vector."""
    v = _unit_vector(vec)
    return DensityMatrix(np.outer(v, v.conj()))


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...]) -> DensityMatrix:
    """Trace out every qubit not in ``keep`` (indices from the most
    significant qubit); the kept qubits retain their relative order."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    n = rho.qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError("keep set out of range")
    return DensityMatrix(_reduced_matrix(rho.matrix, keep))


def _reduced_matrix(matrix: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """The unchecked matrix of :func:`partial_trace`, for in-range ``keep``."""
    n = matrix.shape[0].bit_length() - 1
    t = matrix.reshape((2,) * (2 * n))
    # Row axis of qubit q is q, column axis is n + q.
    for q in reversed(range(n)):
        if q not in keep:
            t = np.trace(t, axis1=q, axis2=t.ndim // 2 + q)
    dim = 2 ** len(keep)
    return t.reshape(dim, dim)


def eig_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum (descending) and orthonormal eigenbasis of a Hermitian matrix.

    Returns ``(values, vectors)`` with eigenvectors as columns; raises on
    non-Hermitian input.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(m)
    return values[::-1].copy(), vectors[:, ::-1].copy()


def expectation(rho: DensityMatrix, op: np.ndarray) -> float:
    """Tr[op rho] for a Hermitian operator; the imaginary part is checked to
    be below 1e-10 and discarded."""
    op = np.asarray(op, dtype=complex)
    if op.shape != rho.matrix.shape:
        raise ValueError("operator dimension does not match the state")
    val = complex(np.trace(op @ rho.matrix))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


# Outcome 0 is the +1 eigenspace of an observable, outcome 1 the -1 one.
_OUTCOME_SIGNS = np.array([1.0, -1.0])[:, None, None]


def born_behavior(rho: DensityMatrix, observables: list[list[np.ndarray]]) -> Behavior:
    """Behavior P(a..|A..) = Tr[tensor of (I +- O)/2 projectors times rho].

    ``observables[p][x]`` is party p's dichotomic observable for setting x;
    outcome 0 maps to the +1 projector and outcome 1 to the -1 projector.
    Party p acts on qubit p.
    """
    n_parties = len(observables)
    if 2 ** n_parties != rho.dimension:
        raise ValueError(
            f"{n_parties} single-qubit parties need dimension {2 ** n_parties}, "
            f"state has {rho.dimension}"
        )
    projectors = []
    for p, obs_list in enumerate(observables):
        if len(obs_list) == 0:
            raise ValueError(f"party {p} needs at least one observable")
        ops = [np.asarray(op, dtype=complex) for op in obs_list]
        if any(op.shape != (2, 2) for op in ops):
            raise ValueError("observables must be 2x2 for qubit parties")
        ops = np.stack(ops)
        if not _all_dichotomic(ops):
            raise ValueError("observable must square to the identity")
        # (setting, outcome, row, column)
        projectors.append((IDENTITY_2 + _OUTCOME_SIGNS * ops[:, None]) / 2)

    settings = tuple(len(row) for row in projectors)
    scenario = Scenario(n_parties, settings, (2,) * n_parties)
    # Tr[(P_1 (x) ... (x) P_n) rho] = sum P_1[i1, j1] ... P_n[in, jn] rho[j.., i..]
    # over the density tensor with row axes j.. and column axes i..: each
    # party in turn contracts its leading row and column axes and appends
    # its (setting, outcome) axes.
    t = rho.matrix.reshape((2,) * (2 * n_parties))
    for p, proj in enumerate(projectors):
        t = np.tensordot(t, proj, axes=([0, n_parties - p], [3, 2]))
    table = t.transpose(tuple(range(0, 2 * n_parties, 2)) + tuple(range(1, 2 * n_parties, 2))).real
    return Behavior(scenario, table)


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

def _ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def singlet() -> DensityMatrix:
    return density_from_vector((_ket("01") - _ket("10")) / np.sqrt(2))


def phi_plus() -> DensityMatrix:
    return density_from_vector((_ket("00") + _ket("11")) / np.sqrt(2))


def ghz() -> DensityMatrix:
    return density_from_vector((_ket("000") + _ket("111")) / np.sqrt(2))


def w_state() -> DensityMatrix:
    return density_from_vector((_ket("001") + _ket("010") + _ket("100")) / np.sqrt(3))


def cg_state(mu: float) -> DensityMatrix:
    """Three-qubit family mu|000> + sqrt((1-mu^2)/2) (|110> + |101>)."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    rest = np.sqrt((1.0 - mu * mu) / 2.0)
    return density_from_vector(mu * _ket("000") + rest * (_ket("110") + _ket("101")))


def product_state(factors: list[DensityMatrix]) -> DensityMatrix:
    if not factors:
        raise ValueError("product needs at least one factor")
    return DensityMatrix(tensor(*(f.matrix for f in factors)))


def named_state(kind: str, mu: float | None = None) -> DensityMatrix:
    states = {
        "singlet": singlet,
        "phi_plus": phi_plus,
        "ghz": ghz,
        "w": w_state,
    }
    if kind in states:
        return states[kind]()
    if kind == "cg":
        if mu is None:
            raise ValueError("the cg family needs a mu parameter")
        return cg_state(mu)
    raise ValueError(f"unknown state kind '{kind}'")


def random_pure_state(qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-distributed pure state on the given number of qubits."""
    dim = 2 ** qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return density_from_vector(v)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def state_to_json_dict(rho: DensityMatrix) -> dict:
    """Matrix entries as row-major (re, im) pairs."""
    entries = [[float(z.real), float(z.imag)] for z in rho.matrix.reshape(-1)]
    return {"dimension": rho.dimension, "entries": entries}


def state_from_json_dict(data: dict) -> DensityMatrix:
    if not isinstance(data, dict) or "dimension" not in data or "entries" not in data:
        raise ValueError("state JSON needs 'dimension' and 'entries' fields")
    dim = _json_integer(data["dimension"], "state JSON 'dimension'")
    if dim < 1:
        raise ValueError(f"state JSON 'dimension' must be positive, got {dim}")
    entries = data["entries"]
    if not isinstance(entries, list):
        raise ValueError("state JSON 'entries' must be a list of (re, im) pairs")
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    for k, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(_is_json_number(x) for x in entry)):
            raise ValueError(f"entry {k} must be a pair of real numbers (re, im)")
    flat = np.array([complex(re, im) for re, im in entries])
    return DensityMatrix(flat.reshape(dim, dim))
