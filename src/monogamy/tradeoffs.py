"""Trade-off inequalities between overlapping Bell values, polytope support
sweeps, and violation searches.

Conventions: in a three-party scenario a = party 0, b = party 1, c = party 2;
the two CHSH values chsh_ab and chsh_ac share party a's settings, which is
what creates the trade-offs.  All searches are deterministic given the
caller's random generator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import lp
from .bell import BellFunctional, chsh, collins_gisin, functional_row, relabeling_symmetries
from .bell import chsh_value as _behavior_chsh  # noqa: F401 - perfbench traces it
from .localpoly import deterministic_strategies, strategy_matrix  # noqa: F401 - perfbench traces it
from .localpoly import local_bound
from .model import (  # noqa: F401 - perfbench/spans.py wraps the row builders here
    Behavior,
    Scenario,
    definition_reports,
    no_signalling_constraints,
    normalization_constraints,
    ns_orbit_dual_rows,
    relabeling_index,
    symmetric_cg_index,
    symmetric_cg_readout,
)
from .quantum import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    _unit_vector,
    cg_state,
)

TSIRELSON = 2.0 * math.sqrt(2.0)
DEFAULT_CHECK_TOL = 1e-9

_CHSH = chsh()


# ---------------------------------------------------------------------------
# Points and check reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeoffPoint:
    """A pair or triple of CHSH values with optional context scalars.

    ``sigma_y`` holds per-party sigma_y expectations, ``corr_ac`` the plain
    a-c correlator at the first settings.
    """

    chsh_ab: float
    chsh_ac: float
    chsh_bc: float | None = None
    sigma_y: tuple[float, float, float] | None = None
    corr_ac: float | None = None

    def __post_init__(self):
        values = [self.chsh_ab, self.chsh_ac]
        if self.chsh_bc is not None:
            values.append(self.chsh_bc)
        for v in values:
            if not math.isfinite(v):
                raise ValueError("CHSH values must be finite")
            if abs(v) > 4.0 + 1e-9:
                raise ValueError(f"CHSH value {v} outside [-4, 4]")


@dataclass(frozen=True)
class CheckReport:
    """One inequality evaluation: passes iff slack = bound - lhs >= -tol."""

    inequality: str
    lhs: float
    bound: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class TripleReport:
    """Three-value trade-off bundle.

    ``main`` is the sigma_y-weighted bound on the sum of the three squared
    CHSH values; ``cylinders`` are the three pairwise square bounds; the
    naive flat bound of 8 on the squared sum is reported as well because it
    is a documented non-theorem (product states reach 12).
    """

    main: CheckReport
    cylinders: tuple[CheckReport, CheckReport, CheckReport]
    naive_lhs: float
    naive_bound: float
    naive_holds: bool


def _report(inequality: str, lhs: float, bound: float, tol: float) -> CheckReport:
    slack = bound - lhs
    return CheckReport(inequality, float(lhs), float(bound), float(slack), slack >= -tol)


def check_ns_tradeoff(p: TradeoffPoint, tol: float = DEFAULT_CHECK_TOL) -> CheckReport:
    """No-signalling trade-off: |chsh_ab| + |chsh_ac| <= 4."""
    return _report("NS-13", abs(p.chsh_ab) + abs(p.chsh_ac), 4.0, tol)


def check_tv_tradeoff(p: TradeoffPoint, tol: float = DEFAULT_CHECK_TOL) -> CheckReport:
    """Quantum trade-off: chsh_ab^2 + chsh_ac^2 <= 8."""
    return _report("TV-14", p.chsh_ab ** 2 + p.chsh_ac ** 2, 8.0, tol)


def check_strengthened(p: TradeoffPoint, tol: float = DEFAULT_CHECK_TOL) -> CheckReport:
    """Strengthened quantum trade-off:
    chsh_ab^2 + chsh_ac^2 <= 8 (1 - <sigma_y>_a^2)."""
    if p.sigma_y is None:
        raise ValueError("the strengthened check needs sigma_y context scalars")
    sy_a = p.sigma_y[0]
    return _report(
        "STRONG-21", p.chsh_ab ** 2 + p.chsh_ac ** 2, 8.0 * (1.0 - sy_a ** 2), tol
    )


def check_triple(p: TradeoffPoint, tol: float = DEFAULT_CHECK_TOL) -> TripleReport:
    """Trade-off for all three pair CHSH values.

    Main bound: sum of squares <= 12 - 4 (sum of squared sigma_y
    expectations); whether it is attainable everywhere is open, so only the
    inequality direction is checked.
    """
    if p.chsh_bc is None:
        raise ValueError("the triple check needs chsh_bc")
    if p.sigma_y is None:
        raise ValueError("the triple check needs sigma_y context scalars")
    squares = (p.chsh_ab ** 2, p.chsh_ac ** 2, p.chsh_bc ** 2)
    lhs = sum(squares)
    sy_sq = sum(v ** 2 for v in p.sigma_y)
    main = _report("TRIPLE-25", lhs, 12.0 - 4.0 * sy_sq, tol)
    cylinders = (
        _report("TV-14", squares[0] + squares[1], 8.0, tol),
        _report("TV-14", squares[0] + squares[2], 8.0, tol),
        _report("TV-14", squares[1] + squares[2], 8.0, tol),
    )
    return TripleReport(
        main=main,
        cylinders=cylinders,
        naive_lhs=float(lhs),
        naive_bound=8.0,
        naive_holds=lhs <= 8.0 + tol,
    )


def check_key_corollary(
    chsh_ab: float, corr_ac: float, tol: float = DEFAULT_CHECK_TOL
) -> CheckReport:
    """Key-rate corollary: chsh_ab^2 + 4 <AC>^2 <= 8."""
    return _report("KEY-31", chsh_ab ** 2 + 4.0 * corr_ac ** 2, 8.0, tol)


def behavior_checks(b: Behavior, tol: float = DEFAULT_CHECK_TOL) -> list[CheckReport]:
    """Trade-off checks derivable from a three-party behavior alone.

    The no-signalling and quantum pair bounds apply directly; the key-rate
    corollary uses the plain a-c correlator at the first settings.  Bounds
    that need state context (sigma_y expectations) are not evaluated here.
    """
    ab, ac, _, corr_ac = _table_terms(b)
    point = TradeoffPoint(ab, ac)
    return [check_ns_tradeoff(point, tol), check_tv_tradeoff(point, tol),
            check_key_corollary(ab, corr_ac, tol)]


# ---------------------------------------------------------------------------
# Pair values from behaviors and quantum states
# ---------------------------------------------------------------------------

def triple_scenario() -> Scenario:
    return Scenario(3, (2, 2, 2), (2, 2, 2))


def _table_terms(b: Behavior) -> list[float]:
    """The four ``_TABLE_TERMS`` on a 3-party, 2-setting, 2-outcome behavior."""
    if b.scenario != triple_scenario():
        raise ValueError("pair values need a 3-party, 2-setting, 2-outcome behavior")
    return (_TABLE_TERMS @ b.table.reshape(-1)).tolist()


def pair_values(b: Behavior) -> TradeoffPoint:
    """CHSH on the (a, b) and (a, c) pairs of a three-party behavior, party
    a's settings shared.  Each pair is read with the third party at setting
    0: on a signalling table, the marginal at context (0, 0, 0)."""
    return TradeoffPoint(*_table_terms(b)[:2])


def triple_values(b: Behavior) -> TradeoffPoint:
    """Pair values plus CHSH on the (b, c) pair, party a at setting 0."""
    return TradeoffPoint(*_table_terms(b)[:3])


# The moment basis (sigma_x, sigma_z, I, sigma_y), one operator P per row of
# _MOMENT_ROWS (P[a, x] at column 2a + x).  A planar observable cos(alpha)
# sigma_x + sin(alpha) sigma_z is the row (cos alpha, sin alpha) against its
# first two members; I (index 2) stands for an unmeasured qubit.
_MOMENT_BASIS = np.stack([SIGMA_X, SIGMA_Z, IDENTITY_2, SIGMA_Y])
_MOMENT_ROWS = _MOMENT_BASIS.reshape(4, 4)


def _moment_tensor(t: np.ndarray) -> np.ndarray:
    """4x4x4 moments <P_i (x) P_j (x) P_k> of a pure 3-qubit tensor over
    P = (sigma_x, sigma_z, I, sigma_y): the sum of P_i[a, x] P_j[b, y]
    P_k[c, z] rho[xyz, abc], one qubit per product."""
    rho = np.multiply.outer(t, t.conj()).transpose(3, 0, 4, 1, 5, 2).reshape(4, 16)
    return ((_MOMENT_ROWS @ (_MOMENT_ROWS @ rho).reshape(4, 4, 4)) @ _MOMENT_ROWS.T).real


def _planar_rows(angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


@functools.lru_cache(maxsize=32)
def _entry_tensors(entries: tuple[int, ...]) -> np.ndarray:
    """Rows P_i (x) P_j (x) P_k over ``_MOMENT_BASIS`` of the ``entries``
    16 i + 4 j + k, flattened and read-only.  They must stay this strided view
    of the krons' real part: a contiguous copy changes the last bits of
    ``tensors @ vec(v v^T)``, to which the direction search's L-BFGS-B
    paths are sensitive (at pi/8 + k pi/2 its 12/15/14/12 evaluations
    became 14/12/15/51, the 51 an abnormal line-search exit)."""
    b = _MOMENT_BASIS
    tensors = np.array([np.kron(np.kron(b[e // 16], b[e // 4 % 4]), b[e % 4]) for e in entries])
    tensors = tensors.real.reshape(len(entries), 64)
    tensors.setflags(write=False)
    return tensors


class _PairTerms:
    """The sum of weight * f on pair over ``terms`` of (pair, BellFunctional,
    weight) at planar settings of three qubits, as many angles per party as
    its terms give it, in party order.  It is linear in entries
    <P_i (x) P_j (x) P_k> of :func:`_moment_tensor`: each term's (sigma_x,
    sigma_z) pair correlators, then the Bloch components its functional
    weighs alone.  The top eigenvalue of :meth:`operator` is its maximum
    over states."""

    def __init__(self, terms):
        settings, self._terms, entries = [0, 0, 0], [], []
        for (p, q), f, weight in terms:
            if p == q or not {p, q} <= {0, 1, 2}:
                raise ValueError("pair must name two distinct parties of three qubits")
            for party, n in zip((p, q), f.settings):
                if settings[party] not in (0, n):
                    raise ValueError(f"party {party} has {settings[party]} settings and {n}")
                settings[party] = n
            start, bloch = len(entries), []
            # Flat moment-tensor indices: 42 is I on every qubit.
            entries += [42 + (i - 2) * 4 ** (2 - p) + (j - 2) * 4 ** (2 - q)
                        for i in (0, 1) for j in (0, 1)]
            for r, marginals in ((p, f.marginals_a), (q, f.marginals_b)):
                if marginals.any():
                    bloch.append((r, marginals, len(entries)))
                    entries += [42 + (i - 2) * 4 ** (2 - r) for i in (0, 1)]
            self._terms.append((p, q, f, float(weight), start, bloch))
        self.settings = tuple(settings)
        ends = itertools.accumulate(settings)
        self._slices = [slice(end - n, end) for n, end in zip(settings, ends)]
        self._tensors = _entry_tensors(tuple(entries))
        self._index = np.array(entries)

    def _coefficients(self, rows: np.ndarray) -> np.ndarray:
        """Term by term: weight * u_p^T W u_q, then weight * u_r^T marginals."""
        parts = [rows[s] for s in self._slices]
        pieces = []
        for p, q, f, weight, _, bloch in self._terms:
            pieces.append(weight * (parts[p].T @ f.correlators @ parts[q]).ravel())
            pieces += [weight * (parts[r].T @ marginals) for r, marginals, _ in bloch]
        return np.concatenate(pieces)

    def _gradient(self, rows: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The angle gradient of the coefficients dotted with entries ``g``: row
        derivatives W u_q G^T, W^T u_p G and Bloch terms, dotted with (-sin, cos)."""
        parts = [rows[s] for s in self._slices]
        d_rows = [0.0 * part for part in parts]
        for p, q, f, weight, start, bloch in self._terms:
            g_pq = weight * g[start:start + 4].reshape(2, 2)
            d_rows[p] = d_rows[p] + f.correlators @ parts[q] @ g_pq.T
            d_rows[q] = d_rows[q] + f.correlators.T @ parts[p] @ g_pq
            for r, marginals, k in bloch:
                d_rows[r] = d_rows[r] + np.outer(marginals, weight * g[k:k + 2])
        d_rows = np.concatenate(d_rows)
        return d_rows[:, 1] * rows[:, 0] - d_rows[:, 0] * rows[:, 1]

    def values(self, party_angles, m: np.ndarray) -> np.ndarray:
        """Each term's weighted value on the moment tensor ``m`` at each party's angles."""
        if tuple(len(angles) for angles in party_angles) != self.settings:
            raise ValueError(f"the parties need {self.settings} angles")
        rows = _planar_rows(np.concatenate(party_angles))
        products = self._coefficients(rows) * m.reshape(-1)[self._index]
        return np.add.reduceat(products, [term[4] for term in self._terms])

    def operator(self, angles: np.ndarray) -> np.ndarray:
        """The real symmetric 8x8 operator of the sum at the flat angles."""
        return (self._coefficients(_planar_rows(angles)) @ self._tensors).reshape(8, 8)

    def objective(self, angles: np.ndarray, m: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """Minus the sum and minus its gradient at the flat angles: on the
        moment tensor ``m`` of a fixed state or, without one, as the top
        eigenvalue of :meth:`operator`, whose gradient is that at its
        eigenvector v's entries v^T T_k v (Hellmann-Feynman)."""
        rows = _planar_rows(angles)
        coefficients = self._coefficients(rows)
        if m is None:
            values, vectors = np.linalg.eigh((coefficients @ self._tensors).reshape(8, 8))
            value, g = values[-1], self._tensors @ np.outer(vectors[:, -1], vectors[:, -1]).ravel()
        else:
            g = m.reshape(-1)[self._index]
            value = coefficients @ g
        return -float(value), -self._gradient(rows, g)


# CHSH_ab, CHSH_ac, CHSH_bc and the a-c correlator at the first settings: on
# states through _PairTerms, on tables as functional_row rows (read-only).
_FIRST_CORRELATOR = BellFunctional([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], [0.0, 0.0])
_TERMS = [(p, _CHSH, 1.0) for p in ((0, 1), (0, 2), (1, 2))] + [((0, 2), _FIRST_CORRELATOR, 1.0)]
_POINT_TERMS = _PairTerms(_TERMS)
_TABLE_TERMS = np.stack([w * functional_row(triple_scenario(), f, pair) for pair, f, w in _TERMS])
_TABLE_TERMS.setflags(write=False)


def _pure_vector(rho: DensityMatrix) -> np.ndarray:
    values, vectors = np.linalg.eigh(rho.matrix)
    if values[-1] < 1.0 - 1e-9:
        raise ValueError("state is not pure")
    return vectors[:, -1]


def state_pair_point(
    psi: DensityMatrix | np.ndarray,
    a_angles: tuple[float, float],
    b_angles: tuple[float, float],
    c_angles: tuple[float, float],
) -> TradeoffPoint:
    """All trade-off data of a pure 3-qubit state under planar measurements.

    Party a's two angles are shared by every pair value.  Fills the three
    CHSH values, per-party sigma_y expectations, and the plain a-c
    correlator at the first settings.  A state vector is normalized first,
    and refused like :func:`quantum.density_from_vector` refuses it.
    """
    vec = _pure_vector(psi) if isinstance(psi, DensityMatrix) else _unit_vector(psi)
    if vec.size != 8:
        raise ValueError("state must be a pure 3-qubit state")
    m = _moment_tensor(vec.reshape(2, 2, 2))
    ab, ac, bc, corr_ac = _POINT_TERMS.values((a_angles, b_angles, c_angles), m).tolist()
    sigma_y = (float(m[3, 2, 2]), float(m[2, 3, 2]), float(m[2, 2, 3]))
    return TradeoffPoint(chsh_ab=ab, chsh_ac=ac, chsh_bc=bc, sigma_y=sigma_y, corr_ac=corr_ac)


# ---------------------------------------------------------------------------
# Support functions over the correlation classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SupportPoint:
    theta: float
    value: float
    behavior: Behavior | None = None
    params: dict | None = None


def ns_maximum(
    scenario: Scenario, objective: np.ndarray, tol: float = lp.FEASIBILITY_TOL
) -> tuple[float, Behavior]:
    """Maximize a linear functional over the no-signalling polytope."""
    objectives = np.atleast_2d(np.asarray(objective, dtype=float))
    singletons = tuple((p,) for p in range(scenario.parties))
    values, tables, _ = _ns_maxima(scenario, objectives, singletons, tol)
    return values[0], tables[0]


def _ns_maxima(
    scenario: Scenario,
    objectives: np.ndarray,
    blocks: tuple[tuple[int, ...], ...],
    tol: float,
    relabelings: tuple = (),
) -> tuple[list[float], list[Behavior], list[lp.LpOutcome]]:
    """Maximize each row of ``objectives`` over the no-signalling tables
    fixed by permuting the parties within each of ``blocks``.  In the
    Collins-Gisin coordinates z of ``model.symmetric_cg_rows`` that is the
    maximum of ``objective @ z`` over z[0] = 1, the other entries free, and
    the rows ``constant * z[0] + free_t.T @ z[1:] >= 0``.  ``relabelings``,
    a group of relabelings (one ``model.Relabeling`` per party, empty for
    the trivial group), restricts the LP to the z they all fix, z = U w
    with w[0] = 1, keeping one row per orbit of rows (see
    ``_relabeled_dual_rows``).  HiGHS gets its dual: minimize
    ``objective[0] + constant @ lam`` over lam >= 0 with ``free_t @ lam =
    -objective[1:]``, one equality row per free coordinate and one column
    per row, whose right-hand side is the objective.  So the rows share one
    model, which ``lp.solve_stacked`` re-solves once per row, in the given
    order, each run starting from the previous optimal basis.  Each w[1:]
    is read from its run's equality duals, and refused with a RuntimeError
    unless the run is optimal, the table of z = U w has no entry below
    -10 * tol, its value is the dual value within 10 * tol (relative above
    1), and the dual, each multiplier spread evenly over the table entries
    of its orbit, is >= -10 * tol, solves the equality rows of ``cg_map``
    within 10 * tol and bounds the value within 10 * tol: the optimum on
    the whole polytope.  An objective that the symmetries do not fix leaves
    a residual of its asymmetry (Gatermann & Parrilo, J. Pure Appl. Algebra
    192, 95 (2004)): refused above 10 * tol, and below it the fixed tables'
    optimum passes.  ``_ns_tables`` re-checks the tables in one pass.
    Returns the values, the tables and the dual runs' outcomes: ``x`` is
    lam, ``duals`` is w[1:] and ``value`` is objective[0] minus the
    optimum."""
    if relabelings:
        constant, free_t, expand, orbit = _relabeled_dual_rows(scenario, blocks, relabelings)
    else:
        constant, free_t, expand = ns_orbit_dual_rows(scenario, blocks)
        orbit = np.arange(constant.size)
    in_w = objectives @ expand
    program = lp.LinearProgram(-constant, eq_lhs=free_t, eq_rhs=-in_w[0, 1:])
    outcomes = lp.solve_stacked(program, -in_w[:, 1:], tol)
    for outcome in outcomes:
        if outcome.status != lp.LpStatus.OPTIMAL:
            raise RuntimeError(f"no-signalling LP failed: {outcome.status} {outcome.message}")
    # Each run maximized -constant @ lam, which is objective[0] minus the
    # primal optimum; its derivative by the right-hand side -objective[j]
    # is the primal optimum's derivative by objective[j], which is w[j].
    w = np.hstack([np.ones((len(outcomes), 1)), np.stack([outcome.duals for outcome in outcomes])])
    # Contiguous rows: BLAS may add a strided vector's products in another order.
    points = np.ascontiguousarray((expand @ w.T).T)
    values = [float(objective @ x) for objective, x in zip(objectives, points)]
    # Every positivity row of the whole polytope is an entry of the table.
    residuals = np.max(-points, axis=1, initial=0.0)
    gaps = np.array(values) - (in_w[:, 0] - np.array([outcome.value for outcome in outcomes]))
    kept = orbit[symmetric_cg_index(scenario, blocks)]
    lam = np.stack([outcome.x for outcome in outcomes])[:, kept] / np.bincount(kept)[kept]
    # The whole polytope's rows, one per table entry: model.cg_map.
    _, _, cg = ns_orbit_dual_rows(scenario, tuple((p,) for p in range(scenario.parties)))
    lifted = (lam + objectives) @ cg
    dual_residuals = np.abs(lifted[:, 1:]).max(axis=1, initial=0.0)
    for value, residual, gap, low, dual_residual, bound in zip(
        values, residuals, gaps, lam.min(axis=1), dual_residuals, lifted[:, 0].tolist()
    ):
        scale = 10 * tol * max(1.0, abs(value))
        if residual > 10 * tol:
            raise RuntimeError(f"no-signalling LP optimum has row residual {residual:.3e}")
        if abs(gap) > scale:
            raise RuntimeError(f"no-signalling LP optimum {value!r} has duality gap {gap:.3e}")
        if low < -10 * tol or dual_residual > 10 * tol or abs(bound - value) > scale:
            raise RuntimeError(
                f"no-signalling LP dual on the table entries: smallest multiplier {low:.3e}, "
                f"equality residual {dual_residual:.3e}, bound {bound!r} for optimum {value!r}"
            )
    return values, _ns_tables(scenario, points, tol), outcomes


@functools.lru_cache(maxsize=8)
def _relabeled_dual_rows(scenario: Scenario, blocks: tuple[tuple[int, ...], ...],
                         relabelings: tuple) -> tuple:
    """The dual rows of ``_ns_maxima`` over the CG coordinates z fixed by
    the group ``relabelings``: ``(constant, free_t, expand @ U, orbit)``.
    Each relabeling's flat-table permutation p maps onto the coordinates
    as an integer matrix M, read off the permuted rows by
    ``model.symmetric_cg_readout`` and refused with ValueError unless
    ``expand @ M == expand[p]`` exactly.  To leading order in the
    coordinates' degree each M permutes the coordinates up to sign, so the
    columns of the Reynolds average of the M's that come first in their
    leading orbit and have a nonzero diagonal entry are a rational basis U
    of the fixed subspace, column 0 the constant.  Rows in one orbit under
    the permutations coincide on it, and ``orbit`` maps each row to the
    one kept, the first.  Memoised and returned read-only."""
    _, _, expand = ns_orbit_dual_rows(scenario, blocks)
    index = symmetric_cg_index(scenario, blocks)
    first = np.unique(index, return_index=True)[1]
    readout, degree = symmetric_cg_readout(scenario, blocks)
    n = readout.shape[0]
    moves, leads, images = [], [np.arange(n)], [np.arange(first.size)]
    for relabeling in relabelings:
        perm = relabeling_index(scenario, relabeling)
        move = (readout @ expand[perm[first]]).tocsr()
        if (expand @ move != expand[perm]).nnz:
            raise ValueError(f"relabeling {relabeling} does not map the CG coordinates of "
                             f"blocks {blocks} onto themselves")
        entries = move.tocoo()
        same = degree[entries.row] == degree[entries.col]
        if (np.bincount(entries.row[same], minlength=n) != 1).any() or (
                np.abs(entries.data[same]) != 1).any():
            raise ValueError(f"relabeling {relabeling} does not permute the CG coordinates "
                             "up to sign")
        lead = np.empty(n, dtype=np.int64)
        lead[entries.row[same]] = entries.col[same]
        moves.append(move)
        leads.append(lead)
        images.append(index[perm[first]])
    average = functools.reduce(lambda a, b: a + b, moves) / len(moves)
    kept = (np.min(leads, axis=0) == np.arange(n)) & (average.diagonal() != 0)
    basis = average.tocsc()[:, np.flatnonzero(kept)]
    kept_rows, orbit = np.unique(np.min(images, axis=0), return_inverse=True)
    rows = (expand[first[kept_rows]] @ basis).tocsc()
    constant = rows[:, [0]].toarray().ravel()
    free_t = rows[:, 1:].T.tocsr()
    expand_w = (expand @ basis).tocsr()
    for part in (constant, orbit, free_t.data, free_t.indices, free_t.indptr,
                 expand_w.data, expand_w.indices, expand_w.indptr):
        part.setflags(write=False)
    return constant, free_t, expand_w, orbit


def _lp_record(outcome: lp.LpOutcome, **context) -> dict:
    """What an LP run was for (``context``), its HiGHS iterations, whether
    it started warm, and the rows, columns and nonzeros HiGHS received."""
    return {
        **context,
        "iterations": outcome.iterations,
        "warm": outcome.stats.warm,
        "rows": outcome.stats.rows,
        "cols": outcome.stats.cols,
        "nnz": outcome.stats.nnz,
    }


def _ns_tables(scenario: Scenario, points: np.ndarray, tol: float) -> list[Behavior]:
    """LP solutions, one per row of ``points``, clipped to behaviors and
    re-checked against the model's own definitions, every party's marginal
    and every context's normalization, in one pass over the stack at the
    LP's 10 * tol acceptance: the LP itself verified only the positivity of
    its coordinates' tables."""
    tables = np.clip(points, 0.0, None).reshape((-1,) + scenario.table_shape)
    for i, (validity, signalling) in enumerate(definition_reports(scenario, tables, 10 * tol)):
        if not (signalling.is_no_signalling and validity.passed):
            raise RuntimeError(
                f"no-signalling LP optimum of objective {i} fails the definitions: signalling "
                f"{signalling.max_violation:.3e}, normalization "
                f"{validity.max_normalization_deviation:.3e}"
            )
    return [Behavior(scenario, table) for table in tables]


def _grid(values, name: str) -> list[float]:
    """A grid of directions or mu values as floats; ValueError, naming the
    argument, unless it has exactly one dimension."""
    if np.ndim(values) != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {np.shape(values)}")
    return [float(value) for value in values]


def _directions(thetas) -> list[float]:
    """Support directions as floats; ValueError unless they are a
    one-dimensional grid of finite values."""
    thetas = _grid(thetas, "thetas")
    if not all(math.isfinite(theta) for theta in thetas):
        raise ValueError("support directions must be finite")
    return thetas


def ns_support(thetas: np.ndarray, tol: float = lp.FEASIBILITY_TOL) -> list[SupportPoint]:
    """Support function of the no-signalling region in the
    (chsh_ab, chsh_ac) plane: per direction, the LP maximum of
    cos(theta) chsh_ab + sin(theta) chsh_ac.  Every direction is a
    right-hand side of one LP model, re-solved in the order of theta mod
    2 pi so that each run warm-starts from its neighbour's optimal basis;
    the points come back in input order.  Each point's ``params`` hold its
    own run's record: its HiGHS iterations (0 when the previous basis was
    already optimal), whether it started warm, and the rows, columns and
    nonzeros HiGHS received."""
    thetas = _directions(thetas)
    if not thetas:
        return []
    obj_ab, obj_ac = _TABLE_TERMS[:2]
    order = sorted(range(len(thetas)), key=lambda i: thetas[i] % (2.0 * math.pi))
    cos_t = np.array([math.cos(thetas[i]) for i in order])[:, None]
    sin_t = np.array([math.sin(thetas[i]) for i in order])[:, None]
    values, tables, outcomes = _ns_maxima(
        triple_scenario(), cos_t * obj_ab + sin_t * obj_ac, ((0,), (1,), (2,)), tol
    )
    points = [None] * len(thetas)
    for i, value, table, outcome in zip(order, values, tables, outcomes):
        points[i] = SupportPoint(thetas[i], value, table, _lp_record(outcome))
    return points


def local_support(thetas: np.ndarray) -> list[SupportPoint]:
    """Support function of the local region: exact maximum over the
    deterministic-strategy vertices.  A non-finite direction raises
    ValueError."""
    thetas = _directions(thetas)
    scenario = triple_scenario()
    vertices = strategy_matrix(scenario)
    ab, ac = _TABLE_TERMS[0] @ vertices, _TABLE_TERMS[1] @ vertices
    points = []
    for theta in thetas:
        values = math.cos(theta) * ab + math.sin(theta) * ac
        best = int(np.argmax(values))
        points.append(
            SupportPoint(
                float(theta),
                float(values[best]),
                Behavior(scenario, vertices[:, best].reshape(scenario.table_shape)),
            )
        )
    return points


_LBFGSB = "scipy.optimize._lbfgsb"


def minimize(objective, x0: np.ndarray) -> SimpleNamespace:
    """Local minimum of ``objective``, which returns a value and its
    gradient, from the float vector ``x0`` by L-BFGS-B without bounds
    (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1190 (1995)): the
    reverse-communication loop over ``setulb``, the compiled routine that
    scipy ships in ``scipy.optimize._lbfgsb``, loaded by ``lp._binding``
    without the ``scipy.optimize`` package.  It keeps the settings and the
    protocol of scipy 1.17's ``minimize(objective, x0, method="L-BFGS-B",
    jac=True, options={"ftol": 1e-15, "gtol": 1e-10})``, and so its results
    to the bit: 10 corrections, at most 20 line-search steps, 15 000
    iterations and 15 000 evaluations, one evaluation at ``x0`` and then one
    at each new point that ``setulb`` asks for, each on a copy.  Returns
    ``fun`` (the last value), ``x`` and ``nfev`` (the evaluations).  Every
    search goes through this module attribute.  A ``_lbfgsb`` without
    scipy 1.17's ``setulb`` raises ImportError naming scipy's version."""
    setulb = getattr(lp._binding(_LBFGSB), "setulb", None)
    if setulb is None:
        raise _unmatched_lbfgsb()
    m, maxls, limit = 10, 20, 15000
    factr, pgtol = 1e-15 / np.finfo(float).eps, 1e-10
    x = np.array(x0, dtype=np.float64)
    n = x.size
    evaluated = x.copy()
    fun, grad = objective(x.copy())
    nfev, iterations = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    lower, upper = np.zeros((2, n))
    nbd, iwa = np.zeros(n, np.int32), np.zeros(3 * n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    task, ln_task, lsave, isave = (np.zeros(k, np.int32) for k in (2, 2, 4, 44))
    dsave = np.zeros(29)
    while True:
        try:
            setulb(m, x, lower, upper, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave,
                   dsave, maxls, ln_task)
        except TypeError as err:
            raise _unmatched_lbfgsb() from err
        if task[0] == 3:
            # setulb asks for the value and gradient at x.
            if not np.array_equal(x, evaluated):
                evaluated = x.copy()
                fun, grad = objective(x.copy())
                nfev += 1
            f, g = fun, np.atleast_1d(grad).astype(np.float64)
        elif task[0] == 1:
            # A new iterate: stop (task 5) at a limit.
            iterations += 1
            if iterations >= limit:
                task[:] = 5, 504
            elif nfev > limit:
                task[:] = 5, 502
        else:
            return SimpleNamespace(fun=fun, x=x, nfev=nfev)


def _unmatched_lbfgsb() -> ImportError:
    """The error for a ``_lbfgsb`` that ``minimize`` cannot drive."""
    import scipy

    return ImportError(f"the {_LBFGSB} of scipy {scipy.__version__} lacks scipy 1.17's setulb")


def _best_of(objective, starts: list[np.ndarray]) -> tuple[float, np.ndarray | None, int]:
    """Best local maximum over the starts, one ``minimize`` call each:
    value, argument and summed objective evaluations.  ``objective``
    returns the negated value and its gradient.  The first start wins a
    tie; with no starts the value is -inf and the argument None."""
    best_value, best_x, evaluations = -np.inf, None, 0
    for x0 in starts:
        result = minimize(objective, x0)
        evaluations += result.nfev
        if -result.fun > best_value:
            best_value, best_x = float(-result.fun), result.x
    return best_value, best_x, evaluations


def _multistart(grid: list[float], restarts: int, rng: np.random.Generator,
                seeds=(), size: int = 6) -> list[tuple[float, list[np.ndarray]]]:
    """Every search's starts, built here: each grid value with ``seeds``
    and then ``restarts`` uniform random points of [-pi, pi]^size, drawn
    from ``rng`` in grid order.  A negative ``restarts`` raises
    ValueError."""
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    return [(value, list(seeds) + [rng.uniform(-math.pi, math.pi, size) for _ in range(restarts)])
            for value in grid]


# Angles (a0, a1, b0, b1, c0, c1) of the two maximally violating pair
# witnesses: CHSH_ab at Tsirelson with c on sigma_z, and CHSH_ac with b there.
_WITNESS_SEEDS = (
    np.array([0, math.pi / 2, math.pi / 4, -math.pi / 4, math.pi / 2, math.pi / 2]),
    np.array([0, math.pi / 2, math.pi / 2, math.pi / 2, math.pi / 4, -math.pi / 4]),
)


def quantum_boundary_search(
    thetas: np.ndarray, restarts: int, rng: np.random.Generator
) -> list[SupportPoint]:
    """Quantum support function in the (chsh_ab, chsh_ac) plane.

    For fixed planar angles the maximum of cos(theta) chsh_ab +
    sin(theta) chsh_ac over 3-qubit states is the top eigenvalue of
    cos(theta) CHSH_ab (x) I + sin(theta) CHSH_ac (two :class:`_PairTerms`),
    so the state is solved exactly and a multi-start L-BFGS-B search runs
    over the six angles only (a's settings shared), on the eigenvalue's
    exact gradient: the two witness seeds plus ``restarts`` uniform random
    starts.  The Toner-Verstraete bound makes the support 2*sqrt(2) in
    every direction; a value above it by more than 1e-9 raises, as does an
    eigenvector whose moment tensor gives another value.  A non-finite
    direction, a grid that is not one-dimensional or a negative
    ``restarts`` raises ValueError.

    ``params`` holds ``x`` (the optimal state's real and imaginary parts,
    then the six angles), ``starts``, ``evaluations`` (the summed
    eigenvalue-and-gradient evaluations) and ``ceiling_gap`` (2*sqrt(2)
    minus the value).
    """
    points = []
    for theta, starts in _multistart(_directions(thetas), restarts, rng, _WITNESS_SEEDS):
        terms = _PairTerms([((0, 1), _CHSH, math.cos(theta)), ((0, 2), _CHSH, math.sin(theta))])
        best_value, best_x, evaluations = _best_of(terms.objective, starts)
        if best_value > TSIRELSON + 1e-9:
            raise RuntimeError(f"quantum search exceeded the Tsirelson ceiling: {best_value}")
        state = np.linalg.eigh(terms.operator(best_x))[1][:, -1]
        m = _moment_tensor(state.reshape(2, 2, 2))
        check = float(np.sum(terms.values((best_x[:2], best_x[2:4], best_x[4:]), m)))
        if abs(check - best_value) > 1e-9:
            raise RuntimeError(
                f"quantum search eigenvector gives {check}, not its eigenvalue {best_value}"
            )
        params = {"x": np.concatenate([state, np.zeros(8), best_x]), "starts": len(starts),
                  "evaluations": evaluations, "ceiling_gap": TSIRELSON - best_value}
        points.append(SupportPoint(theta, best_value, params=params))
    return points


# Kept closed: _PairTerms on |000> at settings (beta, beta + pi/2) gives the same values but took
# 97-99 ms, not 51-60, for separable_orthogonal_max(16) and a 1-restart 32-direction support.
def _separable_value_grad(betas: np.ndarray, weights) -> tuple[float, np.ndarray]:
    """Minus sum_k weights[k] CHSH(beta_0, beta_k+1) over planar product
    qubits with sigma_x / sigma_z settings on both sides, and minus its
    gradient.  With u = (<sigma_x>, <sigma_z>) = (sin beta, cos beta) a pair
    value is u_0^T W u_k, W the CHSH correlator weights."""
    u = np.stack([np.sin(betas), np.cos(betas)], axis=1)
    du = np.stack([u[:, 1], -u[:, 0]], axis=1)
    w, weights = _CHSH.correlators, np.asarray(weights)
    pair = w.T @ u[0]
    d_first = du[0] @ w @ (weights @ u[1:])
    return -float(weights @ (u[1:] @ pair)), -np.concatenate([[d_first], weights * (du[1:] @ pair)])


def separable_orthogonal_max(restarts: int, rng: np.random.Generator) -> float:
    """Numerical maximum of |CHSH| over product two-qubit states with fixed
    orthogonal sigma_x / sigma_z settings on both sides: the larger
    :func:`separable_orthogonal_support` value at theta = 0 and pi, where
    CHSH_ac has no weight (sin pi is 1.2e-16).  ``restarts`` below 1
    raises ValueError."""
    points = separable_orthogonal_support(np.array([0.0, math.pi]), restarts, rng)
    return max(point.value for point in points)


def separable_orthogonal_support(
    thetas: np.ndarray, restarts: int, rng: np.random.Generator
) -> list[SupportPoint]:
    """Support trace of the product-state region under orthogonal settings:
    per direction, maximize over planar Bloch angles of three product
    qubits.  ``restarts`` below 1, a non-finite direction or a grid that
    is not one-dimensional raises ValueError.

    ``params`` holds ``starts``, ``evaluations`` (the summed
    value-and-gradient evaluations) and ``ceiling_gap``: the closed form
    sqrt(2) (|cos theta| + |sin theta|) minus the value."""
    # The search starts only from random points, so it needs at least one.
    if restarts < 1:
        raise ValueError(f"the separable search needs at least one restart, got {restarts}")
    points = []
    for theta, starts in _multistart(_directions(thetas), restarts, rng, size=3):
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        value, _, evaluations = _best_of(
            lambda x, c=cos_t, s=sin_t: _separable_value_grad(x, [c, s]), starts
        )
        ceiling = math.sqrt(2.0) * (abs(cos_t) + abs(sin_t))
        points.append(
            SupportPoint(
                float(theta),
                value,
                params={
                    "starts": len(starts),
                    "evaluations": evaluations,
                    "ceiling_gap": ceiling - value,
                },
            )
        )
    return points


SWEEP_CLASSES = ("local", "quantum", "ns", "separable-orthogonal")


def sweep(
    kind: str,
    grid: int,
    restarts: int,
    rng: np.random.Generator,
    tol: float = lp.FEASIBILITY_TOL,
) -> list[SupportPoint]:
    """Support-function trace of one correlation class over a full-circle
    theta grid."""
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    if kind == "local":
        return local_support(thetas)
    if kind == "quantum":
        return quantum_boundary_search(thetas, restarts, rng)
    if kind == "ns":
        return ns_support(thetas, tol)
    if kind == "separable-orthogonal":
        return separable_orthogonal_support(thetas, restarts, rng)
    raise ValueError(f"unknown sweep class '{kind}'")


# ---------------------------------------------------------------------------
# Double violation of the three-setting functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CgSearchResult:
    """The best family member; ``starts`` and ``evaluations`` are summed over every mu."""

    mu: float
    a_angles: tuple[float, float, float]
    b_angles: tuple[float, float, float]
    c_angles: tuple[float, float, float]
    value_ab: float
    value_ac: float
    starts: int
    evaluations: int

    @property
    def min_value(self) -> float:
        return min(self.value_ab, self.value_ac)


_CG = collins_gisin()
_CG_TERMS = _PairTerms([((0, 1), _CG, 1.0), ((0, 2), _CG, 1.0)])


def cg_values_for_state(
    psi: DensityMatrix,
    a_angles: tuple[float, float, float],
    b_angles: tuple[float, float, float],
    c_angles: tuple[float, float, float],
) -> tuple[float, float]:
    """Three-setting functional values on the (a,b) and (a,c) reduced states
    of a pure 3-qubit state, with party a's angles shared."""
    m = _moment_tensor(_pure_vector(psi).reshape(2, 2, 2))
    return tuple(_CG_TERMS.values((a_angles, b_angles, c_angles), m).tolist())


def _mirror_angles(u: float, w: float) -> np.ndarray:
    """Six planar angles with the first two settings of each side mirrored
    about the -z axis and the third setting at sigma_x; the violating
    optima of the three-setting functional have this shape."""
    a0 = math.atan2(-math.cos(u), math.sin(u))
    a1 = math.atan2(-math.cos(u), -math.sin(u))
    b0 = math.atan2(-math.cos(w), math.sin(w))
    b1 = math.atan2(-math.cos(w), -math.sin(w))
    return np.array([a0, a1, 0.0, b0, b1, 0.0])


def cg_double_violation_search(
    mu_values: np.ndarray, restarts: int, rng: np.random.Generator
) -> CgSearchResult:
    """Search for a family member whose (a,b) and (a,c) correlations both
    exceed the local bound 4 of the three-setting functional.

    The b and c measurement angles are tied together, which makes the two
    values equal by the b-c exchange symmetry of the family; the search then
    maximizes the common value over the remaining six angles per mu, by
    L-BFGS-B on its exact gradient.  An empty ``mu_values``, one that is
    not one-dimensional, one with a value that is not finite or lies outside
    [0, 1], or a negative ``restarts`` raises ValueError before any search.
    """
    mu_values = _grid(mu_values, "mu_values")
    if not mu_values:
        raise ValueError("the double-violation search needs at least one mu value")
    bad = [mu for mu in mu_values if not 0.0 <= mu <= 1.0]
    if bad:
        raise ValueError(f"mu values must lie in [0, 1], got {bad[0]!r}")
    terms = _PairTerms([((0, 1), _CG, 1.0)])
    seeds = [_mirror_angles(0.53, 0.25), _mirror_angles(0.9, 0.45), _mirror_angles(0.2, 0.1)]
    best: CgSearchResult | None = None
    total_starts = total_evaluations = 0
    for mu, starts in _multistart(mu_values, restarts, rng, seeds):
        m = _moment_tensor(_pure_vector(cg_state(mu)).reshape(2, 2, 2))
        _, x, evaluations = _best_of(lambda x, m=m: terms.objective(x, m), starts)
        total_starts += len(starts)
        total_evaluations += evaluations
        a_angles, b_angles = tuple(x[:3].tolist()), tuple(x[3:].tolist())
        value_ab, value_ac = _CG_TERMS.values((a_angles, b_angles, b_angles), m).tolist()
        result = CgSearchResult(
            mu=mu, a_angles=a_angles, b_angles=b_angles, c_angles=b_angles,
            value_ab=value_ab, value_ac=value_ac, starts=len(starts), evaluations=evaluations,
        )
        if best is None or result.min_value > best.min_value:
            best = result
    return replace(best, starts=total_starts, evaluations=total_evaluations)


# ---------------------------------------------------------------------------
# Four-party probe for the three-setting functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PbProbeReport:
    """Findings of the four-party no-signalling probe.

    ``max_sum`` is the LP maximum of |C_ab| + |C_ac| + |C_ad| over the
    no-signalling polytope (via the eight sign patterns); the bound of
    3 * local_bound applies to rewritten functionals without negative
    coefficients, so the comparison is reported rather than asserted.
    ``t_star`` is the optimum of max t subject to C_ab + C_ac >= t and
    C_ab + C_ad >= t, computed as the maximum of their mean over the
    tables fixed by swapping c and d, and ``t_behavior`` is that table;
    a value above 2 * local_bound would realize the simultaneous
    double-violation conjecture.  ``lps`` holds one record per LP solved,
    in solve order: its ``blocks`` of parties permuted among themselves,
    ``relabelings`` (the order of the functional's relabeling group, 4),
    HiGHS ``iterations``, ``warm`` (False: each LP is a model of its own),
    and the ``rows``, ``cols`` and ``nnz`` HiGHS received: 25 x 104 over
    blocks b, c, d and 47 x 221 over two blocks.  Each value's dual is
    certified on all 1 296 table entries, not only on the rows kept.
    """

    sign_values: tuple[tuple[tuple[int, int, int], float], ...]
    max_sum: float
    pb_bound: float
    exceeds_pb_form_bound: bool
    argmax_behavior: Behavior
    t_star: float
    t_threshold: float
    t_exceeds: bool
    t_behavior: Behavior
    lps: tuple[dict, ...]


def pb_scenario() -> Scenario:
    return Scenario(4, (3, 3, 3, 3), (2, 2, 2, 2))


def pb_probe(tol: float = lp.FEASIBILITY_TOL) -> PbProbeReport:
    """The maximum of |C_ab| + |C_ac| + |C_ad| over the four-party
    no-signalling polytope, through its eight sign patterns, plus t* for
    the simultaneous double-violation question.

    Parties b, c and d enter the objective and the polytope symmetrically,
    so a sign pattern has the optimum of its sorted representative
    (+ before -), reached at the representative's table with those parties
    permuted.  Four LPs, one per representative, fill all eight patterns.
    Swapping c and d maps C_ab + C_ac onto C_ab + C_ad, so averaging a
    table with its swap makes the two sums equal without lowering the
    smaller: t* is the maximum of their mean C_ab + (C_ac + C_ad) / 2, the
    fifth LP, and both sums are re-checked to reach it on the returned
    table within 10 * tol.  Each LP runs over the tables fixed by the peer
    permutations that fix its objective, those within its blocks of peers
    with equal signs: b, c, d for (+++) and (---), b, c for (++-), and
    c, d for (+--) and the mean, and further over the tables fixed by the
    functional's relabeling symmetries (``bell.relabeling_symmetries``),
    g_A on a and the same g_B on b, c and d, which fix every objective.
    ``_ns_maxima`` certifies each optimum's dual on all 1 296 table entries.
    """
    scenario = pb_scenario()
    functional = collins_gisin()
    bound = local_bound(functional)
    ab, ac, ad = (
        functional_row(scenario, functional, pair) for pair in ((0, 1), (0, 2), (0, 3))
    )

    # Each pair (g_A, g_B) fixes every pair's functional, so g_A on a and
    # g_B on b, c and d fix each objective and commute with the blocks.
    group = tuple((g_a,) + (g_b,) * 3 for g_a, g_b in relabeling_symmetries(functional))
    lps = []

    def maximum(objective, blocks):
        (value,), (table,), (outcome,) = _ns_maxima(scenario, objective[None], blocks, tol, group)
        lps.append(_lp_record(outcome, blocks=blocks, relabelings=len(group)))
        return value, table

    optima = {}
    sign_values = []
    best_value, best_behavior = -np.inf, None
    for signs in itertools.product((1, -1), repeat=3):
        representative = tuple(sorted(signs, reverse=True))
        if representative not in optima:
            objective = sum(s * obj for s, obj in zip(representative, (ab, ac, ad)))
            peers = itertools.groupby((1, 2, 3), key=lambda p: representative[p - 1])
            optima[representative] = maximum(
                objective, ((0,),) + tuple(tuple(block) for _, block in peers)
            )
        value, behavior = optima[representative]
        sign_values.append((signs, value))
        # Each representative comes first in its orbit in product order, so
        # the first maximum, which ties keep, is a representative's own table.
        if value > best_value:
            best_value, best_behavior = value, behavior

    t_star, t_behavior = maximum(ab + (ac + ad) / 2.0, ((0,), (1,), (2, 3)))
    x = t_behavior.table.reshape(-1)
    sums = [float((ab + f) @ x) for f in (ac, ad)]
    if min(sums) < t_star - 10 * tol:
        raise RuntimeError(f"max-min optimum {t_star!r} exceeds its rows on the full table: {sums}")

    return PbProbeReport(
        sign_values=tuple(sign_values),
        max_sum=best_value,
        pb_bound=3.0 * bound,
        exceeds_pb_form_bound=best_value > 3.0 * bound + 1e-6,
        argmax_behavior=best_behavior,
        t_star=t_star,
        t_threshold=2.0 * bound,
        t_exceeds=t_star > 2.0 * bound + 1e-6,
        t_behavior=t_behavior,
        lps=tuple(lps),
    )
