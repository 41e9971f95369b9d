"""N-shareability of two-party behaviors.

Two extension notions are implemented for a bipartite behavior P(a,b|A,B)
extended with N clones of the second party:

- unrestricted: the explicit delta construction forcing all clone outcomes
  equal; it always exists and is generally signalling, and its pair marginals
  (taken at the full setting context) reproduce the base with the first
  clone's setting driving the response;
- no-signalling: LP feasibility for a clone-symmetric no-signalling
  (N+1)-party behavior whose (a, b_i) pair marginals all equal the base.  A
  symmetric behavior depends on the clones only through the multiset of
  their (setting, outcome) pairs, so the LP has one variable per Alice
  (setting, outcome) and multiset, and no symmetry rows: 4*C(N+3, 3) variables
  for a 2x2 base (140 at N = 4) against 4^(N+1) table entries (1 024).  A
  solution is expanded to the full table, and the certificate's residuals
  are computed there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import lp
from .model import (  # noqa: F401 - perfbench/spans.py wraps the row builders here
    Behavior,
    Scenario,
    is_no_signalling,
    marginal,
    marginal_behavior,
    no_signalling_constraints,
    normalization_constraints,
    validate_behavior,
)
from .tradeoffs import _ns_maxima

if TYPE_CHECKING:
    import scipy.sparse as sp

EXTENSION_TABLE_CAP = 200_000


@dataclass(frozen=True)
class ExtensionSpec:
    """What was extended: the base scenario, the clone count, the mode, and
    the feasibility tolerance used."""

    base_settings: tuple[int, int]
    base_outcomes: tuple[int, int]
    clones: int
    mode: str  # "unrestricted" or "ns"
    tol: float = 0.0


@dataclass(frozen=True, eq=False)
class ExtensionCertificate:
    """(N+1)-party extension behavior with its verification residuals.

    ``symmetry_residual`` is the largest deviation from clone-exchange
    symmetry: in ns mode clones are swapped jointly in outcomes and settings,
    and it is 0 by construction, since the table is expanded from
    clone-symmetric variables; in unrestricted mode outcomes are swapped at
    fixed settings (the delta construction's settings enter through the
    first clone only).
    ``marginal_residual`` is the largest deviation of any clone's pair
    marginal from the base behavior.
    """

    spec: ExtensionSpec
    behavior: Behavior
    symmetry_residual: float
    marginal_residual: float


@dataclass(frozen=True)
class InfeasibleExtension:
    """No extension exists.  ``violation`` is the minimized total (L1)
    violation of the clone-symmetric LP's rows, which exceeds the feasibility
    tolerance exactly when no extension exists; its size is not comparable
    with the violation of a full-table LP."""

    spec: ExtensionSpec
    violation: float


@dataclass(frozen=True)
class ShareabilityResult:
    shareable: bool
    score: float
    certificate: ExtensionCertificate | None


def _extended_scenario(base: Scenario, n_clones: int) -> Scenario:
    settings = (base.settings[0],) + (base.settings[1],) * n_clones
    outcomes = (base.outcomes[0],) + (base.outcomes[1],) * n_clones
    return Scenario(1 + n_clones, settings, outcomes, table_cap=EXTENSION_TABLE_CAP)


def _require_two_party(b: Behavior) -> None:
    if b.scenario.parties != 2:
        raise ValueError("extensions are defined for two-party base behaviors")
    report = validate_behavior(b)
    if not report.passed:
        raise ValueError("base behavior does not validate")


def unrestricted_extension(b: Behavior, n_clones: int) -> ExtensionCertificate:
    """Delta construction: all clones copy the first clone's outcome.

    P(a, b_1..b_N | A, B_1..B_N) = P(a, b_1 | A, B_1) if b_1 = ... = b_N,
    else 0.  Both residuals are exactly zero by construction.
    """
    _require_two_party(b)
    if n_clones < 1:
        raise ValueError("need at least one clone")
    scen = _extended_scenario(b.scenario, n_clones)
    n_out_b = b.scenario.outcomes[1]
    table = np.zeros(scen.table_shape)
    # Axes: [A, B1..BN, a, b1..bN]; broadcast the base over B2..BN.
    base = b.table  # shape (sA, sB, oA, oB)
    for beta in range(n_out_b):
        view_index = (
            (slice(None),) * (1 + n_clones)  # settings
            + (slice(None),)                  # a
            + (beta,) * n_clones              # all clone outcomes equal
        )
        block = base[:, :, :, beta]  # (sA, sB1, oA)
        expand = block[(slice(None), slice(None)) + (None,) * (n_clones - 1) + (slice(None),)]
        table[view_index] = np.broadcast_to(
            expand,
            (scen.settings[0],) + scen.settings[1:] + (scen.outcomes[0],),
        )
    behavior = Behavior(scen, table)
    spec = ExtensionSpec(b.scenario.settings, b.scenario.outcomes, n_clones, "unrestricted")
    sym = _outcome_symmetry_residual(behavior)
    marg = _marginal_residual_unrestricted(behavior, b)
    return ExtensionCertificate(spec, behavior, sym, marg)


def _outcome_symmetry_residual(ext: Behavior) -> float:
    """Max deviation under clone outcome swaps at fixed settings."""
    n_clones = ext.scenario.parties - 1
    residual = 0.0
    for i, j in itertools.combinations(range(n_clones), 2):
        ax_i = ext.scenario.parties + 1 + i
        ax_j = ext.scenario.parties + 1 + j
        swapped = np.swapaxes(ext.table, ax_i, ax_j)
        residual = max(residual, float(np.max(np.abs(ext.table - swapped))))
    return residual


def _joint_symmetry_residual(ext: Behavior) -> float:
    """Max deviation under joint (setting, outcome) clone swaps."""
    n_clones = ext.scenario.parties - 1
    residual = 0.0
    for i, j in itertools.combinations(range(n_clones), 2):
        swapped = np.swapaxes(ext.table, 1 + i, 1 + j)
        swapped = np.swapaxes(
            swapped, ext.scenario.parties + 1 + i, ext.scenario.parties + 1 + j
        )
        residual = max(residual, float(np.max(np.abs(ext.table - swapped))))
    return residual


def _marginal_residual_unrestricted(ext: Behavior, base: Behavior) -> float:
    """Compare every clone's pair marginal against the base, at every
    context of the remaining clones, with the base driven by B_1's value.

    In the delta construction the response of every clone follows the first
    clone's setting, so the pair marginal at full context (A, B_1..B_N)
    must equal base(A, B_1) regardless of which clone is kept.
    """
    n = ext.scenario.parties
    # base[A, B_1, a, b] broadcast over B_2..B_N.
    expected = base.table[(slice(None),) * 2 + (None,) * (n - 2)]
    residual = 0.0
    for clone in range(1, n):
        others = tuple(n + 1 + i for i in range(n - 1) if 1 + i != clone)
        # Axes: A, B_1..B_N, a, b_clone.
        marg = ext.table.sum(axis=others)
        residual = max(residual, float(np.max(np.abs(marg - expected))))
    return residual


def _marginal_residual_ns(ext: Behavior, base: Behavior) -> float:
    """Compare every clone's pair marginal (at its own setting) to the base,
    with the other clones pinned to setting 0."""
    n = ext.scenario.parties
    residual = 0.0
    for clone in range(1, n):
        marg = marginal(ext, (0, clone), (0,) * n).table
        residual = max(residual, float(np.max(np.abs(marg - base.table))))
    return residual


# ---------------------------------------------------------------------------
# No-signalling extension LP
# ---------------------------------------------------------------------------

def clone_symmetry_constraints(scen: Scenario) -> tuple[sp.csr_array, np.ndarray]:
    """Equalities for adjacent clone transpositions (they generate the full
    permutation group).

    For each transposition, one row per unordered pair of distinct entries
    that the swap exchanges, in flat order of the lower entry: +1 there and
    -1 at its image.
    """
    import scipy.sparse as sp

    n_clones = scen.parties - 1
    index = np.arange(scen.table_size).reshape(scen.table_shape)
    flat = index.reshape(-1)
    pairs = [np.zeros((2, 0), dtype=int)]
    for i in range(n_clones - 1):
        p1, p2 = 1 + i, 2 + i
        image = np.swapaxes(np.swapaxes(index, p1, p2), scen.parties + p1, scen.parties + p2)
        image = image.reshape(-1)
        keep = image > flat
        pairs.append(np.stack([flat[keep], image[keep]]))
    plus, minus = np.concatenate(pairs, axis=1)
    n_rows = plus.size
    row_ids = np.arange(n_rows)
    rows = sp.csr_array(
        (
            np.concatenate([np.ones(n_rows), -np.ones(n_rows)]),
            (np.concatenate([row_ids, row_ids]), np.concatenate([plus, minus])),
        ),
        shape=(n_rows, scen.table_size),
    )
    return rows, np.zeros(n_rows)


def _clone_multisets(n_letters: int, n_clones: int) -> np.ndarray:
    """The multisets of ``n_clones`` letters out of ``n_letters``, one row of
    letters in non-decreasing order each, in lexicographic order: a row's
    index is its multiset's rank."""
    rows = list(itertools.combinations_with_replacement(range(n_letters), n_clones))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n_clones)


def _multiset_ranks(letters: np.ndarray, n_letters: int) -> np.ndarray:
    """Rank of the multiset of each row of letters, in any order.  A sorted
    row's row-major index in the clones' letter table (below the table size)
    grows with rank, so ranks come from a binary search among the
    multisets' indices."""
    place = n_letters ** np.arange(letters.shape[1] - 1, -1, -1, dtype=np.int64)
    codes = _clone_multisets(n_letters, letters.shape[1]) @ place
    return np.searchsorted(codes, np.sort(letters, axis=1) @ place)


def _multinomials(multisets: np.ndarray, n_letters: int) -> np.ndarray:
    """Number of letter sequences with each multiset: n!/prod(count!)."""
    n = multisets.shape[1]
    factorial = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    counts = (multisets[:, :, None] == np.arange(n_letters)).sum(axis=1)
    return factorial[n] / factorial[counts].prod(axis=1)


@functools.lru_cache(maxsize=16)
def symmetric_extension_rows(base: Scenario, n_clones: int) -> tuple[sp.csr_array, np.ndarray]:
    """Equality rows of the clone-symmetric NS extension LP, and the map that
    expands its variables to the full (N+1)-party table.

    A clone letter is a (setting, outcome) pair ``l = y * o_B + b``, and the
    variable v[x, a, m] (flat, row-major) is the table entry shared by every
    clone letter sequence with multiset m.  Row blocks, in order:

    - normalization: one row at the all-zero context, multinomial weights;
    - Alice NS: sum_a v[x, a, m] = sum_a v[0, a, m] for x > 0;
    - last-clone NS: sum_b v[x, a, m' + (y, b)] = sum_b v[x, a, m' + (0, b)]
      for y > 0 and every multiset m' of N-1 letters;
    - pair marginals: one row per base entry (x, y, a, b), in flat base
      order, summing v[x, a, m' + (y, b)] over the m' of setting-0 letters,
      weighted by (N-1)!/prod(count!).

    Symmetry carries the last-clone NS rows to every clone, and NS carries
    normalization to every context.  The right-hand side is 1, then zeros,
    then the flat base table.  The expansion map gives, for every entry of
    the clones' axes (settings, then outcomes) of the full table, the rank
    of its multiset.  Memoised per (scenario, N) and returned read-only.
    """
    import scipy.sparse as sp

    (s_a, s_b), (o_a, o_b) = base.settings, base.outcomes
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

    grid = np.indices((s_b,) * n_clones + (o_b,) * n_clones).reshape(2 * n_clones, -1)
    expand = _multiset_ranks((grid[:n_clones] * o_b + grid[n_clones:]).T, n_letters)
    for part in (lhs.data, lhs.indices, lhs.indptr, expand):
        part.setflags(write=False)
    return lhs, expand


def ns_extension(
    b: Behavior, n_clones: int, tol: float = lp.FEASIBILITY_TOL
) -> ExtensionCertificate | InfeasibleExtension:
    """Symmetric no-signalling extension by LP feasibility over the
    clone-symmetric variables of :func:`symmetric_extension_rows`.

    A feasible solution is expanded to the full (N+1)-party table, where the
    certificate's residuals are computed.  An infeasible system returns the
    minimized L1 violation of the symmetric rows, positive iff no extension
    exists."""
    _require_two_party(b)
    if n_clones < 1:
        raise ValueError("need at least one clone")
    report = is_no_signalling(b)
    if not report.is_no_signalling:
        raise ValueError(
            f"base behavior is signalling (violation {report.max_violation:.3e})"
        )
    # The certificate's scenario refuses oversized tables before any row is built.
    scen = _extended_scenario(b.scenario, n_clones)
    spec = ExtensionSpec(b.scenario.settings, b.scenario.outcomes, n_clones, "ns", tol)

    lhs, expand = symmetric_extension_rows(b.scenario, n_clones)
    rhs = np.concatenate([[1.0], np.zeros(lhs.shape[0] - 1 - b.table.size), b.table.ravel()])
    outcome = lp.feasibility(eq=(lhs, rhs), n_variables=lhs.shape[1], tol=tol)
    if outcome.status == lp.LpStatus.INFEASIBLE:
        return InfeasibleExtension(spec, violation=outcome.violation)
    if outcome.status != lp.LpStatus.OPTIMAL:
        raise RuntimeError(f"extension LP failed: {outcome.message}")

    s_a, o_a = b.scenario.settings[0], b.scenario.outcomes[0]
    v = np.clip(outcome.x, 0.0, None).reshape(s_a, o_a, -1)
    full = v[:, :, expand].reshape((s_a, o_a) + scen.table_shape[1:n_clones + 1]
                                   + scen.table_shape[n_clones + 2:])
    behavior = Behavior(scen, np.moveaxis(full, 1, n_clones + 1))
    return ExtensionCertificate(
        spec,
        behavior,
        symmetry_residual=_joint_symmetry_residual(behavior),
        marginal_residual=_marginal_residual_ns(behavior, b),
    )


def is_n_shareable(
    b: Behavior, n_clones: int, mode: str = "ns", tol: float = lp.FEASIBILITY_TOL
) -> ShareabilityResult:
    """Thin wrapper over the two extension constructions.

    The score is 0 when an extension exists, otherwise the LP violation
    (see :class:`InfeasibleExtension`).
    """
    if mode == "unrestricted":
        cert = unrestricted_extension(b, n_clones)
        return ShareabilityResult(True, 0.0, cert)
    if mode == "ns":
        result = ns_extension(b, n_clones, tol)
        if isinstance(result, InfeasibleExtension):
            return ShareabilityResult(False, result.violation, None)
        return ShareabilityResult(True, 0.0, result)
    raise ValueError("mode must be 'unrestricted' or 'ns'")


def random_shareable_behavior(
    rng: np.random.Generator, n_vertices: int = 3
) -> tuple[Behavior, Behavior]:
    """Random two-party behavior that is 2-shareable by construction.

    Samples a point of the clone-symmetric no-signalling three-party
    polytope (a random mixture of vertices found by maximizing random
    objectives over the tables fixed by the clone swap) and marginalizes it
    down to the (a, b_1) pair.  Returns (pair, witness), the witness being
    the three-party behavior that certifies shareability.
    """
    scen = _extended_scenario(Scenario(2, (2, 2), (2, 2)), 2)
    objectives = rng.standard_normal((n_vertices, scen.table_size))
    _, vertices, _ = _ns_maxima(scen, objectives, ((0, 2, 1),), lp.FEASIBILITY_TOL)
    weights = rng.dirichlet(np.ones(len(vertices)))
    witness = Behavior(scen, sum(w * v.table for w, v in zip(weights, vertices)))

    return marginal_behavior(witness, (0, 1), (0, 0, 0)), witness


def discard_last_clone(cert: ExtensionCertificate) -> Behavior:
    """Marginalize the last clone out of a certificate behavior (its setting
    pinned to 0); for feasible no-signalling certificates the result is a
    certificate for one fewer clone."""
    n = cert.behavior.scenario.parties
    if n < 3:
        raise ValueError("certificate has no clone to discard")
    return marginal_behavior(cert.behavior, tuple(range(n - 1)), (0,) * n)
