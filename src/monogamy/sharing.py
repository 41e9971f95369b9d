"""N-shareability of two-party behaviors.

Two extension notions are implemented for a bipartite behavior P(a,b|A,B)
extended with N clones of the second party:

- unrestricted: the explicit delta construction forcing all clone outcomes
  equal; it always exists and is generally signalling, and its pair marginals
  (taken at the full setting context) reproduce the base with the first
  clone's setting driving the response;
- no-signalling: LP feasibility for a clone-symmetric no-signalling
  (N+1)-party behavior whose (a, b_i) pair marginals all equal the base.  The
  LP runs on the rows of ``model.symmetric_cg_rows``, the one builder of
  the NS polytope's symmetric Collins-Gisin rows, with Alice one block and
  the clones another: one column per Alice coordinate and multiset of clone
  coordinates, with the a, b_i and (a, b_i) marginals pinned to the base,
  and one positivity row per Alice (setting, outcome) and multiset of clone
  (setting, outcome) pairs.  There are no equality rows, and the pinned
  columns are folded into the rows' bounds, so that HiGHS gets only the
  free columns.  For a 2x2 base that is 4*C(N+3, 3) rows by 3*C(N+2, 2)
  columns, 9 of them pinned (140 x 36 free at N = 4), against 4^(N+1)
  table entries (1 024).  A feasible solution is expanded to the full
  table by ``model.symmetric_cg_index``, and the certificate's residuals
  are computed there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import lp
from .model import (  # noqa: F401 - perfbench/spans.py wraps the row builders and checks here
    Behavior,
    Scenario,
    SignallingReport,
    cg_map,
    definition_reports,
    is_no_signalling,  # a check perfbench traces here
    marginal,
    marginal_behavior,
    no_signalling_constraints,
    normalization_constraints,
    symmetric_cg_index,
    symmetric_cg_marginal_split,
    symmetric_cg_rows,
    validate_behavior,  # a check perfbench traces here
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
    """No extension exists.  ``violation`` is the minimized total deficit
    (L1) of the clone-symmetric LP's positivity rows, one per orbit of table
    entries under clone permutations, with the pair marginals held at the
    base.  It exceeds the feasibility tolerance exactly when no extension
    exists; its size is not comparable with the violation of a full-table
    LP."""

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


def _require_two_party(b: Behavior) -> SignallingReport:
    """The signalling report of a valid two-party ``b``; ValueError otherwise."""
    if b.scenario.parties != 2:
        raise ValueError("extensions are defined for two-party base behaviors")
    ((validity, signalling),) = definition_reports(b.scenario, b.table[None])
    if not validity.passed:
        raise ValueError("base behavior does not validate")
    return signalling


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


def ns_extension(
    b: Behavior, n_clones: int, tol: float = lp.FEASIBILITY_TOL
) -> ExtensionCertificate | InfeasibleExtension:
    """Symmetric no-signalling extension by LP feasibility over the
    clone-symmetric CG coordinates of ``model.symmetric_cg_rows``.

    Column (alpha, C) is Alice's CG coordinate alpha and a multiset C of
    clone CG coordinates; the first ``1 + s_B (o_B - 1)`` multisets C have
    at most one non-constant coordinate.  Those columns are the a, b_i and
    (a, b_i) marginals: they are pinned to the base's CG coordinates, the
    others are free, and the only rows are positivity.  The LP gets the
    free columns only (``model.symmetric_cg_marginal_split``), with the
    pinned columns' product in the rows' bounds.  A feasible solution is
    completed by the pinned values and expanded to the full (N+1)-party
    table, where the certificate's residuals are computed.  An infeasible
    system returns the minimized total deficit of the positivity rows,
    positive iff no extension exists."""
    report = _require_two_party(b)
    if n_clones < 1:
        raise ValueError("need at least one clone")
    if not report.is_no_signalling:
        raise ValueError(
            f"base behavior is signalling (violation {report.max_violation:.3e})"
        )
    # The certificate's scenario refuses oversized tables before any row is built.
    scen = _extended_scenario(b.scenario, n_clones)
    spec = ExtensionSpec(b.scenario.settings, b.scenario.outcomes, n_clones, "ns", tol)

    blocks = ((0,), tuple(range(1, n_clones + 1)))
    free, marginal, mask = symmetric_cg_marginal_split(scen, blocks)
    # The base's CG coordinates q[alpha, beta] are the marginal columns
    # (alpha, C) whose multiset C is beta and N - 1 constants, in order.
    base = np.linalg.lstsq(cg_map(b.scenario).toarray(), b.table.ravel(), rcond=None)[0]
    # Positivity free @ z + marginal @ base >= 0, with the pins folded in.
    outcome = lp.feasibility(ub=(-free, marginal @ base), bounds=[(None, None)] * free.shape[1],
                             tol=tol)
    if outcome.status == lp.LpStatus.INFEASIBLE:
        return InfeasibleExtension(spec, violation=outcome.violation)
    if outcome.status != lp.LpStatus.OPTIMAL:
        raise RuntimeError(f"extension LP failed: {outcome.message}")

    x = np.empty(mask.size)
    x[mask], x[~mask] = base, outcome.x
    table = np.clip(symmetric_cg_rows(scen, blocks) @ x, 0.0, None)
    table = table[symmetric_cg_index(scen, blocks)]
    behavior = Behavior(scen, table.reshape(scen.table_shape))
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

    The score is 0 when an extension exists, otherwise the positivity
    deficit of the no-signalling LP (see :class:`InfeasibleExtension`).
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
    if n_vertices < 1:
        raise ValueError(f"n_vertices must be at least 1, got {n_vertices}")
    scen = _extended_scenario(Scenario(2, (2, 2), (2, 2)), 2)
    objectives = rng.standard_normal((n_vertices, scen.table_size))
    _, vertices, _ = _ns_maxima(scen, objectives, ((0,), (1, 2)), lp.FEASIBILITY_TOL)
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
