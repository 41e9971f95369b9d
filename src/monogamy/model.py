"""Measurement scenarios and behaviors (conditional probability tables).

A behavior is the dense table P(a_1..a_N | A_1..A_N) for N parties, each
choosing among a finite number of settings with a finite number of outcomes.
Tables are stored as numpy arrays of shape ``(*settings, *outcomes)``
(settings-major, outcomes-minor when flattened row-major).

Conventions used throughout the package:

- setting and outcome indices are 0-based;
- for dichotomic parties, outcome 0 maps to the value +1 and outcome 1 to -1;
- behaviors are immutable after construction and all operations are pure.

The no-signalling polytope is built in one place: :func:`symmetric_cg_rows`
gives its Collins-Gisin rows for the tables symmetric within blocks of
identical parties, and every NS LP and :func:`cg_map` read them.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_TOL = 1e-9

# Refuse to allocate tables beyond this many entries; read at each
# Scenario's construction.
DEFAULT_TABLE_CAP = 1_000_000


def _capped_product(factors: Iterable[int], cap: int, what: str) -> int:
    """The product of ``factors``, refused with ``{what} exceeds cap {cap}``
    as soon as the running product passes ``cap``: the full size of a huge
    array, a number of thousands of digits, is never formed or printed."""
    size = 1
    for n in factors:
        size *= n
        if size > cap:
            raise ValueError(f"{what} exceeds cap {cap}")
    return size


@dataclass(frozen=True)
class Scenario:
    """Number of parties, settings per party, and outcomes per party.

    Outcome counts are uniform across a party's settings.
    """

    parties: int
    settings: tuple[int, ...]
    outcomes: tuple[int, ...]

    def __post_init__(self):
        if self.parties < 1:
            raise ValueError("scenario needs at least one party")
        object.__setattr__(self, "settings", tuple(map(int, self.settings)))
        object.__setattr__(self, "outcomes", tuple(map(int, self.outcomes)))
        if len(self.settings) != self.parties or len(self.outcomes) != self.parties:
            raise ValueError("settings and outcomes must list one count per party")
        if min(self.settings) < 1:
            raise ValueError("every party needs at least one setting")
        if min(self.outcomes) < 2:
            raise ValueError("every party needs at least two outcomes")
        _capped_product(self.table_shape, DEFAULT_TABLE_CAP, "table size")

    @property
    def table_shape(self) -> tuple[int, ...]:
        return self.settings + self.outcomes

    @property
    def table_size(self) -> int:
        return math.prod(self.table_shape)

    @property
    def n_contexts(self) -> int:
        return math.prod(self.settings)

    def contexts(self):
        """Iterate over all setting vectors in row-major order."""
        return itertools.product(*(range(s) for s in self.settings))

    def outcome_tuples(self):
        """Iterate over all outcome vectors in row-major order."""
        return itertools.product(*(range(o) for o in self.outcomes))

    def is_dichotomic(self) -> bool:
        return all(o == 2 for o in self.outcomes)


@dataclass(frozen=True, eq=False)
class Behavior:
    """A scenario together with its dense probability table.

    Only structural properties (shape, finiteness) are enforced here;
    numerical validity is checked by :func:`validate_behavior` so that
    defective tables can still be constructed and diagnosed.
    """

    scenario: Scenario
    table: np.ndarray

    def __post_init__(self):
        tbl = np.asarray(self.table, dtype=float)
        if tbl.shape != self.scenario.table_shape:
            raise ValueError(
                f"table shape {tbl.shape} does not match scenario "
                f"shape {self.scenario.table_shape}"
            )
        if not np.all(np.isfinite(tbl)):
            raise ValueError("table contains non-finite entries")
        tbl = tbl.copy()
        tbl.setflags(write=False)
        object.__setattr__(self, "table", tbl)


@dataclass(frozen=True, eq=False)
class MarginalTable:
    """Distribution over a subset of parties, per subset setting vector."""

    parties: tuple[int, ...]
    settings: tuple[int, ...]
    outcomes: tuple[int, ...]
    table: np.ndarray


@dataclass(frozen=True)
class SignallingWitness:
    """Location of the largest marginal discrepancy.

    ``party`` is the discarded party whose pair of settings shifts the
    marginal of the remaining parties; ``peer_context`` and ``peer_outcomes``
    locate the affected entry (indices of the parties other than ``party``).
    """

    party: int
    settings: tuple[int, int]
    peer_context: tuple[int, ...]
    peer_outcomes: tuple[int, ...]


@dataclass(frozen=True)
class SignallingReport:
    is_no_signalling: bool
    max_violation: float
    witness: SignallingWitness | None


@dataclass(frozen=True)
class ValidationReport:
    """Positivity and normalization diagnostics for a behavior table."""

    passed: bool
    positivity_violations: tuple[tuple[tuple[int, ...], tuple[int, ...], float], ...]
    normalization_deviations: tuple[tuple[tuple[int, ...], float], ...]
    max_positivity_violation: float
    max_normalization_deviation: float


def validate_behavior(b: Behavior, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check positivity of all entries and per-context normalization.

    Passes iff every entry is >= -tol and every context sums to 1 within tol.
    Structural defects (wrong table shape) raise at `Behavior` construction
    and never reach this function.  The stack of one of
    :func:`definition_reports`.
    """
    return definition_reports(b.scenario, b.table[None], tol)[0][0]


def is_no_signalling(b: Behavior, tol: float = DEFAULT_TOL) -> SignallingReport:
    """Compare, for every party, the marginal of the remaining parties over
    its settings; report the largest entry-wise difference.  The stack of
    one of :func:`definition_reports`."""
    return definition_reports(b.scenario, b.table[None], tol)[0][1]


def require_valid(b: Behavior, tol: float = DEFAULT_TOL) -> SignallingReport:
    """The signalling report of one :func:`definition_reports` pass over
    ``b``; ValueError, naming the largest deviations, unless ``b``
    validates at ``tol``."""
    ((report, signalling),) = definition_reports(b.scenario, b.table[None], tol)
    if not report.passed:
        raise ValueError(
            "input behavior failed validation: "
            f"max positivity violation {report.max_positivity_violation:.3e}, "
            f"max normalization deviation {report.max_normalization_deviation:.3e}"
        )
    return signalling


def definition_reports(
    scenario: Scenario, tables: np.ndarray, tol: float = DEFAULT_TOL
) -> list[tuple[ValidationReport, SignallingReport]]:
    """The reports of :func:`validate_behavior` and :func:`is_no_signalling`
    for each member of a ``(k, *scenario.table_shape)`` stack of tables,
    from passes over the whole stack, O(table) per member and party;
    ValueError unless ``tol`` is finite and >= 0.

    Positivity: every entry >= -tol.  Normalization: every context sums to
    1 within tol.  No-signalling: for every party, its marginal (the table
    summed over its outcomes) spreads by at most tol over its settings, at
    each entry of the other parties' settings and outcomes; the largest
    spread is the violation.  The witness of a member above tol is the
    first largest difference, in party, settings-pair (s1 < s2) and
    entry order, ties included.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    tables = np.asarray(tables, dtype=float)
    k, n = len(tables), scenario.parties
    flat = tables.reshape(k, -1)
    members = range(k)

    minima = flat.min(axis=1)
    max_pos = np.where(minima < 0.0, -minima, 0.0).tolist()
    positivity = [[] for _ in members]
    # max_pos > tol says that some entry is below -tol; only then are they listed.
    for idx in np.argwhere(tables < -tol).tolist() if max(max_pos) > tol else ():
        entry = (tuple(idx[1:n + 1]), tuple(idx[n + 1:]), float(tables[tuple(idx)]))
        positivity[idx[0]].append(entry)

    deviations = np.abs(tables.sum(axis=tuple(range(1 + n, 1 + 2 * n))) - 1.0)
    max_norm = deviations.reshape(k, -1).max(axis=1).tolist()
    normalization = [[] for _ in members]
    for idx in np.argwhere(deviations > tol).tolist() if max(max_norm) > tol else ():
        normalization[idx[0]].append((tuple(idx[1:]), float(deviations[tuple(idx)])))

    # spreads[i, p]: the largest spread of party p's marginal in member i.
    spreads = np.empty((k, n))
    for p in range(n):
        marginals = tables.sum(axis=1 + n + p)
        spread = marginals.max(axis=1 + p) - marginals.min(axis=1 + p)
        spreads[:, p] = spread.reshape(k, -1).max(axis=1)
    max_violation = spreads.max(axis=1).tolist()

    reports = []
    for i in members:
        witness = None
        if max_violation[i] > tol:
            witness = _signalling_witness(tables[i], int(np.argmax(spreads[i])))
        reports.append((
            ValidationReport(
                passed=not positivity[i] and not normalization[i],
                positivity_violations=tuple(positivity[i]),
                normalization_deviations=tuple(normalization[i]),
                max_positivity_violation=max_pos[i],
                max_normalization_deviation=max_norm[i],
            ),
            SignallingReport(
                is_no_signalling=witness is None,
                max_violation=max_violation[i],
                witness=witness,
            ),
        ))
    return reports


def _signalling_witness(table: np.ndarray, p: int) -> SignallingWitness:
    """The first largest difference of party ``p``'s marginal in ``table``,
    in settings-pair (s1 < s2) and entry order, from the running maxima and
    minima over the settings after each s1: O(table)."""
    n = table.ndim // 2
    marginal = np.moveaxis(table.sum(axis=n + p), p, 0)
    rest = marginal.shape[1:]
    m = marginal.reshape(len(marginal), -1)
    later_max = np.maximum.accumulate(m[:0:-1])[::-1]
    later_min = np.minimum.accumulate(m[:0:-1])[::-1]
    # reach[s1]: the largest difference of s1 with a later setting, over all entries.
    reach = np.maximum(later_max - m[:-1], m[:-1] - later_min).max(axis=1)
    s1 = int(np.argmax(reach))
    j = int(np.argmax(np.abs(m[s1 + 1:] - m[s1]) == reach[s1]))
    s2, entry = divmod(j, m.shape[1])
    peer = tuple(int(i) for i in np.unravel_index(entry, rest))
    return SignallingWitness(party=p, settings=(s1, s1 + 1 + s2), peer_context=peer[:n - 1],
                             peer_outcomes=peer[n - 1:])


def _checked_context(s: Scenario, context: tuple[int, ...]) -> tuple[int, ...]:
    """``context`` as ints, refused unless party p's entry is in [0, settings[p])."""
    if len(context) != s.parties:
        raise ValueError("context must give a setting for every party")
    context = tuple(int(c) for c in context)
    for p, (c, k) in enumerate(zip(context, s.settings)):
        if not 0 <= c < k:
            raise ValueError(f"context setting {c} of party {p} is outside [0, {k})")
    return context


def marginal(b: Behavior, keep: tuple[int, ...], context: tuple[int, ...]) -> MarginalTable:
    """Marginal distribution of the parties in ``keep``.

    The discarded parties' settings are pinned to the given full setting
    vector; the kept parties' settings range over all values.  For
    no-signalling behaviors the result does not depend on ``context``.
    """
    s = b.scenario
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= s.parties:
        raise ValueError("keep set out of range")
    context = _checked_context(s, context)
    drop = tuple(p for p in range(s.parties) if p not in keep)

    index = tuple(slice(None) if p in keep else context[p] for p in range(s.parties))
    sub = b.table[index]  # axes: kept settings, then all outcomes
    out_offset = len(keep)
    sum_axes = tuple(out_offset + p for p in drop)
    tbl = sub.sum(axis=sum_axes)
    return MarginalTable(
        parties=keep,
        settings=tuple(s.settings[p] for p in keep),
        outcomes=tuple(s.outcomes[p] for p in keep),
        table=tbl,
    )


def marginal_behavior(b: Behavior, keep: tuple[int, ...], context: tuple[int, ...]) -> Behavior:
    """Marginal of ``b`` repackaged as a Behavior on the kept parties."""
    m = marginal(b, keep, context)
    scen = Scenario(len(m.parties), m.settings, m.outcomes)
    return Behavior(scen, m.table)


def _sign_tensor(scenario: Scenario) -> np.ndarray:
    signs = np.ones(())
    for _ in range(scenario.parties):
        signs = np.multiply.outer(signs, np.array([1.0, -1.0]))
    return signs


def correlator(b: Behavior, context: tuple[int, ...]) -> float:
    """Expectation of the product of +-1-valued outcomes at one context.

    Outcome 0 counts as +1 and outcome 1 as -1; requires every party to be
    dichotomic.
    """
    s = b.scenario
    if not s.is_dichotomic():
        raise ValueError("correlator requires dichotomic outcomes for every party")
    block = b.table[_checked_context(s, context)]
    return float((block * _sign_tensor(s)).sum())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def uniform_box(scenario: Scenario) -> Behavior:
    """All outcomes equally likely in every context."""
    table = np.full(scenario.table_shape, 1.0 / math.prod(scenario.outcomes))
    return Behavior(scenario, table)


def deterministic_box(scenario: Scenario, assignment: tuple[tuple[int, ...], ...]) -> Behavior:
    """Each party answers a fixed outcome per setting.

    ``assignment[p][x]`` is party p's outcome under setting x.
    """
    if len(assignment) != scenario.parties:
        raise ValueError("assignment must cover every party")
    for p, row in enumerate(assignment):
        if len(row) != scenario.settings[p]:
            raise ValueError(f"party {p} assignment must cover every setting")
        if any(not 0 <= o < scenario.outcomes[p] for o in row):
            raise ValueError(f"party {p} assignment has out-of-range outcomes")
    table = _block_product([np.eye(o)[list(row)] for o, row in zip(scenario.outcomes, assignment)])
    return Behavior(scenario, table)


def pr_box() -> Behavior:
    """The extremal no-signalling box: P(a,b|x,y) = 1/2 iff a XOR b = x AND y."""
    scenario = Scenario(2, (2, 2), (2, 2))
    table = np.zeros(scenario.table_shape)
    for x, y, a, bb in itertools.product(range(2), repeat=4):
        if (a ^ bb) == (x & y):
            table[x, y, a, bb] = 0.5
    return Behavior(scenario, table)


def product_box(factors: list[Behavior]) -> Behavior:
    """Independent parties: the product of behaviors on consecutive blocks."""
    if not factors:
        raise ValueError("product needs at least one factor")
    scenario = Scenario(sum(f.scenario.parties for f in factors),
                        sum((f.scenario.settings for f in factors), ()),
                        sum((f.scenario.outcomes for f in factors), ()))
    return Behavior(scenario, _block_product([f.table for f in factors]))


def mixture(behaviors: list[Behavior], weights: list[float]) -> Behavior:
    """Convex combination of behaviors on a common scenario."""
    if len(behaviors) != len(weights) or not behaviors:
        raise ValueError("need one weight per behavior")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must form a probability distribution")
    scenario = behaviors[0].scenario
    for b in behaviors[1:]:
        if b.scenario != scenario:
            raise ValueError("all behaviors must share one scenario")
    table = sum(wi * b.table for wi, b in zip(w, behaviors))
    return Behavior(scenario, table)


def _block_product(tables: list[np.ndarray]) -> np.ndarray:
    """Outer product of tables on consecutive parties, in party order: each
    table covers ``tbl.ndim // 2`` parties, and the result's axes are every
    table's settings, then every table's outcomes."""
    combined = functools.reduce(np.multiply.outer, tables, np.ones(()))
    # A stable sort on "is an outcome axis" keeps party order within each half.
    is_outcome = [k >= tbl.ndim // 2 for tbl in tables for k in range(tbl.ndim)]
    return combined.transpose(sorted(range(combined.ndim), key=is_outcome.__getitem__))


def partial_local_box(
    blocks: tuple[tuple[int, ...], tuple[int, ...]],
    terms: list[tuple[Behavior, Behavior]],
    weights: list[float],
) -> Behavior:
    """Convex mixture of block products over one fixed two-block partition.

    Each term supplies one behavior per block; inside a block the behavior
    may be signalling, but the blocks are uncorrelated within each term.
    A term is the :func:`product_box` of its pair, its parties moved to
    their blocks by :func:`permute_parties`; :func:`mixture` combines the
    terms and checks the weights.
    """
    block1, block2 = (tuple(sorted(blk)) for blk in blocks)
    all_parties = tuple(sorted(block1 + block2))
    # A party repeated inside a block or shared by both appears twice.
    if len(set(all_parties)) != len(all_parties) or not block1 or not block2:
        raise ValueError("blocks must form a two-block partition of the parties")
    if all_parties != tuple(range(len(all_parties))):
        raise ValueError("blocks must cover parties 0..N-1")
    # Party p of the result is party perm[p] of the block product.
    n, order = len(all_parties), block1 + block2
    perm = tuple(order.index(p) for p in range(n))
    placed = []
    for pair in terms:
        if tuple(b.scenario.parties for b in pair) != (len(block1), len(block2)):
            raise ValueError("term behavior does not match its block")
        product = product_box(list(pair))
        s = product.scenario
        scenario = Scenario(n, tuple(s.settings[p] for p in perm), tuple(s.outcomes[p] for p in perm))
        table = permute_parties(s, product.table, perm)
        placed.append(Behavior(scenario, table.reshape(scenario.table_shape)))
    return mixture(placed, weights)


# ---------------------------------------------------------------------------
# Polytope constraint rows (sparse, over the flattened table)
# ---------------------------------------------------------------------------

def normalization_constraints(scenario: Scenario) -> tuple[sp.csr_array, np.ndarray]:
    """The one equality row requiring the all-zero context's outcomes to sum
    to 1.  The no-signalling rows give every context the same total, so
    together with them this row normalizes every context."""
    import scipy.sparse as sp

    per_context = scenario.table_size // scenario.n_contexts
    rows = sp.csr_array(
        (np.ones(per_context), np.arange(per_context), np.array([0, per_context])),
        shape=(1, scenario.table_size),
    )
    return rows, np.ones(1)


def no_signalling_constraints(scenario: Scenario) -> tuple[sp.csr_array, np.ndarray]:
    """Equality rows: for every party, setting j >= 1 of that party, context
    of the other parties, and outcome tuple of the other parties, the
    marginal with party k's outcome summed out agrees with the one at
    setting 0.  Equality is transitive, so the pairs (i, j) with i >= 1
    would add no constraint."""
    import scipy.sparse as sp

    n = scenario.parties
    index = np.arange(scenario.table_size).reshape(scenario.table_shape)
    row_ids, plus, minus = [], [], []
    n_rows = 0
    for k in range(n):
        # Axes: party k's setting, the others' settings and outcomes, then
        # party k's outcome, which each row sums over.
        by_k = np.moveaxis(index, (k, n + k), (0, -1))
        later = by_k[1:]
        p_block = np.broadcast_to(by_k[:1], later.shape).reshape(-1, scenario.outcomes[k])
        m_block = later.reshape(-1, scenario.outcomes[k])
        # Blocks differ in width when outcome counts differ, so they are
        # raveled before they are joined.
        plus.append(p_block.ravel())
        minus.append(m_block.ravel())
        row_ids.append(np.repeat(np.arange(n_rows, n_rows + len(p_block)), scenario.outcomes[k]))
        n_rows += len(p_block)
    row_ids = np.concatenate(row_ids)
    cols = np.concatenate(plus + minus)
    values = np.concatenate([np.ones(row_ids.size), -np.ones(row_ids.size)])
    rows = sp.csr_array(
        (values, (np.concatenate([row_ids, row_ids]), cols)),
        shape=(n_rows, scenario.table_size),
    )
    return rows, np.zeros(n_rows)


def permute_parties(scenario: Scenario, flat: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """A flat table with its parties permuted: party i of the result is
    party ``perm[i]`` of ``flat``, settings and outcomes alike."""
    axes = tuple(perm) + tuple(scenario.parties + p for p in perm)
    return np.asarray(flat).reshape(scenario.table_shape).transpose(axes).ravel()


class Relabeling(NamedTuple):
    """One party's relabeling: entry (x, a) of the relabeled table is entry
    (``settings[x]``, a flipped if ``flips[x]``) of the original.  Flips
    need dichotomic outcomes."""

    settings: tuple[int, ...]
    flips: tuple[bool, ...]


def relabeling_index(scenario: Scenario, relabeling: tuple[Relabeling, ...]) -> np.ndarray:
    """The flat-table index permutation of one :class:`Relabeling` per
    party: ``flat[relabeling_index(scenario, relabeling)]`` is the relabeled
    table, in the index convention of :func:`permute_parties`."""
    n = scenario.parties
    if len(relabeling) != n:
        raise ValueError(f"need one relabeling per party, got {len(relabeling)} for {n}")
    axes = [None] * (2 * n)
    for p, (settings, flips) in enumerate(relabeling):
        s, o = scenario.settings[p], scenario.outcomes[p]
        if sorted(settings) != list(range(s)) or len(flips) != s:
            raise ValueError(f"party {p} needs a permutation of its {s} settings and {s} flips")
        if any(flips) and o != 2:
            raise ValueError(f"party {p} has {o} outcomes; flips need 2")
        shape = [1] * (2 * n)
        shape[p] = s
        axes[p] = np.asarray(settings, dtype=np.int64).reshape(shape)
        shape[n + p] = o
        flipped = np.arange(o)[None, :] ^ np.asarray(flips, dtype=np.int64)[:, None]
        axes[n + p] = flipped.reshape(shape)
    return np.ravel_multi_index(np.broadcast_arrays(*axes), scenario.table_shape).ravel()


def _clone_multisets(n_letters: int, n_clones: int) -> np.ndarray:
    """The multisets of ``n_clones`` letters out of ``n_letters``, one row of
    letters in non-decreasing order each, in lexicographic order: a row's
    index is its multiset's rank."""
    rows = list(itertools.combinations_with_replacement(range(n_letters), n_clones))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n_clones)


def _multiset_ranks(letters: np.ndarray, n_letters: int) -> np.ndarray:
    """Rank of the multiset of each row of letters, in any order: the index
    of its sorted row in :func:`_clone_multisets`.  A sorted row c ranks
    after every row that first differs from it at some position i with a
    letter v in [c[i-1], c[i]), followed by any multiset of the remaining
    k - 1 - i letters from v up.  ``below[i, c]`` counts those rows for
    every v < c, so a rank is a sum of table differences, each at most the
    number of multisets; ranks are refused once that reaches 2**63."""
    k = letters.shape[1]
    if math.comb(n_letters + k - 1, k) >= 2 ** 63:
        raise ValueError(f"multisets of {k} out of {n_letters} letters overflow int64 ranks")
    below = np.array([
        [0, *itertools.accumulate(math.comb(n_letters - v + k - 2 - i, k - 1 - i)
                                  for v in range(n_letters))]
        for i in range(k)
    ], dtype=np.int64).reshape(k, n_letters + 1)
    rows = np.sort(letters, axis=1)
    previous = np.concatenate([np.zeros_like(rows[:, :1]), rows[:, :-1]], axis=1)
    position = np.arange(k)
    return np.sum(below[position, rows] - below[position, previous], axis=1, dtype=np.int64)


def _block_rows(settings: int, outcomes: int, n_parties: int) -> sp.csr_array:
    """The CG rows of ``n_parties`` identical parties, symmetrized.  A party
    with s settings and o outcomes has 1 + s (o - 1) coordinates: a
    constant, then q(a|x) for a < o - 1.  Row L is a multiset of letters
    l = x * o + a, column C a multiset of coordinates, and the entry is the
    coefficient of the monomial C in the product of the letters' linear
    forms over L, grown one letter at a time.  Built on every call."""
    # Letter (x, a): q(a|x) for a < o - 1, and 1 minus their sum for o - 1.
    eye = np.eye(1 + settings * (outcomes - 1))
    q = eye[1:].reshape(settings, outcomes - 1, -1)
    form = np.concatenate([q, eye[:1] - q.sum(axis=1, keepdims=True)], axis=1)
    return _form_power(form.reshape(settings * outcomes, -1), outcomes, n_parties)


def _block_readout(settings: int, outcomes: int, n_parties: int) -> sp.csr_array:
    """The left inverse of :func:`_block_rows`: row C, a multiset of
    coordinates, reads its monomial off the rows, the constant as the sum
    over setting 0's letters and q(a|x) as letter x * o + a."""
    left = np.zeros((1 + settings * (outcomes - 1), settings * outcomes))
    left[0, :outcomes] = 1.0
    letters = (np.arange(settings)[:, None] * outcomes + np.arange(outcomes - 1)).ravel()
    left[1 + np.arange(letters.size), letters] = 1.0
    return _form_power(left, outcomes, n_parties)


def _form_power(form: np.ndarray, width: int, n_parties: int) -> sp.csr_array:
    """Row L, a multiset of ``n_parties`` rows of ``form`` (letters, each
    with at most ``width`` nonzeros), against column C, a multiset of its
    columns: the coefficient of the monomial C in the product of L's rows."""
    import scipy.sparse as sp

    n_letters, n_coords = form.shape
    # Each letter's (at most width) nonzero coordinates, padded with zeros.
    nonzero = np.argsort(form == 0, axis=1, kind="stable")[:, :width]
    weight = np.take_along_axis(form, nonzero, axis=1)
    power = sp.csr_array(np.ones((1, 1)))
    for k in range(1, n_parties + 1):
        # Row L is the row of L without its last letter times that letter's form.
        letters = _clone_multisets(n_letters, k)
        terms = power[_multiset_ranks(letters[:, :-1], n_letters)].tocoo()
        last = letters[terms.row, -1]
        grown = np.column_stack([
            np.repeat(_clone_multisets(n_coords, k - 1)[terms.col], width, axis=0),
            nonzero[last].ravel(),
        ])
        power = sp.csr_array(
            ((terms.data[:, None] * weight[last]).ravel(),
             (np.repeat(terms.row, width), _multiset_ranks(grown, n_coords))),
            shape=(len(letters), math.comb(n_coords + k - 1, k)),
        )
        power.eliminate_zeros()
    return power


def _check_blocks(scenario: Scenario, blocks: tuple[tuple[int, ...], ...]) -> None:
    """ValueError unless ``blocks`` partition the parties into groups of one kind."""
    if not all(blocks) or sorted(itertools.chain(*blocks)) != list(range(scenario.parties)):
        raise ValueError(f"blocks {blocks} do not partition the {scenario.parties} parties")
    kinds = list(zip(scenario.settings, scenario.outcomes))
    for block in blocks:
        if len({kinds[p] for p in block}) > 1:
            raise ValueError(f"block {block} mixes parties of different settings or outcomes")


def symmetric_cg_rows(scenario: Scenario, blocks: tuple[tuple[int, ...], ...]) -> sp.csr_array:
    """The positivity rows R of the no-signalling tables fixed by permuting
    the parties within each of ``blocks``, in Collins-Gisin (CG)
    coordinates: those tables are {(R @ q)[index] : q[0] = 1, R @ q >= 0}
    for the :func:`symmetric_cg_index` of the same arguments.  The blocks
    partition the parties, and one block's parties share settings and
    outcome counts.  R is the Kronecker product of the blocks' rows (see
    ``_block_rows``) in block order, column 0 is the constant, and no
    table-sized array is built.  Built anew on each call; its memoised
    consumers read it once per scenario and blocks."""
    import scipy.sparse as sp

    _check_blocks(scenario, blocks)
    return functools.reduce(
        lambda a, b: sp.kron(a, b, format="csr"),
        (_block_rows(scenario.settings[b[0]], scenario.outcomes[b[0]], len(b)) for b in blocks),
    )


def symmetric_cg_readout(
    scenario: Scenario, blocks: tuple[tuple[int, ...], ...]
) -> tuple[sp.csr_array, np.ndarray]:
    """The left inverse L of :func:`symmetric_cg_rows`, L @ rows the
    identity, and each coordinate's degree, the number of its parties'
    factors that are not the constant: ``(L, degree)``."""
    import scipy.sparse as sp

    _check_blocks(scenario, blocks)
    readout = functools.reduce(
        lambda a, b: sp.kron(a, b, format="csr"),
        (_block_readout(scenario.settings[b[0]], scenario.outcomes[b[0]], len(b)) for b in blocks),
    )
    degrees = (
        (_clone_multisets(1 + scenario.settings[b[0]] * (scenario.outcomes[b[0]] - 1), len(b)) > 0)
        .sum(axis=1) for b in blocks
    )
    return readout, functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), degrees)


@functools.lru_cache(maxsize=8)
def symmetric_cg_marginal_split(
    scenario: Scenario, blocks: tuple[tuple[int, ...], ...]
) -> tuple[sp.csr_array, sp.csr_array]:
    """The columns of :func:`symmetric_cg_rows` split into ``(free,
    marginal)``, each as CSR rows in column order, so that the rows' values
    are ``free @ z + marginal @ q`` for the free and marginal coordinates.
    A marginal column's multiset of last-block coordinates has at most one
    non-constant coordinate: the first 1 + s (o - 1) multisets of that
    block, under every coordinate of the other blocks.  Memoised and
    returned read-only."""
    rows = symmetric_cg_rows(scenario, blocks)
    party, k = blocks[-1][0], len(blocks[-1])
    n_coords = 1 + scenario.settings[party] * (scenario.outcomes[party] - 1)
    mask = np.arange(rows.shape[1]) % math.comb(n_coords + k - 1, k) < n_coords
    free, marginal = rows[:, ~mask], rows[:, mask]
    for part in (free.data, free.indices, free.indptr,
                 marginal.data, marginal.indices, marginal.indptr):
        part.setflags(write=False)
    return free, marginal


@functools.lru_cache(maxsize=16)
def symmetric_cg_index(scenario: Scenario, blocks: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """For every entry of the flat table, the row of
    :func:`symmetric_cg_rows` that gives its value: per block, the rank of
    the multiset of its parties' letters x * o + a, combined in Kronecker
    order.  Memoised and returned read-only."""
    _check_blocks(scenario, blocks)
    n = scenario.parties
    n_letters = [s * o for s, o in zip(scenario.settings, scenario.outcomes)]
    index = np.zeros((1,) * n, dtype=np.int64)
    for block in blocks:
        letters, k = n_letters[block[0]], len(block)
        sequences = np.indices((letters,) * k).reshape(k, -1).T
        # A multiset's rank does not depend on the order of the block's
        # parties, so the ranks broadcast onto their axes as they are.
        shape = [letters if p in block else 1 for p in range(n)]
        ranks = _multiset_ranks(sequences, letters).reshape(shape)
        index = index * math.comb(letters + k - 1, k) + ranks
    interleaved = [k for pair in zip(scenario.settings, scenario.outcomes) for k in pair]
    order = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    index = index.reshape(interleaved).transpose(order).ravel()
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=8)
def ns_orbit_dual_rows(
    scenario: Scenario, blocks: tuple[tuple[int, ...], ...]
) -> tuple[np.ndarray, sp.csr_array, sp.csr_array]:
    """The rows of :func:`symmetric_cg_rows` split by column for the dual
    of an optimum over them, and the map to the table: ``(constant,
    free_t, expand)``, the constant column as a dense vector, the free
    columns transposed to CSR (one row per free coordinate), and the rows
    gathered by :func:`symmetric_cg_index`, so that ``expand @ q`` is the
    table.  Memoised and returned read-only."""
    rows = symmetric_cg_rows(scenario, blocks)
    expand = rows[symmetric_cg_index(scenario, blocks)]
    constant = rows[:, [0]].toarray().ravel()
    free_t = rows[:, 1:].T.tocsr()
    for part in (constant, free_t.data, free_t.indices, free_t.indptr,
                 expand.data, expand.indices, expand.indptr):
        part.setflags(write=False)
    return constant, free_t, expand


def cg_map(scenario: Scenario) -> sp.csr_array:
    """The Collins-Gisin (CG) parametrisation of no-signalling tables: the
    NS polytope is {M q : q[0] = 1, M q >= 0} for the CSR matrix M, the
    ``expand`` of :func:`ns_orbit_dual_rows` with every party a block of its
    own.  Memoised there and returned read-only."""
    return ns_orbit_dual_rows(scenario, tuple((p,) for p in range(scenario.parties)))[2]


@functools.lru_cache(maxsize=8)
def _cg_readout(scenario: Scenario) -> sp.csr_array:
    """The left inverse of :func:`cg_map`: :func:`symmetric_cg_readout`'s
    columns in flat-table order.  It reads a no-signalling table's CG
    coordinates exactly, as sums of entries.  Memoised and returned
    read-only."""
    singletons = tuple((p,) for p in range(scenario.parties))
    readout, _ = symmetric_cg_readout(scenario, singletons)
    readout = readout[:, symmetric_cg_index(scenario, singletons)]
    for part in (readout.data, readout.indices, readout.indptr):
        part.setflags(write=False)
    return readout


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def behavior_to_json_dict(b: Behavior) -> dict:
    """Schema: parties, settings, outcomes, and a table keyed by the
    comma-joined setting vector with flat outcome-major probabilities."""
    s = b.scenario
    table = {}
    for ctx in s.contexts():
        key = ",".join(str(c) for c in ctx)
        table[key] = [float(v) for v in b.table[ctx].reshape(-1)]
    return {
        "parties": s.parties,
        "settings": list(s.settings),
        "outcomes": list(s.outcomes),
        "table": table,
    }


def _json_integer(value, what: str) -> int:
    """``value`` if it is a JSON integer; ValueError naming ``what`` for a
    bool, a float, a string or anything else."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _is_json_number(value) -> bool:
    """True for a real number that is not a bool, as a JSON int or float is."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_too_large(value) -> bool:
    """True for a finite number above 1e300 in magnitude, an integer too
    large for float64 among them (compared exactly, never converted), so
    that any sum of up to 10^6 entries (the table cap) stays finite."""
    return 1e300 < abs(value) < math.inf


def behavior_from_json_dict(data: dict) -> Behavior:
    """Inverse of :func:`behavior_to_json_dict`; raises ValueError on any
    schema defect (missing keys, non-integer counts, wrong lengths,
    non-number probabilities, malformed or repeated context keys)."""
    if not isinstance(data, dict):
        raise ValueError("behavior JSON must be an object")
    for key in ("parties", "settings", "outcomes", "table"):
        if key not in data:
            raise ValueError(f"behavior JSON is missing the '{key}' field")
    parties = _json_integer(data["parties"], "behavior JSON 'parties'")
    try:
        settings = tuple(_json_integer(x, "behavior JSON 'settings' entry") for x in data["settings"])
        outcomes = tuple(_json_integer(x, "behavior JSON 'outcomes' entry") for x in data["outcomes"])
    except TypeError as exc:
        raise ValueError(f"malformed scenario fields: {exc}") from None
    scenario = Scenario(parties, settings, outcomes)
    table_data = data["table"]
    if not isinstance(table_data, dict):
        raise ValueError("'table' must map setting vectors to probability lists")
    n_out = math.prod(outcomes)
    table = np.zeros(scenario.table_shape)
    seen = {}
    for key, values in table_data.items():
        try:
            ctx = tuple(int(part) for part in key.split(","))
        except ValueError:
            raise ValueError(f"malformed context key '{key}'") from None
        if len(ctx) != parties or any(
            not 0 <= c < settings[p] for p, c in enumerate(ctx)
        ):
            raise ValueError(f"context key '{key}' out of range")
        if ctx in seen:
            raise ValueError(f"context keys '{seen[ctx]}' and '{key}' both name context {ctx}")
        if not isinstance(values, list):
            raise ValueError(f"context '{key}' needs a list of {n_out} probabilities")
        for k, value in enumerate(values):
            if not _is_json_number(value):
                raise ValueError(f"context '{key}' entry {k} must be a JSON number, got {value!r}")
            if _is_too_large(value):
                raise ValueError(f"context '{key}' entry {k} exceeds 1e300 in magnitude")
        row = np.asarray(values, dtype=float)
        if row.shape != (n_out,):
            raise ValueError(
                f"context '{key}' needs {n_out} probabilities, got {row.size}"
            )
        table[ctx] = row.reshape(tuple(outcomes))
        seen[ctx] = key
    missing = [ctx for ctx in scenario.contexts() if ctx not in seen]
    if missing:
        raise ValueError(f"table is missing context {missing[0]}")
    return Behavior(scenario, table)
