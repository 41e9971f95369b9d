"""Measurement scenarios and behaviors (conditional probability tables).

A behavior is the dense table P(a_1..a_N | A_1..A_N) for N parties, each
choosing among a finite number of settings with a finite number of outcomes.
Tables are stored as numpy arrays of shape ``(*settings, *outcomes)``
(settings-major, outcomes-minor when flattened row-major).

Conventions used throughout the package:

- setting and outcome indices are 0-based;
- for dichotomic parties, outcome 0 maps to the value +1 and outcome 1 to -1;
- behaviors are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_TOL = 1e-9

# Refuse to allocate tables beyond this many entries.
DEFAULT_TABLE_CAP = 1_000_000


@dataclass(frozen=True)
class Scenario:
    """Number of parties, settings per party, and outcomes per party.

    Outcome counts are uniform across a party's settings.
    """

    parties: int
    settings: tuple[int, ...]
    outcomes: tuple[int, ...]
    table_cap: int = field(default=DEFAULT_TABLE_CAP, compare=False)

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
        # Stop multiplying once past the cap: the full size of a huge
        # scenario is a number of thousands of digits.
        size = 1
        for n in self.table_shape:
            size *= n
            if size > self.table_cap:
                raise ValueError(f"table size exceeds cap {self.table_cap}")

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

    def context_table(self, context: tuple[int, ...]) -> np.ndarray:
        """Outcome distribution at one setting vector."""
        return self.table[tuple(context)]


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
    and never reach this function.
    """
    s = b.scenario
    n_out_axes = tuple(range(s.parties, 2 * s.parties))

    positivity = []
    bad = np.argwhere(b.table < -tol)
    for idx in bad:
        idx = tuple(int(i) for i in idx)
        positivity.append((idx[: s.parties], idx[s.parties:], float(b.table[idx])))
    max_pos = float(max(0.0, -b.table.min())) if b.table.size else 0.0

    sums = b.table.sum(axis=n_out_axes)
    deviations = np.abs(sums - 1.0)
    normalization = []
    for ctx in np.argwhere(deviations > tol):
        ctx = tuple(int(i) for i in ctx)
        normalization.append((ctx, float(deviations[ctx])))
    max_norm = float(deviations.max()) if deviations.size else 0.0

    return ValidationReport(
        passed=not positivity and not normalization,
        positivity_violations=tuple(positivity),
        normalization_deviations=tuple(normalization),
        max_positivity_violation=max_pos,
        max_normalization_deviation=max_norm,
    )


def is_no_signalling(b: Behavior, tol: float = DEFAULT_TOL) -> SignallingReport:
    """Compare, for every party and pair of its settings, the marginal of the
    remaining parties; report the largest entry-wise difference."""
    s = b.scenario
    max_violation = 0.0
    witness = None
    for k in range(s.parties):
        # Sum out party k's outcome axis, keeping its setting axis in front.
        reduced = b.table.sum(axis=s.parties + k)
        reduced = np.moveaxis(reduced, k, 0)  # axis 0 = party k's setting
        for s1, s2 in itertools.combinations(range(s.settings[k]), 2):
            diff = np.abs(reduced[s1] - reduced[s2])
            local_max = float(diff.max())
            if local_max > max_violation:
                max_violation = local_max
                flat = np.unravel_index(np.argmax(diff), diff.shape)
                flat = tuple(int(i) for i in flat)
                n_peer = s.parties - 1
                witness = SignallingWitness(
                    party=k,
                    settings=(s1, s2),
                    peer_context=flat[:n_peer],
                    peer_outcomes=flat[n_peer:],
                )
    passed = max_violation <= tol
    return SignallingReport(
        is_no_signalling=passed,
        max_violation=max_violation,
        witness=None if passed else witness,
    )


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
    if len(context) != s.parties:
        raise ValueError("context must give a setting for every party")
    drop = tuple(p for p in range(s.parties) if p not in keep)

    index = tuple(
        slice(None) if p in keep else int(context[p]) for p in range(s.parties)
    )
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
    if len(context) != s.parties:
        raise ValueError("context must give a setting for every party")
    block = b.table[tuple(int(c) for c in context)]
    return float((block * _sign_tensor(s)).sum())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def uniform_box(scenario: Scenario) -> Behavior:
    """All outcomes equally likely in every context."""
    n_out = 1
    for o in scenario.outcomes:
        n_out *= o
    table = np.full(scenario.table_shape, 1.0 / n_out)
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
    table = np.zeros(scenario.table_shape)
    for ctx in scenario.contexts():
        outs = tuple(assignment[p][ctx[p]] for p in range(scenario.parties))
        table[ctx + outs] = 1.0
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
    settings: tuple[int, ...] = ()
    outcomes: tuple[int, ...] = ()
    for f in factors:
        settings += f.scenario.settings
        outcomes += f.scenario.outcomes
    parties = len(settings)
    scenario = Scenario(parties, settings, outcomes)
    blocks = []
    start = 0
    for f in factors:
        n = f.scenario.parties
        blocks.append(tuple(range(start, start + n)))
        start += n
    table = _block_product([f.table for f in factors], blocks)
    return Behavior(scenario, table)


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


def _block_product(tables: list[np.ndarray], blocks: list[tuple[int, ...]]) -> np.ndarray:
    """Outer product of block tables, axes rearranged to global party order."""
    combined = np.ones(())
    # combined axes: per block, its settings then its outcomes; each axis is
    # keyed (0, party) for a setting and (1, party) for an outcome.
    keys = []
    for tbl, block in zip(tables, blocks):
        combined = np.multiply.outer(combined, tbl)
        keys += [(0, p) for p in block] + [(1, p) for p in block]
    return np.transpose(combined, sorted(range(len(keys)), key=keys.__getitem__))


def partial_local_box(
    blocks: tuple[tuple[int, ...], tuple[int, ...]],
    terms: list[tuple[Behavior, Behavior]],
    weights: list[float],
) -> Behavior:
    """Convex mixture of block products over one fixed two-block partition.

    Each term supplies one behavior per block; inside a block the behavior
    may be signalling, but the blocks are uncorrelated within each term.
    """
    block1, block2 = (tuple(sorted(set(blk))) for blk in blocks)
    all_parties = tuple(sorted(block1 + block2))
    if len(block1) + len(block2) != len(all_parties) or not block1 or not block2:
        raise ValueError("blocks must form a two-block partition of the parties")
    if all_parties != tuple(range(len(all_parties))):
        raise ValueError("blocks must cover parties 0..N-1")
    if len(terms) != len(weights) or not terms:
        raise ValueError("need one weight per term")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must form a probability distribution")

    n = len(all_parties)
    settings = [0] * n
    outcomes = [0] * n
    b1, b2 = terms[0]
    for blk, beh in ((block1, b1), (block2, b2)):
        for i, p in enumerate(blk):
            settings[p] = beh.scenario.settings[i]
            outcomes[p] = beh.scenario.outcomes[i]
    scenario = Scenario(n, tuple(settings), tuple(outcomes))

    table = np.zeros(scenario.table_shape)
    for wi, (t1, t2) in zip(w, terms):
        for blk, beh in ((block1, t1), (block2, t2)):
            expected = tuple(scenario.settings[p] for p in blk) + tuple(
                scenario.outcomes[p] for p in blk
            )
            if beh.scenario.table_shape != expected:
                raise ValueError("term behavior does not match its block")
        table += wi * _block_product([t1.table, t2.table], [block1, block2])
    return Behavior(scenario, table)


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


@functools.lru_cache(maxsize=8)
def cg_map(scenario: Scenario) -> sp.csr_array:
    """The Collins-Gisin (CG) parametrisation of no-signalling tables: a
    table is ``M @ q`` for the CSR matrix M returned here, and the NS
    polytope is {M q : q[0] = 1, M q >= 0}.

    Party p with s settings and o outcomes has 1 + s (o - 1) coordinates:
    a constant, then q(a|x) for every setting x and outcome a < o - 1, with
    q(o - 1|x) = 1 - sum_a q(a|x).  M is the Kronecker product of these
    per-party maps, its rows reordered to the table's (settings...,
    outcomes...) order, so column c is a grid of per-party digits and
    column 0 is the constant.  Memoised per scenario and returned
    read-only."""
    import scipy.sparse as sp

    m = sp.csr_array(np.ones((1, 1)))
    for s, o in zip(scenario.settings, scenario.outcomes):
        # Rows (x, a): q(a|x) for a < o - 1, and 1 minus their sum for o - 1.
        local = np.zeros((s, o, 1 + s * (o - 1)))
        local[:, -1, 0] = 1.0
        for x in range(s):
            coords = 1 + x * (o - 1) + np.arange(o - 1)
            local[x, np.arange(o - 1), coords] = 1.0
            local[x, -1, coords] = -1.0
        m = sp.kron(m, sp.csr_array(local.reshape(s * o, -1)), format="csr")
    n = scenario.parties
    interleaved = [k for pair in zip(scenario.settings, scenario.outcomes) for k in pair]
    order = np.arange(scenario.table_size).reshape(interleaved)
    order = order.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))).ravel()
    m = m[order].tocsr()
    for part in (m.data, m.indices, m.indptr):
        part.setflags(write=False)
    return m


def _orbit_minima(n: int, images: list[np.ndarray]) -> np.ndarray:
    """The smallest member of each index's orbit among 0..n-1 under the
    permutations ``images`` (index j and ``image[j]`` share an orbit)."""
    # Push each index's smallest known orbit member along the permutations
    # until nothing changes.
    label = np.arange(n)
    while True:
        smallest = label
        for image in images:
            smallest = np.minimum(smallest, smallest[image])
        if np.array_equal(smallest, label):
            return label
        label = smallest


@functools.lru_cache(maxsize=8)
def ns_orbit_polytope(
    scenario: Scenario, generators: tuple[tuple[int, ...], ...]
) -> tuple[sp.csr_array, sp.csr_array]:
    """The no-signalling polytope restricted to the tables fixed by the
    party permutations that ``generators`` span, in :func:`cg_map`
    coordinates with one variable y[k] per orbit of CG columns.

    Returns ``(rows, expand)``: ``expand = M @ P``, where ``P`` is the 0/1
    matrix of CG column c in orbit k, so ``expand @ y`` is the table; and
    ``rows = expand[representatives]``, one positivity row per orbit of
    table entries at its smallest entry.  The fixed tables are then
    {expand @ y : y[0] = 1, rows @ y >= 0}: column 0 is the constant, and
    an expanded table is constant on every orbit of table entries.  A party
    permutation moves CG columns by transposing their per-party digit grid.
    Every party permutation that keeps settings and outcome counts maps the
    NS polytope onto itself, so a generator that does not is refused.
    Memoised per (scenario, generators) and returned read-only."""
    import scipy.sparse as sp

    kinds = list(zip(scenario.settings, scenario.outcomes))
    for perm in generators:
        if sorted(perm) != list(range(scenario.parties)) or [kinds[p] for p in perm] != kinds:
            raise ValueError(f"{perm} is not a party symmetry of the scenario")
    m = cg_map(scenario)
    n_cols = m.shape[1]
    columns = np.arange(n_cols).reshape(tuple(1 + s * (o - 1) for s, o in kinds))
    column_minima = _orbit_minima(n_cols, [columns.transpose(perm).ravel() for perm in generators])
    column_orbit = np.unique(column_minima, return_inverse=True)[1]
    members = sp.csr_array(
        (np.ones(n_cols), (np.arange(n_cols), column_orbit)),
        shape=(n_cols, int(column_orbit.max()) + 1),
    )
    expand = (m @ members).tocsr()
    entries = np.arange(scenario.table_size)
    representatives = np.unique(_orbit_minima(
        scenario.table_size, [permute_parties(scenario, entries, perm) for perm in generators]
    ))
    rows = expand[representatives].tocsr()
    for part in (rows.data, rows.indices, rows.indptr, expand.data, expand.indices, expand.indptr):
        part.setflags(write=False)
    return rows, expand


@functools.lru_cache(maxsize=8)
def ns_orbit_dual_rows(
    scenario: Scenario, generators: tuple[tuple[int, ...], ...]
) -> tuple[np.ndarray, sp.csr_array]:
    """The rows of :func:`ns_orbit_polytope` split by column for the dual
    of an optimum over them: the constant column as a dense vector, one
    entry per positivity row, and the free columns transposed to CSR, one
    row per free coordinate.  Memoised per (scenario, generators) and
    returned read-only."""
    rows, _ = ns_orbit_polytope(scenario, generators)
    constant = rows[:, [0]].toarray().ravel()
    free_t = rows[:, 1:].T.tocsr()
    free_t.sort_indices()
    for part in (constant, free_t.data, free_t.indices, free_t.indptr):
        part.setflags(write=False)
    return constant, free_t


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


def behavior_from_json_dict(data: dict) -> Behavior:
    """Inverse of :func:`behavior_to_json_dict`; raises ValueError on any
    schema defect (missing keys, wrong lengths, malformed context keys)."""
    if not isinstance(data, dict):
        raise ValueError("behavior JSON must be an object")
    for key in ("parties", "settings", "outcomes", "table"):
        if key not in data:
            raise ValueError(f"behavior JSON is missing the '{key}' field")
    try:
        parties = int(data["parties"])
        settings = tuple(int(x) for x in data["settings"])
        outcomes = tuple(int(x) for x in data["outcomes"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed scenario fields: {exc}") from None
    scenario = Scenario(parties, settings, outcomes)
    table_data = data["table"]
    if not isinstance(table_data, dict):
        raise ValueError("'table' must map setting vectors to probability lists")
    n_out = 1
    for o in outcomes:
        n_out *= o
    table = np.zeros(scenario.table_shape)
    seen = set()
    for key, values in table_data.items():
        try:
            ctx = tuple(int(part) for part in key.split(","))
        except ValueError:
            raise ValueError(f"malformed context key '{key}'") from None
        if len(ctx) != parties or any(
            not 0 <= c < settings[p] for p, c in enumerate(ctx)
        ):
            raise ValueError(f"context key '{key}' out of range")
        row = np.asarray(values, dtype=float)
        if row.shape != (n_out,):
            raise ValueError(
                f"context '{key}' needs {n_out} probabilities, got {row.size}"
            )
        table[ctx] = row.reshape(tuple(outcomes))
        seen.add(ctx)
    missing = [ctx for ctx in scenario.contexts() if ctx not in seen]
    if missing:
        raise ValueError(f"table is missing context {missing[0]}")
    return Behavior(scenario, table)
