"""Reference answers for the benchmark, computed without the program.

Every value here is a closed form from the literature or a direct numpy
evaluation written independently of ``monogamy``:

- support functions of the (CHSH_ab, CHSH_ac) regions: no-signalling
  |x| + |y| <= 4, local square [-2, 2]^2, quantum disc of radius 2*sqrt(2)
  (Toner & Verstraete 2006);
- Fine's theorem: a two-setting, two-outcome no-signalling behaviour is local
  iff all eight CHSH variants lie in [-2, 2]; with two settings for the cloned
  party it is then 2-shareable exactly when local (Masanes, Acin & Gisin,
  PRA 73, 012112, 2006), and a local behaviour extends to any clone count;
- the separable-orthogonal maximum sqrt(2) and the W-state tangles;
- the three-tangle of a pure 3-qubit state from Cayley's hyperdeterminant
  (Coffman, Kundu & Wootters 2000), which equals the residual of the
  distributed-entanglement check for every pivot.

Tables use the program's layout: axes (settings..., outcomes...), outcome 0
is the value +1.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)
SEPARABLE_ORTHOGONAL_MAX = math.sqrt(2.0)
W_PAIRWISE_TANGLES = (4.0 / 9.0, 4.0 / 9.0)
W_CUT_TANGLE = 8.0 / 9.0
CG_LOCAL_BOUND = 4.0

# The three-setting functional AB + A'B + A''B + AB' + A'B' + AB'' - A''B'
# - A'B'' + A + A' - B - B' as correlator weights and single-party weights.
CG_CORRELATORS = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 0.0]])
CG_MARGINALS_A = np.array([1.0, 1.0, 0.0])
CG_MARGINALS_B = np.array([-1.0, -1.0, 0.0])

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SIGN = np.array([1.0, -1.0])


def ns_support(theta: float) -> float:
    """Support of |x| + |y| <= 4 in direction (cos theta, sin theta)."""
    return 4.0 * max(abs(math.cos(theta)), abs(math.sin(theta)))


def local_support(theta: float) -> float:
    """Support of the square [-2, 2]^2."""
    return 2.0 * (abs(math.cos(theta)) + abs(math.sin(theta)))


def quantum_support(theta: float) -> float:
    """Support of the disc of radius 2*sqrt(2): the same in every direction."""
    return TSIRELSON


# ---------------------------------------------------------------------------
# Two-party behaviours
# ---------------------------------------------------------------------------

def correlators(table: np.ndarray) -> np.ndarray:
    """E[x, y] = sum_ab (-1)^(a+b) P(a, b | x, y) of a (2, 2, 2, 2) table."""
    return np.einsum("xyab,a,b->xy", table, _SIGN, _SIGN)


def chsh_variants(table: np.ndarray) -> np.ndarray:
    """The eight CHSH expressions: for each setting pair carrying the minus
    sign, the sum of the four correlators minus twice that one, with both
    overall signs."""
    e = correlators(table)
    total = e.sum()
    values = np.array([total - 2.0 * e[x, y] for x in range(2) for y in range(2)])
    return np.concatenate([values, -values])


def chsh_margin(table: np.ndarray) -> float:
    """Largest CHSH variant minus the local bound 2: negative iff local."""
    return float(chsh_variants(table).max()) - 2.0


# Mixtures of deterministic vertices can sit exactly on a facet, CHSH = 2,
# where rounding leaves the largest variant at 2 + 1e-16.
FACET_TOL = 1e-9


def is_local(table: np.ndarray) -> bool:
    """Fine's theorem for a no-signalling (2, 2, 2, 2) behaviour."""
    return chsh_margin(table) <= FACET_TOL


def chsh(table: np.ndarray) -> float:
    """E00 + E01 + E10 - E11."""
    e = correlators(table)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def pair_chsh(table3: np.ndarray, pair: tuple[int, int]) -> float:
    """CHSH on one pair of a three-party (2,)*6 table, the third party's
    setting pinned to 0 and its outcome summed out."""
    third = 3 - sum(pair)
    index = [slice(None)] * 3
    index[third] = 0
    sub = table3[tuple(index)].sum(axis=2 + third)
    return chsh(sub)


def three_party_checks(table3: np.ndarray) -> tuple[float, float, list[bool]]:
    """Pair values and the three behaviour-only trade-off checks the CLI runs:
    |ab| + |ac| <= 4, ab^2 + ac^2 <= 8, and ab^2 + 4 <A0 C0>^2 <= 8."""
    ab, ac = pair_chsh(table3, (0, 1)), pair_chsh(table3, (0, 2))
    corr_ac = float(np.einsum("ac,a,c->", table3[0, 0, 0].sum(axis=1), _SIGN, _SIGN))
    tol = 1e-9
    passed = [
        abs(ab) + abs(ac) <= 4.0 + tol,
        ab * ab + ac * ac <= 8.0 + tol,
        ab * ab + 4.0 * corr_ac * corr_ac <= 8.0 + tol,
    ]
    return ab, ac, passed


# ---------------------------------------------------------------------------
# Qubit states under planar measurements
# ---------------------------------------------------------------------------

def planar(alpha: float) -> np.ndarray:
    """cos(alpha) sigma_x + sin(alpha) sigma_z."""
    return math.cos(alpha) * _SX + math.sin(alpha) * _SZ


def expectation(vec: np.ndarray, ops: list[np.ndarray]) -> float:
    """<psi| op_1 x op_2 x ... |psi> for one single-qubit operator per qubit."""
    full = np.ones((1, 1), dtype=complex)
    for op in ops:
        full = np.kron(full, op)
    v = vec / np.linalg.norm(vec)
    return float(np.real(v.conj() @ full @ v))


def named_two_qubit(name: str) -> np.ndarray:
    """The CLI's two-qubit named states as vectors."""
    v = np.zeros(4, dtype=complex)
    if name == "phi_plus":
        v[0b00] = v[0b11] = 1.0 / math.sqrt(2.0)
    elif name == "singlet":
        v[0b01], v[0b10] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    else:
        raise ValueError(f"no two-qubit state named {name!r}")
    return v


def two_qubit_chsh(vec: np.ndarray, angles: tuple[float, float, float, float]) -> float:
    """CHSH of a pure two-qubit state with settings (a0, a1, b0, b1)."""
    a0, a1, b0, b1 = (planar(x) for x in angles)
    return (
        expectation(vec, [a0, b0]) + expectation(vec, [a0, b1])
        + expectation(vec, [a1, b0]) - expectation(vec, [a1, b1])
    )


def cg_vector(mu: float) -> np.ndarray:
    """mu|000> + sqrt((1 - mu^2) / 2) (|110> + |101>)."""
    v = np.zeros(8, dtype=complex)
    rest = math.sqrt((1.0 - mu * mu) / 2.0)
    v[0b000], v[0b110], v[0b101] = mu, rest, rest
    return v


def cg_pair_values(vec: np.ndarray, angles: list[float]) -> tuple[float, float]:
    """Three-setting functional on the (a, b) and (a, c) pairs of a pure
    3-qubit state; ``angles`` are a0..a2, b0..b2, c0..c2."""
    eye = np.eye(2, dtype=complex)
    a = [planar(x) for x in angles[0:3]]
    values = []
    for other, slot in ((angles[3:6], 1), (angles[6:9], 2)):
        b = [planar(x) for x in other]

        def ops(op_a, op_b):
            out = [op_a, eye, eye]
            out[slot] = op_b
            return out

        value = 0.0
        for x in range(3):
            for y in range(3):
                if CG_CORRELATORS[x, y]:
                    value += CG_CORRELATORS[x, y] * expectation(vec, ops(a[x], b[y]))
            if CG_MARGINALS_A[x]:
                value += CG_MARGINALS_A[x] * expectation(vec, ops(a[x], eye))
            if CG_MARGINALS_B[x]:
                value += CG_MARGINALS_B[x] * expectation(vec, ops(eye, b[x]))
        values.append(value)
    return values[0], values[1]


def cut_tangle(vec: np.ndarray, pivot: int) -> float:
    """4 det(rho_pivot) of a pure 3-qubit state."""
    t = (vec / np.linalg.norm(vec)).reshape(2, 2, 2)
    t = np.moveaxis(t, pivot, 0).reshape(2, 4)
    rho = t @ t.conj().T
    return float(4.0 * np.real(np.linalg.det(rho)))


def three_tangle(vec: np.ndarray) -> float:
    """4 |d1 - 2 d2 + 4 d3| from Cayley's hyperdeterminant."""
    a = (vec / np.linalg.norm(vec)).reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def w_vector() -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[0b001] = v[0b010] = v[0b100] = 1.0 / math.sqrt(3.0)
    return v


def self_check() -> list[str]:
    """Compare the oracle with values worked out by hand; returns the
    failures (an empty list when every value agrees)."""
    failures = []

    def expect(label, got, want, tol=1e-12):
        if abs(got - want) > tol:
            failures.append(f"{label}: oracle gives {got!r}, hand value {want!r}")

    root2 = math.sqrt(2.0)
    expect("NS support at 0", ns_support(0.0), 4.0)
    expect("NS support at pi/4", ns_support(math.pi / 4), 2.0 * root2)
    expect("NS support at pi", ns_support(math.pi), 4.0)
    expect("local support at 0", local_support(0.0), 2.0)
    expect("local support at pi/4", local_support(math.pi / 4), 2.0 * root2)
    expect("quantum support at pi/8", quantum_support(math.pi / 8), 2.0 * root2)

    pr = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                pr[x, y, a, a ^ (x & y)] = 0.5
    expect("PR box CHSH", chsh(pr), 4.0)
    if is_local(pr):
        failures.append("PR box classified local")
    uniform = np.full((2, 2, 2, 2), 0.25)
    expect("uniform CHSH variants", float(np.abs(chsh_variants(uniform)).max()), 0.0)
    noisy = 0.5 * pr + 0.5 * uniform
    expect("PR at visibility 1/2 margin", chsh_margin(noisy), 0.0)

    tsirelson_angles = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    expect("Tsirelson angles", two_qubit_chsh(named_two_qubit("phi_plus"), tsirelson_angles),
           2.0 * root2)
    expect("singlet at Tsirelson angles", two_qubit_chsh(named_two_qubit("singlet"), tsirelson_angles),
           -2.0 * root2)

    w = w_vector()
    expect("W cut tangle", cut_tangle(w, 0), 8.0 / 9.0)
    expect("W three-tangle", three_tangle(w), 0.0)
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / root2
    expect("GHZ three-tangle", three_tangle(ghz), 1.0)
    expect("GHZ cut tangle", cut_tangle(ghz, 2), 1.0)

    signs = [np.array(s) for s in itertools.product((1.0, -1.0), repeat=3)]
    best = max(
        sa @ CG_CORRELATORS @ sb + CG_MARGINALS_A @ sa + CG_MARGINALS_B @ sb
        for sa in signs for sb in signs
    )
    expect("three-setting local bound", float(best), CG_LOCAL_BOUND)
    return failures
