"""Two-party Bell functionals over correlators and single-party marginals."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .model import Behavior, Relabeling, Scenario, _capped_product


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Affine functional on two-party behaviors.

    ``correlators[x, y]`` weights the full correlator at settings (x, y);
    ``marginals_a[x]`` and ``marginals_b[y]`` weight the single-party
    expectation values.  Its local bound, the maximum over deterministic
    strategies, is derived by ``localpoly.local_bound``.  The arrays are
    finite, read-only copies, so a functional never changes once built.
    """

    correlators: np.ndarray
    marginals_a: np.ndarray
    marginals_b: np.ndarray

    def __post_init__(self):
        corr = np.array(self.correlators, dtype=float)
        ma = np.array(self.marginals_a, dtype=float)
        mb = np.array(self.marginals_b, dtype=float)
        if corr.ndim != 2 or ma.shape != (corr.shape[0],) or mb.shape != (corr.shape[1],):
            raise ValueError("coefficient shapes are inconsistent")
        if not all(np.isfinite(value).all() for value in (corr, ma, mb)):
            raise ValueError("coefficients must be finite")
        for name, value in (("correlators", corr), ("marginals_a", ma), ("marginals_b", mb)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def settings(self) -> tuple[int, int]:
        return self.correlators.shape


def chsh() -> BellFunctional:
    """AB + AB' + A'B - A'B'; local bound 2, quantum bound 2*sqrt(2),
    no-signalling bound 4."""
    return BellFunctional(
        correlators=np.array([[1.0, 1.0], [1.0, -1.0]]),
        marginals_a=np.zeros(2),
        marginals_b=np.zeros(2),
    )


def collins_gisin() -> BellFunctional:
    """The three-setting two-party functional with local bound 4:
    AB + A'B + A''B + AB' + A'B' + AB'' - A''B' - A'B'' + A + A' - B - B'."""
    return BellFunctional(
        correlators=np.array([
            [1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0],
            [1.0, -1.0, 0.0],
        ]),
        marginals_a=np.array([1.0, 1.0, 0.0]),
        marginals_b=np.array([-1.0, -1.0, 0.0]),
    )


# Refuse a party's candidates, or the broadcast over both parties', beyond
# this many entries.
SYMMETRY_CAP = 1 << 22


def relabeling_symmetries(f: BellFunctional) -> tuple[tuple[Relabeling, Relabeling], ...]:
    """The relabeling pairs (g_A, g_B) that leave the functional unchanged
    on every behavior, identity first: g permutes a party's settings by
    sigma and flips its outcome at some of them, which multiplies its
    expectation at setting x by s[x] = -1 or 1 and moves it to sigma[x].
    So g_A keeps the functional iff marginals_a[sigma_A[x]] = s_A[x]
    marginals_a[x] (and likewise g_B) and correlators[sigma_A[x],
    sigma_B[y]] = s_A[x] s_B[y] correlators[x, y].  Each party's
    candidates are filtered on its marginals first, and the correlators
    are then checked in one broadcast, refused with ValueError above
    ``SYMMETRY_CAP`` entries.  Memoised by the coefficients."""
    return _symmetries(f.correlators.tobytes(), f.marginals_a.tobytes(),
                       f.marginals_b.tobytes(), f.settings)


def _party_candidates(marginals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (setting permutation, signs) of one party that keeps its marginal
    terms; ValueError, before any is built, if its s! 2^s candidates of s
    entries each pass ``SYMMETRY_CAP``."""
    s = marginals.size
    _capped_product(itertools.chain(range(2, s + 1), itertools.repeat(2, s), (s,)),
                    SYMMETRY_CAP, "relabeling candidates")
    perms = np.array(list(itertools.permutations(range(s)))).reshape(-1, s)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=s))).reshape(-1, s)
    perms, signs = np.repeat(perms, len(signs), axis=0), np.tile(signs, (len(perms), 1))
    keep = np.all(marginals[perms] == signs * marginals, axis=1)
    return perms[keep], signs[keep]


@functools.lru_cache(maxsize=16)
def _symmetries(correlators: bytes, marginals_a: bytes, marginals_b: bytes, settings):
    w = np.frombuffer(correlators).reshape(settings)
    perms_a, signs_a = _party_candidates(np.frombuffer(marginals_a))
    perms_b, signs_b = _party_candidates(np.frombuffer(marginals_b))
    size = len(perms_a) * len(perms_b) * w.size
    if size > SYMMETRY_CAP:
        raise ValueError(f"relabeling enumeration needs {size} entries, above cap {SYMMETRY_CAP}")
    moved = w[perms_a[:, None, :, None], perms_b[None, :, None, :]]
    signed = signs_a[:, None, :, None] * signs_b[None, :, None, :] * w
    pairs = np.argwhere(np.all(moved == signed, axis=(2, 3)))

    def relabeling(perms, signs, i):
        return Relabeling(tuple(perms[i].tolist()), tuple((signs[i] < 0).tolist()))

    return tuple((relabeling(perms_a, signs_a, i), relabeling(perms_b, signs_b, j)) for i, j in pairs)


def functional_row(scenario: Scenario, f: BellFunctional, pair: tuple[int, int]) -> np.ndarray:
    """Flat-table coefficients of the functional on one pair of parties.

    The functional's first party is ``pair[0]`` and its second ``pair[1]``;
    every other party's setting is pinned to 0 (immaterial under the
    no-signalling equalities).  A single-party term sits at the other pair
    party's setting 0.
    """
    p1, p2 = pair
    if p1 == p2 or not (0 <= p1 < scenario.parties and 0 <= p2 < scenario.parties):
        raise ValueError("pair must name two distinct parties of the scenario")
    settings = (scenario.settings[p1], scenario.settings[p2])
    if settings != f.settings:
        raise ValueError(
            f"parties {pair} have settings {settings}, functional needs {f.settings}"
        )
    if scenario.outcomes[p1] != 2 or scenario.outcomes[p2] != 2:
        raise ValueError("Bell functionals require dichotomic outcomes")
    n = scenario.parties

    def sign(party: int) -> np.ndarray:
        """+-1 by the party's outcome, over all outcome axes."""
        shape = [1] * n
        shape[party] = 2
        return np.array([1.0, -1.0]).reshape(shape)

    over_outcomes = (...,) + (None,) * n
    block = np.zeros(f.settings + scenario.outcomes)  # axes (x, y, outcomes)
    block += f.correlators[over_outcomes] * sign(p1) * sign(p2)
    block[:, 0] += f.marginals_a[over_outcomes] * sign(p1)
    block[0, :] += f.marginals_b[over_outcomes] * sign(p2)

    coeffs = np.zeros(scenario.table_shape)
    context = [0] * n
    context[p1] = context[p2] = slice(None)
    coeffs[tuple(context)] = block if p1 < p2 else block.swapaxes(0, 1)
    return coeffs.reshape(-1)


def bell_value(b: Behavior, f: BellFunctional) -> float:
    """Evaluate the functional on a two-party behavior."""
    if b.scenario.parties != 2:
        raise ValueError("Bell functionals act on two-party behaviors")
    return float(functional_row(b.scenario, f, (0, 1)) @ b.table.reshape(-1))


_CHSH = chsh()


def chsh_value(b: Behavior) -> float:
    return bell_value(b, _CHSH)
