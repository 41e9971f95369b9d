"""Two-party Bell functionals over correlators and single-party marginals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Behavior, Scenario


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Affine functional on two-party behaviors.

    ``correlators[x, y]`` weights the full correlator at settings (x, y);
    ``marginals_a[x]`` and ``marginals_b[y]`` weight the single-party
    expectation values.  Its local bound, the maximum over deterministic
    strategies, is derived by ``localpoly.local_bound``.  The arrays are
    read-only copies, so a functional never changes once built.
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
