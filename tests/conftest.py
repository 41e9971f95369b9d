"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from monogamy import (
    Behavior,
    Scenario,
    born_behavior,
    chsh_value,
    phi_plus,
    planar_observable,
)

TSIRELSON_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def chsh_scenario() -> Scenario:
    return Scenario(2, (2, 2), (2, 2))


def flat_index(scenario: Scenario, context: tuple, outcomes: tuple) -> int:
    """Position of a table entry in the row-major flattened table."""
    return int(np.ravel_multi_index(context + outcomes, scenario.table_shape))


def random_behavior(rng: np.random.Generator, scenario: Scenario) -> Behavior:
    """Random strictly positive behavior (generally signalling)."""
    table = rng.random(scenario.table_shape) + 1e-3
    axes = tuple(range(scenario.parties, 2 * scenario.parties))
    table = table / table.sum(axis=axes, keepdims=True)
    return Behavior(scenario, table)


def observables_from_angles(angles) -> list[list[np.ndarray]]:
    """Four planar angles (a0, a1, b0, b1) to per-party observable lists."""
    a0, a1, b0, b1 = angles
    return [
        [planar_observable(a0), planar_observable(a1)],
        [planar_observable(b0), planar_observable(b1)],
    ]


def tsirelson_behavior() -> Behavior:
    return born_behavior(phi_plus(), observables_from_angles(TSIRELSON_ANGLES))


def random_violating_behavior(rng: np.random.Generator, threshold: float = 2.1) -> Behavior:
    """Quantum two-party behavior with CHSH above the threshold, produced by
    jittering the maximally violating configuration."""
    from monogamy import density_from_vector

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    while True:
        vec = bell + 0.25 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        jitter = rng.uniform(-0.25, 0.25, 4)
        angles = tuple(base + j for base, j in zip(TSIRELSON_ANGLES, jitter))
        behavior = born_behavior(
            density_from_vector(vec), observables_from_angles(angles)
        )
        if abs(chsh_value(behavior)) > threshold:
            return behavior
