"""Deterministic strategies, local membership LP, and Bell bounds."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from monogamy import (
    LocalModel,
    NotLocal,
    Scenario,
    chsh,
    chsh_value,
    collins_gisin,
    deterministic_behaviors,
    deterministic_box,
    deterministic_strategies,
    is_no_signalling,
    local_bound,
    local_decomposition,
    mixture,
    pr_box,
    uniform_box,
    validate_behavior,
)
from monogamy.bell import BellFunctional
from monogamy.localpoly import STRATEGY_CAP, _membership_program, strategy_matrix
from conftest import chsh_scenario, random_violating_behavior, tsirelson_behavior

# 1 960 table entries and 2^19 strategies, both modest, but a
# 1 960 x 524 288 strategy matrix: 8.2 GB of float64.
WIDE = Scenario(3, (7, 7, 5), (2, 2, 2))


class TestEnumeration:
    @pytest.mark.parametrize(
        "scenario,count",
        [
            (Scenario(2, (2, 2), (2, 2)), 16),
            (Scenario(1, (1,), (2,)), 2),
            (Scenario(3, (2, 2, 2), (2, 2, 2)), 64),
        ],
    )
    def test_strategy_counts(self, scenario, count):
        assert len(deterministic_strategies(scenario)) == count

    def test_vertices_are_valid_ns_behaviors(self):
        for b in deterministic_behaviors(chsh_scenario()):
            assert set(np.unique(b.table)) <= {0.0, 1.0}
            assert validate_behavior(b, tol=1e-15).passed
            assert is_no_signalling(b).max_violation == 0.0

    def test_cap_refusal(self):
        big = Scenario(4, (5, 5, 5, 5), (4, 4, 4, 4))
        with pytest.raises(ValueError, match="cap"):
            deterministic_strategies(big)

    def test_huge_strategy_count_refused_at_once(self):
        # 2^20000 strategies: the refusal stops multiplying at the cap and
        # prints no 6 000-digit count.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^strategy matrix size exceeds cap {STRATEGY_CAP}$"):
            local_decomposition(uniform_box(Scenario(1, (20000,), (2,))))
        assert time.perf_counter() - start < 1.0

    def test_behaviors_respect_cap(self):
        # One deterministic table per strategy: the matrix's entries again.
        with pytest.raises(ValueError, match=f"^strategy matrix size exceeds cap {STRATEGY_CAP}$"):
            deterministic_behaviors(WIDE)

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(2, (2, 2), (2, 2)),
            Scenario(3, (2, 2, 2), (2, 2, 2)),
            Scenario(2, (3, 3), (2, 2)),
            Scenario(2, (2, 2), (3, 2)),
        ],
        ids=["chsh", "three-party", "three-settings", "three-outcomes"],
    )
    def test_strategy_matrix_columns(self, scenario):
        # Column k is the table of the k-th enumerated strategy.
        expected = np.stack([
            deterministic_box(scenario, s.assignment).table.reshape(-1)
            for s in deterministic_strategies(scenario)
        ], axis=1)
        matrix = strategy_matrix(scenario)
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, expected)

    def test_strategy_matrix_refuses_before_allocating(self):
        # 4^20 columns, or the WIDE box's 8.2 GB matrix: any allocation of
        # the matrix would exhaust memory.
        big = Scenario(4, (5, 5, 5, 5), (4, 4, 4, 4))
        wide = uniform_box(WIDE)
        message = f"^strategy matrix size exceeds cap {STRATEGY_CAP}$"
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                strategy_matrix(big)
            with pytest.raises(ValueError, match=message):
                strategy_matrix(WIDE)
            with pytest.raises(ValueError, match=message):
                local_decomposition(wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert time.perf_counter() - start < 1.0


class TestDecomposition:
    def test_uniform_is_local(self):
        result = local_decomposition(uniform_box(chsh_scenario()))
        assert isinstance(result, LocalModel)
        assert result.reconstruction_error <= 1e-8

    def test_pr_box_not_local(self):
        result = local_decomposition(pr_box())
        assert isinstance(result, NotLocal)
        assert result.score > 1e-3
        # Cross-check against the analytic facet: CHSH = 4 > 2.
        assert abs(chsh_value(pr_box())) > 2

    def test_tsirelson_behavior_not_local(self):
        assert isinstance(local_decomposition(tsirelson_behavior()), NotLocal)

    def test_random_strategy_mixtures_are_local(self, rng):
        scenario = chsh_scenario()
        vertices = deterministic_behaviors(scenario)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            picks = rng.choice(len(vertices), size=k, replace=False)
            weights = rng.dirichlet(np.ones(k))
            target = mixture([vertices[i] for i in picks], list(weights))
            result = local_decomposition(target)
            assert isinstance(result, LocalModel)
            assert result.reconstruction_error <= 1e-8

    def test_model_reconstruction_is_ns(self, rng):
        scenario = chsh_scenario()
        vertices = deterministic_behaviors(scenario)
        picks = rng.choice(len(vertices), size=4, replace=False)
        target = mixture([vertices[i] for i in picks], [0.4, 0.3, 0.2, 0.1])
        model = local_decomposition(target)
        assert isinstance(model, LocalModel)
        rebuilt = model.behavior()
        assert is_no_signalling(rebuilt).max_violation <= 1e-10

    def test_soundness_against_chsh_facet(self, rng):
        for _ in range(5):
            b = random_violating_behavior(rng, threshold=2.0 + 1e-6)
            assert isinstance(local_decomposition(b), NotLocal)

    @pytest.mark.parametrize("scenario", [chsh_scenario(), Scenario(2, (3, 2), (2, 3))])
    def test_membership_rows_memoised_read_only(self, scenario):
        # The strategy columns over the normalization row, built once.
        rows = _membership_program(scenario).eq_lhs
        matrix = strategy_matrix(scenario)
        assert rows.format == "csr"
        assert np.array_equal(rows.toarray(), np.vstack([matrix, np.ones(matrix.shape[1])]))
        assert _membership_program(scenario).eq_lhs is rows
        for part in (rows.data, rows.indices, rows.indptr):
            assert not part.flags.writeable


def brute_force_bound(f: BellFunctional) -> float:
    """Max of sum C[x,y] a_x b_y + sum m_A[x] a_x + sum m_B[y] b_y over
    every +-1 assignment a of Alice's settings and b of Bob's."""
    n_a, n_b = f.settings
    best = -np.inf
    for a in itertools.product((1, -1), repeat=n_a):
        for b in itertools.product((1, -1), repeat=n_b):
            value = sum(f.correlators[x, y] * a[x] * b[y] for x in range(n_a) for y in range(n_b))
            value += sum(f.marginals_a[x] * a[x] for x in range(n_a))
            value += sum(f.marginals_b[y] * b[y] for y in range(n_b))
            best = max(best, value)
    return best


class TestLocalBound:
    def test_chsh_bound(self):
        assert local_bound(chsh()) == 2.0

    def test_three_setting_bound(self):
        assert local_bound(collins_gisin()) == 4.0

    def test_zero_functional(self):
        zero = BellFunctional(
            correlators=np.zeros((2, 2)),
            marginals_a=np.zeros(2),
            marginals_b=np.zeros(2),
        )
        assert local_bound(zero) == 0.0

    @pytest.mark.parametrize("block", ["correlators", "marginals_a", "marginals_b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_coefficients_refused(self, block, value):
        # A NaN or infinite weight would make every bound and value NaN.
        coefficients = {"correlators": np.eye(2), "marginals_a": np.zeros(2),
                        "marginals_b": np.zeros(2)}
        coefficients[block] = coefficients[block].copy()
        coefficients[block].flat[0] = value
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            BellFunctional(**coefficients)

    @pytest.mark.parametrize("settings", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_brute_force(self, settings):
        rng = np.random.default_rng(sum(settings) * 10 + settings[0])
        for _ in range(5):
            f = BellFunctional(
                rng.standard_normal(settings),
                rng.standard_normal(settings[0]),
                rng.standard_normal(settings[1]),
            )
            assert np.all(f.marginals_a != 0) and np.all(f.marginals_b != 0)
            assert local_bound(f) == pytest.approx(brute_force_bound(f), rel=0.0, abs=1e-12)
