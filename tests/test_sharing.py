"""Extensions of two-party behaviors: delta construction and symmetric
no-signalling feasibility."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monogamy import (
    Behavior,
    ExtensionCertificate,
    InfeasibleExtension,
    LpStatus,
    Scenario,
    chsh_value,
    deterministic_box,
    is_n_shareable,
    is_no_signalling,
    mixture,
    ns_extension,
    pr_box,
    random_shareable_behavior,
    uniform_box,
    unrestricted_extension,
    validate_behavior,
)
from monogamy import model, sharing
from monogamy.model import (
    DEFAULT_TABLE_CAP,
    _clone_multisets,
    symmetric_cg_index,
    symmetric_cg_marginal_split,
    symmetric_cg_rows,
)
from monogamy.sharing import (
    _extended_scenario,
    _marginal_residual_ns,
    _marginal_residual_unrestricted,
    _symmetry_residual,
    clone_symmetry_constraints,
    discard_last_clone,
)
from monogamy.localpoly import LocalModel, deterministic_behaviors, local_decomposition
from conftest import (
    assert_matches_orbit_reference,
    chsh_scenario,
    equality_extension_lp,
    flat_index,
    full_table_extension_exists,
    full_table_extension_lp,
    random_behavior,
    random_ns_behavior,
    reference_shareable_draw,
    tsirelson_behavior,
)


class TestUnrestricted:
    def test_pr_box_three_clones_exact(self):
        cert = unrestricted_extension(pr_box(), 3)
        assert cert.symmetry_residual == 0.0
        assert cert.marginal_residual == 0.0
        assert validate_behavior(cert.behavior, tol=1e-15).passed

    def test_uniform_two_clones(self):
        cert = unrestricted_extension(uniform_box(chsh_scenario()), 2)
        assert cert.symmetry_residual == 0.0
        assert cert.marginal_residual == 0.0

    def test_deterministic_five_clones_binary_table(self):
        base = deterministic_box(chsh_scenario(), ((0, 1), (1, 0)))
        cert = unrestricted_extension(base, 5)
        assert set(np.unique(cert.behavior.table)) <= {0.0, 1.0}
        assert cert.marginal_residual == 0.0

    def test_signalling_base_accepted_and_result_signalling(self, rng):
        # The construction exists for every behavior; for a generic base the
        # output signals (clone marginals depend on the first clone's
        # setting).
        base = random_behavior(rng, chsh_scenario())
        cert = unrestricted_extension(base, 2)
        assert cert.symmetry_residual == 0.0
        assert cert.marginal_residual == 0.0
        assert not is_no_signalling(cert.behavior).is_no_signalling

    def test_random_bases_all_exact(self, rng):
        for _ in range(10):
            base = random_behavior(rng, chsh_scenario())
            for n in (2, 3):
                cert = unrestricted_extension(base, n)
                assert cert.symmetry_residual == 0.0
                assert cert.marginal_residual == 0.0


    @pytest.mark.parametrize("extend", [unrestricted_extension, ns_extension])
    @pytest.mark.parametrize("n_clones", [0, -1])
    def test_no_clones_refused(self, extend, n_clones):
        with pytest.raises(ValueError, match="need at least one clone"):
            extend(pr_box(), n_clones)


class TestNsExtension:
    def test_uniform_four_clones_feasible(self):
        result = ns_extension(uniform_box(chsh_scenario()), 4)
        assert isinstance(result, ExtensionCertificate)
        assert result.symmetry_residual <= 1e-7
        assert result.marginal_residual <= 1e-7
        assert is_no_signalling(result.behavior, tol=1e-6).is_no_signalling

    def test_pr_box_two_clones_infeasible(self):
        result = ns_extension(pr_box(), 2)
        assert isinstance(result, InfeasibleExtension)
        assert result.violation > 1e-3

    def test_tsirelson_behavior_infeasible(self):
        result = ns_extension(tsirelson_behavior(), 2)
        assert isinstance(result, InfeasibleExtension)

    def test_signalling_base_rejected(self, rng):
        with pytest.raises(ValueError, match="signalling"):
            ns_extension(random_behavior(rng, chsh_scenario()), 2)

    def test_one_definition_pass_per_base(self, definition_passes, rng):
        # The base's validity and signalling reports come from one pass, and
        # the refusals read as they did when each had a pass of its own.
        signalling = random_behavior(rng, chsh_scenario())
        violation = is_no_signalling(signalling).max_violation
        unnormalized = Behavior(chsh_scenario(), np.full((2, 2, 2, 2), 0.3))
        cases = [
            (uniform_box(chsh_scenario()), ExtensionCertificate),
            (pr_box(), InfeasibleExtension),
            (signalling, f"base behavior is signalling (violation {violation:.3e})"),
            (unnormalized, "input behavior failed validation: max positivity violation "
                           "0.000e+00, max normalization deviation 2.000e-01"),
        ]
        for base, expected in cases:
            definition_passes.clear()
            if isinstance(expected, str):
                with pytest.raises(ValueError) as refusal:
                    ns_extension(base, 2)
                assert str(refusal.value) == expected
            else:
                assert isinstance(ns_extension(base, 2), expected)
            assert len(definition_passes) == 1

    def test_local_mixture_three_clones_feasible(self, rng):
        vertices = deterministic_behaviors(chsh_scenario())
        picks = rng.choice(len(vertices), size=5, replace=False)
        weights = rng.dirichlet(np.ones(5))
        base = mixture([vertices[i] for i in picks], list(weights))
        result = ns_extension(base, 3)
        assert isinstance(result, ExtensionCertificate)

    def test_monotonicity_via_marginalized_certificate(self, rng):
        # A feasible N=3 certificate marginalizes to a valid N=2 one.
        vertices = deterministic_behaviors(chsh_scenario())
        picks = rng.choice(len(vertices), size=4, replace=False)
        base = mixture([vertices[i] for i in picks], [0.4, 0.3, 0.2, 0.1])
        cert = ns_extension(base, 3)
        assert isinstance(cert, ExtensionCertificate)
        reduced = discard_last_clone(cert)
        assert validate_behavior(reduced, tol=1e-6).passed
        assert is_no_signalling(reduced, tol=1e-6).is_no_signalling
        assert _symmetry_residual(reduced, joint=True) <= 1e-6
        assert _marginal_residual_ns(reduced, base) <= 1e-6

    def test_pr_box_violation(self):
        # Total positivity deficit with the pair marginals held at the PR box.
        deficits = (1 / 2, 1.0, 7 / 6, 1.0, 43 / 54, 25 / 44, 361 / 900)
        for n_clones, deficit in enumerate(deficits, start=2):
            result = ns_extension(pr_box(), n_clones)
            assert isinstance(result, InfeasibleExtension)
            assert result.violation == pytest.approx(deficit, abs=1e-9)
            assert is_n_shareable(pr_box(), n_clones).score == pytest.approx(deficit, abs=1e-9)

    @pytest.mark.parametrize("pr_weight", [0.0, 0.3], ids=["uniform", "mixed"])
    @pytest.mark.parametrize("n_clones", range(2, 8))
    def test_feasible_certificates_are_exact(self, n_clones, pr_weight):
        # The LP solves the free columns only; the certificate, rebuilt with
        # the pinned marginals, is symmetric and has the base's marginals.
        uniform = uniform_box(chsh_scenario())
        base = mixture([pr_box(), uniform], [pr_weight, 1 - pr_weight])
        result = ns_extension(base, n_clones)
        assert isinstance(result, ExtensionCertificate)
        assert result.symmetry_residual <= 1e-9
        assert result.marginal_residual <= 1e-9

    def test_pr_box_five_clones_infeasible(self):
        result = ns_extension(pr_box(), 5)
        assert isinstance(result, InfeasibleExtension)
        assert result.violation > 1e-3

    def test_uniform_five_clones_feasible(self):
        result = ns_extension(uniform_box(chsh_scenario()), 5)
        assert isinstance(result, ExtensionCertificate)
        assert result.symmetry_residual <= 1e-6
        assert result.marginal_residual <= 1e-6


class TestTamperedCertificates:
    """The residual checks see a certificate that is off: mass moved between
    two outcomes of one clone, at one setting context and for every outcome
    of another clone."""

    def test_unrestricted_clone_three(self):
        cert = unrestricted_extension(pr_box(), 3)
        table = cert.behavior.table.copy()
        # Context (A, B_1, B_2, B_3) = (1, 1, 0, 1), a = 0, b_1 = 1: move 0.1
        # from b_3 = 0 to b_3 = 1 at each b_2.
        table[1, 1, 0, 1, 0, 1, :, 0] -= 0.1
        table[1, 1, 0, 1, 0, 1, :, 1] += 0.1
        tampered = Behavior(cert.behavior.scenario, table)
        # Clone 3's marginal moves by 0.1 per b_2; swapping clones 2 and 3
        # pairs a lowered entry with a raised one.
        assert _marginal_residual_unrestricted(tampered, pr_box()) == pytest.approx(0.2)
        assert _symmetry_residual(tampered, joint=False) == pytest.approx(0.2)

    def test_ns_clone_one(self):
        base = uniform_box(chsh_scenario())
        cert = ns_extension(base, 2)
        assert isinstance(cert, ExtensionCertificate)
        table = cert.behavior.table.copy()
        # Context (A, B_1, B_2) = (0, 1, 0), a = 0: move 0.05 from b_1 = 0 to
        # b_1 = 1 at each b_2.
        table[0, 1, 0, 0, 0, :] -= 0.05
        table[0, 1, 0, 0, 1, :] += 0.05
        tampered = Behavior(cert.behavior.scenario, table)
        # Clone 1's marginal (B_2 pinned to 0) moves by 0.05 per b_2; the
        # clone swap maps the tampered context to the untouched (0, 0, 1).
        assert _marginal_residual_ns(tampered, base) == pytest.approx(0.1)
        assert _symmetry_residual(tampered, joint=True) == pytest.approx(0.05)


def loop_symmetry_rows(scen):
    """Dense reference: one row per unordered pair of entries exchanged by an
    adjacent clone transposition, +1 at the lower entry, -1 at its image."""
    rows = []
    for i in range(scen.parties - 2):
        p1, p2 = 1 + i, 2 + i
        for ctx in scen.contexts():
            for outs in scen.outcome_tuples():
                s_ctx, s_out = list(ctx), list(outs)
                s_ctx[p1], s_ctx[p2] = s_ctx[p2], s_ctx[p1]
                s_out[p1], s_out[p2] = s_out[p2], s_out[p1]
                pair, s_pair = (ctx, outs), (tuple(s_ctx), tuple(s_out))
                if s_pair <= pair:
                    continue
                row = np.zeros(scen.table_size)
                row[flat_index(scen, *pair)] += 1.0
                row[flat_index(scen, *s_pair)] -= 1.0
                rows.append(row)
    return np.array(rows).reshape(-1, scen.table_size)


def clone_blocks(n_clones: int) -> tuple[tuple[int, ...], ...]:
    """Alice alone, then the clones as one block."""
    return ((0,), tuple(range(1, n_clones + 1)))


def uncapped_scenario(monkeypatch, base: Scenario, n_clones: int) -> Scenario:
    """The extended scenario under a raised table cap, for this test only:
    the cap refuses 9 clones of a 2x2 base, but the row builder never
    builds the table."""
    monkeypatch.setattr(model, "DEFAULT_TABLE_CAP", 10**12)
    return _extended_scenario(base, n_clones)


class TestExtensionRows:
    BASES = (Scenario(2, (2, 2), (2, 2)), Scenario(2, (3, 2), (3, 2)))

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("n_clones", (1, 2, 3, 4))
    def test_symmetry_rows_match_loop(self, base, n_clones):
        scen = _extended_scenario(base, n_clones)
        lhs, rhs = clone_symmetry_constraints(scen)
        assert lhs.format == "csr"
        assert np.array_equal(lhs.toarray(), loop_symmetry_rows(scen))
        assert np.array_equal(rhs, np.zeros(lhs.shape[0]))

    # The 2x2 base at 1-4 clones and the (3,2)/(3,2) base at 1-3 clones.
    CROSS_CHECK = [
        pytest.param(base, n_clones, id=f"{n_clones}-base{i}")
        for i, (base, most) in enumerate(zip(BASES, (4, 3)))
        for n_clones in range(1, most + 1)
    ]

    @pytest.mark.parametrize("base, n_clones", CROSS_CHECK)
    def test_symmetric_lp_matches_full_table_lp(self, base, n_clones, rng):
        # Local, mixed and PR-dominated bases: both verdicts occur for N >= 2.
        for pr_weight in (0.0, 0.4, 0.9):
            b = random_ns_behavior(rng, base, pr_weight)
            reference = full_table_extension_lp(b, n_clones)
            assert reference.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE)
            result = ns_extension(b, n_clones)
            assert isinstance(result, ExtensionCertificate) == (
                reference.status == LpStatus.OPTIMAL
            )
            if isinstance(result, ExtensionCertificate):
                assert _symmetry_residual(result.behavior, joint=True) == 0.0
                assert result.symmetry_residual == 0.0
                assert is_no_signalling(result.behavior, tol=1e-6).is_no_signalling
                assert result.marginal_residual <= 1e-6
            else:
                assert result.violation > 0

    @pytest.mark.parametrize("base", BASES)
    def test_positivity_block_size(self, base, monkeypatch):
        # One row per Alice (setting, outcome) and multiset of clone
        # (setting, outcome) letters, one column per Alice CG coordinate and
        # multiset of clone CG coordinates: 4 C(N+3, 3) x 3 C(N+2, 2) for a
        # 2x2 base.  The pinned columns are those whose multiset has at most
        # one non-constant coordinate: the first d_B of each Alice block.
        d_a, d_b = (1 + s * (o - 1) for s, o in zip(base.settings, base.outcomes))
        n_letters = base.settings[1] * base.outcomes[1]
        for n_clones in range(2, 11):
            scen = uncapped_scenario(monkeypatch, base, n_clones)
            rows = symmetric_cg_rows(scen, clone_blocks(n_clones))
            assert rows.shape == (
                base.settings[0] * base.outcomes[0] * math.comb(n_letters + n_clones - 1, n_clones),
                d_a * math.comb(d_b + n_clones - 1, n_clones),
            )
            multisets = _clone_multisets(d_b, n_clones)
            assert np.flatnonzero(np.count_nonzero(multisets, axis=1) <= 1).tolist() == list(range(d_b))
            if scen.table_size <= DEFAULT_TABLE_CAP:
                index = symmetric_cg_index(scen, clone_blocks(n_clones))
                assert index.size == scen.table_size and not index.flags.writeable
        if base == chsh_scenario():
            assert rows.shape == (1144, 198) and d_a * d_b == 9

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("n_clones", (1, 2, 5))
    def test_marginal_split(self, base, n_clones):
        # The marginal columns are the first d_B multisets of each Alice
        # coordinate's block, d_A d_B in all; the split keeps every column
        # once, in order, and is memoised read-only.
        d_a, d_b = (1 + s * (o - 1) for s, o in zip(base.settings, base.outcomes))
        scen = _extended_scenario(base, n_clones)
        rows = symmetric_cg_rows(scen, clone_blocks(n_clones))
        free, marginal = symmetric_cg_marginal_split(scen, clone_blocks(n_clones))
        per_alpha = rows.shape[1] // d_a
        mask = np.arange(rows.shape[1]) % per_alpha < d_b
        assert (rows[:, mask] != marginal).nnz == 0 and (rows[:, ~mask] != free).nnz == 0
        assert symmetric_cg_marginal_split(scen, clone_blocks(n_clones))[0] is free
        for part in (free.data, marginal.data):
            assert not part.flags.writeable

    @pytest.mark.parametrize("base", BASES)
    def test_ten_clones_build_without_the_table(self, base, monkeypatch):
        # The certificate table at N = 10 has s_A o_A (s_B o_B)^10 entries
        # (4^11 for a 2x2 base); the builder allocates less than that table.
        (s_a, s_b), (o_a, o_b) = base.settings, base.outcomes
        table_bytes = 8 * s_a * o_a * (s_b * o_b) ** 10
        scen = uncapped_scenario(monkeypatch, base, 10)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            symmetric_cg_rows(scen, clone_blocks(10))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < table_bytes

    @pytest.mark.parametrize("base, n_clones", CROSS_CHECK)
    def test_rows_are_the_cg_orbit_polytope(self, base, n_clones):
        # Expanded to the full table, the rows are the CG orbit expansion of
        # the extended scenario under the clone transpositions, with the
        # same column order (orbits by their smallest CG column).
        assert_matches_orbit_reference(_extended_scenario(base, n_clones), clone_blocks(n_clones))

    def test_index_built_once_and_only_when_feasible(self, monkeypatch):
        # An infeasible extension reads no certificate, so it never builds
        # the index from table entries to rows; a feasible one builds it
        # once, and a second certificate reads it from the cache.
        built = []
        index = sharing.symmetric_cg_index
        monkeypatch.setattr(sharing, "symmetric_cg_index",
                            lambda *args: built.append(args) or index(*args))
        symmetric_cg_marginal_split.cache_clear()
        symmetric_cg_index.cache_clear()
        assert isinstance(ns_extension(pr_box(), 4), InfeasibleExtension)
        assert built == []
        misses = symmetric_cg_index.cache_info().misses
        for _ in range(2):
            assert isinstance(ns_extension(uniform_box(chsh_scenario()), 4), ExtensionCertificate)
        assert len(built) == 2
        assert symmetric_cg_index.cache_info().misses == misses + 1

    @pytest.mark.parametrize("base, n_clones", [
        pytest.param(base, n_clones, id=f"{n_clones}-base{i}")
        for i, (base, most) in enumerate(zip(BASES, (7, 4)))
        for n_clones in range(2, most + 1)
    ])
    def test_certificate_is_the_full_row_read_back(self, base, n_clones, monkeypatch):
        # A feasible certificate, read from the free and marginal columns
        # the LP used, is the full rows at the pinned values interleaved by
        # the marginal mask with the LP's free values, clipped and indexed.
        solutions = []
        phase_one = sharing.lp.phase_one
        monkeypatch.setattr(sharing.lp, "phase_one",
                            lambda *a, **k: solutions.append(phase_one(*a, **k)) or solutions[-1])
        scen, blocks = _extended_scenario(base, n_clones), clone_blocks(n_clones)
        rows = symmetric_cg_rows(scen, blocks)
        d_a, d_b = (1 + s * (o - 1) for s, o in zip(base.settings, base.outcomes))
        mask = np.arange(rows.shape[1]) % (rows.shape[1] // d_a) < d_b
        rng = np.random.default_rng(3000 + n_clones)
        boxes = [uniform_box(base)] + [random_ns_behavior(rng, base, w) for w in (0.0, 0.2, 0.4)]
        feasible = 0
        for b in boxes:
            cert = ns_extension(b, n_clones)
            if isinstance(cert, InfeasibleExtension):
                continue
            feasible += 1
            x = np.empty(mask.size)
            x[mask] = np.linalg.lstsq(model.cg_map(base).toarray(), b.table.ravel(), rcond=None)[0]
            x[~mask] = solutions[-1].x
            old = np.clip(rows @ x, 0.0, None)[symmetric_cg_index(scen, blocks)]
            assert np.allclose(cert.behavior.table.ravel(), old, rtol=0.0, atol=1e-12)
        assert feasible >= 2

    @pytest.mark.parametrize("n_clones", range(2, 8))
    def test_verdicts_match_references(self, n_clones):
        # 20 seeded bases per clone count over both scenarios and PR weights
        # 0 / 0.4 / 0.9, against the full-table system up to N = 4 and the
        # equality-form symmetric LP beyond.
        rng = np.random.default_rng(1600 + n_clones)
        verdicts = set()
        for case in range(20):
            b = random_ns_behavior(rng, self.BASES[case % 2], (0.0, 0.4, 0.9)[case % 3])
            if n_clones <= 4:
                exists = full_table_extension_exists(b, n_clones)
            else:
                reference = equality_extension_lp(b, n_clones)
                assert reference.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE)
                exists = reference.status == LpStatus.OPTIMAL
            result = ns_extension(b, n_clones)
            feasible = isinstance(result, ExtensionCertificate)
            assert feasible == exists
            verdicts.add(feasible)
            if feasible:
                assert result.symmetry_residual == 0.0
                assert result.marginal_residual <= 1e-6
        assert verdicts == {True, False}


class TestWrapper:
    def test_unrestricted_always_shareable(self, rng):
        base = random_behavior(rng, chsh_scenario())
        for n in (1, 2, 4):
            result = is_n_shareable(base, n, mode="unrestricted")
            assert result.shareable
            assert result.score == 0.0

    def test_pr_not_two_shareable_ns(self):
        result = is_n_shareable(pr_box(), 2, mode="ns")
        assert not result.shareable
        assert result.score > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            is_n_shareable(pr_box(), 2, mode="quantum")


class TestMasanesProperty:
    def test_two_shareable_implies_chsh_bound(self, rng):
        for _ in range(20):
            pair, witness = random_shareable_behavior(rng)
            assert validate_behavior(pair, tol=1e-6).passed
            assert is_no_signalling(pair, tol=1e-6).is_no_signalling
            assert abs(chsh_value(pair)) <= 2 + 1e-6

    def test_draws_match_the_equality_form_lp(self):
        """The draws are those of the full-table LP under the NS and
        clone-swap equality rows, and the witness is clone-symmetric,
        no-signalling and valid."""
        from monogamy.model import permute_parties

        for seed in range(60):
            pair, witness = random_shareable_behavior(np.random.default_rng(seed))
            expected = reference_shareable_draw(np.random.default_rng(seed))
            assert np.allclose(witness.table, expected, rtol=0.0, atol=1e-12)
            flat = witness.table.reshape(-1)
            swapped = permute_parties(witness.scenario, flat, (0, 2, 1))
            assert np.allclose(swapped, flat, rtol=0.0, atol=1e-12)
            assert is_no_signalling(witness, tol=1e-9).is_no_signalling
            assert validate_behavior(witness, tol=1e-9).passed
            assert np.array_equal(pair.table, witness.table[:, :, 0].sum(axis=-1))

    def test_sampled_pairs_are_two_shareable(self, rng):
        # The generating witness is symmetric and no-signalling, so the
        # extension LP must also report feasibility.
        pair, _ = random_shareable_behavior(rng)
        result = ns_extension(pair, 2, tol=1e-6)
        assert isinstance(result, ExtensionCertificate)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 23), st.integers(1, 6)), min_size=1, max_size=4))
    def test_two_settings_shareable_exactly_when_local(self, parts):
        """With two settings a box is 2-shareable exactly when it is local
        (and then N-shareable for every N), here on mixtures of the 8
        PR-type and 16 deterministic boxes off the CHSH facets."""
        scenario = chsh_scenario()
        x, y, a, b = np.ix_(*(range(2),) * 4)
        vertices = [
            Behavior(scenario, 0.5 * ((a ^ b) == (x * y ^ alpha * x ^ beta * y ^ gamma)))
            for alpha, beta, gamma in itertools.product(range(2), repeat=3)
        ] + deterministic_behaviors(scenario)
        box = mixture([vertices[k] for k, _ in parts], [w / sum(w for _, w in parts) for _, w in parts])
        correlators = np.einsum("xyab,ab->xy", box.table, [[1, -1], [-1, 1]])
        largest = max(
            abs(np.sum((-1) ** (x * y ^ alpha * x ^ beta * y)[:, :, 0, 0] * correlators))
            for alpha, beta in itertools.product(range(2), repeat=2)
        )
        assume(abs(largest - 2) > 1e-6)
        local = isinstance(local_decomposition(box), LocalModel)
        assert local == (largest < 2)
        assert isinstance(ns_extension(box, 2), ExtensionCertificate) == local
        assert isinstance(ns_extension(box, 3), ExtensionCertificate) == local

    def test_contrapositive_on_violating_behaviors(self, rng):
        from conftest import random_violating_behavior

        for _ in range(5):
            b = random_violating_behavior(rng)
            assert isinstance(ns_extension(b, 2), InfeasibleExtension)
