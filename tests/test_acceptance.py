"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `acceptance PASS/FAIL` line; run with `pytest -s
tests/test_acceptance.py` to see them live.  Budgets: the whole module
completes in a few minutes on a laptop-class machine.
"""

import math
import time

import numpy as np
import pytest

import monogamy.tradeoffs as tradeoffs
from monogamy import (
    InfeasibleExtension,
    Scenario,
    born_behavior,
    chsh,
    chsh_value,
    ckw_check,
    concurrence,
    ns_extension,
    partial_trace,
    phi_plus,
    pr_box,
    random_pure_state,
    random_shareable_behavior,
    state_pair_point,
    validate_behavior,
    w_state,
)
from monogamy.bell import functional_row
from conftest import TSIRELSON_ANGLES, observables_from_angles, random_violating_behavior

ROOT8 = 2 * math.sqrt(2)
SZ = math.pi / 2


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {status}: {criterion}{' - ' + detail if detail else ''}")


def test_criterion_01_tsirelson_value():
    start = time.monotonic()
    b = born_behavior(phi_plus(), observables_from_angles(TSIRELSON_ANGLES))
    value = chsh_value(b)
    elapsed = time.monotonic() - start
    ok = abs(value - ROOT8) <= 1e-9 and elapsed < 1.0
    report("01 tsirelson value", ok, f"chsh={value!r} in {elapsed:.3f}s")
    assert abs(value - ROOT8) <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_ns_tradeoff_lp():
    start = time.monotonic()
    scenario3 = Scenario(3, (2, 2, 2), (2, 2, 2))
    obj = functional_row(scenario3, chsh(), (0, 1)) + functional_row(
        scenario3, chsh(), (0, 2)
    )
    pair_max, _ = tradeoffs.ns_maximum(scenario3, obj)

    scenario2 = Scenario(2, (2, 2), (2, 2))
    single_max, argmax = tradeoffs.ns_maximum(
        scenario2, functional_row(scenario2, chsh(), (0, 1))
    )
    pr_distance = float(np.max(np.abs(argmax.table - pr_box().table)))
    elapsed = time.monotonic() - start

    ok = (
        abs(pair_max - 4.0) <= 1e-6
        and abs(single_max - 4.0) <= 1e-6
        and pr_distance <= 1e-6
        and elapsed < 10.0
    )
    report(
        "02 ns trade-off by lp", ok,
        f"pair={pair_max!r} single={single_max!r} pr_dist={pr_distance:.2e} in {elapsed:.1f}s",
    )
    assert abs(pair_max - 4.0) <= 1e-6
    assert abs(single_max - 4.0) <= 1e-6
    assert pr_distance <= 1e-6
    assert elapsed < 10.0


def test_criterion_03_shareability_theorem():
    start = time.monotonic()
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(100):
        pair, _ = random_shareable_behavior(rng)
        assert validate_behavior(pair, tol=1e-6).passed
        worst = max(worst, abs(chsh_value(pair)))
    bound_ok = worst <= 2 + 1e-6

    infeasible = 0
    for _ in range(20):
        b = random_violating_behavior(rng, threshold=2.1)
        if isinstance(ns_extension(b, 2), InfeasibleExtension):
            infeasible += 1
    elapsed = time.monotonic() - start
    ok = bound_ok and infeasible == 20 and elapsed < 120.0
    report(
        "03 shareability theorem", ok,
        f"max |chsh| of 2-shareable={worst:.6f}, infeasible {infeasible}/20 in {elapsed:.1f}s",
    )
    assert bound_ok
    assert infeasible == 20
    assert elapsed < 120.0


def test_criterion_04_unrestricted_delta_construction():
    from monogamy import unrestricted_extension
    from conftest import chsh_scenario, random_behavior

    rng = np.random.default_rng(401)
    max_sym = 0.0
    max_marg = 0.0
    for i in range(50):
        base = random_behavior(rng, chsh_scenario())
        n = (2, 3, 4)[i % 3]
        cert = unrestricted_extension(base, n)
        max_sym = max(max_sym, cert.symmetry_residual)
        max_marg = max(max_marg, cert.marginal_residual)
    ok = max_sym == 0.0 and max_marg == 0.0
    report(
        "04 unrestricted delta construction", ok,
        f"max symmetry residual={max_sym!r}, max marginal residual={max_marg!r}",
    )
    assert max_sym == 0.0
    assert max_marg == 0.0


def test_criterion_05_quantum_pair_tradeoffs():
    start = time.monotonic()
    rng = np.random.default_rng(501)
    worst_flat = -np.inf
    worst_strength = -np.inf
    slack_dominated = True
    both_nonlocal = 0
    for _ in range(10_000):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        angles = rng.uniform(-math.pi, math.pi, 6)
        point = state_pair_point(
            vec, (angles[0], angles[1]), (angles[2], angles[3]),
            (angles[4], angles[5]),
        )
        lhs = point.chsh_ab ** 2 + point.chsh_ac ** 2
        slack_flat = 8.0 - lhs
        slack_strong = 8.0 * (1.0 - point.sigma_y[0] ** 2) - lhs
        worst_flat = max(worst_flat, lhs - 8.0)
        worst_strength = max(worst_strength, -slack_strong)
        if slack_strong > slack_flat + 1e-12:
            slack_dominated = False
        if abs(point.chsh_ab) > 2 + 1e-6 and abs(point.chsh_ac) > 2 + 1e-6:
            both_nonlocal += 1

    witness = state_pair_point(
        np.array([1, 0, 0, 0, 0, 0, 1, 0], dtype=complex) / math.sqrt(2),
        (0.0, SZ), (math.pi / 4, -math.pi / 4), (0.0, 0.0),
    )
    witness_lhs = witness.chsh_ab ** 2 + witness.chsh_ac ** 2
    elapsed = time.monotonic() - start
    ok = (
        worst_flat <= 1e-9
        and worst_strength <= 1e-9
        and slack_dominated
        and both_nonlocal == 0
        and witness_lhs >= 8.0 - 1e-6
        and elapsed < 120.0
    )
    report(
        "05 quantum pair trade-offs", ok,
        f"max flat excess={worst_flat:.2e}, max strong excess={worst_strength:.2e}, "
        f"both-nonlocal cases={both_nonlocal}, witness lhs={witness_lhs:.9f} "
        f"in {elapsed:.1f}s",
    )
    assert worst_flat <= 1e-9
    assert worst_strength <= 1e-9
    assert slack_dominated
    assert both_nonlocal == 0
    assert witness_lhs >= 8.0 - 1e-6
    assert elapsed < 120.0


def test_criterion_06_triple_sum_reaches_twelve():
    point = state_pair_point(
        np.eye(8)[0], (SZ, SZ), (SZ, SZ), (SZ, SZ)
    )
    squared_sum = point.chsh_ab ** 2 + point.chsh_ac ** 2 + point.chsh_bc ** 2
    ok = abs(squared_sum - 12.0) <= 1e-9 and squared_sum > 8.0
    report(
        "06 naive triple bound falsified", ok,
        f"squared sum={squared_sum!r} exceeds 8",
    )
    assert abs(squared_sum - 12.0) <= 1e-9
    assert squared_sum > 8.0


def test_criterion_07_distributed_entanglement():
    start = time.monotonic()
    rng = np.random.default_rng(701)
    worst3 = math.inf
    for _ in range(10_000):
        psi = random_pure_state(3, rng)
        worst3 = min(worst3, ckw_check(psi, 0).residual)
    worst4 = math.inf
    for _ in range(1_000):
        psi = random_pure_state(4, rng)
        worst4 = min(worst4, ckw_check(psi, 0).residual)

    w_report = ckw_check(w_state(), 0)
    w_ok = (
        abs(w_report.pairwise[0] - 4 / 9) <= 1e-9
        and abs(w_report.pairwise[1] - 4 / 9) <= 1e-9
        and abs(w_report.cut - 8 / 9) <= 1e-9
        and abs(w_report.residual) <= 1e-9
    )
    elapsed = time.monotonic() - start
    ok = worst3 >= -1e-9 and worst4 >= -1e-9 and w_ok and elapsed < 60.0
    report(
        "07 distributed entanglement", ok,
        f"min residual 3q={worst3:.2e}, 4q={worst4:.2e}, "
        f"w equality residual={w_report.residual:.2e} in {elapsed:.1f}s",
    )
    assert worst3 >= -1e-9
    assert worst4 >= -1e-9
    assert w_ok
    assert elapsed < 60.0


def test_criterion_08_shareable_mixed_entanglement():
    w = w_state()
    rho_ab = partial_trace(w, (0, 1))
    rho_ac = partial_trace(w, (0, 2))
    same = float(np.max(np.abs(rho_ab.matrix - rho_ac.matrix)))
    c_ab = concurrence(rho_ab)
    c_ac = concurrence(rho_ac)
    ok = same <= 1e-12 and abs(c_ab - 2 / 3) <= 1e-9 and abs(c_ac - 2 / 3) <= 1e-9
    report(
        "08 shareable mixed entanglement", ok,
        f"state diff={same:.2e}, concurrences=({c_ab:.9f}, {c_ac:.9f})",
    )
    assert same <= 1e-12
    assert abs(c_ab - 2 / 3) <= 1e-9
    assert abs(c_ac - 2 / 3) <= 1e-9


def test_criterion_09_double_violation_search():
    start = time.monotonic()
    rng = np.random.default_rng(901)
    result = tradeoffs.cg_double_violation_search(
        np.linspace(0.0, 1.0, 21), restarts=6, rng=rng
    )
    elapsed = time.monotonic() - start
    ok = result.min_value > 4.005 and elapsed < 300.0
    report(
        "09 double violation search", ok,
        f"mu={result.mu:.3f} min value={result.min_value:.6f} in {elapsed:.1f}s",
    )
    assert result.min_value > 4.005
    assert elapsed < 300.0


def test_criterion_10_separable_orthogonal_square():
    rng = np.random.default_rng(1001)
    value = tradeoffs.separable_orthogonal_max(restarts=16, rng=rng)
    ok = abs(value - math.sqrt(2)) <= 1e-6
    report("10 separable orthogonal square", ok, f"max |chsh|={value!r}")
    assert abs(value - math.sqrt(2)) <= 1e-6


def test_criterion_11_four_party_probe():
    start = time.monotonic()
    probe = tradeoffs.pb_probe()
    elapsed = time.monotonic() - start
    # Findings are reported, not asserted (the rewritten-form bound applies
    # to functionals without negative coefficients); completion is the
    # criterion.  A product witness guarantees the maximum is at least the
    # single-pair no-signalling value of 8.
    ok = elapsed < 600.0 and probe.max_sum >= 8.0 - 1e-6 and math.isfinite(probe.t_star)
    report(
        "11 four-party probe", ok,
        f"max |C| sum={probe.max_sum:.6f} vs rewritten-form bound {probe.pb_bound}, "
        f"t*={probe.t_star:.6f} vs threshold {probe.t_threshold} "
        f"(exceeds: {probe.t_exceeds}) in {elapsed:.1f}s",
    )
    assert elapsed < 600.0
    assert probe.max_sum >= 8.0 - 1e-6
    assert math.isfinite(probe.t_star)


def test_criterion_12_support_traces_and_containment(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(1201)
    grid = 16
    rows = {}
    for kind in ("local", "quantum", "ns", "separable-orthogonal"):
        rows[kind] = tradeoffs.sweep(kind, grid, restarts=4, rng=rng)

    csv_path = tmp_path / "figure_traces.csv"
    lines = ["theta,max_value,class"]
    for kind, points in rows.items():
        for p in points:
            lines.append(f"{p.theta!r},{p.value!r},{kind}")
    csv_path.write_text("\n".join(lines) + "\n")

    local = np.array([p.value for p in rows["local"]])
    quantum = np.array([p.value for p in rows["quantum"]])
    ns = np.array([p.value for p in rows["ns"]])
    containment_lq = float(np.min(quantum - local))
    containment_qn = float(np.min(ns - quantum))
    elapsed = time.monotonic() - start
    ok = containment_lq >= -1e-6 and containment_qn >= -1e-6
    report(
        "12 figure traces containment", ok,
        f"min(quantum-local)={containment_lq:.2e}, min(ns-quantum)={containment_qn:.2e} "
        f"in {elapsed:.1f}s, csv={csv_path.name}",
    )
    assert containment_lq >= -1e-6
    assert containment_qn >= -1e-6
