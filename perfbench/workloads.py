"""One round of each workload: the program calls, timed one at a time, and
the checks of their outputs against the oracle.

A round is a fixed list of operations on inputs drawn from the workload's
seeded stream, so every round attempts the same operations and the share of
failed ones does not depend on the seed or on how many rounds a run reaches.
Checks run outside the timed calls.
"""

from __future__ import annotations

import bisect
import json
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
import oracle
import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# lp.solve accepts a solution whose constraint residual is at most 10 * tol
# with tol = 1e-7; certificates are held to the same bound.
CERTIFICATE_TOL = 1e-6
SUPPORT_TOL = 1e-6
VALUE_TOL = 1e-9
SHORTFALL_TOL = 1e-6
CHILD_TIMEOUT_S = 120
# Longest gap between reference-kernel samples while operations run, and
# how far either side of an operation its reference samples are taken from.
REFERENCE_INTERVAL_S = 0.15
REFERENCE_WINDOW_S = 1.0

# Verdict operations of the shareability workload: one locality verdict and
# four shareability verdicts per behaviour.
VERDICT_KEYS = ("local_decomposition", "ns_extension_n2", "ns_extension_n3",
                "ns_extension_n4", "unrestricted_extension")


class Run:
    """Timings, counts and check results of the operations of one run.

    With a tracer, spans are recorded inside each timed call only.  When
    ``counting`` is off (the traced copy of a round), operations are not
    added to ``attempted`` / ``failed``, which count each round once, and
    the reference kernel is not timed.

    ``samples`` holds the wall seconds of each operation; ``scaled`` holds
    the same operations in units of the reference kernel (reference.py).
    The kernel is timed before an operation when ``REFERENCE_INTERVAL_S``
    has passed since its last sample, and after every operation longer
    than that.  When the run ends (``finish``), each operation's seconds are
    divided by the median reference sample within ``REFERENCE_WINDOW_S`` of
    it, so the unit follows the host's speed over seconds without picking
    up the noise of single samples.
    """

    def __init__(self, tracer=None, counting: bool = True):
        self.tracer = tracer
        self.counting = counting
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.child_spans: list[list] = []
        self.imports: dict[str, list[float]] = defaultdict(list)
        self.reference_s: list[float] = []
        self._reference_at: list[float] = []
        self._timed: list[tuple[str, float, float]] = []

    def attempt(self) -> None:
        if self.counting:
            self.attempted += 1

    def fail(self, message: str) -> None:
        if self.counting:
            self.failed += 1
            self.failures.append(message)

    def reference(self) -> None:
        """Time the reference kernel now."""
        if self.counting:
            self.reference_s.append(reference.sample())
            self._reference_at.append(time.perf_counter())

    def before(self) -> None:
        """Called just before an operation is timed."""
        if not self._reference_at or \
                time.perf_counter() - self._reference_at[-1] > REFERENCE_INTERVAL_S:
            self.reference()

    def record(self, key: str, seconds: float) -> None:
        self.samples[key].append(seconds)
        if self.counting:
            now = time.perf_counter()
            self._timed.append((key, now - seconds, now))
            if seconds > REFERENCE_INTERVAL_S:
                self.reference()

    def finish(self) -> None:
        """Take a last reference sample and fill ``scaled``."""
        if not self.counting:
            return
        self.reference()
        at = self._reference_at
        for key, start, end in self._timed:
            lo = bisect.bisect_left(at, start - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(at, end + REFERENCE_WINDOW_S)
            self.scaled[key].append((end - start) / float(np.median(self.reference_s[lo:hi])))

    def call(self, key: str, fn, *args):
        """Time one program call; an exception makes it a failed operation
        and returns None."""
        self.attempt()
        self.before()
        if self.tracer is not None:
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the run goes on; the failure is counted
            self.fail(f"{key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        self.record(key, time.perf_counter() - start)
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)


class Context:
    """What a round needs besides its inputs: the program's modules, the
    environment of child processes and a working directory."""

    def __init__(self, modules: dict | None, env: dict, workdir: Path):
        self.m = modules
        self.env = env
        self.workdir = workdir


# ---------------------------------------------------------------------------
# shareability
# ---------------------------------------------------------------------------

def shareability(ctx: Context, inp: dict, run: Run, index: int) -> None:
    model, localpoly, sharing = ctx.m["model"], ctx.m["localpoly"], ctx.m["sharing"]
    scenario = model.Scenario(2, (2, 2), (2, 2))
    for label, table in inp["behaviours"]:
        behaviour = model.Behavior(scenario, table)
        local = oracle.is_local(table)
        verdict = "local" if local else "non-local"

        result = run.call("local_decomposition", localpoly.local_decomposition, behaviour)
        if result is not None:
            run.check(isinstance(result, localpoly.LocalModel) == local,
                      f"{label}: local_decomposition disagrees with Fine's theorem ({verdict})")

        for clones in inp["clones"]:
            result = run.call(f"ns_extension_n{clones}", sharing.ns_extension, behaviour, clones)
            if result is None:
                continue
            feasible = isinstance(result, sharing.ExtensionCertificate)
            run.check(feasible == local,
                      f"{label}: ns_extension at {clones} clones disagrees with the "
                      f"shareability theorem ({verdict})")
            if feasible:
                run.check(result.symmetry_residual <= CERTIFICATE_TOL
                          and result.marginal_residual <= CERTIFICATE_TOL,
                          f"{label}: {clones}-clone certificate residuals "
                          f"{result.symmetry_residual:.2e} / {result.marginal_residual:.2e}")

        clones = inp["unrestricted_clones"]
        cert = run.call("unrestricted_extension", sharing.unrestricted_extension, behaviour, clones)
        if cert is not None:
            run.check(cert.symmetry_residual == 0.0 and cert.marginal_residual == 0.0,
                      f"{label}: unrestricted residuals {cert.symmetry_residual!r} / "
                      f"{cert.marginal_residual!r} are not exactly 0")

    if inp["capped_uniform_clones"] and run.tracer is None:
        capped_uniform_extension(ctx, inp["capped_uniform_clones"], run)


def capped_uniform_extension(ctx: Context, clones: int, run: Run) -> None:
    """ns_extension(uniform box, clones) in a child whose address space is
    capped (see capped.py).  While it fails, its time enters no metric."""
    run.attempt()
    run.before()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "capped.py"), str(clones)],
            env=ctx.env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        run.fail(f"ns_extension(uniform, {clones}) in a capped child: timed out")
        return
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        reason = proc.stdout.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        run.fail(f"ns_extension(uniform, {clones}) in a capped child: {reason[0]}")
        return
    run.record(f"capped_ns_extension_n{clones}", elapsed)
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    run.check(payload["feasible"] and max(payload["symmetry_residual"],
                                          payload["marginal_residual"]) <= CERTIFICATE_TOL,
              f"ns_extension(uniform, {clones}) is not a feasible certificate: {payload}")


# ---------------------------------------------------------------------------
# polytope-optimum
# ---------------------------------------------------------------------------

def polytope_optimum(ctx: Context, inp: dict, run: Run, index: int) -> None:
    """Support chunks interleaved with the shareable draws, and the probe
    half-way, so each timed kind is sampled across the whole run."""
    tradeoffs, sharing = ctx.m["tradeoffs"], ctx.m["sharing"]
    thetas, n = inp["thetas"], inp["support_chunks"]
    draws = inp["draw_seeds"]
    for i in range(max(n, len(draws))):
        if i == n // 2:
            report = run.call("pb_probe", tradeoffs.pb_probe)
            if report is not None:
                check_probe(ctx, report, run)
        if i < n:
            support_chunk(ctx, thetas[i::n], run)
        if i < len(draws):
            drawn = run.call("shareable_draw", sharing.random_shareable_behavior,
                             np.random.default_rng(draws[i]))
            if drawn is not None:
                worst = float(np.abs(oracle.chsh_variants(drawn[0].table)).max())
                run.check(worst <= 2.0 + CERTIFICATE_TOL,
                          f"shareable draw (seed {draws[i]}) has a CHSH variant of {worst:.9f} > 2")

    points = run.call("local_support", tradeoffs.local_support, thetas)
    if points is not None:
        worst = max(abs(p.value - oracle.local_support(p.theta)) for p in points)
        run.check(worst <= SUPPORT_TOL, f"local support misses 2(|cos| + |sin|) by {worst:.2e}")


def support_chunk(ctx: Context, thetas: np.ndarray, run: Run) -> None:
    points = run.call("ns_support", ctx.m["tradeoffs"].ns_support, thetas)
    if points is not None:
        run.counts["chunk_directions"] = len(thetas)
        worst = max(abs(p.value - oracle.ns_support(p.theta)) for p in points)
        run.check(worst <= SUPPORT_TOL, f"NS support misses 4 max(|cos|, |sin|) by {worst:.2e}")


def check_probe(ctx: Context, report, run: Run) -> None:
    """The probe's optimum values must be the functional's values on the
    pair marginals of the behaviours it returns."""
    bell, model = ctx.m["bell"], ctx.m["model"]
    functional = bell.collins_gisin()
    pairs = ((0, 1), (0, 2), (0, 3))

    def values(behaviour):
        return [bell.bell_value(model.marginal_behavior(behaviour, pair, (0, 0, 0, 0)), functional)
                for pair in pairs]

    signs, _ = max(report.sign_values, key=lambda item: item[1])
    v = values(report.argmax_behavior)
    recomputed = sum(s * x for s, x in zip(signs, v))
    run.check(abs(recomputed - report.max_sum) <= CERTIFICATE_TOL,
              f"pb_probe max_sum {report.max_sum!r} vs {recomputed!r} from its behaviour")
    run.check(report.max_sum >= 8.0, f"pb_probe max_sum {report.max_sum!r} < 8")
    v = values(report.t_behavior)
    recomputed = min(v[0] + v[1], v[0] + v[2])
    run.check(abs(recomputed - report.t_star) <= CERTIFICATE_TOL,
              f"pb_probe t* {report.t_star!r} vs {recomputed!r} from its behaviour")


# ---------------------------------------------------------------------------
# quantum-search
# ---------------------------------------------------------------------------

def quantum_search(ctx: Context, inp: dict, run: Run, index: int) -> None:
    """Each direction search is followed by an equal share of the sampled
    states, so the samples are timed across the whole run."""
    tradeoffs, quantum, entanglement = ctx.m["tradeoffs"], ctx.m["quantum"], ctx.m["entanglement"]
    thetas, samples = inp["thetas"], inp["samples"]
    share = -(-len(samples) // len(thetas))

    for k, theta in enumerate(thetas):
        points = run.call("quantum_direction", tradeoffs.quantum_boundary_search,
                          np.array([theta]), inp["search_restarts"],
                          np.random.default_rng(inputs.SEARCH_SEED))
        if points is not None:
            value = points[0].value
            run.check(value <= oracle.TSIRELSON + VALUE_TOL,
                      f"quantum direction {theta:.4f} exceeds 2 sqrt(2): {value!r}")
            gap = oracle.quantum_support(theta) - value
            run.counts["tsirelson_gap"] = max(run.counts["tsirelson_gap"], gap)
            if gap > SHORTFALL_TOL:
                run.fail(f"quantum direction {theta:.4f}: {value:.6f} is {gap:.3e} short of 2 sqrt(2)")
        for sample in samples[k * share:(k + 1) * share]:
            angles = sample["angles"]
            observables = [[oracle.planar(a) for a in angles[2 * p:2 * p + 2]] for p in range(3)]
            out = run.call("sample_point", sample_point, ctx, sample, observables)
            if out is not None:
                check_sample(sample, out, run)

    result = run.call("cg_search", tradeoffs.cg_double_violation_search,
                      np.array(inp["mu_grid"]), inp["cg_restarts"],
                      np.random.default_rng(inp["cg_seed"]))
    if result is not None:
        check_double_violation(ctx, result, run)

    value = run.call("separable_max", tradeoffs.separable_orthogonal_max,
                     inputs.SEPARABLE_RESTARTS, np.random.default_rng(inp["separable_seed"]))
    if value is not None:
        run.check(abs(value - oracle.SEPARABLE_ORTHOGONAL_MAX) <= SUPPORT_TOL,
                  f"separable-orthogonal maximum {value!r} is not sqrt(2)")

    report = run.call("w_ckw", entanglement.ckw_check, quantum.w_state(), 0)
    if report is not None:
        want = oracle.W_PAIRWISE_TANGLES + (oracle.W_CUT_TANGLE, 0.0)
        got = tuple(report.pairwise) + (report.cut, report.residual)
        run.check(max(abs(g - w) for g, w in zip(got, want)) <= VALUE_TOL,
                  f"W-state tangles {got} are not (4/9, 4/9, 8/9, 0)")


def sample_point(ctx: Context, sample: dict, observables):
    """The sampling phase's work on one state: its pair values by the state
    route and by the behaviour route, and its tangles."""
    quantum, tradeoffs, entanglement = ctx.m["quantum"], ctx.m["tradeoffs"], ctx.m["entanglement"]
    rho = quantum.density_from_vector(sample["vector"])
    a = sample["angles"]
    point = tradeoffs.state_pair_point(rho, (a[0], a[1]), (a[2], a[3]), (a[4], a[5]))
    pair = tradeoffs.pair_values(quantum.born_behavior(rho, observables))
    report = entanglement.ckw_check(rho, sample["pivot"])
    return point, pair, report


def check_sample(sample: dict, out, run: Run) -> None:
    point, pair, report = out
    ab, ac = point.chsh_ab, point.chsh_ac
    run.check(ab * ab + ac * ac <= 8.0 + VALUE_TOL, f"sample breaks ab^2 + ac^2 <= 8: {ab!r}, {ac!r}")
    run.check(abs(ab) + abs(ac) <= 4.0 + VALUE_TOL, f"sample breaks |ab| + |ac| <= 4: {ab!r}, {ac!r}")
    run.check(abs(ab - pair.chsh_ab) <= VALUE_TOL and abs(ac - pair.chsh_ac) <= VALUE_TOL,
              f"state route ({ab!r}, {ac!r}) and behaviour route "
              f"({pair.chsh_ab!r}, {pair.chsh_ac!r}) disagree")
    run.check(report.residual >= -VALUE_TOL, f"CKW residual {report.residual!r} < 0")
    cut = oracle.cut_tangle(sample["vector"], sample["pivot"])
    run.check(abs(report.cut - cut) <= VALUE_TOL, f"cut tangle {report.cut!r}, oracle {cut!r}")
    tau3 = oracle.three_tangle(sample["vector"])
    run.check(abs(report.residual - tau3) <= CERTIFICATE_TOL,
              f"CKW residual {report.residual!r} is not the three-tangle {tau3!r}")


def check_double_violation(ctx: Context, result, run: Run) -> None:
    """min value > 4, and both values reproduced by ``born_behavior`` on the
    found state and angles, and by the oracle."""
    quantum, model, bell = ctx.m["quantum"], ctx.m["model"], ctx.m["bell"]
    run.check(result.min_value > oracle.CG_LOCAL_BOUND,
              f"double-violation search found min value {result.min_value!r} <= 4")
    angles = (result.a_angles, result.b_angles, result.c_angles)
    observables = [[oracle.planar(a) for a in party] for party in angles]
    behaviour = quantum.born_behavior(quantum.cg_state(result.mu), observables)
    functional = bell.collins_gisin()
    ab = bell.bell_value(model.marginal_behavior(behaviour, (0, 1), (0, 0, 0)), functional)
    ac = bell.bell_value(model.marginal_behavior(behaviour, (0, 2), (0, 0, 0)), functional)
    run.check(abs(ab - result.value_ab) <= VALUE_TOL and abs(ac - result.value_ac) <= VALUE_TOL,
              f"double violation ({result.value_ab!r}, {result.value_ac!r}) vs born_behavior "
              f"({ab!r}, {ac!r})")
    flat = [x for party in angles for x in party]
    ref_ab, ref_ac = oracle.cg_pair_values(oracle.cg_vector(result.mu), flat)
    run.check(abs(ref_ab - result.value_ab) <= VALUE_TOL and abs(ref_ac - result.value_ac) <= VALUE_TOL,
              f"double violation ({result.value_ab!r}, {result.value_ac!r}) vs oracle "
              f"({ref_ab!r}, {ref_ac!r})")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli(ctx: Context, inp: dict, run: Run, index: int) -> None:
    commands = inputs.cli_commands(inp, ctx.workdir / f"round{index}")
    for name, argv in commands:
        proc = run_command(ctx, name, argv, run)
        if proc is not None:
            check_command(name, proc, inp, run)


def run_command(ctx: Context, name: str, argv: list[str], run: Run):
    """One CLI command in a fresh process, timed from spawn to exit.  In
    the traced copy the command runs under cli_child.py with -X importtime."""
    run.attempt()
    spans_file = ctx.workdir / "child-spans.json"
    if run.tracer is None:
        cmd = [sys.executable, "-m", "monogamy.cli", *argv]
    else:
        cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_child.py"),
               str(spans_file), *argv]
    run.before()
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=ctx.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.fail(f"cli {name}: timed out")
        return None
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        run.fail(f"cli {name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    run.record(f"cli_{name}", elapsed)
    if run.tracer is not None:
        record_child(spans_file, proc.stderr, run)
    return proc


def record_child(spans_file: Path, stderr: str, run: Run) -> None:
    """Keep a traced child's spans, and its import times from -X importtime:
    every top-level ``monogamy`` module, and ``scipy.optimize`` wherever it
    is first imported."""
    offset = len(run.child_spans)
    for span in json.loads(spans_file.read_text(encoding="utf-8")):
        parent = span["parent"] + offset if span["parent"] >= 0 else -1
        run.child_spans.append([span["name"], span["start"], span["end"], parent, span["counts"]])
    program_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        module = name.strip()
        if level == 0 and (module == "monogamy" or module.startswith("monogamy.")):
            program_us += int(fields[1])
        if module == "scipy.optimize":
            scipy_us += int(fields[1])
    run.imports["program"].append(program_us / 1e6)
    run.imports["scipy"].append(scipy_us / 1e6)


def check_command(name: str, proc, inp: dict, run: Run) -> None:
    code = proc.returncode

    def payload():
        return json.loads(proc.stdout)

    local = oracle.is_local(inp["two_party"])
    if name == "validate":
        run.check(code == 0 and payload()["passed"], f"cli validate: exit {code}")
    elif name == "nstest":
        run.check(code == 0 and payload()["is_no_signalling"], f"cli nstest: exit {code}")
    elif name == "localtest":
        run.check(code == (0 if local else 1) and payload()["local"] == local,
                  f"cli localtest: exit {code}, Fine's theorem says local={local}")
    elif name == "share":
        run.check(code == (0 if local else 1) and payload()["shareable"] == local,
                  f"cli share --n 2: exit {code}, Fine's theorem says local={local}")
    elif name == "chsh_state":
        want = oracle.two_qubit_chsh(oracle.named_two_qubit(inp["chsh_state"]), inp["chsh_angles"])
        got = float(proc.stdout.strip().splitlines()[0])
        run.check(code == 0 and abs(got - want) <= VALUE_TOL, f"cli chsh on a state: {got!r}, oracle {want!r}")
    elif name == "chsh_behavior":
        ab, ac, passed = oracle.three_party_checks(inp["three_party"])
        data = payload()
        run.check(
            code == (0 if all(passed) else 1)
            and abs(data["chsh_ab"] - ab) <= VALUE_TOL and abs(data["chsh_ac"] - ac) <= VALUE_TOL
            and [c["passed"] for c in data["checks"]] == passed,
            f"cli chsh on a behaviour: exit {code}, {data}, oracle ({ab!r}, {ac!r}, {passed})")
    elif name == "cg":
        ab, ac = oracle.cg_pair_values(oracle.cg_vector(inp["mu"]), list(inp["cg_angles"]))
        data = payload()
        run.check(code == 0 and abs(data["cg_ab"] - ab) <= VALUE_TOL and abs(data["cg_ac"] - ac) <= VALUE_TOL,
                  f"cli cg: {data}, oracle ({ab!r}, {ac!r})")
    elif name == "ckw":
        data = payload()
        cut = oracle.cut_tangle(inp["state3"], inp["pivot"])
        tau3 = oracle.three_tangle(inp["state3"])
        run.check(code == 0 and data["passed"] and abs(data["cut_tangle"] - cut) <= VALUE_TOL
                  and abs(data["residual"] - tau3) <= CERTIFICATE_TOL,
                  f"cli ckw: exit {code}, {data}, oracle cut {cut!r}, three-tangle {tau3!r}")


ROUNDS = {
    "shareability": shareability,
    "polytope-optimum": polytope_optimum,
    "quantum-search": quantum_search,
    "cli": cli,
}


# ---------------------------------------------------------------------------
# Warm-up: first calls pay for lazy imports and caches inside scipy
# ---------------------------------------------------------------------------

def warm_up(workload: str, ctx: Context, inp: dict) -> None:
    if workload == "cli":
        return
    m = ctx.m
    if workload == "shareability":
        behaviour = m["model"].Behavior(m["model"].Scenario(2, (2, 2), (2, 2)), inp["behaviours"][0][1])
        m["localpoly"].local_decomposition(behaviour)
        m["sharing"].ns_extension(behaviour, 2)
        m["sharing"].unrestricted_extension(behaviour, 2)
    elif workload == "polytope-optimum":
        m["tradeoffs"].ns_support(np.array([0.0]))
        m["tradeoffs"].local_support(np.array([0.0]))
        m["sharing"].random_shareable_behavior(np.random.default_rng(0))
    else:
        sample = inp["samples"][0]
        observables = [[oracle.planar(a) for a in sample["angles"][2 * p:2 * p + 2]] for p in range(3)]
        sample_point(ctx, sample, observables)
        m["tradeoffs"].separable_orthogonal_max(1, np.random.default_rng(0))
