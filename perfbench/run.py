"""Benchmark of the monogamy toolkit, driven from outside the program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-inputs DIR --seed N [--rounds R]

A run repeats whole rounds of its workload (see workloads.py) while the
next round would end within half a round of S seconds, checks every output against the
oracle, prints each metric by name with its unit, writes a result file to
perfbench/out/, and prints one JSON object as its last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  See
README.md for the workloads, the metrics and the faults counted as failed.
"""

from __future__ import annotations

import os
import sys

# One process and one BLAS thread, fixed before numpy is first imported;
# the program's optional sweep thread pool stays off.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("MONOGAMY_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3


class MissingProgram(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program() -> dict:
    """The program's modules, imported from this checkout's src/."""
    if not (SRC / "monogamy" / "__init__.py").is_file():
        raise MissingProgram(f"no program at {SRC / 'monogamy'}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("monogamy")
    if Path(package.__file__).resolve().parent != (SRC / "monogamy").resolve():
        raise MissingProgram(f"monogamy was imported from {package.__file__}, not {SRC}")
    return {name: importlib.import_module(f"monogamy.{name}") for name in spans.MODULES}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """What a run does before its first timed call: import the program,
    generate the first round's inputs and warm up."""
    modules = None if workload == "cli" else import_program()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT_DIR) as workdir:
        ctx = workloads.Context(modules, child_env(), Path(workdir))
        inp = inputs.make_round(workload, inputs.stream(seed, workload), 0)
        if workload == "cli":
            inputs.cli_commands(inp, ctx.workdir / "round0")
        workloads.warm_up(workload, ctx, inp)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that each set up and exit: interpreter
    start, import, input generation and warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return times


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def run_rounds(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Whole rounds while the next one would end within half a round of
    ``seconds`` (at least one).  With ``trace`` every round runs twice on
    the same inputs, plain and with spans, in alternating order."""
    modules = None if workload == "cli" else import_program()
    tracer = spans.Tracer() if trace else None
    if tracer is not None and modules is not None:
        tracer.install(modules)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        ctx = workloads.Context(modules, child_env(), workdir)
        rng = inputs.stream(seed, workload)
        play = workloads.ROUNDS[workload]
        plain = workloads.Run()
        traced = workloads.Run(tracer=tracer, counting=False) if trace else None
        inp = inputs.make_round(workload, rng, 0, tiny)
        workloads.warm_up(workload, ctx, inp)
        reference.sample()
        durations: list[float] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            copies = [plain] if traced is None else [plain, traced]
            if len(durations) % 2:
                copies.reverse()  # alternate which copy runs first
            for run in copies:
                play(ctx, inp, run, len(durations))
            durations.append(time.perf_counter() - round_start)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.fmean(durations) / 2 > seconds:
                break
            inp = inputs.make_round(workload, rng, len(durations), tiny)
        plain.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"plain": plain, "traced": traced, "tracer": tracer,
            "rounds": len(durations), "measured_s": elapsed}


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def rate(count: float, times) -> float:
    total = float(np.sum(times))
    return count / total if total > 0 else math.nan


def figures(workload: str, s: dict, counts: dict) -> tuple[dict, tuple[str, str]]:
    """The workload's figures from its per-operation times ``s``, under the
    names that say what they measure, and the two of them BENCHMARK.json
    gates.  The others are secondary operations: their run-to-run spread
    is close to the largest bound a metric may have."""
    if workload == "shareability":
        verdict_times = [t for key in workloads.VERDICT_KEYS for t in s[key]]
        named = {
            "share_n4_p50": median(s["ns_extension_n4"]),
            "verdicts_per": rate(len(verdict_times), verdict_times),
            "local_decomposition_p50": median(s["local_decomposition"]),
        }
        return named, ("share_n4_p50", "verdicts_per")
    if workload == "polytope-optimum":
        named = {
            "probe": median(s["pb_probe"]),
            "support_directions_per": counts["chunk_directions"] / median(s["ns_support"]),
            "shareable_draw_p50": median(s["shareable_draw"]),
            "shareable_draws_per": rate(len(s["shareable_draw"]), s["shareable_draw"]),
        }
        return named, ("probe", "support_directions_per")
    if workload == "quantum-search":
        named = {
            "search_direction_p50": median(s["quantum_direction"]),
            "sample_points_per": 1.0 / median(s["sample_point"]),
            "cgsearch": median(s["cg_search"]),
        }
        return named, ("search_direction_p50", "sample_points_per")
    commands = [t for key, times in s.items() if key.startswith("cli_") for t in times]
    named = {
        "cli_p50": median(commands),
        "cli_commands_per": rate(len(commands), commands),
        "cli_validate_p50": median(s["cli_validate"]),
    }
    return named, ("cli_p50", "cli_commands_per")


def end_to_end(workload: str, run: workloads.Run, setup_s: float) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, the workload's figures in seconds and in
    reference units).  The gated times are in units of the reference
    kernel timed beside each operation (reference.py); the same figures in
    wall seconds are printed and recorded next to them."""
    seconds, _ = figures(workload, run.samples, run.counts)
    scaled, (main, stream) = figures(workload, run.scaled, run.counts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "main_op_p50_ref": (scaled[main], "ref"),
        "stream_per_ref": (scaled[stream], "1/ref"),
    }
    named = {f"{k}_s": v for k, v in seconds.items()}
    named.update({f"{k}_ref": v for k, v in scaled.items()})
    named.update(reference_ms=1e3 * median(run.reference_s), setup_s=setup_s,
                 peak_rss_mb=peak_rss_mb)
    return metrics, named


LAYER_UNITS = {
    "model.assembly_s": "s", "model.rows": "count", "model.nnz": "count", "model.validate_s": "s",
    "sharing.symmetry_assembly_s": "s", "sharing.extension_self_s": "s", "sharing.lp_vars": "count",
    "lp.phase1_s": "s", "lp.phase1_calls": "count", "lp.phase1_dense_mb": "MB_computed",
    "lp.solve_s": "s", "lp.solve_calls": "count", "lp.solve_vars": "count", "lp.solve_rows": "count",
    "lp.verify_s": "s", "lp.highs_s": "s", "lp.highs_iterations": "count",
    "localpoly.strategies_s": "s", "localpoly.decomposition_s": "s",
    "quantum.born_s": "s", "quantum.born_calls": "count", "quantum.state_build_s": "s",
    "entanglement.ckw_s": "s", "bell.value_s": "s", "tradeoffs.pair_point_s": "s",
    "tradeoffs.nm_calls": "count", "tradeoffs.nm_evals": "count", "tradeoffs.eval_us": "us",
    "tradeoffs.tsirelson_gap": "chsh", "tradeoffs.ns_support_s": "s", "tradeoffs.probe_self_s": "s",
    "cli.import_s": "s", "cli.scipy_import_s": "s",
    **{f"cli.{name}_p50_s": "s" for name in inputs.CLI_COMMANDS},
    "trace.overhead_pct": "%",
}


def all_spans(result: dict) -> list[list]:
    """The run's own spans followed by those of its traced CLI children."""
    own = result["tracer"].spans
    offset = len(own)
    return own + [[n, s, e, p + offset if p >= 0 else -1, c]
                  for n, s, e, p, c in result["traced"].child_spans]


def per_layer(result: dict) -> dict:
    """Self times and counts per round from the spans of the traced copies;
    means per call where the name says vars or rows, the largest elastic
    block, and the CLI's import and per-command times."""
    plain, traced, rounds = result["plain"], result["traced"], result["rounds"]
    summary = spans.summarize(all_spans(result))

    def self_s(*names):
        return sum(summary[n]["self_s"] for n in names if n in summary) / rounds

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def total(name, key):
        return summary[name]["sum"][key] if name in summary else 0.0

    def mean(name, key):
        return total(name, key) / calls(name) if calls(name) else 0.0

    evals = total("tradeoffs.nelder_mead", "evals")
    nm_total = summary["tradeoffs.nelder_mead"]["total_s"] if evals else 0.0
    keys = set(plain.samples) & set(traced.samples)
    plain_s = sum(sum(plain.samples[k]) for k in keys)
    traced_s = sum(sum(traced.samples[k]) for k in keys)
    values = {
        "model.assembly_s": self_s("model.assembly"),
        "model.rows": total("model.assembly", "rows") / rounds,
        "model.nnz": total("model.assembly", "nnz") / rounds,
        "model.validate_s": self_s("model.validate"),
        "sharing.symmetry_assembly_s": self_s("sharing.symmetry_assembly"),
        "sharing.extension_self_s": self_s("sharing.extension", "sharing.unrestricted"),
        "sharing.lp_vars": mean("sharing.extension", "vars"),
        "lp.phase1_s": self_s("lp.phase1"),
        "lp.phase1_calls": calls("lp.phase1") / rounds,
        "lp.phase1_dense_mb": summary["lp.phase1"]["max"]["dense_mb"] if calls("lp.phase1") else 0.0,
        "lp.solve_s": self_s("lp.solve"),
        "lp.solve_calls": calls("lp.solve") / rounds,
        "lp.solve_vars": mean("lp.solve", "vars"),
        "lp.solve_rows": mean("lp.solve", "rows"),
        "lp.verify_s": self_s("lp.verify"),
        "lp.highs_s": self_s("lp.highs"),
        "lp.highs_iterations": total("lp.highs", "iterations") / rounds,
        "localpoly.strategies_s": self_s("localpoly.strategies"),
        "localpoly.decomposition_s": self_s("localpoly.decomposition"),
        "quantum.born_s": self_s("quantum.born"),
        "quantum.born_calls": calls("quantum.born") / rounds,
        "quantum.state_build_s": self_s("quantum.state_build"),
        "entanglement.ckw_s": self_s("entanglement.ckw"),
        "bell.value_s": self_s("bell.value"),
        "tradeoffs.pair_point_s": self_s("tradeoffs.pair_point"),
        "tradeoffs.nm_calls": calls("tradeoffs.nelder_mead") / rounds,
        "tradeoffs.nm_evals": evals / rounds,
        "tradeoffs.eval_us": 1e6 * nm_total / evals if evals else 0.0,
        "tradeoffs.tsirelson_gap": plain.counts.get("tsirelson_gap", 0.0),
        "tradeoffs.ns_support_s": self_s("tradeoffs.ns_support"),
        "tradeoffs.probe_self_s": self_s("tradeoffs.probe"),
        "cli.import_s": median(traced.imports["program"]) if traced.imports["program"] else 0.0,
        "cli.scipy_import_s": median(traced.imports["scipy"]) if traced.imports["scipy"] else 0.0,
        **{f"cli.{name}_p50_s": median(plain.samples[f"cli_{name}"])
           if plain.samples.get(f"cli_{name}") else 0.0 for name in inputs.CLI_COMMANDS},
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s if plain_s > 0 else 0.0,
    }
    return {name: (float(values[name]), unit) for name, unit in LAYER_UNITS.items()}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "MONOGAMY_THREADS": os.environ.get("MONOGAMY_THREADS", "unset"),
        "processes": "one benchmark process; CLI commands, set-up probes and the capped "
                     "extension run one child at a time",
    }


def unique(messages: list[str]) -> list[str]:
    return list(dict.fromkeys(messages))


def benchmark(args) -> int:
    if not (SRC / "monogamy" / "__init__.py").is_file():
        raise MissingProgram(f"no program at {SRC / 'monogamy'}")
    setup_s = 0.0 if args.trace else median(measure_setup(args.workload, args.seed))
    result = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    plain, traced = result["plain"], result["traced"]
    if args.trace:
        metrics, named = per_layer(result), {}
    else:
        metrics, named = end_to_end(args.workload, plain, setup_s)
    mismatches = unique(plain.mismatches + (traced.mismatches if traced else []))
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        mismatches.append(f"no measurement for {', '.join(bad)}")
    correct = not mismatches and plain.attempted > 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": result["rounds"], "measured_s": result["measured_s"], "machine": machine(),
        "correct": correct, "attempted": plain.attempted, "failed": plain.failed,
        "failures": unique(plain.failures), "mismatches": mismatches,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": named,
        "samples": dict(plain.samples),
        "scaled": dict(plain.scaled),
        "reference_s": plain.reference_s,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans.dump(all_spans(result), OUT_DIR / f"{stem}-spans.json")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['rounds']} rounds in {result['measured_s']:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for name, value in named.items():
        print(f"  = {name:<30} {value:>14.6g}")
    print(f"  operations attempted {plain.attempted}, failed {plain.failed}")
    for message in unique(plain.failures):
        print(f"  failed: {message}")
    for message in mismatches:
        print(f"  WRONG: {message}")
        print(f"WRONG: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def self_check() -> int:
    """Oracle against hand values, then one tiny round of every workload,
    plain and traced, with the metric names checked against BENCHMARK.json."""
    problems = oracle.self_check()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(inputs.WORKLOADS):
        problems.append("BENCHMARK.json lists other workloads than inputs.WORKLOADS")
    for workload in inputs.WORKLOADS:
        start = time.perf_counter()
        result = run_rounds(workload, 0, 0.0, trace=True, tiny=True)
        plain = result["plain"]
        e2e, _ = end_to_end(workload, plain, 1.0)
        layers = per_layer(result)
        problems += [f"{workload}: {m}" for m in unique(plain.mismatches + result["traced"].mismatches)]
        problems += [f"{workload}: failed {m}" for m in plain.failures]
        if plain.attempted == 0:
            problems.append(f"{workload}: no operation attempted")
        if list(e2e) != [m["name"] for m in spec["end_to_end"]]:
            problems.append(f"{workload}: end-to-end names differ from BENCHMARK.json")
        if list(layers) != [m["name"] for m in spec["per_layer"]]:
            problems.append(f"{workload}: per-layer names differ from BENCHMARK.json")
        print(f"self-check {workload}: {plain.attempted} operations in "
              f"{time.perf_counter() - start:.1f} s")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check ok" if not problems else f"self-check: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-inputs", type=Path, metavar="DIR")
    parser.add_argument("--rounds", type=int, default=1, help="rounds per workload for --write-inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.write_inputs is not None:
            for path in inputs.write_inputs(args.write_inputs, args.seed, args.rounds):
                print(path)
            return 0
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        return benchmark(args)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
