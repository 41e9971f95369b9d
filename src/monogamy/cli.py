"""Command-line front end.

Exit codes: 0 on pass/success, 1 on a failed check, 2 on usage, parse or
run-time errors (running out of memory included).  All sampling flows
through a single seedable generator, so identical seeds and flags produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import bell, entanglement, localpoly, model, quantum, sharing, tradeoffs

# Ceilings on the loops of ``sweep`` and ``cgsearch``, checked before any
# work: the directions or mu values, and for the commands that search, the
# local searches those start, at most grid * (restarts + 3) counting the
# seeded starts.  On 2 cores an NS sweep of 10 000 directions took 1.7-2.5
# s at 124-135 MB peak RSS, and one local search 1.7-2.4 ms.
MAX_GRID = 10_000
MAX_STARTS = 10_000
_SEARCHING_SWEEPS = ("quantum", "separable-orthogonal")


class CliError(Exception):
    """Usage or input error; maps to exit code 2."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None


def parse_behavior(path: str | None) -> model.Behavior:
    """Load and structurally check a behavior JSON file."""
    if path is None:
        raise CliError("a behavior file is required (--in)")
    data = _load_json(path)
    try:
        return model.behavior_from_json_dict(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _require_valid(b: model.Behavior, tol: float) -> model.SignallingReport:
    """The signalling report of ``b`` at ``tol``; CliError unless it validates."""
    ((report, signalling),) = model.definition_reports(b.scenario, b.table[None], tol)
    if not report.passed:
        raise CliError(
            "input behavior failed validation: "
            f"max positivity violation {report.max_positivity_violation:.3e}, "
            f"max normalization deviation {report.max_normalization_deviation:.3e}"
        )
    return signalling


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _angles(text: str, count: int) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"--angles must be comma-separated radians: '{text}'") from None
    if len(values) != count:
        raise CliError(f"expected {count} angles, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"--angles must be finite: '{text}'")
    return values


def _resolve_state(
    args, allow_behavior: bool = False
) -> quantum.DensityMatrix | model.Behavior:
    """The --in file or the named --state.  A file with 'dimension' and
    'entries' fields is a state; any other file is read as a behavior when
    ``allow_behavior`` is set, and as a state otherwise."""
    if args.infile and args.state:
        raise CliError("give either --in or --state, not both")
    if args.mu is not None and args.state != "cg":
        raise CliError("--mu applies only to --state cg")
    if args.infile:
        data = _load_json(args.infile)
        is_state = isinstance(data, dict) and "dimension" in data and "entries" in data
        try:
            if is_state or not allow_behavior:
                return quantum.state_from_json_dict(data)
            return model.behavior_from_json_dict(data)
        except ValueError as exc:
            raise CliError(f"{args.infile}: {exc}") from None
    if args.state:
        try:
            return quantum.named_state(args.state, mu=args.mu)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    raise CliError("a state is required (--in or --state)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    b = parse_behavior(args.infile)
    report = model.validate_behavior(b, args.tol)
    payload = {
        "passed": report.passed,
        "max_positivity_violation": report.max_positivity_violation,
        "max_normalization_deviation": report.max_normalization_deviation,
        "positivity_violations": [
            {"context": list(ctx), "outcomes": list(outs), "value": value}
            for ctx, outs, value in report.positivity_violations
        ],
        "normalization_deviations": [
            {"context": list(ctx), "deviation": dev}
            for ctx, dev in report.normalization_deviations
        ],
    }
    _emit(payload, args.out)
    return 0 if report.passed else 1


def cmd_nstest(args) -> int:
    b = parse_behavior(args.infile)
    report = _require_valid(b, args.tol)
    payload = {
        "is_no_signalling": report.is_no_signalling,
        "max_violation": report.max_violation,
    }
    if report.witness is not None:
        payload["witness"] = asdict(report.witness)
    _emit(payload, args.out)
    return 0 if report.is_no_signalling else 1


def cmd_localtest(args) -> int:
    b = parse_behavior(args.infile)
    _require_valid(b, args.tol)
    result = localpoly.local_decomposition(b)
    if isinstance(result, localpoly.NotLocal):
        _emit({"local": False, "score": result.score}, args.out)
        return 1
    payload = {
        "local": True,
        "reconstruction_error": result.reconstruction_error,
        "weights": [float(w) for w in result.weights],
    }
    _emit(payload, args.out)
    return 0


def cmd_share(args) -> int:
    b = parse_behavior(args.infile)
    _require_valid(b, args.tol)
    try:
        result = sharing.is_n_shareable(b, args.n, mode=args.mode, tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    payload = {
        "mode": args.mode,
        "n": args.n,
        "shareable": result.shareable,
        "status": "feasible" if result.shareable else "infeasible",
        "score": result.score,
    }
    if result.certificate is not None:
        payload["symmetry_residual"] = result.certificate.symmetry_residual
        payload["marginal_residual"] = result.certificate.marginal_residual
        if args.cert_out:
            _emit(model.behavior_to_json_dict(result.certificate.behavior), args.cert_out)
    _emit(payload, args.out)
    return 0 if result.shareable else 1


def cmd_chsh(args) -> int:
    source = _resolve_state(args, allow_behavior=True)
    if isinstance(source, model.Behavior):
        b = source
        _require_valid(b, args.tol)
        if b.scenario.parties == 3:
            # Three-party input: emit the pair values and the trade-off
            # checks as a JSON report array.
            point = tradeoffs.pair_values(b)
            checks = tradeoffs.behavior_checks(b, args.tol)
            payload = {
                "chsh_ab": point.chsh_ab,
                "chsh_ac": point.chsh_ac,
                "checks": [asdict(r) for r in checks],
            }
            _emit(payload, args.out)
            return 0 if all(r.passed for r in checks) else 1
        value = bell.chsh_value(b)
    else:
        rho = source
        if rho.qubits != 2:
            raise CliError("chsh needs a two-qubit state")
        if args.angles is None:
            raise CliError("chsh on a state needs --angles (four values: a0,a1,b0,b1)")
        alphas = _angles(args.angles, 4)
        observables = [
            [quantum.planar_observable(alphas[0]), quantum.planar_observable(alphas[1])],
            [quantum.planar_observable(alphas[2]), quantum.planar_observable(alphas[3])],
        ]
        value = bell.chsh_value(quantum.born_behavior(rho, observables))
    sys.stdout.write(f"{float(value)!r}\n")
    if args.out:
        _emit({"chsh": value}, args.out)
    return 0


def cmd_cg(args) -> int:
    functional = bell.collins_gisin()
    source = _resolve_state(args, allow_behavior=True)
    if isinstance(source, model.Behavior):
        _require_valid(source, args.tol)
        value = bell.bell_value(source, functional)
        _emit({"cg": value, "local_bound": functional.local_bound}, args.out)
        return 0
    rho = source
    if rho.qubits != 3:
        raise CliError("cg needs a three-qubit state (or a behavior file)")
    if args.angles is None:
        raise CliError("cg on a state needs --angles (nine values: a, b, c)")
    alphas = _angles(args.angles, 9)
    value_ab, value_ac = tradeoffs.cg_values_for_state(
        rho, tuple(alphas[0:3]), tuple(alphas[3:6]), tuple(alphas[6:9])
    )
    payload = {
        "cg_ab": value_ab,
        "cg_ac": value_ac,
        "local_bound": functional.local_bound,
    }
    _emit(payload, args.out)
    return 0


def cmd_ckw(args) -> int:
    rho = _resolve_state(args)
    try:
        report = entanglement.ckw_check(rho, args.pivot, tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    payload = {
        "pivot": report.pivot,
        "partners": list(report.partners),
        "pairwise_tangles": list(report.pairwise),
        "cut_tangle": report.cut,
        "residual": report.residual,
        "passed": report.passed,
    }
    _emit(payload, args.out)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    rng = np.random.default_rng(args.seed)
    points = tradeoffs.sweep(args.cls, args.grid, args.restarts, rng, tol=args.tol)
    lines = ["theta,max_value,class"]
    for point in points:
        lines.append(f"{point.theta!r},{point.value!r},{args.cls}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_cgsearch(args) -> int:
    rng = np.random.default_rng(args.seed)
    mu_values = np.linspace(0.0, 1.0, args.grid)
    result = tradeoffs.cg_double_violation_search(mu_values, args.restarts, rng)
    payload = {
        "mu": result.mu,
        "a_angles": list(result.a_angles),
        "b_angles": list(result.b_angles),
        "c_angles": list(result.c_angles),
        "cg_ab": result.value_ab,
        "cg_ac": result.value_ac,
        "min_value": result.min_value,
        "local_bound": 4.0,
        "double_violation": result.min_value > 4.0,
    }
    _emit(payload, args.out)
    return 0 if result.min_value > 4.0 else 1


def cmd_pbprobe(args) -> int:
    report = tradeoffs.pb_probe(tol=args.tol)
    payload = {
        "sign_values": [
            {"signs": list(signs), "value": value}
            for signs, value in report.sign_values
        ],
        "max_abs_sum": report.max_sum,
        "rewritten_form_bound": report.pb_bound,
        "exceeds_rewritten_form_bound": report.exceeds_pb_form_bound,
        "t_star": report.t_star,
        "double_violation_threshold": report.t_threshold,
        "t_star_exceeds_threshold": report.t_exceeds,
    }
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogamy",
        description="Correlation shareability, Bell trade-offs, and entanglement checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, infile=False, state=False, angles=False, grid=None, tol=1e-9):
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--tol", type=float, default=tol, help="numeric tolerance")
        if infile:
            p.add_argument("--in", dest="infile", default=None, help="input JSON file")
        if state:
            p.add_argument(
                "--state",
                choices=["singlet", "phi_plus", "ghz", "w", "cg"],
                default=None,
            )
            p.add_argument("--mu", type=float, default=None, help="cg family parameter")
        if angles:
            p.add_argument("--angles", default=None, help="comma-separated radians")
        if grid:
            p.add_argument("--grid", type=int, default=41, help=f"number of {grid}")
            p.set_defaults(grid_counts=grid)
            p.add_argument("--restarts", type=int, default=12, help="search restarts")
            p.add_argument("--seed", type=int, default=0, help="PRNG seed")

    p = sub.add_parser("validate", help="positivity / normalization report")
    common(p, infile=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("nstest", help="no-signalling test")
    common(p, infile=True)
    p.set_defaults(func=cmd_nstest)

    p = sub.add_parser("localtest", help="local-polytope membership by LP")
    common(p, infile=True)
    p.set_defaults(func=cmd_localtest)

    p = sub.add_parser("share", help="N-shareability test")
    common(p, infile=True, tol=1e-7)  # LP feasibility threshold
    p.add_argument("--n", type=int, required=True, help="number of clones")
    p.add_argument("--mode", choices=["unrestricted", "ns"], default="ns")
    p.add_argument("--cert-out", default=None, help="write certificate behavior JSON")
    p.set_defaults(func=cmd_share)

    p = sub.add_parser("chsh", help="CHSH value of a behavior or two-qubit state")
    common(p, infile=True, state=True, angles=True)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("cg", help="three-setting functional value")
    common(p, infile=True, state=True, angles=True)
    p.set_defaults(func=cmd_cg)

    p = sub.add_parser("ckw", help="distributed-entanglement trade-off report")
    common(p, infile=True, state=True)
    p.add_argument("--pivot", type=int, default=0)
    p.set_defaults(func=cmd_ckw)

    p = sub.add_parser("sweep", help="support-function trace as CSV")
    common(p, grid="theta directions")
    p.add_argument(
        "--class",
        dest="cls",
        choices=list(tradeoffs.SWEEP_CLASSES),
        required=True,
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cgsearch", help="double-violation search over the cg family")
    common(p, grid="mu values")
    p.set_defaults(func=cmd_cgsearch)

    p = sub.add_parser("pbprobe", help="four-party no-signalling probe")
    common(p, tol=1e-7)  # LP feasibility threshold
    p.set_defaults(func=cmd_pbprobe)

    return parser


def _join_angles(argv: list[str]) -> list[str]:
    """``--angles V`` rewritten as ``--angles=V``: argparse reads a separate
    value that starts with a minus sign, such as ``-0.78,0,0.78,1.57``, as a
    new flag."""
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--angles":
            argv[i:i + 2] = [f"--angles={argv[i + 1]}"]
    return argv


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_angles(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return 2 if exc.code not in (0,) else 0
    if getattr(args, "tol", None) is not None and not (math.isfinite(args.tol) and args.tol > 0):
        sys.stderr.write("error: --tol must be positive and finite\n")
        return 2
    if getattr(args, "grid", None) is not None and args.grid < 1:
        sys.stderr.write(f"error: --grid must be at least 1 (the number of {args.grid_counts})\n")
        return 2
    if getattr(args, "restarts", None) is not None and args.restarts < 0:
        sys.stderr.write("error: --restarts must be non-negative\n")
        return 2
    if getattr(args, "grid", None) is not None and args.grid > MAX_GRID:
        sys.stderr.write(f"error: --grid must be at most {MAX_GRID}\n")
        return 2
    searching = args.command == "cgsearch" or getattr(args, "cls", None) in _SEARCHING_SWEEPS
    if searching and args.grid * (args.restarts + 3) > MAX_STARTS:
        sys.stderr.write(
            f"error: --grid * (--restarts + 3) must be at most {MAX_STARTS}, the number of"
            " local searches the command may start\n"
        )
        return 2
    if getattr(args, "seed", None) is not None and args.seed < 0:
        sys.stderr.write("error: --seed must be non-negative\n")
        return 2
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RuntimeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        # Exit 1 means a failed check, so running out of memory is an error.
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
