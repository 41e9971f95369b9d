"""Spans around the program's public functions, for the traced run.

Each traced function is wrapped at the module attribute where the program
looks it up (``sharing.normalization_constraints`` as well as
``model.normalization_constraints``), so a call from one layer into another
opens a child span.  A span records its name, start, end, parent and a few
counts taken from the call's arguments or result.  Spans stay in memory
until the run ends; ``summarize`` turns them into self times and counts.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


def _rows_nnz(args, kwargs, result):
    rows = result[0]
    return {"rows": int(rows.shape[0]), "nnz": int(np.count_nonzero(rows))}


def _elastic_block(args, kwargs, result):
    """Bytes of the dense elastic phase-one matrices, from the shapes of the
    blocks ``lp.feasibility`` stacks: every row gains slack columns."""
    eq = kwargs.get("eq")
    ub = kwargs.get("ub")
    n = kwargs.get("n_variables")
    if n is None:
        n = (eq if eq is not None else ub)[0].shape[1]
    m_eq = 0 if eq is None else len(eq[1])
    m_ub = 0 if ub is None else len(ub[1])
    columns = n + 2 * m_eq + m_ub
    return {"dense_mb": 8.0 * (m_eq + m_ub) * columns / 2**20}


def _lp_size(args, kwargs, result):
    program = args[0]
    rows = sum(0 if m is None else m.shape[0] for m in (program.eq_lhs, program.ub_lhs))
    return {"vars": program.n_variables, "rows": rows}


def _highs(args, kwargs, result):
    return {"iterations": int(getattr(result, "nit", 0) or 0)}


def _nelder_mead(args, kwargs, result):
    return {"evals": int(result.nfev)}


def _extension_vars(args, kwargs, result):
    base, clones = args[0], args[1]
    settings, outcomes = base.scenario.settings, base.scenario.outcomes
    return {"vars": settings[0] * outcomes[0] * (settings[1] * outcomes[1]) ** clones}


MODULES = ("model", "lp", "sharing", "localpoly", "quantum", "entanglement", "bell", "tradeoffs")

# (module, attribute, span name, counter).  A name is shared by every
# lookup site of one function.
TRACED = (
    ("model", "normalization_constraints", "model.assembly", _rows_nnz),
    ("model", "no_signalling_constraints", "model.assembly", _rows_nnz),
    ("sharing", "normalization_constraints", "model.assembly", _rows_nnz),
    ("sharing", "no_signalling_constraints", "model.assembly", _rows_nnz),
    ("tradeoffs", "normalization_constraints", "model.assembly", _rows_nnz),
    ("tradeoffs", "no_signalling_constraints", "model.assembly", _rows_nnz),
    ("model", "validate_behavior", "model.validate", None),
    ("model", "is_no_signalling", "model.validate", None),
    ("sharing", "validate_behavior", "model.validate", None),
    ("sharing", "is_no_signalling", "model.validate", None),
    ("sharing", "clone_symmetry_constraints", "sharing.symmetry_assembly", _rows_nnz),
    ("sharing", "ns_extension", "sharing.extension", _extension_vars),
    ("sharing", "unrestricted_extension", "sharing.unrestricted", None),
    ("sharing", "random_shareable_behavior", "sharing.draw", None),
    ("lp", "feasibility", "lp.phase1", _elastic_block),
    ("lp", "solve", "lp.solve", _lp_size),
    ("lp", "constraint_residual", "lp.verify", None),
    ("lp", "linprog", "lp.highs", _highs),
    ("localpoly", "strategy_matrix", "localpoly.strategies", None),
    ("localpoly", "deterministic_strategies", "localpoly.strategies", None),
    ("tradeoffs", "deterministic_strategies", "localpoly.strategies", None),
    ("localpoly", "local_decomposition", "localpoly.decomposition", None),
    ("quantum", "born_behavior", "quantum.born", None),
    ("quantum", "density_from_vector", "quantum.state_build", None),
    ("quantum", "state_from_json_dict", "quantum.state_build", None),
    ("quantum", "cg_state", "quantum.state_build", None),
    ("tradeoffs", "cg_state", "quantum.state_build", None),
    ("entanglement", "ckw_check", "entanglement.ckw", None),
    ("bell", "bell_value", "bell.value", None),
    ("bell", "chsh_value", "bell.value", None),
    ("localpoly", "bell_value", "bell.value", None),
    ("tradeoffs", "_behavior_chsh", "bell.value", None),
    ("tradeoffs", "state_pair_point", "tradeoffs.pair_point", None),
    ("tradeoffs", "pair_values", "tradeoffs.pair_values", None),
    ("tradeoffs", "minimize", "tradeoffs.nelder_mead", _nelder_mead),
    ("tradeoffs", "ns_support", "tradeoffs.ns_support", None),
    ("tradeoffs", "local_support", "tradeoffs.local_support", None),
    ("tradeoffs", "pb_probe", "tradeoffs.probe", None),
    ("tradeoffs", "quantum_boundary_search", "tradeoffs.quantum_search", None),
    ("tradeoffs", "cg_double_violation_search", "tradeoffs.cg_search", None),
    ("tradeoffs", "separable_orthogonal_max", "tradeoffs.separable", None),
)


class Tracer:
    """Records spans while enabled; ``install`` wraps the attributes."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []

    def install(self, modules: dict) -> None:
        for module_name, attr, name, counter in TRACED:
            module = modules[module_name]
            setattr(module, attr, self._wrap(getattr(module, attr), name, counter))

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper


def dump(records: list[list], path) -> None:
    keys = ("name", "start", "end", "parent", "counts")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([dict(zip(keys, span)) for span in records], handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: list[list]) -> dict:
    """Per span name: self seconds, inclusive seconds, calls, summed counts
    and the largest value of each count."""
    selfs = self_times(spans)
    out: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                                     "sum": defaultdict(float), "max": defaultdict(float)})
    for (name, start, end, _, counts), own in zip(spans, selfs):
        entry = out[name]
        entry["self_s"] += own
        entry["total_s"] += end - start
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry["sum"][key] += value
            entry["max"][key] = max(entry["max"][key], value)
    return out
