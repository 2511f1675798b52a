"""Span recorder for the traced benchmark pass.

The recorder wraps the public functions of each feedincap module from the
outside: while it is installed, every module attribute bound to one of those
functions (``formulation.build_problem`` and ``cli.build_problem`` alike)
points at a timing wrapper, and uninstalling puts the originals back. The
package source is untouched. Spans stay in memory until the run writes them
out; counters are read off the wrapped functions' return values.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# layer -> public functions wrapped in that layer
TRACED = {
    "cli": ("main",),
    "grid": ("parse_grid", "validate_grid"),
    "network": ("build_linear_model", "evaluate_linear"),
    "formulation": ("node_aggregates", "build_problem", "extract_solution"),
    "milp": ("solve_milp",),
    "oracle": ("feasible_at", "max_scal_bisection", "oracle_plan",
               "annual_simulate"),
    "analysis": ("find_bottlenecks", "energy_account", "run_sweep",
                 "emit_report", "check_monotonicity"),
}


@dataclass
class Span:
    id: int
    name: str                   # "<layer>.<function>"
    parent: int | None          # id of the enclosing span
    request: int | None         # id of the cli request the span belongs to
    start_ns: int
    end_ns: int = 0
    counters: dict = field(default_factory=dict)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _milp_counters(args, kwargs, sol):
    return {"nodes": sol.nodes, "lp_iterations": sol.lp_iterations,
            "gap": sol.gap, "status": sol.status}


def _build_counters(args, kwargs, inst):
    lp = inst.lp
    free = sum(1 for j in inst.binaries if lp.lb[j] < lp.ub[j])
    return {"lp_rows": lp.n_rows, "lp_vars": lp.n_vars, "free_binaries": free}


def _evaluate_counters(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    p = _arg(args, kwargs, 1, "p_mw")
    hours = p.shape[0] if getattr(p, "ndim", 1) == 2 else 1
    n, lines = model.n_buses, len(model.line_order)
    # one (H x N) @ (N x L) product for flows, two (H x N) @ (N x N) for voltages
    return {"flop": 2 * hours * n * (lines + 2 * n)}


def _parse_counters(args, kwargs, grid):
    doc = _arg(args, kwargs, 0, "document")
    # grid documents are ASCII JSON, so characters equal bytes
    return {"bytes": len(doc) if isinstance(doc, str) else 0}


def _bisection_counters(args, kwargs, search):
    return {"evaluations": search.evaluations}


COUNTERS = {
    "milp.solve_milp": _milp_counters,
    "formulation.build_problem": _build_counters,
    "network.evaluate_linear": _evaluate_counters,
    "grid.parse_grid": _parse_counters,
    "oracle.max_scal_bisection": _bisection_counters,
}


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.bindings: list[str] = []       # "module.attribute" names rebound

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = Span(len(self.spans), name,
                        self._stack[-1].id if self._stack else None,
                        self.request, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span.counters = count(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a traced function."""
        targets = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"feedincap.{layer}"]
            for n in names:
                fn = getattr(mod, n)
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "feedincap" or key.startswith("feedincap.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
                    self.bindings.append(f"{mod.__name__}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by metric name."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    total = defaultdict(float)          # seconds inside calls, children included
    self_s = defaultdict(float)         # the same minus child spans
    calls = defaultdict(int)
    sums = defaultdict(float)           # "<span name>.<counter>" -> sum
    gap = 0.0
    for s in spans:
        dur = s.end_ns - s.start_ns
        total[s.name] += dur * 1e-9
        self_s[s.name] += (dur - child_ns[s.id]) * 1e-9
        calls[s.name] += 1
        for key, v in s.counters.items():
            if key == "gap":
                gap = max(gap, float(v))
            elif not isinstance(v, str):
                sums[f"{s.name}.{key}"] += v

    def ratio(a, b):
        return a / b if b else 0.0

    iters = sums["milp.solve_milp.lp_iterations"]
    parse_s = total["grid.parse_grid"]
    return {
        "cli.self_s": self_s["cli.main"],
        "grid.parse_grid_s": parse_s,
        "grid.validate_grid_s": total["grid.validate_grid"],
        "grid.parse_mb_per_s": ratio(sums["grid.parse_grid.bytes"] / 1e6, parse_s),
        "network.build_linear_model_s": total["network.build_linear_model"],
        "network.build_linear_model.calls": calls["network.build_linear_model"],
        "network.evaluate_linear_s": total["network.evaluate_linear"],
        "network.evaluate_linear.calls": calls["network.evaluate_linear"],
        "network.evaluate_linear.gflop": sums["network.evaluate_linear.flop"] / 1e9,
        "formulation.node_aggregates_s": total["formulation.node_aggregates"],
        "formulation.node_aggregates.calls": calls["formulation.node_aggregates"],
        "formulation.build_problem_s": total["formulation.build_problem"],
        "formulation.lp_rows": sums["formulation.build_problem.lp_rows"],
        "formulation.lp_vars": sums["formulation.build_problem.lp_vars"],
        "formulation.free_binaries": sums["formulation.build_problem.free_binaries"],
        "formulation.extract_solution_s": total["formulation.extract_solution"],
        "milp.solve_milp_s": total["milp.solve_milp"],
        "milp.lp_iterations": iters,
        "milp.us_per_iteration": ratio(total["milp.solve_milp"] * 1e6, iters),
        "milp.bb_nodes": sums["milp.solve_milp.nodes"],
        "milp.gap": gap,
        "oracle.feasible_at_s": self_s["oracle.feasible_at"],
        "oracle.feasible_at.calls": calls["oracle.feasible_at"],
        "oracle.passes_per_answer": ratio(
            sums["oracle.max_scal_bisection.evaluations"],
            calls["oracle.max_scal_bisection"]),
        "oracle.max_scal_bisection_s": total["oracle.max_scal_bisection"],
        "oracle.oracle_plan_s": total["oracle.oracle_plan"],
        "oracle.annual_simulate_s": total["oracle.annual_simulate"],
        "analysis.find_bottlenecks_s": total["analysis.find_bottlenecks"],
        "analysis.energy_account_s": total["analysis.energy_account"],
        "analysis.run_sweep_s": self_s["analysis.run_sweep"],
        "analysis.emit_report_s": total["analysis.emit_report"],
        "analysis.check_monotonicity_s": total["analysis.check_monotonicity"],
    }


def request_counters(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Solver counters summed per request, for the run record."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.request is None:
            continue
        row = out[s.request]
        if s.name == "oracle.feasible_at":
            row["feasible_at.calls"] += 1
        for key, v in s.counters.items():
            if not isinstance(v, str):
                row[key] += v
        if s.name == "oracle.max_scal_bisection":
            row["bisections"] += 1
    return {k: dict(v) for k, v in out.items()}
