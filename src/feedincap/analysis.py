"""Scenario answers and sweeps, energy accounting, bottleneck ranking, reports.

run_cell answers the expansion question for one scenario: capacity, energy
results and the binding network elements. A plan is one such cell; a sweep
runs it over a grid of cells (feed-in limit x eligibility case x demand
multiplier). Reports are written as a flat CSV, a full JSON document, and an
SVG bar chart; all three are deterministic byte for byte for identical inputs.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .formulation import (
    EnergyAccount,
    EnergyBalanceError,     # noqa: F401  re-exported for the cli
    FormulationError,
    NodeAggregates,
    PlanResult,
    Scenario,
    build_problem,
    energy_account,
    extract_solution,
    node_aggregates,
)
from .grid import Grid
from .milp import SolverConfig, solve_milp
from .network import LinearNetworkModel, build_linear_model
from .oracle import (
    flagged_rows,
    headroom,
    max_scal_bisection,
    oracle_plan,
)

log = logging.getLogger(__name__)


class AnalysisError(ValueError):
    pass


CSV_COLUMNS = ("fl", "case", "demand_multiplier", "scal_star",
               "added_capacity_mw", "generated_mwh", "curtailed_mwh",
               "curtailed_share", "binding_elements")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepSpec:
    fl_values: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7)
    cases: tuple[str, ...] = ("a", "b")
    demand_multipliers: tuple[float, ...] = (1.0, 1.1, 1.2)
    mode: str = "snapshot"
    engine: str = "oracle"              # oracle | milp | both

    def __post_init__(self) -> None:
        if self.engine not in ("oracle", "milp", "both"):
            raise AnalysisError(f"unknown engine {self.engine!r}")
        if self.mode not in ("snapshot", "annual"):
            raise AnalysisError(f"unknown mode {self.mode!r}")
        if self.mode == "annual" and self.engine != "oracle":
            raise AnalysisError("annual sweeps decompose hour by hour; only the "
                                "oracle engine supports them")
        # numbers become floats, so an axis value 1 reports as 1.0, as from the CLI
        for name in ("fl_values", "demand_multipliers"):
            object.__setattr__(self, name, tuple(
                float(v) if isinstance(v, numbers.Real) else v for v in getattr(self, name)))
        for name in ("fl_values", "cases", "demand_multipliers"):
            values = getattr(self, name)
            if not values:
                raise AnalysisError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise AnalysisError(f"{name} must not repeat a value")
        try:
            list(self.scenarios())          # each cell must be a valid Scenario
        except FormulationError as exc:
            raise AnalysisError(f"bad sweep cell: {exc}") from None

    def scenarios(self):
        for fl in self.fl_values:
            for case in self.cases:
                for mult in self.demand_multipliers:
                    yield Scenario(fl=fl, case=case, demand_multiplier=mult,
                                   mode=self.mode)


# ---------------------------------------------------------------------------
# bottlenecks

THERMAL_BINDING_FRAC = 1.0 - 1e-3      # |flow| at or above this share binds
VOLTAGE_BINDING_PU2 = 1e-4             # squared-voltage distance that binds


@dataclass(frozen=True)
class BindingElement:
    kind: str          # thermal | v_high | v_low
    element: str
    hour: int
    margin: float      # distance left to the bound (can be ~0 or negative)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.element}"


@dataclass(frozen=True)
class BindingReport:
    binding: tuple[BindingElement, ...]
    min_thermal_headroom_mw: float
    min_voltage_headroom_pu2: float
    worst_line: str
    worst_bus: str

    def labels(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for b in self.binding:
            seen.setdefault(b.label)
        return tuple(seen)


def find_bottlenecks(plan: PlanResult, model: LinearNetworkModel) -> BindingReport:
    """Which elements of the plan's network model stop further expansion at the
    plan's operating point."""
    flows = np.atleast_2d(plan.flows_mw)
    v2 = np.atleast_2d(plan.voltages_pu2)
    margins = t_head, hi_head, lo_head = headroom(model, flows, v2)
    _, rows = flagged_rows(
        margins,
        (np.abs(flows) >= THERMAL_BINDING_FRAC * model.s_max,
         hi_head <= VOLTAGE_BINDING_PU2, lo_head <= VOLTAGE_BINDING_PU2),
        plan.hours, plan.line_order, plan.bus_order)

    worst_l = int(np.unravel_index(np.argmin(t_head), t_head.shape)[1])
    v_head = np.minimum(hi_head, lo_head)
    worst_b = int(np.unravel_index(np.argmin(v_head), v_head.shape)[1])
    return BindingReport(
        binding=tuple(BindingElement(*r) for r in rows),
        min_thermal_headroom_mw=float(t_head.min()),
        min_voltage_headroom_pu2=float(v_head.min()),
        worst_line=plan.line_order[worst_l],
        worst_bus=plan.bus_order[worst_b],
    )


# ---------------------------------------------------------------------------
# the sweep itself


@dataclass
class CellResult:
    fl: float
    case: str
    demand_multiplier: float
    status: str                         # ok | infeasible_at_zero | error
    engine: str
    scal_star: float | None = None
    added_capacity_mw: float | None = None
    account: EnergyAccount | None = None
    binding: BindingReport | None = None
    oracle_scal: float | None = None
    milp_scal: float | None = None
    deviation: float | None = None
    error: str | None = None
    hours: tuple[int, ...] | None = None    # planned hours; cell_doc leaves them out

    @property
    def key(self) -> tuple:
        return (-self.fl, self.case, self.demand_multiplier)


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list[CellResult]

    @property
    def failed_cells(self) -> list[CellResult]:
        return [c for c in self.cells if c.status == "error"]


def run_cell(grid: Grid, scenario: Scenario, engine: str,
             cfg: SolverConfig, model: LinearNetworkModel,
             agg: NodeAggregates | None = None) -> CellResult:
    """Answer one scenario with the engine: scal*, energy and binding elements.

    The engines only fix scal*; the reported quantities come from the
    closed-form plan at that factor, over every planned hour in either mode.
    agg, when given, is node_aggregates(grid, scenario). Raises AnalysisError
    for a grid without lines, which validate_grid refuses as no_lines, and
    where scal moves no production but nothing is infeasible at scal = 0.
    """
    if not grid.lines:
        raise AnalysisError("no_lines: the grid has no lines, so no network bound "
                            "limits the expansion")
    cell = CellResult(fl=scenario.fl, case=scenario.case,
                      demand_multiplier=scenario.demand_multiplier,
                      status="ok", engine=engine)
    agg = agg if agg is not None else node_aggregates(grid, scenario)
    if engine in ("oracle", "both"):
        search = max_scal_bisection(grid, scenario, cfg, agg=agg, model=model)
        log.debug("cell fl=%g case=%s x%g: %s", scenario.fl, scenario.case,
                  scenario.demand_multiplier, search)
        if search.status != "ok":
            cell.status = "infeasible_at_zero"
            return cell
        cell.oracle_scal = search.scal_star
    if engine in ("milp", "both"):
        inst = build_problem(grid, scenario, cfg, agg=agg, model=model)
        sol = solve_milp(inst.mip, cfg)
        log.debug("cell fl=%g case=%s x%g: milp %s after %d node(s), gap %g, "
                  "%d free trigger(s)", scenario.fl, scenario.case, scenario.demand_multiplier,
                  sol.status, sol.nodes, sol.gap,
                  sum(inst.lp.lb[j] < inst.lp.ub[j] for j in inst.binaries))
        if sol.status == "infeasible":
            cell.status = "infeasible_at_zero"
            return cell
        if sol.status != "optimal":
            cell.status = "error"
            cell.error = f"milp returned {sol.status}"
            return cell
        cell.milp_scal = extract_solution(inst, sol)
    if not agg.avail_coef.any():
        # feasible at scal = 0, and every other scal gives the same plan
        raise AnalysisError("no candidate PV produces in the planned hours, so "
                            "scal changes nothing and has no maximum")
    if engine == "both":
        cell.deviation = abs(cell.oracle_scal - cell.milp_scal)

    # for the pure milp engine the agreed factor is the milp's own
    scal = cell.milp_scal if engine == "milp" else cell.oracle_scal
    cell.scal_star = scal
    plan = oracle_plan(grid, scenario, scal, agg=agg, model=model)
    cell.hours = plan.hours
    cell.account = energy_account(plan)
    cell.added_capacity_mw = plan.added_capacity_mw
    cell.binding = find_bottlenecks(plan, model)
    return cell


def run_sweep(grid: Grid, spec: SweepSpec | None = None,
              cfg: SolverConfig | None = None) -> SweepResult:
    """Evaluate every sweep cell; cell failures are captured, not raised."""
    spec = spec or SweepSpec()
    cfg = cfg or SolverConfig()
    model = build_linear_model(grid)
    aggs: dict[tuple, NodeAggregates] = {}      # the feed-in limit does not enter
    cells = []
    for scenario in spec.scenarios():
        try:
            key = (scenario.case, scenario.demand_multiplier)
            if key not in aggs:
                aggs[key] = node_aggregates(grid, scenario)
            cells.append(run_cell(grid, scenario, spec.engine, cfg, model, aggs[key]))
        except Exception as exc:                      # cell isolation
            cells.append(CellResult(
                fl=scenario.fl, case=scenario.case,
                demand_multiplier=scenario.demand_multiplier,
                status="error", engine=spec.engine, error=str(exc)))
    cells.sort(key=lambda c: c.key)
    return SweepResult(spec=spec, cells=cells)


# Both engines land on the hard bound, so only rounding can invert two cells.
MONOTONICITY_SLACK = 1e-9


def check_monotonicity(result: SweepResult, slack: float = MONOTONICITY_SLACK) -> list[str]:
    """Orderings every sweep must satisfy; returns human-readable violations.

    Larger feed-in limits can only shrink the answer, added demand can only
    grow it, and widening eligibility from case a to case b can only help.
    Infeasible-at-zero cells rank below every feasible value.
    """
    val: dict[tuple, float] = {}
    for c in result.cells:
        if c.status == "error":
            continue
        val[(c.fl, c.case, c.demand_multiplier)] = (
            -1.0 if c.status == "infeasible_at_zero" else c.scal_star)
    bad = []
    for (fl, case, mult), s in val.items():
        for (fl2, case2, mult2), s2 in val.items():
            if case == case2 and mult == mult2 and fl2 > fl + 1e-12:
                if s2 > s + slack:
                    bad.append(f"fl {fl2} beats fl {fl} at case {case}, x{mult}: "
                               f"{s2:.6f} > {s:.6f}")
            if fl == fl2 and case == case2 and mult2 > mult + 1e-12:
                if s2 < s - slack:
                    bad.append(f"demand x{mult2} under x{mult} at fl {fl}, case {case}: "
                               f"{s2:.6f} < {s:.6f}")
            if fl == fl2 and mult == mult2 and case == "a" and case2 == "b":
                if s2 < s - slack:
                    bad.append(f"case b under case a at fl {fl}, x{mult}: "
                               f"{s2:.6f} < {s:.6f}")
    return bad


# ---------------------------------------------------------------------------
# report files


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))         # numpy 2 reprs np.float64(0.7)
    return str(v)


def write_json(path: Path, doc: dict) -> Path:
    """Write a JSON artifact: one-space indent, sorted keys, final newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def emit_report(result: SweepResult, outdir, formats=("csv", "json", "svg"),
                stem: str = "sweep") -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        p = outdir / f"{stem}.csv"
        lines = [",".join(CSV_COLUMNS)]
        for c in result.cells:
            acc = c.account
            lines.append(",".join([
                _csv_cell(c.fl), c.case, _csv_cell(c.demand_multiplier),
                _csv_cell(c.scal_star), _csv_cell(c.added_capacity_mw),
                _csv_cell(acc.generated_mwh if acc else None),
                _csv_cell(acc.curtailed_mwh if acc else None),
                _csv_cell(acc.curtailed_share if acc else None),
                ";".join(c.binding.labels()) if c.binding else c.status,
            ]))
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(p)
    if "json" in formats:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "engine": result.spec.engine,
            "mode": result.spec.mode,
            "fl_values": list(result.spec.fl_values),
            "cases": list(result.spec.cases),
            "demand_multipliers": list(result.spec.demand_multipliers),
            "cells": [cell_doc(c) for c in result.cells],
        }
        written.append(write_json(outdir / f"{stem}.json", doc))
    if "svg" in formats:
        p = outdir / f"{stem}.svg"
        p.write_text(_capacity_chart(result), encoding="utf-8")
        written.append(p)
    return written


def account_doc(acc: EnergyAccount) -> dict:
    """The JSON form of an energy account: the "energy" block of a cell, and
    the energy fields of simulate.json. demand_mwh is left out when unset."""
    doc = {k: v for k, v in asdict(acc).items() if v is not None}
    doc["curtailed_share"] = acc.curtailed_share
    return doc


def cell_doc(c: CellResult) -> dict:
    """The JSON form of one cell: a sweep.json cell, and the body of plan.json."""
    doc = {
        "fl": c.fl, "case": c.case, "demand_multiplier": c.demand_multiplier,
        "status": c.status, "engine": c.engine,
        "scal_star": c.scal_star, "added_capacity_mw": c.added_capacity_mw,
        "oracle_scal": c.oracle_scal, "milp_scal": c.milp_scal,
        "deviation": c.deviation, "error": c.error,
    }
    if c.account:
        doc["energy"] = account_doc(c.account)
    if c.binding:
        doc["binding"] = {
            "elements": [
                {"kind": b.kind, "element": b.element, "hour": b.hour,
                 "margin": b.margin} for b in c.binding.binding
            ],
            "min_thermal_headroom_mw": c.binding.min_thermal_headroom_mw,
            "min_voltage_headroom_pu2": c.binding.min_voltage_headroom_pu2,
            "worst_line": c.binding.worst_line,
            "worst_bus": c.binding.worst_bus,
        }
    return doc


_CASE_FILL = {"a": "#2a6f97", "b": "#e07a1f"}


def _capacity_chart(result: SweepResult) -> str:
    """Grouped bars of added capacity per feed-in limit; pure string SVG."""
    w, h = 640, 360
    ml, mr, mt, mb = 60, 16, 28, 46
    cells = [c for c in result.cells if c.added_capacity_mw is not None]
    fls = sorted({c.fl for c in result.cells}, reverse=True)
    combos = sorted({(c.case, c.demand_multiplier) for c in result.cells})
    peak = max((c.added_capacity_mw for c in cells), default=1.0) or 1.0

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
           f'viewBox="0 0 {w} {h}">',
           f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
           f'<text x="{ml}" y="18" font-family="sans-serif" font-size="13">'
           f'Added capacity (MW) by feed-in limit</text>']
    plot_w = w - ml - mr
    plot_h = h - mt - mb
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = mt + plot_h * (1 - frac)
        out.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{w - mr}" y2="{y:.1f}" '
                   f'stroke="#dddddd"/>')
        out.append(f'<text x="{ml - 6}" y="{y + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10">{peak * frac:.2f}</text>')
    group_w = plot_w / max(1, len(fls))
    bar_w = group_w * 0.8 / max(1, len(combos))
    lookup = {(c.fl, c.case, c.demand_multiplier): c for c in result.cells}
    for gi, fl in enumerate(fls):
        x0 = ml + gi * group_w + group_w * 0.1
        for bi, (case, mult) in enumerate(combos):
            c = lookup.get((fl, case, mult))
            val = c.added_capacity_mw if c and c.added_capacity_mw is not None else 0.0
            bh = plot_h * (val / peak)
            x = x0 + bi * bar_w
            y = mt + plot_h - bh
            op = max(0.4, 1.0 - 0.25 * sorted({m for _, m in combos}).index(mult))
            out.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w * 0.92:.1f}" '
                       f'height="{bh:.1f}" fill="{_CASE_FILL.get(case, "#888888")}" '
                       f'fill-opacity="{op:.2f}"/>')
        out.append(f'<text x="{x0 + group_w * 0.4:.1f}" y="{h - mb + 16}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                   f'FL {fl:g}</text>')
    lx = ml
    for case in sorted({c for c, _ in combos}):
        out.append(f'<rect x="{lx}" y="{h - 18}" width="12" height="10" '
                   f'fill="{_CASE_FILL.get(case, "#888888")}"/>')
        out.append(f'<text x="{lx + 16}" y="{h - 9}" font-family="sans-serif" '
                   f'font-size="11">case {case}</text>')
        lx += 90
    out.append(f'<text x="{lx}" y="{h - 9}" font-family="sans-serif" '
               f'font-size="11">lighter = higher demand multiplier</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
