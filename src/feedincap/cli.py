"""Command-line entry points.

Subcommands: validate (schema and topology checks), plan (maximum uniform
expansion for one scenario), sweep (scenario grid with report files),
simulate (fixed-factor accounting over the full series), synth (write one of
the bundled synthetic grids).

Exit codes are a stable contract: 0 success, 1 domain failure (invalid grid,
infeasible expansion, monotonicity or balance violations), 2 I/O or usage
errors. Human-readable summaries go to stdout; machine artifacts go to files
under --outdir (default from FEEDINCAP_OUTDIR, else the working directory).
Inline scenario flags override values from --scenario files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import analysis, fixtures, oracle
from .formulation import FormulationError, Scenario, scenario_from_json
from .grid import GridFormatError, parse_grid, serialize_grid, validate_grid
from .milp import SolverConfig
from .network import build_linear_model

log = logging.getLogger("feedincap")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _default_outdir() -> str:
    return os.environ.get("FEEDINCAP_OUTDIR", ".")


def _read_text(path: str) -> str:
    """A file's UTF-8 text; a file that cannot be read or decoded exits 2."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 ({exc})", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _load_grid(path: str):
    """Read and parse a grid document, unvalidated; any failure exits 2."""
    text = _read_text(path)
    try:
        return parse_grid(text, validate=False)
    except GridFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_grid(path: str):
    """Parse a grid document; structural problems exit 2, domain issues 1."""
    grid = _load_grid(path)
    issues = validate_grid(grid)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        for i in errors:
            print(f"error {i.code} at {i.location}: {i.message}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN)
    return grid


def _scenario_from_args(args) -> Scenario:
    if getattr(args, "scenario", None):
        try:
            sc = scenario_from_json(_read_text(args.scenario))
        except (json.JSONDecodeError, FormulationError) as exc:
            print(f"error: bad scenario file: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    else:
        sc = Scenario()
    patch = {}
    if getattr(args, "fl", None) is not None:
        patch["fl"] = args.fl
    if getattr(args, "case", None) is not None:
        patch["case"] = args.case
    if getattr(args, "demand_mult", None) is not None:
        patch["demand_multiplier"] = args.demand_mult
    if getattr(args, "mode", None) is not None:
        patch["mode"] = args.mode
    try:
        return dataclasses.replace(sc, **patch) if patch else sc
    except FormulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_validate(args) -> int:
    grid = _load_grid(args.grid)
    issues = validate_grid(grid)
    for i in issues:
        print(f"{i.severity} {i.code} at {i.location}: {i.message}")
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        print(f"{len(errors)} error(s)")
        return EXIT_DOMAIN
    print(f"ok: {len(grid.buses)} buses, {len(grid.lines)} lines, "
          f"{len(grid.gens)} generators, {grid.hour_count} hour(s)")
    return EXIT_OK


def cmd_plan(args) -> int:
    """One sweep cell: plan.json is its cell document plus schema and hours."""
    grid = _read_grid(args.grid)
    scenario = _scenario_from_args(args)
    engine = args.engine
    if scenario.mode == "annual" and engine != "oracle":
        print("error: the milp engine plans single snapshots; use "
              "--engine oracle for annual runs", file=sys.stderr)
        return EXIT_USAGE
    cfg = SolverConfig()
    model = build_linear_model(grid)
    cell = analysis.run_cell(grid, scenario, engine, cfg, model)

    if cell.status == "error":
        print(f"error: {cell.error}", file=sys.stderr)
        return EXIT_DOMAIN
    if cell.status != "ok":
        if engine == "milp" or cell.oracle_scal is not None:     # the milp failed
            print("infeasible at scal = 0: the MILP finds no expansion factor that "
                  "meets every network bound; nothing can be added")
            return EXIT_DOMAIN
        print("infeasible at scal = 0: the existing build-out already "
              "violates a network bound; nothing can be added")
        report = oracle.feasible_at(grid, scenario, 0.0, cfg, model=model, max_listed=5)
        for v in report.violations:
            print(f"  {v.kind} {v.element} hour {v.hour}: +{v.amount:.6g}")
        return EXIT_DOMAIN

    doc = analysis.cell_doc(cell)
    del doc["error"]
    doc["schema_version"] = analysis.SCHEMA_VERSION
    doc["hours"] = list(cell.hours)
    out = analysis.write_json(Path(args.outdir) / "plan.json", doc)

    account = cell.account
    print(f"scal* = {cell.scal_star:.6f}  (+{cell.added_capacity_mw:.3f} MW of new capacity)")
    if engine == "both":
        print(f"engines: oracle {cell.oracle_scal:.6f}, milp {cell.milp_scal:.6f}, "
              f"deviation {cell.deviation:.2e}")
    print(f"energy over {len(cell.hours)} hour(s): generated "
          f"{account.generated_mwh:.4f} MWh, curtailed {account.curtailed_mwh:.4f} "
          f"MWh ({100 * account.curtailed_share:.2f}%)")
    labels = cell.binding.labels()
    print("binding: " + ("; ".join(labels) if labels else "none at threshold"))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = _read_grid(args.grid)
    try:
        spec = analysis.SweepSpec(
            fl_values=tuple(args.fl_values),
            cases=tuple(args.cases),
            demand_multipliers=tuple(args.mults),
            mode=args.mode,
            engine=args.engine,
        )
    except analysis.AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = analysis.run_sweep(grid, spec)
    formats = [f for f in ("csv", "json", "svg")
               if getattr(args, f) or not (args.csv or args.json or args.svg)]
    written = analysis.emit_report(result, args.outdir, formats, stem=args.stem)
    for p in written:
        print(f"wrote {p}")

    rc = EXIT_OK
    for c in result.failed_cells:
        print(f"cell fl={c.fl} case={c.case} x{c.demand_multiplier} failed: {c.error}")
        rc = EXIT_DOMAIN
    violations = analysis.check_monotonicity(result)
    for v in violations:
        print(f"monotonicity violation: {v}")
        rc = EXIT_DOMAIN
    n_ok = sum(1 for c in result.cells if c.status == "ok")
    print(f"{n_ok}/{len(result.cells)} cells solved"
          + ("" if rc == EXIT_OK else "; FAILURES above"))
    return rc


def cmd_simulate(args) -> int:
    grid = _read_grid(args.grid)
    scenario = _scenario_from_args(args)
    cfg = SolverConfig()
    if not 0.0 <= args.scal < math.inf:
        print("error: --scal must be finite and >= 0", file=sys.stderr)
        return EXIT_USAGE
    sim = oracle.annual_simulate(grid, scenario, args.scal, cfg)
    account = sim.account

    doc = {
        "schema_version": analysis.SCHEMA_VERSION,
        "scal": sim.scal,
        "hours": grid.hour_count,
        "fl": scenario.fl,
        "case": scenario.case,
        "demand_multiplier": scenario.demand_multiplier,
        **analysis.account_doc(account),
        "violation_hours": sim.violation_hours,
    }
    out = analysis.write_json(Path(args.outdir) / "simulate.json", doc)

    print(f"scal = {sim.scal:g} over {grid.hour_count} hour(s)")
    print(f"available {account.available_mwh:.4f} MWh = generated "
          f"{account.generated_mwh:.4f} + curtailed {account.curtailed_mwh:.4f} "
          f"(share {100 * account.curtailed_share:.2f}%)")
    print(f"exports {account.exports_mwh:.4f} MWh, imports "
          f"{account.imports_mwh:.4f} MWh, demand {account.demand_mwh:.4f} MWh")
    if sim.violation_hours:
        print(f"warning: network bounds violated in {sim.violation_hours} hour(s)")
        return EXIT_DOMAIN
    print(f"wrote {out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        grid = fixtures.synth_grid(args.kind, seed=args.seed, hours=args.hours)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = serialize_grid(grid)
    out = Path(args.out) if args.out else Path(_default_outdir()) / f"{args.kind}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out} ({len(grid.buses)} buses, {grid.hour_count} hour(s))")
    return EXIT_OK


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _case_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    # -v goes before or after the subcommand; with SUPPRESS a parser that does
    # not see it leaves it unset instead of resetting the value given before
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS)
    ap = argparse.ArgumentParser(
        prog="feedincap", parents=[common],
        description="PV expansion planning under dynamic feed-in limitation "
                    "on radial grids")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("validate", help="check a grid document")
    p.add_argument("grid")
    p.set_defaults(func=cmd_validate)

    def scenario_flags(p):
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--fl", type=float, help="feed-in limit in (0, 1]")
        p.add_argument("--case", choices=("a", "b"),
                       help="curtailment eligibility: a new PV only, b all PV")
        p.add_argument("--demand-mult", type=float, dest="demand_mult")

    p = add_parser("plan", help="maximum uniform expansion for one scenario")
    p.add_argument("grid")
    scenario_flags(p)
    p.add_argument("--mode", choices=("snapshot", "annual"))
    p.add_argument("--engine", choices=("milp", "oracle", "both"), default="milp")
    p.add_argument("--outdir", default=_default_outdir())
    p.set_defaults(func=cmd_plan)

    p = add_parser("sweep", help="scenario grid with report files")
    p.add_argument("grid")
    p.add_argument("--fl-values", type=_float_list, dest="fl_values",
                   default=[1.0, 0.9, 0.8, 0.7])
    p.add_argument("--cases", type=_case_list, default=["a", "b"])
    p.add_argument("--mults", type=_float_list, default=[1.0, 1.1, 1.2])
    p.add_argument("--mode", choices=("snapshot", "annual"), default="snapshot")
    p.add_argument("--engine", choices=("oracle", "milp", "both"),
                   default="oracle")
    p.add_argument("--outdir", default=_default_outdir())
    p.add_argument("--stem", default="sweep")
    p.add_argument("--csv", action="store_true", help="emit only selected formats")
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("simulate", help="fixed-factor run over the whole series")
    p.add_argument("grid")
    scenario_flags(p)
    p.add_argument("--scal", type=float, required=True,
                   help="expansion factor to hold fixed")
    p.add_argument("--outdir", default=_default_outdir())
    p.set_defaults(func=cmd_simulate)

    p = add_parser("synth", help="write a bundled synthetic grid")
    p.add_argument("--kind", choices=fixtures.FIXTURE_KINDS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--hours", type=int, default=1)
    p.add_argument("--out", help="output path (default <outdir>/<kind>.json)")
    p.set_defaults(func=cmd_synth)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (FormulationError, oracle.OracleError, analysis.AnalysisError,
            analysis.EnergyBalanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
