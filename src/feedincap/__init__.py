"""Planning tool for PV expansion under dynamic feed-in limitation.

Given a radial grid, the package answers one question: by what single factor
can every candidate PV site be scaled before a voltage band or a line rating
stops the expansion, when feed-in above a fraction FL of installed capacity
(net of concurrent local demand) is curtailed. Two engines answer it
independently: a MILP over a linearized power flow, whose every LP is solved
by elimination down to the expansion factor, and a closed-form rule
evaluation with an exact tangent search on the expansion factor. The test
suite, not the package, checks the linearization against an exact AC sweep
(acceptance criterion 7).
"""

from .analysis import (
    BindingReport,
    SweepSpec,
    check_monotonicity,
    emit_report,
    find_bottlenecks,
    run_sweep,
)
from .formulation import (
    EnergyAccount,
    PlanResult,
    Scenario,
    build_problem,
    curtailment_rule,
    energy_account,
    extract_solution,
    scenario_from_json,
    scenario_to_json,
)
from .fixtures import example_grid_7kwp, synth_grid, synth_profiles
from .grid import (
    Bus,
    GenUnit,
    Grid,
    GridFormatError,
    Line,
    parse_grid,
    serialize_grid,
    validate_grid,
)
from .milp import MILProblem, SolverConfig, solve_milp
from .network import build_linear_model, evaluate_linear
from .oracle import annual_simulate, feasible_at, max_scal_bisection, oracle_plan

__version__ = "0.1.0"

__all__ = [
    "BindingReport", "Bus", "EnergyAccount",
    "GenUnit", "Grid", "GridFormatError", "Line", "MILProblem", "PlanResult",
    "Scenario", "SolverConfig", "SweepSpec",
    "annual_simulate", "build_linear_model", "build_problem", "check_monotonicity",
    "curtailment_rule", "emit_report", "energy_account", "example_grid_7kwp",
    "extract_solution", "feasible_at", "find_bottlenecks", "max_scal_bisection",
    "oracle_plan", "parse_grid", "run_sweep", "scenario_from_json", "scenario_to_json",
    "serialize_grid", "solve_milp", "synth_grid", "synth_profiles",
    "validate_grid", "__version__",
]
