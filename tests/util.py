"""Builders shared across the test modules."""

from __future__ import annotations

import numpy as np

from feedincap.grid import Bus, GenUnit, Grid, Line
from feedincap.formulation import Scenario
from feedincap.milp import SolverConfig
from feedincap.oracle import feasible_at


def two_bus(demand_mw=0.0, kind="pv_candidate", p_max=1.0, s_max=5.0,
            r=1e-4, x=1e-4, profile=(1.0,), vmin=0.5, vmax=1.5) -> Grid:
    """Slack plus one node with a single unit; loose voltage band by default."""
    hours = len(profile)
    return Grid(
        base_mva=1.0, base_kv=20.0,
        buses=(Bus("sub", True, (0.0,) * hours, (0.0,) * hours, vmin=vmin, vmax=vmax),
               Bus("n1", False, (demand_mw,) * hours, (0.0,) * hours,
                   vmin=vmin, vmax=vmax)),
        lines=(Line("sub", "n1", r, x, s_max, 1.0),),
        gens=(GenUnit("g1", "n1", kind, p_max, profile),),
    )


def chain3() -> Grid:
    """slack - A - B, unit demand at B."""
    return Grid(
        base_mva=1.0, base_kv=20.0,
        buses=(Bus("sub", True, (0.0,), (0.0,)),
               Bus("A", False, (0.0,), (0.0,)),
               Bus("B", False, (0.1,), (0.0,))),
        lines=(Line("sub", "A", 0.01, 0.01, 5.0, 1.0),
               Line("A", "B", 0.01, 0.01, 5.0, 1.0)),
        gens=(),
    )


def random_radial(rng: np.random.Generator, n_bus: int = 6, hours: int = 2,
                  vband=(0.9, 1.1)) -> Grid:
    """Random radial instance with at least one candidate that can produce."""
    ids = ["sub"] + [f"b{i}" for i in range(1, n_bus)]
    buses = [Bus("sub", True, (0.0,) * hours, (0.0,) * hours,
                 vmin=vband[0], vmax=vband[1])]
    lines = []
    for i in range(1, n_bus):
        parent = ids[rng.integers(0, i)]
        dp = tuple(float(v) for v in rng.uniform(0.0, 0.4, hours))
        dq = tuple(float(v) for v in rng.uniform(0.0, 0.1, hours))
        buses.append(Bus(ids[i], False, dp, dq, vmin=vband[0], vmax=vband[1]))
        lines.append(Line(parent, ids[i], float(rng.uniform(1e-4, 2e-3)),
                          float(rng.uniform(1e-4, 2e-3)),
                          float(rng.uniform(2.0, 6.0)), 1.0))
    gens = []
    for i in range(1, n_bus):
        roll = rng.random()
        prof = tuple(float(v) for v in np.clip(rng.uniform(0.1, 1.0, hours), 0, 1))
        if roll < 0.40:
            gens.append(GenUnit(f"c{i}", ids[i], "pv_candidate",
                                float(rng.uniform(0.05, 0.5)), prof))
        elif roll < 0.60:
            gens.append(GenUnit(f"e{i}", ids[i], "pv_existing_scalable",
                                float(rng.uniform(0.05, 0.4)), prof))
        elif roll < 0.70:
            gens.append(GenUnit(f"f{i}", ids[i], "pv_existing_fixed",
                                float(rng.uniform(0.05, 0.3)), prof))
        elif roll < 0.80:
            gens.append(GenUnit(f"w{i}", ids[i], "wind",
                                float(rng.uniform(0.05, 0.3)), prof))
    if not any(g.kind == "pv_candidate" for g in gens):
        prof = tuple(float(v) for v in np.clip(rng.uniform(0.3, 1.0, hours), 0, 1))
        gens.append(GenUnit("c0", ids[1], "pv_candidate", 0.2, prof))
    return Grid(1.0, 20.0, tuple(buses), tuple(lines), tuple(gens))


def valid_random_instances(seed: int, count: int, cfg: SolverConfig, *,
                           max_bus: int = 10, max_hours: int = 3,
                           fl_choices=(1.0, 0.9, 0.8, 0.7),
                           cases=("a", "b")):
    """Yield (grid, scenario) pairs that are feasible with nothing added."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        grid = random_radial(rng, n_bus=int(rng.integers(3, max_bus + 1)),
                             hours=int(rng.integers(1, max_hours + 1)))
        scenario = Scenario(fl=float(rng.choice(fl_choices)),
                            case=str(rng.choice(cases)))
        if feasible_at(grid, scenario, 0.0, cfg).feasible:
            made += 1
            yield grid, scenario


def reference_bisection(grid: Grid, scenario: Scenario, cfg: SolverConfig,
                        tol: float = 1e-9) -> float | None:
    """Plain bisection on feasible_at: the reference for the exact search."""
    def ok(s: float) -> bool:
        return feasible_at(grid, scenario, s, cfg).feasible

    if not ok(0.0):
        return None
    if ok(cfg.scal_max):
        return cfg.scal_max
    lo, hi = 0.0, cfg.scal_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def reference_ratio_test(step, bvals, lb, ub, basis, piv_tol):
    """The simplex ratio test as a loop over every basis row: the reference
    for milp._ratio_test. Returns (blocking row or -1, step length)."""
    t_best = float("inf")
    r_block = -1
    for i in range(len(step)):
        si = step[i]
        if si > piv_tol:
            bound = lb[basis[i]]
        elif si < -piv_tol:
            bound = ub[basis[i]]
        else:
            continue
        if not np.isfinite(bound):
            continue
        t_i = max(0.0, (bvals[i] - bound) / si)
        if t_i < t_best - 1e-12 or (
            t_i < t_best + 1e-12
            and (r_block < 0 or basis[i] < basis[r_block])
        ):
            t_best = t_i
            r_block = i
    return r_block, t_best
