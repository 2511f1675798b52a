"""Builds the expansion-planning MILP and decodes its solutions.

One continuous variable `scal` scales every candidate PV unit uniformly; the
objective prices grid exchange at the slack bus (imports cost, exports earn)
plus heavy penalties on per-node balance slacks, so the optimizer pushes
`scal` up until a network limit binds.

The feed-in cap works per node and hour on the "eligible" units (candidates
under case "a"; candidates plus all existing PV under case "b"): whenever
eligible availability net of concurrent residual demand would exceed FL times
the eligible installed capacity, a binary trigger flips and production is
pinned to exactly that cap plus the residual-demand credit. Residual demand
is what is left of local consumption after non-eligible generation at the
node (wind, hydro, fossil, and under case "a" all existing PV) has covered
its share.

Network limits enter as affine rows in the injections (see network.py), so
the model carries no flow or voltage variables. ProblemInstance.mip defers
these rows: the solver adds one only when a solution violates it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .grid import PV_KINDS, Grid, _number
from .milp import (
    INF,
    LinearProgram,
    MILPSolution,
    MILProblem,
    SolverConfig,
    compute_big_m,
)
from .network import LinearNetworkModel, build_linear_model, evaluate_linear


EPSILON_MW = 1e-6      # strict-inequality margin for the indicator triggers


class FormulationError(ValueError):
    pass


@dataclass(frozen=True)
class Costs:
    """Exchange prices and slack penalties, EUR per MWh."""

    import_eur_mwh: float = 200.0
    export_eur_mwh: float = 200.0
    unserved_eur_mwh: float = 100_000.0   # per-node demand left unserved (P or Q)
    surplus_eur_mwh: float = 200_000.0    # per-node generation that cannot leave

    def scaled(self, k: float) -> "Costs":
        return Costs(self.import_eur_mwh * k, self.export_eur_mwh * k,
                     self.unserved_eur_mwh * k, self.surplus_eur_mwh * k)


@dataclass(frozen=True)
class Scenario:
    """One planning case: feed-in limit, eligibility case, demand scaling.

    case "a": only candidate (new) PV may be curtailed.
    case "b": candidates and all existing PV may be curtailed.
    hours: explicit grid hour indices; None resolves per mode (snapshot picks
    the worst-case hour, annual takes the full series).
    """

    fl: float = 1.0
    case: str = "a"
    demand_multiplier: float = 1.0
    hours: tuple[int, ...] | None = None
    costs: Costs = field(default_factory=Costs)
    mode: str = "snapshot"

    def __post_init__(self) -> None:
        if not 0.0 < self.fl <= 1.0:
            raise FormulationError(f"fl must lie in (0, 1], got {self.fl}")
        if self.case not in ("a", "b"):
            raise FormulationError(f"case must be 'a' or 'b', got {self.case!r}")
        if not 0.0 <= self.demand_multiplier < math.inf:
            raise FormulationError(
                f"demand_multiplier must be finite and >= 0, got {self.demand_multiplier}")
        if self.mode not in ("snapshot", "annual"):
            raise FormulationError(f"mode must be snapshot or annual, got {self.mode!r}")
        if self.hours is not None and len(self.hours) == 0:
            raise FormulationError("hours must be None or non-empty")
        if self.hours is not None and len(set(self.hours)) != len(self.hours):
            raise FormulationError("hours must not repeat an hour index")
        for c in (self.costs.import_eur_mwh, self.costs.export_eur_mwh,
                  self.costs.unserved_eur_mwh, self.costs.surplus_eur_mwh):
            if not 0.0 <= c < math.inf:
                raise FormulationError(f"cost values must be finite and >= 0, got {c}")

    def eligible_kinds(self) -> frozenset[str]:
        if self.case == "a":
            return frozenset({"pv_candidate"})
        return PV_KINDS


def scenario_to_json(sc: Scenario) -> str:
    doc = {
        "fl": sc.fl,
        "case": sc.case,
        "demand_multiplier": sc.demand_multiplier,
        "hours": None if sc.hours is None else list(sc.hours),
        "mode": sc.mode,
        "costs": {
            "import_eur_mwh": sc.costs.import_eur_mwh,
            "export_eur_mwh": sc.costs.export_eur_mwh,
            "unserved_eur_mwh": sc.costs.unserved_eur_mwh,
            "surplus_eur_mwh": sc.costs.surplus_eur_mwh,
        },
    }
    return json.dumps(doc, indent=1)


def scenario_from_json(text: str | dict) -> Scenario:
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise FormulationError("scenario document must be an object")
    costs = doc.get("costs", {})
    if not isinstance(costs, dict):
        raise FormulationError("scenario costs must be an object")
    try:
        hours = doc.get("hours")
        values = dict(
            fl=_number(doc.get("fl", 1.0)),
            case=str(doc.get("case", "a")),
            demand_multiplier=_number(doc.get("demand_multiplier", 1.0)),
            hours=None if hours is None else tuple(_number(h, operator.index) for h in hours),
            mode=str(doc.get("mode", "snapshot")),
            costs=Costs(**{f.name: _number(costs.get(f.name, f.default))
                           for f in fields(Costs)}),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormulationError(f"scenario values must be numbers: {exc}") from None
    return Scenario(**values)


# ---------------------------------------------------------------------------
# per-node aggregates


@dataclass(frozen=True)
class NodeAggregates:
    """Hour-by-bus arrays the rule, the oracle and the MILP all share.

    Availability and capacity of eligible PV are affine in scal:
    avail = avail_const + avail_coef * scal, cap = cap_const + cap_coef * scal
    (candidates sit in the coef parts, case-"b" existing PV in the consts).
    residual is the demand left after non-eligible generation at the node.
    """

    hours: tuple[int, ...]
    bus_order: tuple[str, ...]           # every bus, grid order (slack included)
    avail_const: np.ndarray              # (H, N)
    avail_coef: np.ndarray               # (H, N)
    cap_const: np.ndarray                # (N,)
    cap_coef: np.ndarray                 # (N,)
    nonelig_prod: np.ndarray             # (H, N)
    demand_p: np.ndarray                 # (H, N), multiplier applied
    demand_q: np.ndarray                 # (H, N)
    residual: np.ndarray                 # (H, N)
    candidate_base_total: float          # sum of candidate base capacities, MW

    def hour_block(self, lo: int, hi: int) -> "NodeAggregates":
        """The same aggregates for hours[lo:hi]; the arrays are views."""
        hourly = ("avail_const", "avail_coef", "nonelig_prod", "demand_p",
                  "demand_q", "residual")
        return replace(self, hours=self.hours[lo:hi],
                       **{n: getattr(self, n)[lo:hi] for n in hourly})


def worst_case_hour(grid: Grid, scenario: Scenario) -> int:
    """Hour maximizing total availability minus total demand (scal = 1).

    Scanning the hours in order, a later hour replaces the best one only when
    it is larger by more than 1e-15, so near-ties go to the earliest hour.
    """
    zero = np.zeros(grid.hour_count)
    # accumulate adds the units one after another, in document order; np.sum and
    # np.add.reduce may add a one-hour column pairwise
    avail = np.add.accumulate([zero, *(g.p_max * g.profile for g in grid.gens)])[-1]
    demand = np.add.accumulate([zero, *(b.demand_p for b in grid.buses)])[-1]
    margin = avail - scenario.demand_multiplier * demand
    # only an hour above every earlier one can beat the best so far by 1e-15
    earlier = np.fmax.accumulate(np.concatenate(([-INF], margin[:-1])))
    best_h, best_v = 0, -INF
    for h in np.flatnonzero(margin > earlier).tolist():
        if margin[h] > best_v + 1e-15:
            best_h, best_v = h, margin[h]
    return best_h


def resolve_hours(grid: Grid, scenario: Scenario) -> tuple[int, ...]:
    if scenario.hours is not None:
        bad = [h for h in scenario.hours if not 0 <= h < grid.hour_count]
        if bad:
            raise FormulationError(f"scenario hours out of range: {bad[:5]}")
        return tuple(scenario.hours)
    if scenario.mode == "snapshot":
        return (worst_case_hour(grid, scenario),)
    return tuple(range(grid.hour_count))


def node_aggregates(grid: Grid, scenario: Scenario,
                    hours: tuple[int, ...] | None = None) -> NodeAggregates:
    hours = hours if hours is not None else resolve_hours(grid, scenario)
    idx = np.asarray(hours, dtype=int)
    bus_order = tuple(b.id for b in grid.buses)
    pos = {bid: i for i, bid in enumerate(bus_order)}
    H, N = len(hours), len(bus_order)
    elig = scenario.eligible_kinds()

    avail_const = np.zeros((H, N))
    avail_coef = np.zeros((H, N))
    cap_const = np.zeros(N)
    cap_coef = np.zeros(N)
    nonelig = np.zeros((H, N))
    cand_total = 0.0
    for g in grid.gens:
        i = pos[g.bus]
        cf = g.profile[idx]
        if g.kind == "pv_candidate":
            avail_coef[:, i] += g.p_max * cf
            cap_coef[i] += g.p_max
            cand_total += g.p_max
        elif g.kind in elig:
            avail_const[:, i] += g.p_max * cf
            cap_const[i] += g.p_max
        else:
            nonelig[:, i] += g.p_max * cf

    mult = scenario.demand_multiplier
    dp = np.array([b.demand_p for b in grid.buses]).T[idx] * mult
    dq = np.array([b.demand_q for b in grid.buses]).T[idx] * mult
    residual = np.maximum(0.0, dp - nonelig)
    # the cells of a sweep share one aggregate, so nothing may write to it
    for arr in (avail_const, avail_coef, cap_const, cap_coef, nonelig, dp, dq, residual):
        arr.flags.writeable = False

    return NodeAggregates(
        hours=tuple(hours),
        bus_order=bus_order,
        avail_const=avail_const,
        avail_coef=avail_coef,
        cap_const=cap_const,
        cap_coef=cap_coef,
        nonelig_prod=nonelig,
        demand_p=dp,
        demand_q=dq,
        residual=residual,
        candidate_base_total=cand_total,
    )


def curtailment_rule(avail, cap, fl, residual):
    """Closed form of the per-node feed-in cap; numpy-broadcastable.

    Returns (produced, curtailed): curtailment removes exactly the part of
    eligible availability above fl * cap once the local residual demand has
    been credited.
    """
    curtailed = np.maximum(0.0, np.asarray(avail) - fl * np.asarray(cap) - residual)
    return np.asarray(avail) - curtailed, curtailed


# ---------------------------------------------------------------------------
# MILP assembly


@dataclass
class ProblemInstance:
    """The assembled MILP plus the variable layout needed to decode a solution.

    The index arrays hold LP variable indices, hour position first; units
    follow elig_units, triggers follow elig_nodes and buses agg.bus_order.
    """

    grid: Grid
    scenario: Scenario
    hours: tuple[int, ...]
    model: LinearNetworkModel
    agg: NodeAggregates
    lp: LinearProgram
    binaries: tuple[int, ...]
    scal_idx: int
    elig_units: tuple[str, ...]                  # eligible generator ids, grid order
    elig_nodes: tuple[str, ...]                  # buses with eligible capacity, grid order
    unit_idx: np.ndarray                         # (H, U, 2) p, sp
    exchange_idx: np.ndarray                     # (H, 4) pimp, pexp, qimp, qexp
    slack_idx: np.ndarray                        # (H, N, 4) pns, eps, qns, eqs
    alpha_idx: np.ndarray                        # (H, E) curt_on
    big_m: np.ndarray                            # (H, E)
    thermal_hi_rows: np.ndarray                  # (H, L) lp row of thermal_hi[k, line]
    v_hi_rows: np.ndarray                        # (H, N) lp row of v_hi[k, bus], model order
    network_rows: np.ndarray                     # every thermal and voltage row, ascending

    @property
    def mip(self) -> MILProblem:
        """The MILP with its network rows deferred until a solution violates them."""
        return MILProblem(self.lp, self.binaries, lazy=self.network_rows)

    def row_of(self, kind: str, element: str, hour: int) -> int:
        """The LP row of an upper network limit: kind "thermal" names a line's
        thermal_hi row, "v_high" a bus's v_hi row, at a planned hour."""
        k = self.hours.index(hour)
        if kind == "thermal":
            return int(self.thermal_hi_rows[k, self.model.line_order.index(element)])
        if kind == "v_high":
            return int(self.v_hi_rows[k, self.model.bus_order.index(element)])
        raise ValueError(f"no upper network row of kind {kind!r}")


def _running_total(start, terms: np.ndarray) -> np.ndarray:
    """start + terms[..., 0] + terms[..., 1] + ..., added strictly left to right
    (np.sum pairs terms up and may round differently)."""
    first = np.full(terms.shape[:-1] + (1,), start)
    return np.add.accumulate(np.concatenate([first, terms], axis=-1), axis=-1)[..., -1]


def build_problem(grid: Grid, scenario: Scenario, cfg: SolverConfig | None = None,
                  *, fix_scal: float | None = None,
                  model: LinearNetworkModel | None = None) -> ProblemInstance:
    """Assemble the MILP for the resolved scenario hours.

    fix_scal pins the expansion factor (annual mode needs it); otherwise
    scal ranges over [0, cfg.scal_max].
    Binary triggers exist only where eligible capacity exists; a trigger whose
    affine premise is >= 0 over the whole scal domain is pinned on (premise 0
    still forces alpha = 1), < 0 over it pinned off, and otherwise left free.
    """
    cfg = cfg or SolverConfig()
    if scenario.mode == "annual" and fix_scal is None:
        raise FormulationError(
            "annual mode has no monolithic MILP; fix scal or use the oracle decomposition")
    hours = resolve_hours(grid, scenario)
    agg = node_aggregates(grid, scenario, hours)
    model = model or build_linear_model(grid)
    elig_kinds = scenario.eligible_kinds()
    H, N = len(hours), len(agg.bus_order)
    pos = {bid: i for i, bid in enumerate(agg.bus_order)}
    dh = grid.hour_duration_h
    costs = scenario.costs
    fl = scenario.fl

    if fix_scal is not None and not 0.0 <= fix_scal < math.inf:
        raise FormulationError(f"fix_scal must be finite and >= 0, got {fix_scal}")
    s_lo = 0.0 if fix_scal is None else float(fix_scal)
    s_hi = cfg.scal_max if fix_scal is None else float(fix_scal)

    # generous but finite exchange bound; keeps odd cost vectors bounded
    avail_hi = float(np.max(np.sum(agg.avail_const + agg.avail_coef * s_hi
                                   + agg.nonelig_prod, axis=1), initial=0.0))
    exch_cap = avail_hi + float(np.max(np.sum(agg.demand_p, axis=1), initial=0.0)) + 1.0

    lp = LinearProgram()
    scal_idx = lp.add_var("scal", s_lo, s_hi, obj=0.0)

    elig_units = [g for g in grid.gens if g.kind in elig_kinds]
    elig_nodes = [bid for bid in agg.bus_order
                  if agg.cap_const[pos[bid]] + agg.cap_coef[pos[bid]] > 0.0]
    units_at = {bid: [u for u, g in enumerate(elig_units) if g.bus == bid]
                for bid in elig_nodes}

    exchange, units, slacks, alphas, big_m = [], [], [], [], []   # in variable order
    for k in range(H):
        exchange += [
            lp.add_var(f"pimp[{k}]", 0.0, exch_cap, obj=costs.import_eur_mwh * dh),
            lp.add_var(f"pexp[{k}]", 0.0, exch_cap, obj=-costs.export_eur_mwh * dh),
            lp.add_var(f"qimp[{k}]", 0.0, exch_cap, obj=costs.import_eur_mwh * dh),
            lp.add_var(f"qexp[{k}]", 0.0, exch_cap, obj=-costs.export_eur_mwh * dh)]
        for g in elig_units:
            units += [lp.add_var(f"p[{k},{g.id}]", 0.0, INF),
                      lp.add_var(f"sp[{k},{g.id}]", 0.0, INF)]
        for i, bid in enumerate(agg.bus_order):
            slacks += [
                lp.add_var(f"pns[{k},{bid}]", 0.0, max(0.0, agg.demand_p[k, i]),
                           obj=costs.unserved_eur_mwh * dh),
                lp.add_var(f"eps[{k},{bid}]", 0.0, INF, obj=costs.surplus_eur_mwh * dh),
                lp.add_var(f"qns[{k},{bid}]", 0.0, max(0.0, agg.demand_q[k, i]),
                           obj=costs.unserved_eur_mwh * dh),
                lp.add_var(f"eqs[{k},{bid}]", 0.0, INF, obj=costs.surplus_eur_mwh * dh)]
        for bid in elig_nodes:
            i = pos[bid]
            big_m.append(compute_big_m(
                float(agg.avail_const[k, i] + agg.avail_coef[k, i] * cfg.scal_max),
                fl * float(agg.cap_const[i] + agg.cap_coef[i] * cfg.scal_max),
                float(agg.residual[k, i]),
            ))
            # trigger premise over the admissible scal interval
            slope = float(agg.avail_coef[k, i] - fl * agg.cap_coef[i])
            inter = float(agg.avail_const[k, i] - fl * agg.cap_const[i]
                          - agg.residual[k, i])
            p_ends = (inter + slope * s_lo, inter + slope * s_hi)
            if min(p_ends) >= 0.0:
                a_lo, a_hi = 1.0, 1.0      # premise + eps > 0 forces the trigger on
            elif max(p_ends) < 0.0:
                a_lo, a_hi = 0.0, 0.0      # cap unreachable: trigger off
            else:
                a_lo, a_hi = 0.0, 1.0
            alphas.append(lp.add_var(f"curt_on[{k},{bid}]", a_lo, a_hi))

    U, E = len(elig_units), len(elig_nodes)
    unit_idx = np.array(units, dtype=int).reshape(H, U, 2)
    exchange_idx = np.array(exchange, dtype=int).reshape(H, 4)
    slack_idx = np.array(slacks, dtype=int).reshape(H, N, 4)

    # The hour's injection variables are the unit p's, then every bus's (pns,
    # eps, qns, eqs), in ascending index order; a non-slack bus's P injection
    # takes its units' p and pns at +1, eps at -1, its Q injection qns at +1
    # and eqs at -1. Each variable enters one injection once, so every network
    # coefficient below is a single product, as in a bus-by-bus sum.
    inj_bus = np.concatenate([np.array([pos[g.bus] for g in elig_units], dtype=int),
                              np.repeat(np.arange(N), 4)])
    inj_sign = np.concatenate([np.ones(U), np.tile([1.0, -1.0, 1.0, -1.0], N)])
    inj_is_q = np.concatenate([np.zeros(U, dtype=int), np.tile([0, 0, 1, 1], N)])
    is_p = inj_is_q == 0
    incidence = np.zeros((2, N, len(inj_bus)))          # P and Q, every bus
    incidence[inj_is_q, inj_bus, np.arange(len(inj_bus))] = inj_sign
    inc_p, inc_q = incidence[:, model.bus_cols]
    thermal_terms = [(np.flatnonzero(r), r[r != 0]) for r in model.flow_map @ inc_p]
    v_terms = [(np.flatnonzero(r), r[r != 0])
               for r in model.voltage_map_p @ inc_p + model.voltage_map_q @ inc_q]

    vs2 = model.slack_voltage**2
    thermal_hi_rows = np.zeros((H, len(grid.lines)), dtype=int)
    v_hi_rows = np.zeros((H, len(model.bus_order)), dtype=int)
    network_rows = []
    for k in range(H):
        for (p, sp), g in zip(unit_idx[k].tolist(), elig_units):
            if g.kind == "pv_candidate":
                lp.add_row([scal_idx, p, sp], [-g.p_max * g.profile[hours[k]], 1.0, 1.0],
                           "==", 0.0, name=f"avail[{k},{g.id}]")
            else:
                lp.add_row([p, sp], [1.0, 1.0], "==", g.p_max * g.profile[hours[k]],
                           name=f"avail[{k},{g.id}]")

        for e, bid in enumerate(elig_nodes):
            i = pos[bid]
            m_val = big_m[k * E + e]
            a_j = alphas[k * E + e]
            cap_c, cap_k = float(agg.cap_const[i]), float(agg.cap_coef[i])
            av_c, av_k = float(agg.avail_const[k, i]), float(agg.avail_coef[k, i])
            res = float(agg.residual[k, i])
            p_at, sp_at = unit_idx[k, units_at[bid]].T.tolist()
            ones = [1.0] * len(p_at)
            pin_idx = np.array([scal_idx, *p_at, a_j], dtype=np.intp)
            pin_scal = 0.0 - fl * cap_k                 # +0.0, not -0.0, at cap_k = 0

            lp.add_row([scal_idx, a_j], [av_k - fl * cap_k, -(m_val + EPSILON_MW)],
                       "<=", fl * cap_c - av_c + res - EPSILON_MW,
                       name=f"trigger[{k},{bid}]")
            lp.add_row(pin_idx, [pin_scal, *ones, m_val], "<=", m_val + fl * cap_c + res,
                       name=f"pin_hi[{k},{bid}]")
            lp.add_row(pin_idx, [pin_scal, *ones, -m_val], ">=", -m_val + fl * cap_c + res,
                       name=f"pin_lo[{k},{bid}]")
            lp.add_row([*sp_at, a_j], [*ones, -m_val], "<=", 0.0, name=f"spill[{k},{bid}]")

        # system balance, lossless: every bus's P (Q) injection plus exchange
        inj_vars = np.concatenate([unit_idx[k, :, 0], slack_idx[k].ravel()])
        imp, exp, qimp, qexp = exchange_idx[k]
        lp.add_row(np.concatenate([[imp, exp], inj_vars[is_p]]),
                   np.concatenate([[1.0, -1.0], inj_sign[is_p]]), "==",
                   float(np.sum(agg.demand_p[k]) - np.sum(agg.nonelig_prod[k])),
                   name=f"balance_p[{k}]")
        lp.add_row(np.concatenate([[qimp, qexp], inj_vars[~is_p]]),
                   np.concatenate([[1.0, -1.0], inj_sign[~is_p]]), "==",
                   float(np.sum(agg.demand_q[k])), name=f"balance_q[{k}]")

        # network rows: injections are affine in the hour's variables; the
        # constants add up bus by bus, a bus's P term before its Q term
        inj_const = (agg.nonelig_prod[k] - agg.demand_p[k])[model.bus_cols]
        t_const = _running_total(0.0, model.flow_map * inj_const)
        v_const = _running_total(vs2, np.stack(
            [model.voltage_map_p * inj_const,
             model.voltage_map_q * -agg.demand_q[k, model.bus_cols]], axis=-1
        ).reshape(len(inj_const), 2 * len(inj_const)))
        for l, (line, (cols, vals)) in enumerate(zip(grid.lines, thermal_terms)):
            idx = inj_vars[cols]
            thermal_hi_rows[k, l] = lp.add_row(idx, vals, "<=", model.s_max[l] - t_const[l],
                                               name=f"thermal_hi[{k},{line.id}]")
            network_rows += [thermal_hi_rows[k, l],
                             lp.add_row(idx, vals, ">=", -model.s_max[l] - t_const[l],
                                        name=f"thermal_lo[{k},{line.id}]")]
        for n, (bid, (cols, vals)) in enumerate(zip(model.bus_order, v_terms)):
            idx = inj_vars[cols]
            v_hi_rows[k, n] = lp.add_row(idx, vals, "<=", model.vmax2[n] - v_const[n],
                                         name=f"v_hi[{k},{bid}]")
            network_rows += [v_hi_rows[k, n],
                             lp.add_row(idx, vals, ">=", model.vmin2[n] - v_const[n],
                                        name=f"v_lo[{k},{bid}]")]

    return ProblemInstance(
        grid=grid, scenario=scenario, hours=hours, model=model, agg=agg,
        lp=lp, binaries=tuple(alphas), scal_idx=scal_idx,
        elig_units=tuple(g.id for g in elig_units), elig_nodes=tuple(elig_nodes),
        unit_idx=unit_idx, exchange_idx=exchange_idx, slack_idx=slack_idx,
        alpha_idx=np.array(alphas, dtype=int).reshape(H, E),
        big_m=np.array(big_m, dtype=float).reshape(H, E),
        thermal_hi_rows=thermal_hi_rows, v_hi_rows=v_hi_rows,
        network_rows=np.array(network_rows, dtype=int),
    )


# ---------------------------------------------------------------------------
# solution decoding


@dataclass
class PlanResult:
    status: str
    engine: str
    scal: float
    added_capacity_mw: float
    objective_eur: float | None
    hours: tuple[int, ...]
    hour_duration_h: float
    bus_order: tuple[str, ...]          # non-slack, network order
    line_order: tuple[str, ...]
    production_mw: dict[str, np.ndarray]    # gen id -> (H,)
    curtailment_mw: dict[str, np.ndarray]
    available_mw: dict[str, np.ndarray]
    alpha: dict[tuple[int, str], float]    # MILP triggers; empty for oracle plans
    flows_mw: np.ndarray                # (H, L)
    voltages_pu2: np.ndarray            # (H, N) squared p.u.
    imports_mw: np.ndarray              # (H,)
    exports_mw: np.ndarray
    unserved_mwh: float
    surplus_mwh: float

    @property
    def slack_activity(self) -> float:
        return self.unserved_mwh + self.surplus_mwh


class EnergyBalanceError(AssertionError):
    pass


@dataclass(frozen=True)
class EnergyAccount:
    """Totals in MWh with the conservation identity enforced on creation."""

    available_mwh: float
    generated_mwh: float
    curtailed_mwh: float
    imports_mwh: float
    exports_mwh: float
    demand_mwh: float | None = None

    def __post_init__(self) -> None:
        gap = abs(self.generated_mwh + self.curtailed_mwh - self.available_mwh)
        if gap > 1e-9 * max(1.0, abs(self.available_mwh)):
            raise EnergyBalanceError(
                f"generated + curtailed != available (gap {gap:.3e} MWh)")

    @property
    def curtailed_share(self) -> float:
        if self.available_mwh <= 0:
            return 0.0
        return self.curtailed_mwh / self.available_mwh


def energy_account(plan: PlanResult) -> EnergyAccount:
    dh = plan.hour_duration_h
    avail = sum(float(v.sum()) for v in plan.available_mw.values()) * dh
    gen = sum(float(v.sum()) for v in plan.production_mw.values()) * dh
    curt = sum(float(v.sum()) for v in plan.curtailment_mw.values()) * dh
    return EnergyAccount(
        available_mwh=avail, generated_mwh=gen, curtailed_mwh=curt,
        imports_mwh=float(plan.imports_mw.sum()) * dh,
        exports_mwh=float(plan.exports_mw.sum()) * dh,
    )


def unit_dispatch(grid: Grid, scenario: Scenario, hours: tuple[int, ...], scal: float,
                  eligible_split) -> tuple[dict[str, np.ndarray], ...]:
    """Per-generator production, curtailment and availability over hours, MW.

    Non-eligible units run at full availability p_max * cf. An eligible
    unit's availability is (p_max * scal for candidates, else p_max) * cf; the
    engine splits it: eligible_split(u, unit, availability) returns the unit's
    (production, curtailment), u counting eligible units in grid order.
    """
    idx = np.asarray(hours, dtype=int)
    elig_kinds = scenario.eligible_kinds()
    production: dict[str, np.ndarray] = {}
    curtail: dict[str, np.ndarray] = {}
    avail: dict[str, np.ndarray] = {}
    u = 0
    for g in grid.gens:
        cf = g.profile[idx]
        if g.kind in elig_kinds:
            base = g.p_max * scal if g.kind == "pv_candidate" else g.p_max
            avail[g.id] = base * cf
            production[g.id], curtail[g.id] = eligible_split(u, g, avail[g.id])
            u += 1
        else:
            production[g.id] = g.p_max * cf
            curtail[g.id] = np.zeros(len(idx))
            avail[g.id] = g.p_max * cf
    return production, curtail, avail


def extract_solution(instance: ProblemInstance, sol: MILPSolution) -> PlanResult:
    """Decode a MILP solution and cross-check the embedded network rows.

    Flows and voltages are recomputed from the decoded injections through
    evaluate_linear and must agree with the LP's own constraint activities to
    1e-6; a mismatch means the builder and the physics disagree and raises.
    """
    grid, agg, model = instance.grid, instance.agg, instance.model
    if sol.status != "optimal" or sol.x is None:
        nan = float("nan")
        empty = np.zeros((0, 0))
        return PlanResult(
            status=sol.status, engine="milp", scal=nan, added_capacity_mw=nan,
            objective_eur=None, hours=instance.hours,
            hour_duration_h=grid.hour_duration_h, bus_order=model.bus_order,
            line_order=model.line_order, production_mw={}, curtailment_mw={},
            available_mw={}, alpha={}, flows_mw=empty,
            voltages_pu2=empty, imports_mw=np.zeros(0), exports_mw=np.zeros(0),
            unserved_mwh=0.0, surplus_mwh=0.0)
    x = sol.x
    hours = instance.hours
    scal = float(x[instance.scal_idx])
    units = x[instance.unit_idx]                  # (H, U, 2) p, sp
    production, curtail, avail = unit_dispatch(
        grid, instance.scenario, hours, scal,
        lambda u, g, a: (units[:, u, 0], units[:, u, 1]))

    # injections from per-unit production at each generator's bus, not from
    # the builder's incidence, so the check below can catch a mismatch
    pos = {bid: i for i, bid in enumerate(agg.bus_order)}
    gen_at = np.zeros((len(hours), len(agg.bus_order)))
    for g in grid.gens:
        gen_at[:, pos[g.bus]] += production[g.id]
    slack = x[instance.slack_idx]                 # (H, N, 4) pns, eps, qns, eqs
    inj = (gen_at + (slack[..., 0] - slack[..., 1]) - agg.demand_p)[:, model.bus_cols]
    inj_q = (slack[..., 2] - slack[..., 3] - agg.demand_q)[:, model.bus_cols]

    flows, v2 = map(np.atleast_2d, evaluate_linear(model, inj, inj_q))

    # agreement check against the LP's own thermal/voltage row activities:
    # activity + (limit - rhs) is the flow or squared voltage the row encodes
    acts = instance.lp.activities(x)
    rhs = np.array(instance.lp.rhs)
    t, v = instance.thermal_hi_rows, instance.v_hi_rows
    worst = max(np.max(np.abs(acts[t] + (model.s_max - rhs[t]) - flows), initial=0.0),
                np.max(np.abs(acts[v] + (model.vmax2 - rhs[v]) - v2), initial=0.0))
    if worst > 1e-6:
        raise FormulationError(
            f"decoded network state deviates from LP rows by {worst:.3e}")

    dh = grid.hour_duration_h
    pns, eps, qns, eqs = _running_total(0.0, slack.reshape(-1, 4).T)
    unserved, surplus = (pns + qns) * dh, (eps + eqs) * dh
    alpha = x[instance.alpha_idx].tolist()

    return PlanResult(
        status="optimal",
        engine="milp",
        scal=scal,
        added_capacity_mw=scal * agg.candidate_base_total,
        objective_eur=sol.objective,
        hours=hours,
        hour_duration_h=dh,
        bus_order=model.bus_order,
        line_order=model.line_order,
        production_mw=production,
        curtailment_mw=curtail,
        available_mw=avail,
        alpha={(k, bid): a for k, row in enumerate(alpha)
               for bid, a in zip(instance.elig_nodes, row)},
        flows_mw=flows,
        voltages_pu2=v2,
        imports_mw=x[instance.exchange_idx[:, 0]],
        exports_mw=x[instance.exchange_idx[:, 1]],
        unserved_mwh=float(unserved),
        surplus_mwh=float(surplus),
    )
