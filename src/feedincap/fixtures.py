"""Deterministic synthetic study grids and profile series.

Four grid archetypes are generated from target statistics (node count, total
feeder length, demand, generator mix): a long rural MV feeder that runs into
its upper voltage band, a compact urban MV grid stopped by trunk thermal
limits, a hybrid MV grid already sitting at the voltage cap with no headroom
for new systems, and an LV grid with rooftop PV on household nodes. Node
counts are exact; totals are hit exactly by scaling the random draws, so any
declared tolerance is only about interpretation, not noise.

Each generator places its own candidate PV, after the existing units: an MV
grid puts a `cand_<bus>` of the same size beside every `pv_existing_scalable`
system, and the LV grid puts a 5 kWp `cand_<bus>` at every non-slack node with
demand and no rooftop PV. Candidates follow the shared PV profile.

The LV transformer rating in the targets (0.25 MVA) is small against the
existing 352 kWp of rooftop PV: at clear-sky peak the plate rating would
already be exceeded by today's build-out. The fixture keeps the stated value
as the per-unit base and lets the feeder head cables set the enforceable
thermal limits instead of silently correcting the rating.

Profiles are synthetic but shaped: PV follows a squared solar-elevation
clear-sky curve times a seasonal envelope times seeded per-day weather, and
is normalized so the yearly maximum is exactly 1.0 at the design peak hour;
household demand has morning and evening humps and a winter lift. Everything
is reproducible bit for bit from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Bus, GenUnit, Grid, Line
from .network import SLACK_VOLTAGE, LinearNetworkModel, build_linear_model, evaluate_linear

FIXTURE_KINDS = ("rural_mv", "urban_mv", "hybrid_mv", "lv", "example")

HOURS_PER_YEAR = 8760
_PEAK_DAY = 172                       # design clear-sky day
_MV_PF_TAN = math.tan(math.acos(0.95))
_LV_PF_TAN = math.tan(math.acos(0.98))

# cable classes: (r ohm/km, x ohm/km, rating MVA); MV 20 kV, LV 0.4 kV
_MV_TRUNK = (0.206, 0.122, 11.0)
_MV_LATERAL = (0.443, 0.132, 7.6)
_LV_TRUNK = (0.206, 0.080, 0.187)
_LV_LATERAL = (0.443, 0.082, 0.142)


@dataclass(frozen=True)
class ProfileSet:
    """Shared capacity-factor and demand shapes for the selected hours."""

    hours: tuple[int, ...]            # positions in the underlying year
    pv_cf: np.ndarray
    wind_cf: np.ndarray
    ror_cf: np.ndarray
    demand_shape: np.ndarray          # relative, peak of the year = 1.0
    peak_pos: int                     # index into the series with pv_cf max
    year_demand_mean: float           # mean of the full-year shape


def _year_series(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    h = np.arange(HOURS_PER_YEAR)
    t = (h % 24) + 0.5
    d = h // 24

    elev = np.sin(np.pi * (t - 6.0) / 12.0)
    clear = np.where((t > 6.0) & (t < 18.0), elev, 0.0) ** 2
    season = 0.35 + 0.65 * np.cos(np.pi * (d - _PEAK_DAY) / 365.0) ** 2
    weather = rng.uniform(0.35, 1.0, 365)
    weather[_PEAK_DAY] = 1.0
    pv = clear * season * weather[d]
    pv = pv / pv.max()                # yearly max exactly 1.0

    x = np.empty(HOURS_PER_YEAR)
    x[0] = 0.0
    noise = rng.standard_normal(HOURS_PER_YEAR)
    for i in range(1, HOURS_PER_YEAR):
        x[i] = 0.97 * x[i - 1] + 0.243 * noise[i]
    wind = np.clip(0.30 + 0.25 * x, 0.02, 0.95)

    ror = 0.45 + 0.20 * np.cos(np.pi * (d - 100.0) / 365.0) ** 2

    weekend = (d % 7) >= 5
    dem = (0.45
           + 0.30 * np.exp(-(((t - 7.5) / 1.5) ** 2))
           + 0.50 * np.exp(-(((t - 19.0) / 2.0) ** 2))
           + 0.15 * np.cos(np.pi * (d - 15.0) / 365.0) ** 2)
    dem = dem * np.where(weekend, 0.9, 1.0)
    dem = dem * np.clip(1.0 + 0.08 * rng.standard_normal(HOURS_PER_YEAR), 0.7, 1.3)
    dem = dem / dem.max()
    return pv, wind, ror, dem


def _hour_slice(pv: np.ndarray, hours: int) -> np.ndarray:
    """Which positions of the year a fixture of the given length keeps.

    hours runs from 1 to 8760, so no hour is kept twice. 1 keeps the
    clear-sky peak hour, 24 the whole design day, anything else strides
    through the year (8760 gives the full series).
    """
    peak = int(np.argmax(pv))
    if hours == 1:
        return np.array([peak])
    if hours == 24:
        day0 = (peak // 24) * 24
        return np.arange(day0, day0 + 24)
    idx = np.arange(hours) * (HOURS_PER_YEAR // hours)
    if peak not in idx:
        idx[int(np.argmax(pv[idx]))] = peak   # keep the design peak reachable
    return np.sort(idx)


def synth_profiles(kind: str, hours: int, seed: int = 1) -> ProfileSet:
    """Capacity-factor and demand shapes for the requested horizon."""
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}")
    if hours < 1:
        raise ValueError("hours must be >= 1")
    if hours > HOURS_PER_YEAR:
        raise ValueError(f"hours must be at most {HOURS_PER_YEAR}")
    pv, wind, ror, dem = _year_series(seed)
    idx = _hour_slice(pv, hours)
    return ProfileSet(
        hours=tuple(int(i) for i in idx),
        pv_cf=pv[idx],
        wind_cf=wind[idx],
        ror_cf=ror[idx],
        demand_shape=dem[idx],
        peak_pos=int(np.argmax(pv[idx])),
        year_demand_mean=float(dem.mean()),
    )


# ---------------------------------------------------------------------------
# topology


def _grow_tree(rng, n_nodes: int, feeder_shares: tuple[float, ...],
               chain_bias: float) -> list[tuple[int, int]]:
    """Radial tree as (parent, child) pairs; node 0 is the slack.

    Each feeder grows from the slack; a new node extends the feeder's current
    tip with probability chain_bias (long main line) or branches off an
    earlier node of the same feeder (lateral).
    """
    counts = [int(round(s * n_nodes)) for s in feeder_shares]
    counts[-1] = n_nodes - sum(counts[:-1])
    edges: list[tuple[int, int]] = []
    nxt = 1
    for c in counts:
        members = []
        for k in range(c):
            node = nxt
            nxt += 1
            if not members:
                parent = 0
            elif rng.random() < chain_bias:
                parent = members[-1]
            else:
                parent = members[rng.integers(0, len(members))]
            edges.append((parent, node))
            members.append(node)
    return edges


def _downstream_counts(edges: list[tuple[int, int]]) -> list[int]:
    children: dict[int, list[int]] = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)
    memo: dict[int, int] = {}

    def size(n: int) -> int:
        if n not in memo:
            memo[n] = 1 + sum(size(c) for c in children.get(n, []))
        return memo[n]

    return [size(c) for _, c in edges]


def _split_total(rng, n: int, total: float) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, n)
    return w * (total / w.sum())


# ---------------------------------------------------------------------------
# grid assembly

_MV_TARGETS = {
    # n_buses, mva, km, demand peak MW, feeders, chain, trunk threshold,
    # (count, total MW) per unit class
    "rural_mv": dict(n=158, mva=25.0, km=21.0, demand=1.20,
                     feeders=(0.6, 0.4), chain=0.85, trunk_at=15,
                     ror=(1, 0.0044), wind=(3, 0.320),
                     scal=(53, 6.838), nonscal=(4, 1.432), fossil=None),
    "urban_mv": dict(n=110, mva=40.0, km=4.0, demand=2.00,
                     feeders=(0.4, 0.35, 0.25), chain=0.55, trunk_at=12,
                     ror=(2, 0.208), wind=None,
                     scal=(27, 2.028), nonscal=(2, 2.622), fossil=(1, 0.300)),
    "hybrid_mv": dict(n=267, mva=40.0, km=78.0, demand=2.51,
                      feeders=(0.55, 0.45), chain=0.9, trunk_at=20,
                      ror=(1, 0.080), wind=None,
                      scal=(74, 8.264), nonscal=(1, 0.300), fossil=None),
}


def _scale_impedance(lines: list[Line], k: float) -> list[Line]:
    return [Line(ln.from_bus, ln.to_bus, ln.r * k, ln.x * k, ln.s_max, ln.length_km)
            for ln in lines]


def _peak_injections(grid: Grid, model: LinearNetworkModel, peak_pos: int, scal: float):
    """Net P and Q per non-slack bus (model order) at the peak hour, no curtailment.

    Valid for calibration: at FL = 1 the feed-in rule never removes anything
    (capacity factors stay at or below 1), so production equals availability.
    """
    pos = {bid: i for i, bid in enumerate(model.bus_order)}
    p = np.zeros(len(model.bus_order))
    q = np.zeros(len(model.bus_order))
    for g in grid.gens:
        if g.bus not in pos:
            continue
        base = g.p_max * scal if g.kind == "pv_candidate" else g.p_max
        p[pos[g.bus]] += base * g.profile[peak_pos]
    for b in grid.buses:
        if b.id in pos:
            p[pos[b.id]] -= b.demand_p[peak_pos]
            q[pos[b.id]] -= b.demand_q[peak_pos]
    return p, q


def _max_dv2(grid: Grid, peak_pos: int, scal: float) -> float:
    model = build_linear_model(grid)
    _, v2 = evaluate_linear(model, *_peak_injections(grid, model, peak_pos, scal))
    return float(np.max(v2) - SLACK_VOLTAGE**2)


def _thermal_scal(grid: Grid, peak_pos: int) -> float:
    """Smallest scal at which some line hits its rating at the peak hour."""
    model = build_linear_model(grid)
    f0, _ = evaluate_linear(model, *_peak_injections(grid, model, peak_pos, 0.0))
    f1, _ = evaluate_linear(model, *_peak_injections(grid, model, peak_pos, 1.0))
    slope = f1 - f0
    rising = slope > 1e-12
    return float(np.min((model.s_max - f0)[rising] / slope[rising], initial=np.inf))


def _assemble_mv(kind: str, seed: int, hours: int) -> Grid:
    prof = synth_profiles(kind, hours, seed)      # rejects an unknown kind
    t = _MV_TARGETS[kind]
    rng = np.random.default_rng(10_000 + seed * 7 + len(kind))
    H = len(prof.hours)
    peak = prof.peak_pos

    n_other = t["n"] - 1
    edges = _grow_tree(rng, n_other, t["feeders"], t["chain"])
    down = _downstream_counts(edges)
    lengths = _split_total(rng, n_other, t["km"])

    z_base = 20.0**2 / t["mva"]
    lines = []
    for (pn, cn), dcount, lk in zip(edges, down, lengths):
        cls = _MV_TRUNK if dcount >= t["trunk_at"] else _MV_LATERAL
        lines.append(Line(f"n{pn:03d}" if pn else "sub", f"n{cn:03d}",
                          cls[0] * lk / z_base, cls[1] * lk / z_base,
                          cls[2], lk))

    node_ids = [f"n{i:03d}" for i in range(1, t["n"])]
    order = rng.permutation(n_other)
    cursor = 0

    def take(k: int) -> list[str]:
        nonlocal cursor
        got = [node_ids[j] for j in order[cursor:cursor + k]]
        cursor += k
        return got

    gens: list[GenUnit] = []
    pv_series = prof.pv_cf
    n_scal, tot_scal = t["scal"]
    scal_sites = take(n_scal)
    for bid, mw in zip(scal_sites, _split_total(rng, n_scal, tot_scal)):
        gens.append(GenUnit(f"pv_{bid}", bid, "pv_existing_scalable", mw, pv_series))
    n_fix, tot_fix = t["nonscal"]
    for bid, mw in zip(take(n_fix), _split_total(rng, n_fix, tot_fix)):
        gens.append(GenUnit(f"pvf_{bid}", bid, "pv_existing_fixed", mw, pv_series))
    if t["wind"]:
        n_w, tot_w = t["wind"]
        for bid, mw in zip(take(n_w), _split_total(rng, n_w, tot_w)):
            gens.append(GenUnit(f"wind_{bid}", bid, "wind", mw, prof.wind_cf))
    n_r, tot_r = t["ror"]
    for bid, mw in zip(take(n_r), _split_total(rng, n_r, tot_r)):
        gens.append(GenUnit(f"ror_{bid}", bid, "ror", mw, prof.ror_cf))
    if t["fossil"]:
        n_f, tot_f = t["fossil"]
        for bid, mw in zip(take(n_f), _split_total(rng, n_f, tot_f)):
            gens.append(GenUnit(f"gas_{bid}", bid, "fossil", mw, (0.9,) * H))

    # demand lives away from the generation sites; scaled so the clear-sky
    # peak hour carries exactly the target MW
    demand_nodes = take(max(1, int(0.85 * (n_other - cursor))))
    weights = _split_total(rng, len(demand_nodes), t["demand"] / prof.demand_shape[peak])
    dmap = {bid: w for bid, w in zip(demand_nodes, weights)}

    shape = prof.demand_shape
    buses = [Bus("sub", True, (0.0,) * H, (0.0,) * H, vmin=0.95, vmax=1.03)]
    for i in range(1, t["n"]):
        bid = f"n{i:03d}"
        w = dmap.get(bid, 0.0)
        buses.append(Bus(bid, False, w * shape, w * shape * _MV_PF_TAN,
                         vmin=0.95, vmax=1.03))

    # a same-size candidate beside every scalable system, after the existing units
    gens += [GenUnit(f"cand_{g.bus}", g.bus, "pv_candidate", g.p_max, pv_series)
             for g in gens if g.kind == "pv_existing_scalable"]
    grid = Grid(base_mva=t["mva"], base_kv=20.0, buses=tuple(buses),
                lines=tuple(lines), gens=tuple(gens))

    # impedance calibration: per-km constants are drawn from a cable
    # catalogue, but how close the feeder runs to its band is a siting
    # property; rural is placed so the band binds at a small expansion,
    # hybrid so it is already exhausted with nothing added
    band = 1.03**2 - 1.0
    if kind == "rural_mv":
        k = band / _max_dv2(grid, peak, 0.12)
    elif kind == "hybrid_mv":
        k = (band - 1e-9) / _max_dv2(grid, peak, 0.0)
    else:
        k = 1.0
    grid = Grid(grid.base_mva, grid.base_kv, grid.buses,
                tuple(_scale_impedance(list(grid.lines), k)), grid.gens)
    return grid


def _assemble_lv(seed: int, hours: int) -> Grid:
    rng = np.random.default_rng(40_000 + seed * 7)
    prof = synth_profiles("lv", hours, seed)
    H = len(prof.hours)
    peak = prof.peak_pos

    n_buses = 180
    n_other = n_buses - 1
    annual_mwh = 483.72
    edges = _grow_tree(rng, n_other, (0.22, 0.21, 0.2, 0.19, 0.18), 0.7)
    down = _downstream_counts(edges)
    lengths = _split_total(rng, n_other, 6.9)

    z_base = 0.4**2 / 0.25
    lines = []
    for (pn, cn), dcount, lk in zip(edges, down, lengths):
        cls = _LV_TRUNK if dcount >= 6 else _LV_LATERAL
        lines.append(Line(f"n{pn:03d}" if pn else "sub", f"n{cn:03d}",
                          cls[0] * lk / z_base, cls[1] * lk / z_base,
                          cls[2], lk))

    node_ids = [f"n{i:03d}" for i in range(1, n_buses)]
    order = rng.permutation(n_other)
    pv_nodes = [node_ids[j] for j in order[:39]]
    bare = set(node_ids[j] for j in order[-10:])

    gens = [GenUnit(f"pv_{bid}", bid, "pv_existing_fixed", mw, prof.pv_cf)
            for bid, mw in zip(pv_nodes, _split_total(rng, 39, 0.352))]

    # every non-bare node is a metering point with consumption; the yearly
    # energy of the shape is pinned to the target
    demand_nodes = [b for b in node_ids if b not in bare]
    year_mean_mw = annual_mwh / HOURS_PER_YEAR
    weights = _split_total(rng, len(demand_nodes),
                           year_mean_mw / prof.year_demand_mean)
    dmap = dict(zip(demand_nodes, weights))

    shape = prof.demand_shape
    buses = [Bus("sub", True, (0.0,) * H, (0.0,) * H, vmin=0.9, vmax=1.1)]
    for bid in node_ids:
        w = dmap.get(bid, 0.0)
        buses.append(Bus(bid, False, w * shape, w * shape * _LV_PF_TAN, vmin=0.9, vmax=1.1))

    # a 5 kWp candidate at every metering point without rooftop PV
    gens += [GenUnit(f"cand_{b.id}", b.id, "pv_candidate", 0.005, prof.pv_cf)
             for b in buses
             if not b.is_slack and b.id not in pv_nodes and (b.demand_p > 0).any()]
    grid = Grid(base_mva=0.25, base_kv=0.4, buses=tuple(buses),
                lines=tuple(lines), gens=tuple(gens))

    # keep the head cables the binding element: cap the voltage rise at the
    # thermally limited expansion to 80% of the band
    s_th = _thermal_scal(grid, peak)
    dv2 = _max_dv2(grid, peak, s_th)
    band = 1.1**2 - 1.0
    k = min(1.0, 0.8 * band / dv2)
    grid = Grid(grid.base_mva, grid.base_kv, grid.buses,
                tuple(_scale_impedance(list(grid.lines), k)), grid.gens)
    return grid


def example_grid_7kwp(hours: int = 1) -> Grid:
    """Two buses, one 7 kWp candidate, 1.4 kW of demand at the peak hour.

    The smallest grid the feed-in rule acts on: at FL = 0.7 the unit may
    inject 4.9 kW plus whatever local demand absorbs, so 0.7 kW of the
    clear-sky peak is curtailed. Used all over the unit tests.
    """
    prof = synth_profiles("example", hours, seed=1)
    H = len(prof.hours)
    peak = prof.peak_pos
    shape = prof.demand_shape
    return Grid(
        base_mva=1.0, base_kv=20.0,
        buses=(Bus("sub", True, (0.0,) * H, (0.0,) * H),
               Bus("n001", False, 1.4e-3 * shape / shape[peak], (0.0,) * H)),
        lines=(Line("sub", "n001", 1e-4, 1e-4, 5.0, 0.2),),
        gens=(GenUnit("pv_new", "n001", "pv_candidate", 7e-3, prof.pv_cf),),
    )


def synth_grid(kind: str, seed: int = 1, hours: int = 1) -> Grid:
    """Build one of the archetype grids; byte-stable for a given seed."""
    if kind == "example":
        return example_grid_7kwp(hours)
    if kind == "lv":
        return _assemble_lv(seed, hours)
    return _assemble_mv(kind, seed, hours)
