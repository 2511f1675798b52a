"""Radial network physics: linearized power flow and an AC sweep validator.

The linear model is the usual lossless branch-flow linearization for radial
feeders. With net injections s_j (generation minus demand, MW, positive into
the grid) at non-slack buses:

    flow_l = sum of s_j over buses downstream of line l      (toward the slack)
    v_i    = v_slack^2 + 2 * sum_l in path(i) (r_l * P_l + x_l * Q_l) / base

where v_i is the squared voltage magnitude in p.u. Both maps are affine in the
injections, so they double as constraint rows for the planning problem.

ac_sweep is the independent check: a full backward/forward sweep on the exact
AC equations, converging on per-bus apparent-power mismatch. It shares nothing
with the linear path except the Grid object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, tree_walk


SLACK_VOLTAGE = 1.0     # p.u., magnitude held at the slack bus
AC_TOL = 1e-8           # AC sweep: largest per-bus apparent-power mismatch, p.u.
AC_MAX_ITER = 100       # AC sweep iterations before ConvergenceError


class NetworkError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """AC sweep failed to reach AC_TOL within AC_MAX_ITER iterations."""


@dataclass(frozen=True)
class LinearNetworkModel:
    """Affine injection-to-state maps for one radial grid.

    bus_order is every non-slack bus id in document order and bus_cols each
    one's position in grid.buses; line_order matches grid.lines. flow_map @ p
    gives line flows (MW, oriented toward the slack); voltage_map_* give the
    squared-voltage response in p.u. per MW. s_max, vmax2 and vmin2 are the
    limits of those flows and squared voltages.
    """

    slack_id: str
    bus_order: tuple[str, ...]
    bus_cols: np.ndarray        # (N,) position of bus_order[j] in grid.buses
    line_order: tuple[str, ...]
    flow_map: np.ndarray        # (L, N) 1 iff bus j lies downstream of line l
    voltage_map_p: np.ndarray   # (N, N) dv^2/dP, includes 2/base factor
    voltage_map_q: np.ndarray   # (N, N) dv^2/dQ
    s_max: np.ndarray           # (L,) line ratings, MVA
    vmax2: np.ndarray           # (N,) squared upper voltage bound, p.u.^2
    vmin2: np.ndarray           # (N,) squared lower voltage bound

    @property
    def n_buses(self) -> int:
        return len(self.bus_order)


def _tree(grid: Grid) -> tuple[str, dict[str, tuple[str, int]], list[str]]:
    """Orient the tree away from the slack.

    Returns (slack_id, parent map: bus -> (parent bus, line index), buses in
    BFS order from the slack). Raises NetworkError on non-tree input.
    """
    ids = {b.id for b in grid.buses}
    for ln in grid.lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in ids:
                raise NetworkError(f"line {ln.id} references unknown bus {end!r}")
    slack = [b.id for b in grid.buses if b.is_slack]
    if len(slack) != 1:
        raise NetworkError(f"need exactly one slack bus, found {len(slack)}")
    root = slack[0]
    parent, order = tree_walk(grid, root)
    if len(order) != len(grid.buses) or len(grid.lines) != len(grid.buses) - 1:
        raise NetworkError("grid is not a connected radial tree")
    return root, parent, order


def build_linear_model(grid: Grid) -> LinearNetworkModel:
    root, parent, order = _tree(grid)
    cols = [i for i, b in enumerate(grid.buses) if b.id != root]
    nonslack = [grid.buses[i] for i in cols]
    n = len(nonslack)
    nl = len(grid.lines)

    # path_mat[i, l] = 1 iff line l lies on the slack->bus_i path
    path_mat = np.zeros((n, nl))
    for j, b in enumerate(nonslack):
        cur = b.id
        while cur != root:
            up, lidx = parent[cur]
            path_mat[j, lidx] = 1.0
            cur = up

    # A bus is downstream of line l iff l is on its path.
    flow_map = path_mat.T.copy()

    r = np.array([ln.r for ln in grid.lines])
    x = np.array([ln.x for ln in grid.lines])
    # Shared-path impedance: (P diag(z) P^T)[i, j] = sum of z over common lines.
    vp = 2.0 * (path_mat * r) @ path_mat.T / grid.base_mva
    vq = 2.0 * (path_mat * x) @ path_mat.T / grid.base_mva

    return LinearNetworkModel(
        slack_id=root,
        bus_order=tuple(b.id for b in nonslack),
        bus_cols=np.array(cols, dtype=np.intp),
        line_order=tuple(ln.id for ln in grid.lines),
        flow_map=flow_map,
        voltage_map_p=vp,
        voltage_map_q=vq,
        s_max=np.array([ln.s_max for ln in grid.lines]),
        vmax2=np.array([b.vmax**2 for b in nonslack]),
        vmin2=np.array([b.vmin**2 for b in nonslack]),
    )


def evaluate_linear(
    model: LinearNetworkModel,
    p_mw: np.ndarray,
    q_mvar: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate flows and squared voltages for given net injections.

    p_mw/q_mvar follow model.bus_order; shape (N,) or (H, N) for a batch of
    hours. Returns (flows MW over line_order, squared voltages p.u. over
    bus_order) with matching leading shape.
    """
    p = np.asarray(p_mw, dtype=float)
    if p.shape[-1] != model.n_buses:
        raise NetworkError(
            f"injection vector covers {p.shape[-1]} buses, expected {model.n_buses}")
    if q_mvar is None:
        q = np.zeros_like(p)
    else:
        q = np.asarray(q_mvar, dtype=float)
        if q.shape != p.shape:
            raise NetworkError("P and Q injection shapes differ")
    flows = p @ model.flow_map.T
    v = SLACK_VOLTAGE**2 + p @ model.voltage_map_p.T + q @ model.voltage_map_q.T
    return flows, v


@dataclass(frozen=True)
class ACState:
    converged: bool
    iterations: int
    mismatch: float                      # worst |dS| in MVA
    bus_order: tuple[str, ...]           # non-slack, as in the linear model
    voltages: np.ndarray                 # complex p.u., per bus_order
    line_order: tuple[str, ...]
    flow_p: np.ndarray                   # MW at the downstream end, toward slack
    flow_q: np.ndarray                   # MVAr
    losses_mw: float


def ac_sweep(
    grid: Grid,
    p_mw: np.ndarray,
    q_mvar: np.ndarray | None = None,
) -> ACState:
    """Backward/forward sweep AC power flow for one operating point.

    Injections are net MW/MVAr per non-slack bus in document order (same
    convention as evaluate_linear). Convergence is measured as the largest
    per-bus apparent-power mismatch implied by the voltage profile. Raises
    ConvergenceError if AC_MAX_ITER is exhausted and NetworkError for
    zero-impedance lines (the mismatch is undefined there).
    """
    root, parent, order = _tree(grid)
    nonslack = [b.id for b in grid.buses if b.id != root]
    pos = {bid: i for i, bid in enumerate(nonslack)}
    p = np.asarray(p_mw, dtype=float)
    if p.shape != (len(nonslack),):
        raise NetworkError(f"expected injections of shape ({len(nonslack)},), got {p.shape}")
    q = np.zeros_like(p) if q_mvar is None else np.asarray(q_mvar, dtype=float)

    z = {}
    for ln in grid.lines:
        if ln.r == 0.0 and ln.x == 0.0:
            raise NetworkError(f"line {ln.id} has zero impedance; AC sweep undefined")
        z[ln.id] = complex(ln.r, ln.x)

    s_pu = (p + 1j * q) / grid.base_mva
    v = {bid: complex(SLACK_VOLTAGE, 0.0) for bid in pos}
    v[root] = complex(SLACK_VOLTAGE, 0.0)
    children: dict[str, list[str]] = {b.id: [] for b in grid.buses}
    line_of: dict[str, str] = {}
    for bid, (up, lidx) in parent.items():
        children[up].append(bid)
        line_of[bid] = grid.lines[lidx].id
    rev = order[::-1]

    def mismatch_of(voltages: dict[str, complex]) -> float:
        # Current each line carries according to the voltage profile alone,
        # export-oriented (downstream -> upstream).
        j_line = {
            bid: (voltages[bid] - voltages[parent[bid][0]]) / z[line_of[bid]]
            for bid in parent
        }
        worst = 0.0
        for bid in nonslack:
            inflow = j_line[bid] - sum(j_line[c] for c in children[bid])
            s_calc = voltages[bid] * inflow.conjugate()
            worst = max(worst, abs(s_calc - s_pu[pos[bid]]))
        return worst

    iterations = 0
    mis = mismatch_of(v)
    while mis > AC_TOL:
        if iterations >= AC_MAX_ITER:
            raise ConvergenceError(
                f"AC sweep did not converge in {AC_MAX_ITER} iterations (mismatch {mis:.3e})")
        # backward: accumulate export-oriented branch currents
        j_acc = {bid: (s_pu[pos[bid]] / v[bid]).conjugate() for bid in nonslack}
        for bid in rev:
            if bid == root:
                continue
            up = parent[bid][0]
            if up != root:
                j_acc[up] += j_acc[bid]
        # forward: V_child = V_parent + Z * J_branch
        for bid in order:
            if bid == root:
                continue
            up = parent[bid][0]
            v[bid] = v[up] + z[line_of[bid]] * j_acc[bid]
        iterations += 1
        mis = mismatch_of(v)

    j_line = {
        bid: (v[bid] - v[parent[bid][0]]) / z[line_of[bid]] for bid in parent
    }
    flow_p = np.zeros(len(grid.lines))
    flow_q = np.zeros(len(grid.lines))
    for bid, (up, lidx) in parent.items():
        s_flow = v[bid] * j_line[bid].conjugate() * grid.base_mva
        flow_p[lidx] = s_flow.real
        flow_q[lidx] = s_flow.imag
    # Losses: total injected minus what arrives at the slack, via I^2 R.
    losses = sum(
        (abs(j_line[bid]) ** 2) * z[line_of[bid]].real for bid in parent
    ) * grid.base_mva

    return ACState(
        converged=True,
        iterations=iterations,
        mismatch=mis,
        bus_order=tuple(nonslack),
        voltages=np.array([v[b] for b in nonslack]),
        line_order=tuple(ln.id for ln in grid.lines),
        flow_p=flow_p,
        flow_q=flow_q,
        losses_mw=float(losses),
    )


@dataclass(frozen=True)
class DeviationReport:
    max_dv_pu: float          # worst |V_linear - V_ac| over buses
    max_dflow_mw: float       # worst |flow_linear - flow_ac| over lines
    worst_bus: str
    worst_line: str


def compare_models(
    grid: Grid,
    p_mw: np.ndarray,
    q_mvar: np.ndarray | None = None,
    model: LinearNetworkModel | None = None,
) -> DeviationReport:
    """Run both models on one operating point and report worst deviations."""
    if model is None:
        model = build_linear_model(grid)
    flows, v2 = evaluate_linear(model, p_mw, q_mvar)
    ac = ac_sweep(grid, p_mw, q_mvar)
    v_lin = np.sqrt(v2)
    dv = np.abs(v_lin - np.abs(ac.voltages))
    dflow = np.abs(flows - ac.flow_p)
    ib = int(np.argmax(dv)) if len(dv) else 0
    il = int(np.argmax(dflow)) if len(dflow) else 0
    return DeviationReport(
        max_dv_pu=float(dv[ib]) if len(dv) else 0.0,
        max_dflow_mw=float(dflow[il]) if len(dflow) else 0.0,
        worst_bus=model.bus_order[ib] if len(dv) else "",
        worst_line=model.line_order[il] if len(dflow) else "",
    )
