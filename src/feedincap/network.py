"""Radial network physics: the linearized power flow both engines plan on.

The linear model is the usual lossless branch-flow linearization for radial
feeders. With net injections s_j (generation minus demand, MW, positive into
the grid) at non-slack buses:

    flow_l = sum of s_j over buses downstream of line l      (toward the slack)
    v_i    = v_slack^2 + 2 * sum_l in path(i) (r_l * P_l + x_l * Q_l) / base

where v_i is the squared voltage magnitude in p.u. Both maps are affine in the
injections, so they double as constraint rows for the planning problem. The
package ships no AC power flow: the test suite checks this model against an
exact AC backward/forward sweep of its own (acceptance criterion 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, tree_walk


SLACK_VOLTAGE = 1.0     # p.u., magnitude held at the slack bus


class NetworkError(ValueError):
    pass


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


def _tree(grid: Grid) -> tuple[str, dict[str, tuple[str, int]]]:
    """Orient the tree away from the slack.

    Returns (slack_id, parent map: bus -> (parent bus, line index)). Raises
    NetworkError on non-tree input.
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
    return root, parent


def build_linear_model(grid: Grid) -> LinearNetworkModel:
    root, parent = _tree(grid)
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
