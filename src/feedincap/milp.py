"""Dense LP and MILP solving.

solve_lp is a bounded-variable revised simplex: two phases, Dantzig pricing
with lowest-index tie-breaks, and a Bland fallback after a degenerate streak
so cycling cannot occur. The explicit basis inverse stays hypersparse on the
power-flow LPs here (a few percent nonzero), so a pivot touches only what can
change: the rank-1 update subtracts the outer product on the block of rows
where the entering column is nonzero and columns where the new pivot row is
nonzero (everywhere else it would subtract an exact zero), and the ratio test
computes step lengths only for rows whose step is above the pivot tolerance
and whose bound in that direction is finite, then breaks ties in row order.
The inverse is refactorized periodically. Everything is double precision
numpy with a fixed operation order, so two runs on the same input produce
bit-identical results.

solve_milp is best-first branch and bound over binary variables: branch on
the most fractional binary (ties to the lowest variable index), children
inherit the parent LP objective as their bound, and near-integral incumbents
are re-solved once with the binaries pinned so the reported point satisfies
the indicator constraints exactly. That polish re-solve runs only when
rounding pins a binary that was free; with every binary already fixed, the
node's own solution is the polished point.

solve_milp may defer rows. MILProblem.lazy names rows the solve may leave
out and MILProblem.seed those of them to keep from the start. The solve then
runs in rounds: each builds the standard form from the kept rows only, runs
branch and bound on it, and checks the answer against every row of the LP.
A deferred row the answer violates by more than feasibility_tol * (1 +
|rhs|) joins the kept rows and the next round starts from scratch; a round
that violates none has the full problem's optimum, because dropping rows
only relaxes it. An infeasible round is final for the same reason. Only
these two outcomes carry over to the full problem: any other status is
returned as the round ended, and its incumbent (a node_limit round may have
one) only if that point satisfies every row, with the round's gap, which
still bounds the full problem's. Nodes and LP iterations add up over the
rounds, and node_limit caps their sum. With nothing deferred there is one
round over every row.

Problem sizes here are desk scale (hundreds to a few thousand rows); dense
storage is deliberate.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

INF = float("inf")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
NODE_LIMIT = "node_limit"
NUMERICAL = "numerical"


OPTIMALITY_TOL = 1e-7      # reduced-cost threshold for an entering column
INTEGRALITY_TOL = 1e-6     # a binary this close to 0 or 1 counts as integral
REFACTOR_EVERY = 128       # pivots between full re-inversions of the basis
BLAND_AFTER = 40           # degenerate pivots in a row before Bland's rule


@dataclass
class SolverConfig:
    feasibility_tol: float = 1e-7
    scal_max: float = 1000.0
    node_limit: int = 100_000


@dataclass
class LinearProgram:
    """Column-oriented LP container; variables are added before rows. Row i is
    sum(row_coef[i] * x[row_idx[i]]) sense[i] rhs[i]; rows may share arrays."""

    obj: list[float] = field(default_factory=list)
    lb: list[float] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    row_idx: list[np.ndarray] = field(default_factory=list)
    row_coef: list[np.ndarray] = field(default_factory=list)
    sense: list[str] = field(default_factory=list)       # "<=", ">=", "=="
    rhs: list[float] = field(default_factory=list)
    row_names: list[str] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0) -> int:
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        self.names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        return len(self.obj) - 1

    def add_row(self, idx, coef, sense: str, rhs: float, name: str = "") -> int:
        """Append a row; idx is sorted (coef with it), range-checked and unique."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        idx = np.asarray(idx, dtype=np.intp)
        coef = np.asarray(coef, dtype=float)
        if idx.ndim != 1 or idx.shape != coef.shape:
            raise ValueError(f"row {name!r}: idx and coef must be 1-d of one length")
        if not (idx[1:] > idx[:-1]).all():
            order = np.argsort(idx, kind="stable")
            idx, coef = idx[order], coef[order]
            repeated = idx[1:][idx[1:] == idx[:-1]]
            if repeated.size:
                raise ValueError(f"row {name!r} repeats variable {repeated[0]}")
        if idx.size and not (0 <= idx[0] and idx[-1] < self.n_vars):     # sorted: ends bound all
            bad = idx[(idx < 0) | (idx >= self.n_vars)][0]
            raise ValueError(f"row {name!r} references unknown variable {bad}")
        self.row_idx.append(idx)
        self.row_coef.append(coef)
        self.sense.append(sense)
        self.rhs.append(float(rhs))
        self.row_names.append(name or f"r{len(self.row_names)}")
        return len(self.rhs) - 1

    def _entries(self, rows: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row position, variable index and coefficient of every entry of the
        given rows (default all), rows in order and each row's entries in
        variable order; positions count within rows."""
        idx = self.row_idx if rows is None else [self.row_idx[i] for i in rows]
        coef = self.row_coef if rows is None else [self.row_coef[i] for i in rows]
        return (np.repeat(np.arange(len(idx)), [a.size for a in idx]),
                np.concatenate([np.zeros(0, dtype=np.intp), *idx]),
                np.concatenate([np.zeros(0), *coef]))

    def activities(self, x: np.ndarray) -> np.ndarray:
        # bincount adds each row's products in entry order, as a running sum would
        rows, cols, coef = self._entries()
        out = np.bincount(rows, weights=coef * x[cols], minlength=self.n_rows)
        return out.astype(float, copy=False)     # integer when there are no entries


@dataclass
class MILProblem:
    lp: LinearProgram
    binaries: tuple[int, ...] = ()
    lazy: Sequence[int] = ()          # rows the solve may leave out until violated
    seed: Sequence[int] = ()          # lazy rows kept from the first round


@dataclass
class LPSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int


@dataclass
class MILPSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    gap: float
    nodes: int
    lp_iterations: int
    rounds: int = 1                   # branch-and-bound runs, one per set of kept rows
    rows_kept: int = 0                # rows of the last round


def compute_big_m(avail_at_scal_max: float, fl_cap_at_scal_max: float,
                  residual: float) -> float:
    """Constraint-specific big-M for one node-hour's indicator rows.

    The bound covers both directions of the production-pinning rows and the
    trigger row itself over the whole scal domain, so a relaxed row can never
    bind: M >= avail and M >= FL*cap + R at the largest admissible scal.
    """
    if min(avail_at_scal_max, fl_cap_at_scal_max, residual) < 0:
        raise ValueError("big-M inputs must be nonnegative")
    return avail_at_scal_max + fl_cap_at_scal_max + residual + 1.0


# ---------------------------------------------------------------------------
# standard form + simplex core


class _StandardForm:
    """Ax = b with bounds: n variables, one slack column per row, then any
    phase-1 artificials."""

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 lb: np.ndarray, ub: np.ndarray, n: int):
        self.m, self.n = A.shape[0], n
        self.A, self.b, self.c = A, b, c
        self.lb_base, self.ub_base = lb, ub

    @classmethod
    def from_lp(cls, lp: LinearProgram, rows: np.ndarray | None = None) -> "_StandardForm":
        """The form of lp's rows, or of the given ascending row indices only."""
        rows = np.arange(lp.n_rows) if rows is None else rows
        m, n = rows.size, lp.n_vars
        A = np.zeros((m, n + m))
        pos, cols, coef = lp._entries(rows)
        A[pos, cols] += coef
        A[np.arange(m), n + np.arange(m)] = 1.0
        b = np.array(lp.rhs, dtype=float)[rows]
        sense = [lp.sense[i] for i in rows.tolist()]
        slack_lb = np.array([-INF if s == ">=" else 0.0 for s in sense], dtype=float)
        slack_ub = np.array([INF if s == "<=" else 0.0 for s in sense], dtype=float)
        return cls(A, b,
                   np.concatenate([np.asarray(lp.obj, dtype=float), np.zeros(m)]),
                   np.concatenate([np.asarray(lp.lb, dtype=float), slack_lb]),
                   np.concatenate([np.asarray(lp.ub, dtype=float), slack_ub]),
                   n)


class _SimplexState:
    """A basic solution of sf under bounds lb/ub.

    Without x, nonbasic variables start at a finite bound (else 0). Without
    basis, the slack columns are basic. A given basis must consist of unit
    columns of sf.A, so the basis inverse starts as the identity either way.
    """

    def __init__(self, sf: _StandardForm, lb: np.ndarray, ub: np.ndarray,
                 x: np.ndarray | None = None, basis: np.ndarray | None = None):
        self.sf, self.lb, self.ub = sf, lb, ub
        if x is None:
            x = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        self.x = x
        self.basis = np.arange(sf.n, sf.n + sf.m) if basis is None else basis
        self.in_basis = np.zeros(sf.A.shape[1], dtype=bool)
        self.in_basis[self.basis] = True
        self.B_inv = np.eye(sf.m)
        self.iterations = 0
        self.reconcile()

    def reconcile(self) -> None:
        # Recompute basic values from nonbasic ones; kills accumulated drift.
        nb_mask = ~self.in_basis
        rhs = self.sf.b - self.sf.A[:, nb_mask] @ self.x[nb_mask]
        self.x[self.basis] = self.B_inv @ rhs

    def refactor(self) -> bool:
        # Drop the old inverse before inverting and B before reconciling, so
        # fewer m x m arrays are alive at once. A failed refactor leaves
        # B_inv None; every caller then abandons this state.
        B = self.sf.A[:, self.basis]
        self.B_inv = None
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        del B
        self.reconcile()
        return True


def _ratio_test(step: np.ndarray, bvals: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                basis: np.ndarray, piv_tol: float) -> tuple[int, float]:
    """Blocking basis row (-1 if none) and step length of the ratio test.

    Basic variable i moves by -t*step[i]. Only rows with |step| > piv_tol and
    a finite bound in the direction of travel can block; t_i = max(0, (x_i -
    bound) / step_i) is computed for those alone. They are then scanned in
    row order: a t more than 1e-12 below the best wins, and within 1e-12 the
    lower variable index wins.
    """
    rows = np.flatnonzero(np.abs(step) > piv_tol)
    s = step[rows]
    var = basis[rows]
    bound = np.where(s > 0, lb[var], ub[var])
    keep = np.isfinite(bound)
    rows, s, var, bound = rows[keep], s[keep], var[keep], bound[keep]
    ratio = (bvals[rows] - bound) / s
    t = np.where(ratio > 0.0, ratio, 0.0)
    t_best, r_best, v_best = INF, -1, -1
    for r, t_i, v in zip(rows.tolist(), t.tolist(), var.tolist()):
        if t_i < t_best - 1e-12 or (t_i < t_best + 1e-12 and (r_best < 0 or v < v_best)):
            t_best, r_best, v_best = t_i, r, v
    return r_best, t_best


def _pivot_update(B_inv: np.ndarray, w: np.ndarray, r: int) -> None:
    """Basis inverse after the column w = B_inv a_j replaces basis row r.

    B_inv - outer(w, brow) changes only on rows where w is nonzero and columns
    where the new pivot row brow is nonzero; everywhere else it would
    subtract an exact zero, so only that block is updated.
    """
    brow = B_inv[r] / w[r]
    rows, cols = np.flatnonzero(w), np.flatnonzero(brow)
    B_inv[np.ix_(rows, cols)] -= np.multiply.outer(w[rows], brow[cols])
    B_inv[r] = brow


def _iterate(st: _SimplexState, c: np.ndarray, iter_cap: int) -> str:
    """Run simplex to optimality for the given objective. Returns a status."""
    sf = st.sf
    tol = OPTIMALITY_TOL
    piv_tol = 1e-9
    degen_streak = 0
    bland = False
    since_refactor = 0

    while True:
        if st.iterations >= iter_cap:
            return ITERATION_LIMIT
        if sf.m:
            y = st.B_inv.T @ c[st.basis]
            d = c - sf.A.T @ y
        else:
            d = c.copy()

        # nonbasic vars sit at lb, ub, or 0 (free); classify by actual value
        nb = ~st.in_basis & (st.ub - st.lb > 0)   # fixed vars can never improve
        score = np.zeros_like(d)
        lb_side = nb & (st.x <= st.lb + 1e-30) & np.isfinite(st.lb)
        ub_side = nb & ~lb_side & (st.x >= st.ub - 1e-30) & np.isfinite(st.ub)
        free_side = nb & ~lb_side & ~ub_side
        score[lb_side] = d[lb_side]
        score[ub_side] = -d[ub_side]
        score[free_side] = -np.abs(d[free_side])
        score[~nb] = 0.0

        eligible = np.flatnonzero(score < -tol)
        if eligible.size == 0:
            return OPTIMAL
        if bland:
            j_in = int(eligible[0])
        else:
            j_in = int(eligible[np.argmin(score[eligible])])
        sigma = 1.0
        if ub_side[j_in] or (free_side[j_in] and d[j_in] > 0):
            sigma = -1.0

        w = st.B_inv @ sf.A[:, j_in] if sf.m else np.zeros(0)
        step = sigma * w

        bvals = st.x[st.basis]
        r_block, t_best = _ratio_test(step, bvals, st.lb, st.ub, st.basis, piv_tol)

        span = st.ub[j_in] - st.lb[j_in]
        flip = np.isfinite(span) and span < t_best

        if not flip and r_block < 0:
            return UNBOUNDED

        st.iterations += 1
        since_refactor += 1
        if flip:
            t = span
            st.x[st.basis] = bvals - t * step
            st.x[j_in] = st.ub[j_in] if sigma > 0 else st.lb[j_in]
        else:
            t = t_best
            st.x[st.basis] = bvals - t * step
            st.x[j_in] = st.x[j_in] + sigma * t
            leave = int(st.basis[r_block])
            # pin the leaving variable to the bound it reached
            st.x[leave] = st.lb[leave] if step[r_block] > 0 else st.ub[leave]
            st.in_basis[leave] = False
            st.in_basis[j_in] = True
            st.basis[r_block] = j_in
            piv = w[r_block]
            if abs(piv) < piv_tol:
                if not st.refactor():
                    return NUMERICAL
            else:
                _pivot_update(st.B_inv, w, r_block)

        if t <= 1e-11:
            degen_streak += 1
            if degen_streak > BLAND_AFTER:
                bland = True
        else:
            degen_streak = 0
            bland = False

        if since_refactor >= REFACTOR_EVERY:
            since_refactor = 0
            if not st.refactor():
                return NUMERICAL


def _phase_one(st: _SimplexState, tol: float) -> tuple[_SimplexState, np.ndarray] | None:
    """Phase-1 state and objective, or None if the slack basis is feasible.

    Each basic slack outside its bounds is pinned to the bound it violates
    and the excess moves into a one-signed artificial unit column, which
    replaces the slack in the basis; the objective is the artificials' total
    magnitude. The augmented form is new, so st.sf stays untouched.
    """
    sf = st.sf
    slack = st.basis
    v = st.x[slack]
    up = v > st.ub[slack] + tol
    rows = np.flatnonzero(up | (v < st.lb[slack] - tol))
    if rows.size == 0:
        return None
    k, up, width = rows.size, up[rows], sf.A.shape[1]
    st.B_inv = None                     # the slack-basis state is abandoned
    A1 = np.zeros((sf.m, width + k))
    A1[:, :width] = sf.A
    A1[rows, width + np.arange(k)] = 1.0
    sf1 = _StandardForm(A1, sf.b, np.concatenate([sf.c, np.zeros(k)]),
                        np.concatenate([st.lb, np.where(up, 0.0, -INF)]),
                        np.concatenate([st.ub, np.where(up, INF, 0.0)]), sf.n)
    pinned = slack[rows]
    pin = np.where(up, st.ub[pinned], st.lb[pinned])
    x1 = np.concatenate([st.x, st.x[pinned] - pin])
    x1[pinned] = pin
    basis1 = slack.copy()
    basis1[rows] = width + np.arange(k)
    c1 = np.concatenate([np.zeros(width), np.where(up, 1.0, -1.0)])
    return _SimplexState(sf1, sf1.lb_base, sf1.ub_base, x1, basis1), c1


def _solve_standard(sf: _StandardForm, lb: np.ndarray, ub: np.ndarray,
                    cfg: SolverConfig) -> LPSolution:
    n = sf.n
    iter_cap = 2000 + 60 * (sf.m + n)     # scales with problem size

    st = _SimplexState(sf, lb.copy(), ub.copy())
    phase_one = _phase_one(st, cfg.feasibility_tol)
    if phase_one is not None:
        st, c1 = phase_one
        status = _iterate(st, c1, iter_cap)
        if status != OPTIMAL:
            # an unbounded phase 1 can only come from numerical trouble
            return LPSolution(NUMERICAL if status == UNBOUNDED else status,
                              None, None, st.iterations)
        infeas = float(c1 @ st.x)
        if infeas > cfg.feasibility_tol * max(1.0, float(np.abs(sf.b).max(initial=0.0))):
            return LPSolution(INFEASIBLE, None, None, st.iterations)
        # lock artificials at zero and continue with the real objective
        art = slice(sf.A.shape[1], None)
        st.lb[art] = st.ub[art] = 0.0
        st.x[art] = np.where(np.abs(st.x[art]) < 1e-9, 0.0, st.x[art])

    status = _iterate(st, st.sf.c, iter_cap)
    if status != OPTIMAL:
        return LPSolution(status, None, None, st.iterations)
    st.refactor()
    x = st.x[:n].copy()
    return LPSolution(OPTIMAL, x, float(sf.c[:n] @ x), st.iterations)


def solve_lp(lp: LinearProgram, cfg: SolverConfig | None = None) -> LPSolution:
    """Solve the LP to optimality. Deterministic for identical input."""
    cfg = cfg or SolverConfig()
    sf = _StandardForm.from_lp(lp)
    return _solve_standard(sf, sf.lb_base, sf.ub_base, cfg)


# ---------------------------------------------------------------------------
# branch and bound


def _most_fractional(x: np.ndarray, binaries: tuple[int, ...],
                     lb: np.ndarray, ub: np.ndarray, tol: float) -> int:
    best_j = -1
    best_f = tol
    for j in binaries:
        if ub[j] - lb[j] < 0.5:       # fixed by bounds
            continue
        f = min(x[j], 1.0 - x[j])
        if f > best_f + 1e-15:
            best_f = f
            best_j = j
    return best_j


def solve_milp(mip: MILProblem, cfg: SolverConfig | None = None) -> MILPSolution:
    """Branch and bound over the binaries, in rounds of kept rows (module doc)."""
    cfg = cfg or SolverConfig()
    lp = mip.lp
    for j in mip.binaries:
        if lp.lb[j] < -1e-12 or lp.ub[j] > 1 + 1e-12:
            raise ValueError(f"binary variable {lp.names[j]} must have bounds within [0, 1]")
    lazy = np.asarray(mip.lazy, dtype=np.intp)
    seed = np.asarray(mip.seed, dtype=np.intp)
    if ((lazy < 0) | (lazy >= lp.n_rows)).any():
        raise ValueError(f"lazy rows must lie in [0, {lp.n_rows})")
    if not np.isin(seed, lazy).all():
        raise ValueError("seed rows must be lazy rows")

    keep = np.ones(lp.n_rows, dtype=bool)
    keep[lazy] = False
    keep[seed] = True
    binaries = tuple(sorted(mip.binaries))
    nodes = iterations = rounds = 0
    while True:
        rounds += 1
        kept = np.flatnonzero(keep)
        sol = _branch_and_bound(_StandardForm.from_lp(lp, kept), binaries, cfg,
                                cfg.node_limit - nodes)
        nodes += sol.nodes
        iterations += sol.lp_iterations
        sol = replace(sol, nodes=nodes, lp_iterations=iterations, rounds=rounds,
                      rows_kept=kept.size)
        if sol.x is None or kept.size == lp.n_rows:
            return sol
        violated = ~keep & _violated_rows(lp, sol.x, cfg.feasibility_tol)
        if not violated.any():
            return sol
        if sol.status != OPTIMAL:
            # an incumbent that breaks a deferred row is no point of the full problem
            return replace(sol, x=None, objective=None, gap=INF)
        keep |= violated


def _violated_rows(lp: LinearProgram, x: np.ndarray, feas_tol: float) -> np.ndarray:
    """Mask of the rows x violates by more than feas_tol * (1 + |rhs|)."""
    act = lp.activities(x)
    rhs = np.array(lp.rhs, dtype=float)
    tol = feas_tol * (1.0 + np.abs(rhs))
    sense = np.array(lp.sense)
    return ((sense != ">=") & (act > rhs + tol)) | ((sense != "<=") & (act < rhs - tol))


def _branch_and_bound(sf: _StandardForm, binaries: tuple[int, ...], cfg: SolverConfig,
                      node_limit: int) -> MILPSolution:
    """Best-first branch and bound over the binary variables of sf."""
    total_iters = 0
    nodes = 0
    incumbent_x: np.ndarray | None = None
    incumbent_obj = INF
    seq = 0
    # heap entries: (bound, seq, lb patch, ub patch)
    heap: list[tuple[float, int, tuple[tuple[int, float], ...], tuple[tuple[int, float], ...]]] = [
        (-INF, 0, (), ())
    ]

    def bounds_with(patch_lb, patch_ub):
        lb = sf.lb_base.copy()
        ub = sf.ub_base.copy()
        for j, v in patch_lb:
            lb[j] = v
        for j, v in patch_ub:
            ub[j] = v
        return lb, ub

    status_out = OPTIMAL
    while heap:
        node = heapq.heappop(heap)
        bound, _, patch_lb, patch_ub = node
        if bound >= incumbent_obj - 1e-9:
            continue
        if nodes >= node_limit:
            status_out = NODE_LIMIT
            heapq.heappush(heap, node)        # still open: its bound enters the gap
            break
        nodes += 1
        lb, ub = bounds_with(patch_lb, patch_ub)
        sol = _solve_standard(sf, lb, ub, cfg)
        total_iters += sol.iterations
        if sol.status == INFEASIBLE:
            continue
        if sol.status != OPTIMAL:
            return MILPSolution(sol.status, None, None, INF, nodes, total_iters)
        if sol.objective >= incumbent_obj - 1e-9:
            continue

        j_branch = _most_fractional(sol.x, binaries, lb, ub, INTEGRALITY_TOL)
        if j_branch < 0:
            # Near-integral: pin binaries to rounded values and re-solve so the
            # incumbent satisfies the indicator logic exactly. If every binary
            # was fixed there already, the pinned LP is this node's LP.
            pins = [(j, float(round(float(sol.x[j])))) for j in binaries]
            if all(lb[j] == v == ub[j] for j, v in pins):
                polished = sol
            else:
                lb2, ub2 = lb.copy(), ub.copy()
                for j, v in pins:
                    lb2[j] = ub2[j] = v
                polished = _solve_standard(sf, lb2, ub2, cfg)
                total_iters += polished.iterations
            if polished.status == OPTIMAL:
                if polished.objective < incumbent_obj - 1e-9:
                    incumbent_obj = polished.objective
                    incumbent_x = polished.x
                continue
            # rounding killed feasibility; force explicit branching on the
            # first free binary to make progress
            j_branch = next((j for j in binaries if ub[j] - lb[j] >= 0.5), -1)
            if j_branch < 0:
                continue
        seq += 1
        heapq.heappush(heap, (sol.objective, seq,
                              patch_lb, patch_ub + ((j_branch, 0.0),)))
        seq += 1
        heapq.heappush(heap, (sol.objective, seq,
                              patch_lb + ((j_branch, 1.0),), patch_ub))

    if incumbent_x is None:
        status = NODE_LIMIT if status_out == NODE_LIMIT else INFEASIBLE
        return MILPSolution(status, None, None, INF, nodes, total_iters)
    remaining = min((b for b, *_ in heap), default=incumbent_obj)
    gap = max(0.0, incumbent_obj - min(remaining, incumbent_obj))
    return MILPSolution(status_out, incumbent_x, incumbent_obj, gap, nodes, total_iters)
