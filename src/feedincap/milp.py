"""LP and MILP solving on a column-compressed constraint matrix.

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

solve_milp is best-first branch and bound for indicator binaries whose
premises are affine in one variable, scal: binary i is 1 where slope[i] *
scal + inter[i] >= 0 and 0 where it is < 0, as the LP's own rows must enforce.
A node is a scal interval plus the indicators forced by earlier splits, and
indicator_bounds fixes every indicator whose premise keeps one sign on it. A
node with none left undecided is an exact LP and a candidate incumbent; any
other splits at the premise root t of its undecided indicators nearest the
node's LP value of scal (ties to the lower index) into [lo, t] and [t, hi],
each child forcing that indicator to its side's value (the LP rows then keep
out any point where that value is wrong). Children inherit the parent LP
objective as their bound.

solve_milp may defer rows. MILProblem.lazy names rows the solve may leave
out; the standard form holds the kept rows only, at first every row not in
lazy. A leaf's answer is checked against every row of the LP: deferred rows
it violates on either side by more than feasibility_tol * (1 + |bound|) join
the kept rows, the standard form is rebuilt, and the leaf goes back on the
heap with its bound to be solved again. Only a leaf that violates none becomes the
incumbent. Dropping rows only relaxes the problem, so every bound, infeasible
node and gap still holds for the full problem. node_limit counts LP solves,
re-solves included.

The standard form keeps A once, column-compressed: column pointers, row
indices and values, with the slack and phase-1 artificial unit columns
appended to the same arrays. Every product with A reads those entries: the
reduced costs c - A^T y are one bincount over them (y itself reads only
the rows of the inverse whose basic variable has a cost), FTRAN multiplies the
entering column's few entries by the matching columns of the inverse,
reconciling x sums the nonbasic entries, and a refactorization scatters the
basis columns into B. The basis inverse beside it is a dense explicit m x m
array, which the desk-scale problems here (hundreds to a few thousand kept
rows) afford. Once a solve is optimal, one LU solve of B, not a new
inverse, settles the basic values.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
NODE_LIMIT = "node_limit"
NUMERICAL = "numerical"


OPTIMALITY_TOL = 1e-7      # reduced-cost threshold for an entering column
REFACTOR_EVERY = 512       # pivots between full re-inversions of the basis: a
                           # re-inversion costs O(m^3) and fills the hypersparse
                           # inverse with roundoff, while 300 pivots drift ~1e-11
BLAND_AFTER = 40           # degenerate pivots in a row before Bland's rule


@dataclass(frozen=True)
class SolverConfig:
    feasibility_tol: float = 1e-7
    scal_max: float = 1000.0
    node_limit: int = 100_000

    def __post_init__(self) -> None:
        # not (0 < v < inf) also catches NaN
        for name in ("scal_max", "feasibility_tol"):
            if not 0.0 < getattr(self, name) < INF:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not self.node_limit >= 1:
            raise ValueError(f"node_limit must be >= 1, got {self.node_limit}")


@dataclass
class LinearProgram:
    """Column-oriented LP container; variables are added before rows. Row i is
    row_lo[i] <= sum(row_coef[i] * x[row_idx[i]]) <= row_hi[i], with at least
    one bound finite (lo == hi for an equality); rows may share arrays."""

    obj: list[float] = field(default_factory=list)
    lb: list[float] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    row_idx: list[np.ndarray] = field(default_factory=list)
    row_coef: list[np.ndarray] = field(default_factory=list)
    row_lo: list[float] = field(default_factory=list)
    row_hi: list[float] = field(default_factory=list)
    row_names: list[str] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.row_hi)

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0) -> int:
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        self.names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        return len(self.obj) - 1

    def add_row(self, idx, coef, lo: float, hi: float, name: str = "") -> int:
        """Append lo <= sum(coef * x[idx]) <= hi; idx is sorted (coef with it),
        range-checked and unique."""
        lo, hi = float(lo), float(hi)
        if not (lo <= hi and (-INF < lo < INF or -INF < hi < INF)):     # also catches NaN
            raise ValueError(f"row {name!r}: bounds [{lo}, {hi}] need lo <= hi, one finite")
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
        self.row_lo.append(lo)
        self.row_hi.append(hi)
        self.row_names.append(name or f"r{len(self.row_names)}")
        return len(self.row_hi) - 1

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
    """lp with indicator binaries: the premise of binaries[i] is
    slope[i] * x[scal] + inter[i] (module doc). solve_milp sets the binaries'
    bounds from their premises; it does not read theirs in lp."""

    lp: LinearProgram
    binaries: tuple[int, ...] = ()
    scal: int | None = None           # the variable every premise is affine in
    slope: Sequence[float] = ()
    inter: Sequence[float] = ()
    lazy: Sequence[int] = ()          # rows the solve may leave out until violated


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
    rounds: int = 1                   # sets of kept rows: 1 + the times rows joined
    rows_kept: int = 0                # rows of the final kept set


# ---------------------------------------------------------------------------
# standard form + simplex core


class _StandardForm:
    """Ax = b with bounds: n variables, one slack column per row, then any
    phase-1 artificials. A row's b is hi, its slack in [0, hi - lo], where hi
    is finite, else lo, its slack in (-inf, 0].

    A is column-compressed: column j's entries are rows[ptr[j]:ptr[j+1]]
    (ascending) with coefficients vals[ptr[j]:ptr[j+1]], and col[k] is the
    column of entry k.
    """

    def __init__(self, ptr: np.ndarray, rows: np.ndarray, vals: np.ndarray,
                 b: np.ndarray, c: np.ndarray, lb: np.ndarray, ub: np.ndarray, n: int):
        self.m, self.n, self.width = b.size, n, ptr.size - 1
        self.ptr, self.rows, self.vals = ptr, rows, vals
        self.col = np.repeat(np.arange(self.width), np.diff(ptr))
        self.b, self.c = b, c
        self.lb_base, self.ub_base = lb, ub

    @classmethod
    def from_lp(cls, lp: LinearProgram, rows: np.ndarray | None = None) -> "_StandardForm":
        """The form of lp's rows, or of the given ascending row indices only."""
        rows = np.arange(lp.n_rows) if rows is None else rows
        m, n = rows.size, lp.n_vars
        pos, cols, coef = lp._entries(rows)
        order = np.argsort(cols, kind="stable")       # by column, rows stay ascending
        ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
        lo, hi = np.array(lp.row_lo)[rows], np.array(lp.row_hi)[rows]
        upper = hi < INF
        b = np.where(upper, hi, lo)
        slack_lb = np.where(upper, 0.0, -INF)
        slack_ub = np.where(upper, hi - lo, 0.0)
        return cls(*_with_unit_columns(ptr, pos[order], coef[order], np.arange(m)), b,
                   np.concatenate([np.asarray(lp.obj, dtype=float), np.zeros(m)]),
                   np.concatenate([np.asarray(lp.lb, dtype=float), slack_lb]),
                   np.concatenate([np.asarray(lp.ub, dtype=float), slack_ub]),
                   n)

    def reduced_costs(self, c: np.ndarray, y: np.ndarray) -> np.ndarray:
        """c - A^T y, summed column by column over the entries."""
        return c - np.bincount(self.col, weights=self.vals * y[self.rows], minlength=self.width)


def _with_unit_columns(ptr: np.ndarray, rows: np.ndarray, vals: np.ndarray,
                       at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compressed columns with one unit column appended per row index in at."""
    return (np.concatenate([ptr, ptr[-1] + 1 + np.arange(at.size)]),
            np.concatenate([rows, at]), np.concatenate([vals, np.ones(at.size)]))


class _SimplexState:
    """A basic solution of sf under bounds lb/ub.

    Without x, nonbasic variables start at a finite bound (else 0). Without
    basis, the slack columns are basic. A given basis must consist of unit
    columns of A, so the basis inverse starts as the identity either way.
    """

    def __init__(self, sf: _StandardForm, lb: np.ndarray, ub: np.ndarray,
                 x: np.ndarray | None = None, basis: np.ndarray | None = None):
        self.sf, self.lb, self.ub = sf, lb, ub
        if x is None:
            x = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        self.x = x
        self.basis = np.arange(sf.n, sf.n + sf.m) if basis is None else basis
        self.in_basis = np.zeros(sf.width, dtype=bool)
        self.in_basis[self.basis] = True
        self.B_inv = np.eye(sf.m)
        self.iterations = 0
        self.reconcile()

    def basic_rhs(self) -> np.ndarray:
        """b - A_N x_N, what the basic variables must make up."""
        sf = self.sf
        x_n = np.where(self.in_basis, 0.0, self.x)
        return sf.b - np.bincount(sf.rows, weights=sf.vals * x_n[sf.col], minlength=sf.m)

    def basis_matrix(self) -> np.ndarray:
        """B, the basis columns of A scattered into an m x m array."""
        sf = self.sf
        slot = np.full(sf.width, -1)
        slot[self.basis] = np.arange(sf.m)
        at = slot[sf.col]
        keep = at >= 0
        B = np.zeros((sf.m, sf.m))
        B[sf.rows[keep], at[keep]] = sf.vals[keep]
        return B

    def reconcile(self) -> None:
        # Recompute basic values from nonbasic ones; kills accumulated drift.
        self.x[self.basis] = self.B_inv @ self.basic_rhs()

    def refactor(self) -> bool:
        # Drop the old inverse before inverting and B before reconciling, so
        # fewer m x m arrays are alive at once. A failed refactor leaves
        # B_inv None; every caller then abandons this state.
        B = self.basis_matrix()
        self.B_inv = None
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        del B
        self.reconcile()
        return True

    def settle(self) -> None:
        """Solve B x_B = b - A_N x_N afresh: the final clean-up of an optimal
        state, one LU solve instead of a new inverse. A singular B leaves x
        as the pivots left it."""
        try:
            self.x[self.basis] = np.linalg.solve(self.basis_matrix(), self.basic_rhs())
        except np.linalg.LinAlgError:
            pass


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
    # bounds stay put here: a nonbasic var sits at a finite lb, a finite ub or
    # is free (at 0), classified by its actual value
    movable = st.ub - st.lb > 0                 # fixed vars can never improve
    lb_fin, ub_fin = np.isfinite(st.lb), np.isfinite(st.ub)
    lb_near, ub_near = st.lb + 1e-30, st.ub - 1e-30

    while True:
        if st.iterations >= iter_cap:
            return ITERATION_LIMIT
        # y = B_inv^T c_B, read from the basis rows with a cost
        c_B = c[st.basis]
        costed = np.flatnonzero(c_B)
        d = sf.reduced_costs(c, c_B[costed] @ st.B_inv[costed])

        at_lb = lb_fin & (st.x <= lb_near)
        at_ub = ~at_lb & ub_fin & (st.x >= ub_near)
        score = np.where(at_lb, d, np.where(at_ub, -d, -np.abs(d)))
        eligible = np.flatnonzero(movable & ~st.in_basis & (score < -tol))
        if eligible.size == 0:
            return OPTIMAL
        if bland:
            j_in = int(eligible[0])
        else:
            j_in = int(eligible[np.argmin(score[eligible])])
        sigma = 1.0
        if at_ub[j_in] or (not at_lb[j_in] and d[j_in] > 0):
            sigma = -1.0

        lo, hi = sf.ptr[j_in], sf.ptr[j_in + 1]
        w = st.B_inv[:, sf.rows[lo:hi]] @ sf.vals[lo:hi]
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
    k, up, width = rows.size, up[rows], sf.width
    st.B_inv = None                     # the slack-basis state is abandoned
    sf1 = _StandardForm(*_with_unit_columns(sf.ptr, sf.rows, sf.vals, rows),
                        sf.b, np.concatenate([sf.c, np.zeros(k)]),
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
        art = slice(sf.width, None)
        st.lb[art] = st.ub[art] = 0.0
        st.x[art] = np.where(np.abs(st.x[art]) < 1e-9, 0.0, st.x[art])

    status = _iterate(st, st.sf.c, iter_cap)
    if status != OPTIMAL:
        return LPSolution(status, None, None, st.iterations)
    st.settle()
    x = st.x[:n].copy()
    return LPSolution(OPTIMAL, x, float(sf.c[:n] @ x), st.iterations)


def solve_lp(lp: LinearProgram, cfg: SolverConfig | None = None) -> LPSolution:
    """Solve the LP to optimality. Deterministic for identical input."""
    cfg = cfg or SolverConfig()
    sf = _StandardForm.from_lp(lp)
    return _solve_standard(sf, sf.lb_base, sf.ub_base, cfg)


# ---------------------------------------------------------------------------
# branch and bound


def indicator_bounds(slope, inter, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the indicators with premises slope * s + inter for s in [lo, hi]:
    (1, 1) where the premise is >= 0 at both ends, (0, 0) where it is < 0 at
    both ends, (0, 1) otherwise."""
    p_lo, p_hi = inter + slope * lo, inter + slope * hi
    return (np.where(np.minimum(p_lo, p_hi) >= 0.0, 1.0, 0.0),
            np.where(np.maximum(p_lo, p_hi) < 0.0, 0.0, 1.0))


def solve_milp(mip: MILProblem, cfg: SolverConfig | None = None) -> MILPSolution:
    """Best-first branch and bound over scal intervals; deferred rows are
    checked at the leaves (module doc)."""
    cfg = cfg or SolverConfig()
    lp, scal = mip.lp, mip.scal
    binaries = np.asarray(mip.binaries, dtype=np.intp)
    slope = np.asarray(mip.slope, dtype=float)
    inter = np.asarray(mip.inter, dtype=float)
    if (binaries.size and scal is None) or not binaries.shape == slope.shape == inter.shape:
        raise ValueError("every binary needs a premise: a scal variable, and slope "
                         "and inter with one entry per binary")
    lazy = np.asarray(mip.lazy, dtype=np.intp)
    if ((lazy < 0) | (lazy >= lp.n_rows)).any():
        raise ValueError(f"lazy rows must lie in [0, {lp.n_rows})")

    keep = np.ones(lp.n_rows, dtype=bool)
    keep[lazy] = False
    sf = _StandardForm.from_lp(lp, np.flatnonzero(keep))
    nodes = iterations = seq = 0
    rounds = 1
    incumbent_x: np.ndarray | None = None
    incumbent_obj = INF
    root = (0.0, 0.0) if scal is None else (sf.lb_base[scal], sf.ub_base[scal])
    # heap entries: (bound, seq, lo, hi, forced), forced holding (binary position, value)
    heap = [(-INF, 0, *root, ())]

    status = OPTIMAL
    while heap:
        node = heapq.heappop(heap)
        bound, _, lo, hi, forced = node
        if bound >= incumbent_obj - 1e-9:
            continue
        if nodes >= cfg.node_limit:
            status = NODE_LIMIT
            heapq.heappush(heap, node)        # still open: its bound enters the gap
            break
        nodes += 1
        a_lo, a_hi = indicator_bounds(slope, inter, lo, hi)
        for i, v in forced:
            a_lo[i] = a_hi[i] = v
        lb, ub = sf.lb_base.copy(), sf.ub_base.copy()
        if scal is not None:
            lb[scal], ub[scal] = lo, hi
        lb[binaries], ub[binaries] = a_lo, a_hi
        sol = _solve_standard(sf, lb, ub, cfg)
        iterations += sol.iterations
        if sol.status == INFEASIBLE:
            continue
        if sol.status != OPTIMAL:
            return MILPSolution(sol.status, None, None, INF, nodes, iterations, rounds, sf.m)
        if sol.objective >= incumbent_obj - 1e-9:
            continue

        undecided = np.flatnonzero(a_lo < a_hi)
        if undecided.size == 0:                # an exact LP of the kept rows
            violated = ~keep & _violated_rows(lp, sol.x, cfg.feasibility_tol)
            if violated.any():                 # keep them and solve the leaf again
                keep |= violated
                rounds += 1
                sf = _StandardForm.from_lp(lp, np.flatnonzero(keep))
                heapq.heappush(heap, node)
            else:
                incumbent_obj, incumbent_x = sol.objective, sol.x
            continue
        roots = -inter[undecided] / slope[undecided]
        k = int(np.argmin(np.abs(roots - sol.x[scal])))
        i, t = int(undecided[k]), min(max(float(roots[k]), lo), hi)
        on_right = float(slope[i] > 0.0)       # the premise is >= 0 above t
        for child_lo, child_hi, v in ((lo, t, 1.0 - on_right), (t, hi, on_right)):
            seq += 1
            heapq.heappush(heap, (sol.objective, seq, child_lo, child_hi, forced + ((i, v),)))

    if incumbent_x is None:
        return MILPSolution(status if status == NODE_LIMIT else INFEASIBLE, None, None, INF,
                            nodes, iterations, rounds, sf.m)
    remaining = min((b for b, *_ in heap), default=incumbent_obj)
    gap = max(0.0, incumbent_obj - min(remaining, incumbent_obj))
    return MILPSolution(status, incumbent_x, incumbent_obj, gap, nodes, iterations, rounds, sf.m)


def _violated_rows(lp: LinearProgram, x: np.ndarray, feas_tol: float) -> np.ndarray:
    """Mask of the rows x violates by more than feas_tol * (1 + |bound|) on
    either side (an infinite bound cannot be violated)."""
    act = lp.activities(x)
    lo, hi = np.array(lp.row_lo), np.array(lp.row_hi)
    return ((act > hi + feas_tol * (1.0 + np.abs(hi)))
            | (act < lo - feas_tol * (1.0 + np.abs(lo))))
