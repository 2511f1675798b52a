"""LP and MILP solving: rows kept row-compressed, solved column-compressed.

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

solve_milp searches the scal range for indicator binaries whose premises are
affine in one variable, scal. The premise roots of the binaries left free on
scal's range cut it into spans; on a span every premise keeps one sign, so
fixing each binary at its sign at the span's midpoint makes the span one
exact LP. A span's bound is the least objective within its variable bounds.
The spans are solved best bound first (ties to the lower span) until the
next bound cannot beat the incumbent: best-first branch and bound with
bounds from the variable bounds alone (Land & Doig, Econometrica 28(3),
1960). The premises are the only statement of the rule:
- solve_milp decides every binary from its premise slope[i] * scal +
  inter[i] (>= 0 -> 1, < 0 -> 0), so a span's LP is exact whatever the rows
  say.
- The caller must make both values of a binary give the same feasible
  points where its premise is exactly 0, which is where two spans meet.

A span's LP has every row of lp; no row is left out or deferred.
node_limit counts LP solves; the gap at the limit is the incumbent less the
least bound of the spans still open.

Each span's LP is first solved by elimination, the singleton-row and
doubleton-equation reductions of LP presolve (Andersen & Andersen, Math.
Programming 71, 1995; Gondzio, INFORMS J. Computing 9(1), 1997) applied
until nothing changes. With every binary fixed, a span's LP is a
one-variable problem in disguise. scal is written s = 0 + 1 * s and each
fixed variable as its bound; then two rules repeat:
1. A row with one variable not yet written in s bounds that variable by
   affine functions of s: with the written terms moved to its bounds,
   lo <= a * x_j + (A + B * s) <= hi says exactly (lo - A - B * s) / a <=
   x_j <= (hi - A - B * s) / a (ends swapped for a < 0). The variable's own
   bounds are constant such functions. Each round counts open entries in
   an index of them that shrinks as variables are written, and sums the
   written terms over the entries of the rows it uses alone.
2. When some lower bound of a variable and some upper bound coincide at
   both ends of the span, the variable equals that affine function (the
   lower one is taken): two affine functions equal at both ends are equal
   between them. Any coinciding pair will do, not only the tightest: every
   row is still enforced in the last step. "Coincide" allows for rounding:
   8 ulps of the magnitudes each bound was computed from (a row's bound and
   the |a_k * x_k| of its written terms, divided by |a|), plus the rounding
   those terms inherit. That is about 1e-15 relative, far below
   feasibility_tol, and it admits the cancellation a big-M pair leaves.
Once every variable is alpha + beta * s, each row and each variable bound
is an interval on s; this last step is the one that reads every entry. A
side met at both ends of the span to within its own rounding (as above)
cuts nothing; any other cuts the span at its root, clipped to the span.
The objective is affine in s too, so the best end of the intersection is
the optimum, with x = alpha + beta * s there: the exact vertex the simplex
would reach, up to rounding. The span is infeasible when that end breaks
some side by more than feasibility_tol * (1 + |bound|); an intersection
that crossed by less gives its end, as the simplex would.
A span that leaves a variable undecided, or a scal without finite bounds,
falls back to the simplex below, over every row under the span's bounds
(its scal interval and fixed indicators); MILPSolution counts spans (solves
decided by elimination) and fallbacks, and lp_iterations counts only the
fallbacks' pivots.

LinearProgram keeps its rows once, row-compressed (indptr, indices, data,
row_lo, row_hi); the model builder appends them a block at a time.

The standard form keeps A once, column-compressed: column pointers, row
indices and values, with the slack and phase-1 artificial unit columns
appended to the same arrays. Every product with A reads those entries: the
reduced costs c - A^T y are one bincount over them (y itself reads only
the rows of the inverse whose basic variable has a cost), FTRAN multiplies the
entering column's few entries by the matching columns of the inverse,
reconciling x sums the nonbasic entries, and a refactorization scatters the
basis columns into B. The basis inverse beside it is a dense explicit m x m
array, which the desk-scale problems here (hundreds to a few thousand
rows) afford. Once a solve is optimal, one LU solve of B, not a new
inverse, settles the basic values.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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
ROUND_TOL = 8 * 2.0**-52   # 8 ulps: relative rounding in elimination, far below
                           # feasibility_tol


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


class LinearProgram:
    """An LP whose rows are kept once, row-compressed; variables are added
    before rows.

    Row i is row_lo[i] <= sum(data[k] * x[indices[k]]) <= row_hi[i] over the
    entries k in indptr[i]:indptr[i+1], its variables ascending and unique,
    with at least one bound finite (lo == hi for an equality). add_rows
    appends a block of rows and add_row one; the blocks are joined into these
    arrays when they are next read, so building an LP copies each entry
    about once.
    """

    def __init__(self) -> None:
        self.obj: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.names: list[str] = []
        self.row_names: list[str] = []
        self._blocks: list[tuple[np.ndarray, ...]] = []     # appended, not yet joined
        self._csr = (np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0),
                     np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.intp))

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    def _arrays(self) -> tuple[np.ndarray, ...]:
        """indptr, indices, data, row_lo, row_hi and the row of each entry."""
        if self._blocks:
            counts, *parts = zip(*self._blocks)
            ptr, *joined, _ = self._csr
            ptr = np.concatenate([ptr, ptr[-1] + np.cumsum(np.concatenate(counts))])
            joined = [np.concatenate([a, *b]) for a, b in zip(joined, parts)]
            self._csr = (ptr, *joined, np.repeat(np.arange(ptr.size - 1), np.diff(ptr)))
            self._blocks = []
        return self._csr

    indptr = property(lambda self: self._arrays()[0])
    indices = property(lambda self: self._arrays()[1])
    data = property(lambda self: self._arrays()[2])
    row_lo = property(lambda self: self._arrays()[3])
    row_hi = property(lambda self: self._arrays()[4])

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0) -> int:
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        self.names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        return len(self.obj) - 1

    def add_rows(self, at, idx, coef, lo, hi, names: Sequence[str] = ()) -> int:
        """Append the rows lo[i] <= sum(coef[k] * x[idx[k]] for at[k] == i) <=
        hi[i]: entry k of the block lies in its row at[k]. The entries may come
        in any order; each row's are sorted by variable, range-checked and
        unique. Returns the index of the block's first row."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        first, m = self.n_rows, lo.size
        names = list(names) or [f"r{first + i}" for i in range(m)]
        if lo.shape != (m,) or hi.shape != (m,) or len(names) != m:
            raise ValueError(f"block at row {first}: need one lo, hi and name per row")
        bad = ~((lo <= hi) & (np.isfinite(lo) | np.isfinite(hi)))     # also catches NaN
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {names[i]!r}: bounds [{lo[i]}, {hi[i]}] "
                             "need lo <= hi, one finite")
        at, idx = np.asarray(at, dtype=np.intp), np.asarray(idx, dtype=np.intp)
        coef = np.asarray(coef, dtype=float)
        if idx.ndim != 1 or not idx.shape == coef.shape == at.shape:
            raise ValueError(f"block at row {first}: at, idx and coef must be 1-d of one length")
        if ((at < 0) | (at >= m)).any():
            raise ValueError(f"block at row {first}: at must name one of its {m} rows")
        if not ((at[1:] > at[:-1]) | ((at[1:] == at[:-1]) & (idx[1:] > idx[:-1]))).all():
            order = np.lexsort((idx, at))
            at, idx, coef = at[order], idx[order], coef[order]
            repeated = (at[1:] == at[:-1]) & (idx[1:] == idx[:-1])
            if repeated.any():
                k = int(np.argmax(repeated))
                raise ValueError(f"row {names[at[k]]!r} repeats variable {idx[k]}")
        unknown = (idx < 0) | (idx >= self.n_vars)
        if unknown.any():
            k = int(np.argmax(unknown))
            raise ValueError(f"row {names[at[k]]!r} references unknown variable {idx[k]}")
        self._blocks.append((np.bincount(at, minlength=m), idx, coef, lo, hi))
        self.row_names += names
        return first

    def add_row(self, idx, coef, lo: float, hi: float, name: str = "") -> int:
        """Append lo <= sum(coef * x[idx]) <= hi, a block of one row."""
        idx = np.asarray(idx, dtype=np.intp)
        return self.add_rows(np.zeros(idx.shape, dtype=np.intp), idx, coef, [lo], [hi],
                             [name] if name else ())

    def _entries(self, rows: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row position, variable index and coefficient of every entry of the
        given rows (default all), rows in order and each row's entries in
        variable order; positions count within rows."""
        ptr, idx, data, _, _, entry_row = self._arrays()
        if rows is None:
            return entry_row, idx, data
        rows = np.asarray(rows, dtype=np.intp)
        counts = ptr[rows + 1] - ptr[rows]
        pos = np.repeat(np.arange(rows.size), counts)
        k = np.arange(pos.size) + np.repeat(ptr[rows] - (np.cumsum(counts) - counts), counts)
        return pos, idx[k], data[k]

    def activities(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Each given row's (default every row's) activity at x."""
        # bincount adds each row's products in entry order, as a running sum would
        pos, cols, coef = self._entries(rows)
        m = self.n_rows if rows is None else len(rows)
        out = np.bincount(pos, weights=coef * x[cols], minlength=m)
        return out.astype(float, copy=False)     # integer when there are no entries


@dataclass
class MILProblem:
    """lp with indicator binaries: the premise of binaries[i] is
    slope[i] * x[scal] + inter[i] (module doc). solve_milp sets the binaries'
    bounds from their premises; it does not read theirs in lp. Where a
    premise is exactly 0, both values of its binary must give lp the same
    feasible points."""

    lp: LinearProgram
    binaries: tuple[int, ...] = ()
    scal: int | None = None           # the variable every premise is affine in
    slope: Sequence[float] = ()
    inter: Sequence[float] = ()


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
    spans: int = 0                    # LP solves decided by elimination
    fallbacks: int = 0                # LP solves left to the simplex


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
        return cls.of_rows(*lp._entries(rows), lp.row_lo[rows], lp.row_hi[rows],
                           np.asarray(lp.obj, dtype=float), np.asarray(lp.lb, dtype=float),
                           np.asarray(lp.ub, dtype=float))

    @classmethod
    def of_rows(cls, pos: np.ndarray, cols: np.ndarray, coef: np.ndarray, lo: np.ndarray,
                hi: np.ndarray, obj: np.ndarray, lb: np.ndarray, ub: np.ndarray
                ) -> "_StandardForm":
        """The form of the rows lo <= A x <= hi whose entries are A[pos, cols] =
        coef (rows in order, each row's entries by variable), under the
        variable bounds lb, ub and the objective obj."""
        m, n = lo.size, obj.size
        order = np.argsort(cols, kind="stable")       # by column, rows stay ascending
        ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
        upper = hi < INF
        b = np.where(upper, hi, lo)
        slack_lb = np.where(upper, 0.0, -INF)
        slack_ub = np.where(upper, hi - lo, 0.0)
        return cls(*_with_unit_columns(ptr, pos[order], coef[order], np.arange(m)), b,
                   np.concatenate([obj, np.zeros(m)]), np.concatenate([lb, slack_lb]),
                   np.concatenate([ub, slack_ub]), n)

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
    """Best-first search over the scal spans between the free premise roots,
    one exact LP per span, solved by elimination down to scal or else by the
    simplex (module doc)."""
    cfg = cfg or SolverConfig()
    lp, scal = mip.lp, mip.scal
    binaries = np.asarray(mip.binaries)
    if binaries.size and not np.issubdtype(binaries.dtype, np.integer):
        raise ValueError(f"binaries must be integer variable indices, got {mip.binaries!r}")
    binaries = binaries.astype(np.intp)
    slope = np.asarray(mip.slope, dtype=float)
    inter = np.asarray(mip.inter, dtype=float)
    if (binaries.size and scal is None) or not binaries.shape == slope.shape == inter.shape:
        raise ValueError("every binary needs a premise: a scal variable, and slope "
                         "and inter with one entry per binary")
    if not (np.isfinite(slope).all() and np.isfinite(inter).all()):
        raise ValueError("premise slope and inter must be finite")
    if scal is not None and not (isinstance(scal, (int, np.integer))
                                 and 0 <= scal < lp.n_vars):
        raise ValueError(f"scal must name one of the {lp.n_vars} variables, got {scal}")
    if ((binaries < 0) | (binaries >= lp.n_vars)).any():
        raise ValueError(f"binaries must lie in [0, {lp.n_vars})")
    ordered = np.sort(binaries)
    if (ordered[1:] == ordered[:-1]).any() or (binaries == scal).any():
        raise ValueError("binaries must be distinct and must not include scal")

    obj = np.asarray(lp.obj, dtype=float)
    lb0, ub0 = np.asarray(lp.lb, dtype=float), np.asarray(lp.ub, dtype=float)
    lo, hi = (0.0, 0.0) if scal is None else (lb0[scal], ub0[scal])
    a_lo, a_hi = indicator_bounds(slope, inter, lo, hi)
    free = a_lo < a_hi
    edges = np.concatenate([[lo], np.sort(np.clip(-inter[free] / slope[free], lo, hi)), [hi]])
    wide = (edges[1:] > edges[:-1]) | (lo == hi)     # a repeated edge bounds no span,
                                                     # a point range is one
    span_lo, span_hi = edges[:-1][wide], edges[1:][wide]
    mid = (span_lo + span_hi) / 2.0           # every premise keeps one sign inside a span
    # a span's bound is the least objective within its bounds, summed over the costed
    # variables: scal lies in the span and each binary is fixed at its value there
    costed = np.flatnonzero(obj)
    c_lo, c_hi = np.tile(lb0[costed], (mid.size, 1)), np.tile(ub0[costed], (mid.size, 1))
    c_lo[:, costed == scal], c_hi[:, costed == scal] = span_lo[:, None], span_hi[:, None]
    slot = np.full(obj.size, -1)
    slot[binaries] = np.arange(binaries.size)
    b = slot[costed]                          # the position among the binaries, or -1
    c_lo[:, b >= 0] = c_hi[:, b >= 0] = inter[b[b >= 0]] + slope[b[b >= 0]] * mid[:, None] >= 0.0
    bound = np.minimum(obj[costed] * c_lo, obj[costed] * c_hi).sum(axis=1)
    # the spans still open, the best bound last (ties to the lower span)
    spans = np.argsort(bound, kind="stable")[::-1].tolist()

    nodes = iterations = eliminated = 0
    incumbent_x: np.ndarray | None = None
    incumbent_obj = INF
    status = OPTIMAL

    def result(status: str, x: np.ndarray | None, objective: float | None,
               gap: float) -> MILPSolution:
        return MILPSolution(status, x, objective, gap, nodes, iterations, eliminated,
                            nodes - eliminated)

    while spans and bound[spans[-1]] < incumbent_obj - 1e-9:
        if nodes >= cfg.node_limit:
            status = NODE_LIMIT
            break
        nodes += 1
        k = spans.pop()
        lb, ub = lb0.copy(), ub0.copy()
        if scal is not None:
            lb[scal], ub[scal] = span_lo[k], span_hi[k]
        lb[binaries] = ub[binaries] = inter + slope * mid[k] >= 0.0
        sol = _eliminate(lp, obj, lb, ub, scal, cfg.feasibility_tol)
        if sol is not None:
            eliminated += 1
        else:
            sf = _StandardForm.of_rows(*lp._entries(), lp.row_lo, lp.row_hi, obj, lb, ub)
            sol = _solve_standard(sf, sf.lb_base, sf.ub_base, cfg)
            iterations += sol.iterations
        if sol.status == INFEASIBLE:
            continue
        if sol.status != OPTIMAL:
            return result(sol.status, None, None, INF)
        if sol.objective < incumbent_obj - 1e-9:
            incumbent_obj, incumbent_x = sol.objective, sol.x

    if incumbent_x is None:
        return result(status if status == NODE_LIMIT else INFEASIBLE, None, None, INF)
    gap = incumbent_obj - bound[spans[-1]] if status == NODE_LIMIT else 0.0
    return result(status, incumbent_x, incumbent_obj, gap)


def _eliminate(lp: LinearProgram, obj: np.ndarray, lb: np.ndarray, ub: np.ndarray,
               scal: int | None, tol: float) -> LPSolution | None:
    """The LP min obj @ x over lp's rows and lb <= x <= ub, solved by writing
    every variable as alpha + beta * s, s the scal variable within its bounds
    (module doc).

    Returns None when the rules leave a variable undecided or scal's range is
    not finite (no scal: s ranges over the point 0).
    """
    ptr, cols, coef, lo, hi, pos = lp._arrays()
    m, n = lo.size, obj.size
    ends = np.zeros(2) if scal is None else np.array([lb[scal], ub[scal]])
    if not np.isfinite(ends).all():
        return None
    known = (lb == ub) & np.isfinite(lb)      # a fixed variable is its bound
    alpha, beta = np.where(known, lb, 0.0), np.zeros(n)
    err = np.zeros(n)                         # bounds the rounding in alpha + beta * s
    if scal is not None:
        known[scal], alpha[scal], beta[scal] = True, 0.0, 1.0

    def written(e: np.ndarray | slice = slice(None)) -> tuple[np.ndarray, ...]:
        """Per row, summed in entry order over the written variables among the
        entries e (an open one has alpha = beta = err = 0): coef * alpha,
        coef * beta and |coef| times the variable's rounding, 8 ulps of its
        largest |x| on the span plus err; then each variable's rounding."""
        x_err = ROUND_TOL * np.abs(alpha + beta * ends[:, None]).max(axis=0) + err
        p, c, a = pos[e], cols[e], coef[e]
        return (*(np.bincount(p, w[c] * f, minlength=m) for w, f in
                  ((alpha, a), (beta, a), (x_err, np.abs(a)))), x_err)

    live = np.flatnonzero(~known[cols] & (coef != 0.0))    # open variables' nonzero entries
    while not known.all():
        # rule 1: a row with one open variable bounds it by affine functions of s
        at_row = pos[live]
        k = live[(np.bincount(at_row, minlength=m) == 1)[at_row]]
        r, j, a = pos[k], cols[k], coef[k]     # r ascending, each row once
        counts = ptr[r + 1] - ptr[r]
        e = np.arange(counts.sum()) + np.repeat(ptr[r] - np.cumsum(counts) + counts, counts)
        rest_a, rest_b, rest_err = (w[r] for w in written(e)[:3])
        v = np.flatnonzero(~known)
        var = np.concatenate([j, j, v, v])
        al = np.concatenate([(lo[r] - rest_a) / a, (hi[r] - rest_a) / a, lb[v], ub[v]])
        be = np.concatenate([-rest_b / a, -rest_b / a, np.zeros(2 * v.size)])
        er = np.concatenate([(ROUND_TOL * (1.0 + np.abs(side)) + rest_err) / np.abs(a)
                             for side in (lo[r], hi[r])] + [np.zeros(2 * v.size)])
        lower = np.concatenate([a > 0.0, a < 0.0, np.ones(v.size, bool),
                                np.zeros(v.size, bool)])
        at = al[:, None] + be[:, None] * ends          # each bound at both span ends
        # rule 2: any lower and upper bound of one variable that coincide at both
        # ends decide it; pair each lower bound with every upper bound of its variable
        finite = np.isfinite(al)
        low, up = np.flatnonzero(lower & finite), np.flatnonzero(~lower & finite)
        up = up[np.argsort(var[up], kind="stable")]
        first = np.searchsorted(var[up], var[low])
        count = np.searchsorted(var[up], var[low], side="right") - first
        li = np.repeat(low, count)
        ui = up[np.repeat(first - np.cumsum(count) + count, count) + np.arange(li.size)]
        slack = (ROUND_TOL * (1.0 + np.maximum(np.abs(at[li]), np.abs(at[ui])))
                 + (er[li] + er[ui])[:, None])
        li = li[(np.abs(at[li] - at[ui]) <= slack).all(axis=1)]
        if li.size == 0:
            return None
        pair = np.full(n, li.size)            # each variable's first coinciding pair
        np.minimum.at(pair, var[li], np.arange(li.size))
        decided = np.flatnonzero(pair < li.size)
        pick = li[pair[decided]]
        alpha[decided], beta[decided], err[decided] = al[pick], be[pick], er[pick]
        known[decided] = True
        live = live[~known[cols[live]]]

    # every row and variable bound is now an interval on s: each finite side is
    # g(s) = c0 + c1 * s <= 0, g = activity - hi or lo - activity
    act_a, act_b, act_err, x_err = written()
    bnd = np.concatenate([hi, ub, lo, lb])
    c0 = np.concatenate([act_a - hi, alpha - ub, lo - act_a, lb - alpha])
    c1 = np.concatenate([act_b, beta, -act_b, -beta])
    noise = ROUND_TOL * (1.0 + np.abs(bnd)) + np.tile(np.concatenate([act_err, x_err]), 2)
    # a side met at both ends to within its rounding cuts nothing; any other cuts
    # the span at its root, clipped to the span
    cuts = np.isfinite(bnd) & (np.maximum(c0 + c1 * ends[0], c0 + c1 * ends[1]) > noise)
    c0, c1, bnd = c0[cuts], c1[cuts], bnd[cuts]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.clip(-c0 / c1, ends[0], ends[1])
    s_lo = root[c1 < 0.0].max(initial=ends[0])
    s_hi = root[c1 > 0.0].min(initial=ends[1])
    s = s_hi if obj @ beta < 0.0 else s_lo
    # the best end must meet every side within feasibility_tol * (1 + |bound|);
    # an intersection that crossed by less gives a point the simplex accepts too
    if (c0 + c1 * s > tol * (1.0 + np.abs(bnd))).any():
        return LPSolution(INFEASIBLE, None, None, 0)
    x = alpha + beta * s
    return LPSolution(OPTIMAL, x, float(obj @ x), 0)
