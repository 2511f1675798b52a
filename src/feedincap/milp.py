"""MILP solving: rows kept row-compressed, each scal span solved by elimination.

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

A span's LP has every row of lp but those its fixings deactivate: a binary's
on row holds only where it is 1 and its off row only where it is 0, with no
big-M (indicator rows: Bonami, Lodi, Tramontani & Wiese, Math. Programming
151, 2015). Those are freed to (-inf, inf); no row is deferred.
node_limit counts LP solves; the gap at the limit is the incumbent less the
least bound of the spans still open.

Each span's LP is solved by elimination, the singleton-row and
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
2. When some lower bound of a variable meets or crosses some upper bound at
   both ends of the span, the variable equals that lower bound: lower minus
   upper is affine in s, so it is at least minus the rounding allowance all
   along the span, and the variable can meet both only where they coincide.
   Any such pair will do, not only the tightest: the last step enforces
   every row and bound again, so a pair that crosses by more than
   feasibility_tol rules the span out there. "Meets" allows for rounding: 8
   ulps of the magnitudes each bound was computed from (a row's bound and
   the |a_k * x_k| of its written terms, divided by |a|), plus the rounding
   those terms inherit. That is about 1e-15 relative, far below
   feasibility_tol.
Once every variable is alpha + beta * s, each row and each variable bound
is an interval on s; this last step is the one that reads every entry. A
side met at both ends of the span to within its own rounding (as above)
cuts nothing; any other cuts the span at its root, clipped to the span.
The objective is affine in s too, so the best end of the intersection is
the optimum, with x = alpha + beta * s there: a vertex of the span's LP.
The span is infeasible when that end breaks some side by more than
feasibility_tol * (1 + |bound|); an intersection that crossed by less gives
its end.
A span that leaves a variable undecided, or a scal without finite bounds,
ends the search with the status UNDECIDED and no x: solve_milp has no other
LP method. Every span of every LP build_problem makes for the shipped
fixtures and the tests' random grids is decided.

LinearProgram keeps its rows once, row-compressed (indptr, indices, data,
row_lo, row_hi); the model builder appends them a block at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

INF = float("inf")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NODE_LIMIT = "node_limit"
UNDECIDED = "undecided"    # a span elimination cannot decide (module doc)

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
    bounds from their premises; it does not read theirs in lp. Row on_rows[i]
    holds only where binaries[i] is 1, row off_rows[i] only where it is 0.
    Where a premise is exactly 0, both values of its binary, each with the
    rows it holds, must give the same feasible points."""

    lp: LinearProgram
    binaries: tuple[int, ...] = ()
    scal: int | None = None           # the variable every premise is affine in
    slope: Sequence[float] = ()
    inter: Sequence[float] = ()
    on_rows: Sequence[int] = ()       # one lp row per binary, or empty for none
    off_rows: Sequence[int] = ()


@dataclass
class MILPSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    gap: float
    nodes: int
    lp_iterations: int = 0            # always 0: no span's LP is solved by iteration


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
    one exact LP per span, solved by elimination down to scal (module doc). A
    span elimination cannot decide ends the search as UNDECIDED."""
    cfg = cfg or SolverConfig()
    lp, scal = mip.lp, mip.scal
    binaries = _indices(mip.binaries, "binaries", "variable", lp.n_vars)
    gates = [(_indices(rows, name, "row", lp.n_rows), name == "on_rows") for name, rows
             in (("on_rows", mip.on_rows), ("off_rows", mip.off_rows)) if len(rows)]
    if any(rows.shape != binaries.shape for rows, _ in gates):
        raise ValueError("on_rows and off_rows need one row per binary, or none")
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
    ordered = np.sort(binaries)
    if (ordered[1:] == ordered[:-1]).any() or (binaries == scal).any():
        raise ValueError("binaries must be distinct and must not include scal")

    obj = np.asarray(lp.obj, dtype=float)
    lb0, ub0 = np.asarray(lp.lb, dtype=float), np.asarray(lp.ub, dtype=float)
    row_bounds = np.array([lp.row_lo, lp.row_hi])
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

    nodes = 0
    incumbent_x: np.ndarray | None = None
    incumbent_obj = INF
    status = OPTIMAL

    while spans and bound[spans[-1]] < incumbent_obj - 1e-9:
        if nodes >= cfg.node_limit:
            status = NODE_LIMIT
            break
        nodes += 1
        k = spans.pop()
        lb, ub = lb0.copy(), ub0.copy()
        if scal is not None:
            lb[scal], ub[scal] = span_lo[k], span_hi[k]
        lb[binaries] = ub[binaries] = on = inter + slope * mid[k] >= 0.0
        rows = row_bounds.copy()
        for gated, held in gates:             # free the rows the fixings deactivate
            rows[:, gated[on != held]] = [[-INF], [INF]]
        span_status, x = _eliminate(lp, obj, lb, ub, *rows, scal, cfg.feasibility_tol)
        if span_status == INFEASIBLE:
            continue
        if span_status == UNDECIDED:
            return MILPSolution(UNDECIDED, None, None, INF, nodes)
        objective = float(obj @ x)
        if objective < incumbent_obj - 1e-9:
            incumbent_obj, incumbent_x = objective, x

    if incumbent_x is None:
        return MILPSolution(status if status == NODE_LIMIT else INFEASIBLE, None, None, INF,
                            nodes)
    gap = incumbent_obj - bound[spans[-1]] if status == NODE_LIMIT else 0.0
    return MILPSolution(status, incumbent_x, incumbent_obj, gap, nodes)


def _indices(values, name: str, what: str, n: int) -> np.ndarray:
    """values as an index array, each an integer in [0, n)."""
    out = np.asarray(values)
    if out.size and not np.issubdtype(out.dtype, np.integer):
        raise ValueError(f"{name} must be integer {what} indices, got {values!r}")
    if ((out < 0) | (out >= n)).any():
        raise ValueError(f"{name} must lie in [0, {n})")
    return out.astype(np.intp)


def _eliminate(lp: LinearProgram, obj: np.ndarray, lb: np.ndarray, ub: np.ndarray,
               lo: np.ndarray, hi: np.ndarray, scal: int | None,
               tol: float) -> tuple[str, np.ndarray | None]:
    """The LP min obj @ x over lp's rows, within lo and hi, and lb <= x <= ub,
    solved by writing every variable as alpha + beta * s, s the scal variable
    within its bounds (module doc).

    Returns (OPTIMAL, the optimum x) or (INFEASIBLE, None), and (UNDECIDED,
    None) when the rules leave a variable undecided or scal's range is not
    finite (no scal: s ranges over the point 0).
    """
    ptr, cols, coef, _, _, pos = lp._arrays()
    m, n = lo.size, obj.size
    ends = np.zeros(2) if scal is None else np.array([lb[scal], ub[scal]])
    if not np.isfinite(ends).all():
        return UNDECIDED, None
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
        # rule 2: any lower bound of a variable that meets or crosses one of its upper
        # bounds at both ends decides it; pair each lower bound with every upper bound
        # of its variable
        finite = np.isfinite(al)
        low, up = np.flatnonzero(lower & finite), np.flatnonzero(~lower & finite)
        up = up[np.argsort(var[up], kind="stable")]
        first = np.searchsorted(var[up], var[low])
        count = np.searchsorted(var[up], var[low], side="right") - first
        li = np.repeat(low, count)
        ui = up[np.repeat(first - np.cumsum(count) + count, count) + np.arange(li.size)]
        slack = (ROUND_TOL * (1.0 + np.maximum(np.abs(at[li]), np.abs(at[ui])))
                 + (er[li] + er[ui])[:, None])
        li = li[(at[li] - at[ui] >= -slack).all(axis=1)]
        if li.size == 0:
            return UNDECIDED, None
        pair = np.full(n, li.size)            # each variable's first deciding pair
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
    # an intersection that crossed by less gives its end
    if (c0 + c1 * s > tol * (1.0 + np.abs(bnd))).any():
        return INFEASIBLE, None
    return OPTIMAL, alpha + beta * s
