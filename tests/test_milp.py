from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from feedincap import milp
from feedincap.milp import (
    INF,
    LinearProgram,
    MILProblem,
    SolverConfig,
    solve_milp,
)
from feedincap.formulation import Scenario, build_problem, extract_solution
from feedincap.grid import parse_grid
from feedincap.oracle import max_scal_bisection
from util import (active_row_bounds, dump_lp, enumerate_alpha, reference_lp, row_entries,
                  valid_random_instances)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_lp_single_var_at_bound():
    # without binaries solve_milp solves the LP itself, as one span of scal
    lp = LinearProgram()
    lp.add_var("x", lb=0.0, ub=3.0, obj=-1.0)
    sol = solve_milp(MILProblem(lp, scal=0))
    assert (sol.status, sol.nodes) == ("optimal", 1)
    assert sol.x.tolist() == [3.0] and sol.objective == -3.0


def test_add_row_sorts_entries_and_rejects_unknown_variables():
    lp = LinearProgram()
    for name in "abc":
        lp.add_var(name)
    lp.add_row([2, 0], [1, np.float64(-2.0)], -INF, 1.0)
    assert [a.tolist() for a in row_entries(lp, 0)] == [[0, 2], [-2.0, 1.0]]
    lp.add_row(np.array([2, 0, 1]), np.array([3.0, 1.0, 2.0]), -1.0, INF)
    assert [a.tolist() for a in row_entries(lp, 1)] == [[0, 1, 2], [1.0, 2.0, 3.0]]
    lp.add_row([], [], 0.0, 0.0)
    assert row_entries(lp, 2)[0].size == row_entries(lp, 2)[1].size == 0
    idx, coef = np.array([0, 2], dtype=np.intp), np.array([1.0, -1.0])
    lp.add_row(idx, coef, -INF, 1.0)
    lp.add_row(idx, coef, np.float64(-1.0), 2)
    # every row lives once in the store: a row read is a view of its arrays
    assert lp.indices.dtype == np.intp and lp.data.dtype == np.float64
    for r in (3, 4):
        assert row_entries(lp, r)[0].base is lp.indices and row_entries(lp, r)[1].base is lp.data
    assert lp.indptr.tolist() == [0, 2, 5, 5, 7, 9]
    assert (lp.row_lo.tolist(), lp.row_hi.tolist()) == (
        [-INF, -1.0, 0.0, -INF, -1.0], [1.0, INF, 0.0, 1.0, 2.0])
    assert lp.row_lo.dtype == lp.row_hi.dtype == np.float64
    for bad_idx, bad in (([0, 3, 4], 3), ([-1, 1], -1), (np.array([2, 5, 0]), 5)):
        with pytest.raises(ValueError, match=f"unknown variable {bad}$"):
            lp.add_row(bad_idx, [1.0] * len(bad_idx), -INF, 0.0)
    with pytest.raises(ValueError, match="repeats variable 1$"):
        lp.add_row([1, 0, 1], [1.0, 2.0, 3.0], -INF, 0.0)
    with pytest.raises(ValueError, match="one length"):
        lp.add_row([0, 1], [1.0], -INF, 0.0)
    for lo, hi in BAD_ROW_BOUNDS:
        with pytest.raises(ValueError, match="bounds"):
            lp.add_row([0], [1.0], lo, hi)
    assert lp.n_rows == 5


def test_lp_infeasible():
    # the row bounds x >= 1 and x <= 0 cross: x is written as 1, which breaks x <= 0
    lp = LinearProgram()
    x = lp.add_var("x", lb=-INF, ub=INF, obj=1.0)
    lp.add_row([x], [1.0], 1.0, INF)
    lp.add_row([x], [1.0], -INF, 0.0)
    sol = solve_milp(MILProblem(lp))
    assert (sol.status, sol.nodes, sol.x) == ("infeasible", 1, None)
    assert reference_lp(lp)[0] == "infeasible"


def test_lp_face_optimum():
    # -x - y is -1 all along x + y = 1: the whole range of scal is optimal, and
    # its lower end is taken
    lp = LinearProgram()
    x = lp.add_var("x", ub=1.0, obj=-1.0)
    y = lp.add_var("y", obj=-1.0)
    lp.add_row([x, y], [1.0, 1.0], 1.0, 1.0)
    sol = solve_milp(MILProblem(lp, scal=x))
    assert sol.status == "optimal" and sol.objective == -1.0
    assert sol.x.tolist() == [0.0, 1.0]


def test_lp_unbounded():
    # a scal without a finite upper bound leaves its span undecided
    lp = LinearProgram()
    lp.add_var("x", lb=0.0, ub=INF, obj=-1.0)
    sol = solve_milp(MILProblem(lp, scal=0))
    assert (sol.status, sol.nodes, sol.x, sol.gap) == ("undecided", 1, None, INF)
    assert reference_lp(lp)[0] == "unbounded"


def test_lp_equality_row():
    lp = LinearProgram()
    x = lp.add_var("x", ub=10.0, obj=2.0)
    y = lp.add_var("y", obj=3.0)
    lp.add_row([x, y], [1.0, 1.0], 4.0, 4.0)
    lp.add_row([x, y], [1.0, -1.0], -INF, 2.0)
    sol = solve_milp(MILProblem(lp, scal=x))
    assert sol.status == "optimal"
    # the equality writes y = 4 - x; the cheapest split puts everything on x,
    # limited by x - y <= 2
    assert sol.x.tolist() == [3.0, 1.0]


# NaN bounds, lo > hi, and rows with no finite bound
BAD_ROW_BOUNDS = ((np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan), (1.0, 0.0), (INF, -INF),
                  (-INF, INF), (-INF, -INF), (INF, INF))


def test_lp_rejects_bad_rows():
    lp = LinearProgram()
    x = lp.add_var("x")
    for lo, hi in BAD_ROW_BOUNDS:
        with pytest.raises(ValueError, match="bounds"):
            lp.add_row([x], [1.0], lo, hi)
    with pytest.raises(ValueError):
        lp.add_row([x + 7], [1.0], -INF, 0.0)
    assert lp.n_rows == 0
    with pytest.raises(ValueError):
        lp.add_var("bad", lb=2.0, ub=1.0)


def _add_random_rows(lp: LinearProgram, rng: np.random.Generator, x0: np.ndarray,
                     ensure_feasible: bool, ranged: bool, senses=("<=", ">=", "==")) -> None:
    """Add 1-5 random rows, each of a random sense; with ensure_feasible x0
    meets them all, and with ranged each one-sided row gets a second, finite
    bound (the random draws up to it are the same)."""
    n = lp.n_vars
    for _ in range(int(rng.integers(1, 6))):
        cols = rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False)
        coef = [float(rng.normal()) for _ in cols]
        sense = senses[int(rng.integers(0, len(senses)))]
        slack = 0.0
        if ensure_feasible:
            at_x0 = sum(c * x0[j] for j, c in zip(cols, coef))
            slack = float(rng.uniform(0.0, 1.0))
            rhs = {"<=": at_x0 + slack, ">=": at_x0 - slack, "==": at_x0}[sense]
        else:
            rhs = float(rng.normal())
        lo, hi = {"<=": (-INF, rhs), ">=": (rhs, INF), "==": (rhs, rhs)}[sense]
        if ranged and sense != "==":
            # the far bound lies beyond x0's activity when ensure_feasible
            width = slack + float(rng.uniform(0.0, 2.0))
            lo, hi = (hi - width, hi) if sense == "<=" else (lo, lo + width)
        lp.add_row(cols, coef, lo, hi)


def _random_lp(rng: np.random.Generator, ensure_feasible: bool = False,
               ranged: bool = False) -> LinearProgram:
    """A random LP of one-sided and equality rows over bounded variables."""
    lp = LinearProgram()
    n = int(rng.integers(2, 7))
    for j in range(n):
        lp.add_var(f"x{j}", lb=0.0, ub=float(rng.uniform(0.5, 5.0)),
                   obj=float(rng.normal()))
    _add_random_rows(lp, rng, rng.uniform(lp.lb, lp.ub), ensure_feasible, ranged)
    return lp


def _eliminable_lp(rng: np.random.Generator, ensure_feasible: bool = False,
                   ranged: bool = False) -> LinearProgram:
    """A random LP that elimination decides: variable 0 is scal, with a finite
    range, and each later variable is defined by an equality row over it and
    up to two variables before it; then one-sided rows as in _random_lp. A
    point x0 within the bounds meets the defining rows, and with
    ensure_feasible every row."""
    lp = LinearProgram()
    lp.add_var("s", ub=float(rng.uniform(0.5, 5.0)), obj=float(rng.normal()))
    x0 = [float(rng.uniform(0.0, lp.ub[0]))]
    for j in range(1, int(rng.integers(2, 7))):
        lo, hi = -float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.5, 5.0))
        lp.add_var(f"x{j}", lb=lo, ub=hi, obj=float(rng.normal()))
        x0.append(float(rng.uniform(lo, hi)))
        cols = rng.choice(j, size=min(j, int(rng.integers(1, 3))), replace=False)
        coef = rng.normal(size=cols.size)
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        rhs = a * x0[j] + sum(c * x0[k] for k, c in zip(cols.tolist(), coef.tolist()))
        if not ensure_feasible:
            rhs += float(rng.normal())
        lp.add_row(np.append(cols, j), np.append(coef, a), rhs, rhs)
    _add_random_rows(lp, rng, np.array(x0), ensure_feasible, ranged, senses=("<=", ">="))
    return lp


def _checked_against_highs(lps: list[LinearProgram]) -> int:
    """Solve each LP by elimination, with variable 0 as scal, and with the
    HiGHS reference, assert that they agree, and return how many both solved
    to optimality."""
    checked = 0
    for lp in lps:
        sol = solve_milp(MILProblem(lp, scal=0))
        status, x = reference_lp(lp)
        assert sol.status == status
        if status == "optimal":
            want = float(np.asarray(lp.obj) @ x)
            assert abs(sol.objective - want) <= 1e-9 * (1.0 + abs(want))
            checked += 1
    return checked


def test_lp_against_scipy():
    rng = np.random.default_rng(11)
    lps = [_eliminable_lp(rng, ensure_feasible=k % 2 == 0) for k in range(60)]
    # a fixed variable in no row (an empty column) and a row with no entries
    alone, empty_row = (_eliminable_lp(rng, ensure_feasible=True) for _ in range(2))
    alone.add_var("alone", lb=2.0, ub=2.0, obj=-1.0)
    empty_row.add_row([], [], -INF, 1.0)
    assert _checked_against_highs(lps + [alone, empty_row]) >= 20
    assert solve_milp(MILProblem(alone, scal=0)).x[-1] == 2.0


def test_ranged_rows_against_scipy():
    # every one-sided row of a random LP given a second finite bound: either
    # side may cut scal's range, and the lower side may be the one that binds
    rng = np.random.default_rng(21)
    lps = [_eliminable_lp(rng, ensure_feasible=k % 2 == 0, ranged=True) for k in range(80)]
    assert sum(lo > -INF and hi < INF and lo < hi for lp in lps
               for lo, hi in zip(lp.row_lo, lp.row_hi)) >= 100
    assert _checked_against_highs(lps) >= 30


def _lp_with_empty_ranges(rng: np.random.Generator) -> LinearProgram:
    """A random LP plus a variable in no row and a row with no entries."""
    lp = _random_lp(rng)
    lp.add_var("alone", lb=0.0, ub=1.0, obj=1.0)
    lp.add_row([], [], -1.0, INF)
    return lp


def test_lp_determinism():
    rng = np.random.default_rng(4)
    lp = _eliminable_lp(rng, ensure_feasible=True)
    a, b = (solve_milp(MILProblem(lp, scal=0)) for _ in range(2))
    assert a.status == b.status == "optimal"
    assert a.x.tobytes() == b.x.tobytes()


def test_activities_match_row_sums():
    rng = np.random.default_rng(8)
    for _ in range(30):
        lp = _random_lp(rng)
        lp.add_row([], [], -INF, 1.0)
        x = rng.standard_normal(lp.n_vars)
        want = np.array([sum(c * x[j] for j, c in zip(idx.tolist(), coef.tolist()))
                         for idx, coef in (row_entries(lp, r) for r in range(lp.n_rows))])
        assert lp.activities(x).tobytes() == want.tobytes()


# -- MILP --------------------------------------------------------------------


def _indicator_lp(*rows) -> LinearProgram:
    """min -s + 0.1 a over s in [0, 10] and an indicator a with premise s - 4:
    a = 0 forces s <= 3.5 (a big-M row, margin 0.5, M = 10), a = 1 forces
    s >= 4. Each extra row is (idx, coef, lo, hi). The premise root 4 cuts
    two spans: [0, 4] has a = 0 and bound -4, its optimum s = 3.5; [4, 10]
    has a = 1 and bound -10 + 0.1, its optimum s = 10."""
    lp = LinearProgram()
    s = lp.add_var("s", ub=10.0, obj=-1.0)
    a = lp.add_var("a", ub=1.0, obj=0.1)
    lp.add_row([s, a], [1.0, -10.5], -INF, 3.5)
    lp.add_row([s, a], [1.0, -4.0], 0.0, INF)
    for row in rows:
        lp.add_row(*row)
    return lp


def _indicator_mip(lp: LinearProgram, **kw) -> MILProblem:
    return MILProblem(lp, binaries=(1,), scal=0, slope=[1.0], inter=[-4.0], **kw)


def test_milp_fixed_binaries_reduce_to_lp():
    # the premise keeps one sign over s's range, so the indicator's bounds are
    # its pin and the root LP is lp itself
    for s_lo, s_hi, a in ((0.0, 3.0, 0.0), (5.0, 10.0, 1.0)):
        lp = _indicator_lp()
        lp.lb[0], lp.ub[0] = s_lo, s_hi
        lp.lb[1] = lp.ub[1] = a
        status, ref = reference_lp(lp)
        sol = solve_milp(_indicator_mip(lp))
        assert (sol.status, sol.nodes) == (status, 1) == ("optimal", 1)
        assert sol.x == pytest.approx(ref, abs=1e-9)
        assert sol.objective == pytest.approx(float(np.asarray(lp.obj) @ ref), abs=1e-9)


def test_milp_branches_on_the_premise_root():
    # the span [4, 10], bound -9.9, is solved first; its optimum -9.9 beats the
    # bound -4 of [0, 4], which is never solved
    sol = solve_milp(_indicator_mip(_indicator_lp()))
    assert (sol.status, sol.nodes, sol.gap) == ("optimal", 1, 0.0)
    assert sol.x == pytest.approx([10.0, 1.0]) and sol.objective == pytest.approx(-9.9)


def test_milp_rejects_binaries_without_premises():
    lp = _indicator_lp()
    for kw in (dict(), dict(scal=0), dict(slope=[1.0], inter=[-4.0]),
               dict(scal=0, slope=[1.0, 2.0], inter=[-4.0, 0.0]),
               dict(scal=0, slope=[1.0], inter=[])):
        with pytest.raises(ValueError, match="premise"):
            solve_milp(MILProblem(lp, binaries=(1,), **kw))
    with pytest.raises(ValueError, match="premise"):
        solve_milp(MILProblem(lp, slope=[1.0], inter=[-4.0]))


@pytest.mark.parametrize("kw,match", [
    pytest.param(dict(slope=[float("nan")]), "finite", id="nan-slope"),
    pytest.param(dict(inter=[float("inf")]), "finite", id="inf-inter"),
    pytest.param(dict(scal=-1), "scal must name", id="negative-scal"),
    pytest.param(dict(scal=2), "scal must name", id="scal-out-of-range"),
    pytest.param(dict(scal=0.0), "scal must name", id="scal-not-an-index"),
    pytest.param(dict(binaries=(2,)), "binaries must lie", id="binary-out-of-range"),
    pytest.param(dict(binaries=(-1,)), "binaries must lie", id="negative-binary"),
    pytest.param(dict(binaries=(1, 1), slope=[1.0, 1.0], inter=[-4.0, -4.0]), "distinct",
                 id="duplicate-binary"),
    pytest.param(dict(binaries=(0,)), "must not include scal", id="scal-among-binaries"),
    pytest.param(dict(binaries=(1.5,)), "integer variable indices", id="float-binary"),
    pytest.param(dict(binaries=(1.0,)), "integer variable indices", id="integral-float-binary"),
    pytest.param(dict(on_rows=(2,)), "on_rows must lie", id="on-row-out-of-range"),
    pytest.param(dict(off_rows=(-1,)), "off_rows must lie", id="negative-off-row"),
    pytest.param(dict(on_rows=(0, 1)), "one row per binary", id="on-rows-unequal-length"),
    pytest.param(dict(off_rows=(0,), on_rows=(0, 1)), "one row per binary",
                 id="off-and-on-rows-unequal-length"),
    pytest.param(dict(off_rows=(1.0,)), "integer row indices", id="float-off-row"),
])
def test_milp_rejects_a_malformed_problem(kw, match):
    # each would otherwise answer a feasible LP as infeasible, wrap a negative
    # index to another variable or row, fix scal as a binary, truncate a float
    # index or gate a row by no binary
    fields = dict(binaries=(1,), scal=0, slope=[1.0], inter=[-4.0]) | kw
    with pytest.raises(ValueError, match=match):
        solve_milp(MILProblem(_indicator_lp(), **fields))


def _gated_lp(*rows) -> LinearProgram:
    """_indicator_lp's problem without its M: s <= 3.5 (row 0) holds only
    where a = 0 and s >= 4 (row 1) only where a = 1."""
    lp = LinearProgram()
    s = lp.add_var("s", ub=10.0, obj=-1.0)
    lp.add_var("a", ub=1.0, obj=0.1)
    lp.add_row([s], [1.0], -INF, 3.5)
    lp.add_row([s], [1.0], 4.0, INF)
    for row in rows:
        lp.add_row(*row)
    return lp


@pytest.mark.parametrize("rows", [
    pytest.param((), id="no-extra-row"),
    pytest.param((([0], [1.0], -INF, 8.0),), id="s-at-most-8"),
    pytest.param((([0, 1], [1.0, 10.0], -INF, 14.0),), id="a-costs-s"),
    pytest.param((([0], [1.0], 3.75, INF), ([0, 1], [1.0, 10.0], -INF, 13.9)),
                 id="infeasible"),
])
def test_indicator_rows_solve_as_the_big_m_rows_do(rows):
    # the two gated rows cross, so with both held no point meets them; each span
    # frees the one its fixing deactivates, and the search takes the nodes and
    # reaches the point of the big-M statement
    lp = _gated_lp(*rows)
    assert reference_lp(lp)[0] == "infeasible"
    sol = solve_milp(_indicator_mip(lp, on_rows=(1,), off_rows=(0,)))
    want = solve_milp(_indicator_mip(_indicator_lp(*rows)))
    assert (sol.status, sol.nodes, sol.gap) == (want.status, want.nodes, want.gap)
    if want.x is not None:
        assert sol.x == pytest.approx(want.x, abs=1e-12)


def test_milp_infeasible():
    # s >= 3.75 rules out a = 0 and s + 10 a <= 13.9 rules out a = 1, while
    # the LP with a relaxed is feasible; each span is one node
    lp = _indicator_lp(([0], [1.0], 3.75, INF), ([0, 1], [1.0, 10.0], -INF, 13.9))
    assert reference_lp(lp)[0] == "optimal"
    sol = solve_milp(_indicator_mip(lp))
    assert (sol.status, sol.nodes) == ("infeasible", 2)
    assert sol.x is None and sol.gap == INF


def test_milp_node_limit_reported():
    # s + 10 a <= 14 caps s at 4 on the span [4, 10], whose optimum -3.9 is then
    # worse than the bound -4 of the span [0, 4]: the limit leaves that span open
    # and the gap is taken to its bound
    lp = _indicator_lp(([0, 1], [1.0, 10.0], -INF, 14.0))
    sol = solve_milp(_indicator_mip(lp), SolverConfig(node_limit=1))
    assert (sol.status, sol.nodes) == ("node_limit", 1)
    assert sol.x == pytest.approx([4.0, 1.0]) and sol.objective == pytest.approx(-3.9)
    assert sol.gap == pytest.approx(-3.9 - (-4.0))
    full = solve_milp(_indicator_mip(lp))               # [0, 4] gives only -3.5
    assert (full.status, full.nodes, full.gap) == ("optimal", 2, 0.0)
    assert full.x.tobytes() == sol.x.tobytes()


def test_milp_determinism():
    # the second random instance of criterion 2, over its three hours: five
    # triggers are free, and the solve takes 4 nodes, one LP per span it opens
    cfg = SolverConfig()
    grid, scenario = list(valid_random_instances(11, 2, cfg, max_bus=10, max_hours=3))[1]
    mip = build_problem(grid, replace(scenario, hours=(0, 1, 2)), cfg).mip
    a = solve_milp(mip, cfg)
    b = solve_milp(mip, cfg)
    assert (a.status, a.nodes) == ("optimal", 4)
    assert a.x.tobytes() == b.x.tobytes()
    assert (a.objective, a.nodes, a.lp_iterations) == (b.objective, b.nodes, b.lp_iterations)


def test_a_span_elimination_cannot_decide_ends_undecided():
    # every row keeps two undecided variables, so no row bounds a variable by
    # itself: the span's LP, which HiGHS solves, ends the search undecided
    lp = LinearProgram()
    x = lp.add_var("x", ub=5.0, obj=-2.0)
    y = lp.add_var("y", ub=5.0, obj=-1.0)
    lp.add_row([x, y], [1.0, 1.0], -INF, 6.0)
    lp.add_row([x, y], [1.0, -1.0], -2.0, 2.0)
    assert reference_lp(lp)[0] == "optimal"
    sol = solve_milp(MILProblem(lp))
    assert (sol.status, sol.nodes, sol.lp_iterations) == ("undecided", 1, 0)
    assert sol.x is None and sol.objective is None and sol.gap == INF


def _span_mip(slope, inter) -> MILProblem:
    """max s over s in [0, 10] with one indicator per premise slope[i] * s +
    inter[i], and a row s + y >= 30 with y <= 5 that no span meets: its bound
    y >= 30 - s crosses y <= 5 all along every span, which is infeasible."""
    lp = LinearProgram()
    s = lp.add_var("s", ub=10.0, obj=-1.0)
    y = lp.add_var("y", ub=5.0)
    binaries = tuple(lp.add_var(f"a{i}", ub=1.0) for i in range(len(slope)))
    lp.add_row([s, y], [1.0, 1.0], 30.0, INF)
    return MILProblem(lp, binaries=binaries, scal=s, slope=slope, inter=inter)


@pytest.mark.parametrize("slope,inter,spans", [
    pytest.param([1.0, 2.0], [-4.0, -8.0], 2, id="one-root-twice"),
    pytest.param([1.0], [-10.0], 1, id="root-at-upper-bound"),
    pytest.param([-1.0], [0.0], 1, id="root-at-lower-bound"),
    pytest.param([1.0, -1.0, 0.5, 1.0], [-2.0, 6.0, -4.0, 5.0], 4, id="three-roots"),
])
def test_every_span_infeasible_takes_one_node_per_span(slope, inter, spans):
    # the free premise roots, clipped to [0, 10] and each counted once, cut the
    # range into the spans; a premise that keeps its sign (root -5) cuts none
    sol = solve_milp(_span_mip(slope, inter))
    assert (sol.status, sol.nodes) == ("infeasible", spans)
    assert sol.x is None and sol.gap == INF


def test_a_cost_on_a_binary_orders_the_spans_by_their_bounds():
    # a's cost 6.2 puts the bound of [4, 10] at -3.8, above the -4 of [0, 4],
    # so [0, 4] is solved first although its scal is lower
    lp = _indicator_lp()
    lp.obj[1] = 6.2
    sol = solve_milp(_indicator_mip(lp), SolverConfig(node_limit=1))
    assert (sol.status, sol.nodes) == ("node_limit", 1)
    assert sol.x == pytest.approx([3.5, 0.0]) and sol.gap == pytest.approx(-3.5 - (-3.8))
    # [4, 10] is still solved, and its -3.8 beats -3.5
    sol = solve_milp(_indicator_mip(lp))
    assert (sol.status, sol.nodes, sol.gap) == ("optimal", 2, 0.0)
    assert sol.x == pytest.approx([10.0, 1.0]) and sol.objective == pytest.approx(-3.8)
    # a's cost 20 puts that bound at 10, above [0, 4]'s optimum: one node
    lp.obj[1] = 20.0
    sol = solve_milp(_indicator_mip(lp))
    assert (sol.status, sol.nodes) == ("optimal", 1)
    assert sol.x == pytest.approx([3.5, 0.0]) and sol.objective == pytest.approx(-3.5)


def test_a_cost_on_an_unbounded_variable_solves_the_spans_in_order():
    # z = -1 - s holds only as a row, so z's bound -inf makes every span's bound
    # -inf: [0, 4] is solved first, then [4, 10], whose optimum is the best
    lp = LinearProgram()
    s = lp.add_var("s", ub=10.0, obj=-1.0)
    a = lp.add_var("a", ub=1.0)
    z = lp.add_var("z", lb=-INF, obj=1.0)
    lp.add_row([s, a], [1.0, -10.5], -INF, 3.5)
    lp.add_row([s, a], [1.0, -4.0], 0.0, INF)
    lp.add_row([z, s], [1.0, 1.0], -1.0, -1.0)
    mip = MILProblem(lp, binaries=(a,), scal=s, slope=[1.0], inter=[-4.0])
    sol = solve_milp(mip, SolverConfig(node_limit=1))
    assert (sol.status, sol.nodes, sol.gap) == ("node_limit", 1, INF)
    assert sol.x[s] == pytest.approx(3.5)
    sol = solve_milp(mip)
    assert (sol.status, sol.nodes, sol.gap) == ("optimal", 2, 0.0)
    assert sol.x == pytest.approx([10.0, 1.0, -11.0]) and sol.objective == pytest.approx(-21.0)


# -- scal branching ----------------------------------------------------------


@pytest.mark.parametrize("all_hours", [False, True], ids=["worst_hour", "all_hours"])
def test_scal_branching_matches_enumeration_on_random_instances(all_hours):
    cfg = SolverConfig()
    count = 0
    for seed in (11, 12, 13, 23, 31):
        for grid, scenario in valid_random_instances(seed, 40, cfg, max_bus=10, max_hours=3):
            if all_hours:
                scenario = replace(scenario, hours=tuple(range(grid.hour_count)))
            inst = build_problem(grid, scenario, cfg)
            if not any(inst.lp.lb[j] < inst.lp.ub[j] for j in inst.binaries):
                continue
            count += 1
            sol = solve_milp(inst.mip, cfg)
            enum = enumerate_alpha(grid, scenario, cfg)
            assert sol.status == enum.status == "optimal", (seed, count)
            assert abs(sol.objective - enum.objective) <= 1e-9 * (1.0 + abs(enum.objective))
            scal = sol.x[inst.scal_idx]
            assert abs(scal - enum.scal) <= 1e-9 * (1.0 + enum.scal), (seed, count)
    assert count == (80 if all_hours else 62)


# -- every row kept ----------------------------------------------------------


def _two_var_lp(y_lo: float = -INF):
    """max 2x + y over the scal x with x + y = 8, x <= 3, which binds, and
    y_lo <= y <= 100, whose upper side never binds."""
    lp = LinearProgram()
    x = lp.add_var("x", ub=10.0, obj=-2.0)
    y = lp.add_var("y", ub=10.0, obj=-1.0)
    lp.add_row([x, y], [1.0, 1.0], 8.0, 8.0)
    lp.add_row([x], [1.0], -INF, 3.0)
    lp.add_row([y], [1.0], y_lo, 100.0)
    return lp


def test_deferred_row_violated_at_the_relaxed_optimum_is_added():
    # x <= 3 cuts x = 8, y = 0, the optimum without it; every row is kept from
    # the start, so it holds at the first span's optimum
    sol = solve_milp(MILProblem(_two_var_lp(), scal=0))
    assert (sol.status, sol.nodes) == ("optimal", 1)
    assert sol.x.tolist() == [3.0, 5.0] and sol.objective == -11.0
    # a ranged row that binds on its lower side: x = 2, y = 6
    sol = solve_milp(MILProblem(_two_var_lp(y_lo=6.0), scal=0))
    assert (sol.status, sol.nodes) == ("optimal", 1)
    assert sol.x.tolist() == [2.0, 6.0] and sol.objective == -10.0


def test_leaf_that_breaks_a_deferred_row_is_solved_again_in_the_same_search():
    # s <= 8 cuts the span [4, 10]'s s = 10 without it; kept from the start, the
    # span is solved once, to s = 8, a = 1, whose -7.9 beats the bound -4 of
    # [0, 4]: one node, nothing solved again
    sol = solve_milp(_indicator_mip(_indicator_lp(([0], [1.0], -INF, 8.0))))
    assert (sol.status, sol.nodes, sol.gap) == ("optimal", 1, 0.0)
    assert sol.x == pytest.approx([8.0, 1.0]) and sol.objective == pytest.approx(-7.9)


def test_infeasible_round_is_final():
    # rows that no point meets: the one span ends the search, infeasible
    lp = LinearProgram()
    x = lp.add_var("x", ub=1.0, obj=-1.0)
    lp.add_row([x], [1.0], 2.0, INF)
    lp.add_row([x], [1.0], -INF, 0.5)
    sol = solve_milp(MILProblem(lp))
    assert (sol.status, sol.nodes) == ("infeasible", 1) and sol.x is None


@pytest.mark.parametrize("field,value", [
    ("scal_max", float("inf")), ("scal_max", float("nan")), ("scal_max", 0.0),
    ("scal_max", -1.0), ("feasibility_tol", -1e-7), ("feasibility_tol", 0.0),
    ("feasibility_tol", float("nan")), ("feasibility_tol", float("inf")),
    ("node_limit", 0), ("node_limit", -1),
])
def test_solver_config_rejects_values_outside_its_domain(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})
    with pytest.raises(FrozenInstanceError):      # nor can a value get there later
        setattr(SolverConfig(), field, value)


def test_dump_lp_stable():
    lp = LinearProgram()
    x = lp.add_var("x", ub=3.0, obj=-1.0)
    b = lp.add_var("b", ub=1.0, obj=0.5)
    lp.add_row([x, b], [1.0, -2.0], -INF, 1.5, name="cap")
    text = dump_lp(MILProblem(lp, binaries=(b,)))
    assert text == dump_lp(MILProblem(lp, binaries=(b,)))
    assert "cap" in text and "b" in text


# -- row-compressed store -----------------------------------------------------


def test_add_rows_matches_one_add_row_per_row():
    # a block's entries in any order give the rows add_row gives one at a time
    rng = np.random.default_rng(31)
    for _ in range(50):
        n, m = int(rng.integers(1, 8)), int(rng.integers(0, 6))
        one, block = LinearProgram(), LinearProgram()
        for lp in (one, block):
            for j in range(n):
                lp.add_var(f"x{j}")
        rows = [rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False) for _ in range(m)]
        coefs = [rng.standard_normal(r.size) for r in rows]
        lo, hi = -rng.random(m), rng.random(m)
        for r, c, a, b in zip(rows, coefs, lo, hi):
            one.add_row(r, c, a, b)
        at = np.repeat(np.arange(m), [r.size for r in rows])
        order = rng.permutation(at.size)
        idx, coef = np.concatenate([np.zeros(0, int), *rows]), np.concatenate([[], *coefs])
        assert block.add_rows(at[order], idx[order], coef[order], lo, hi) == 0
        for name in ("indptr", "indices", "data", "row_lo", "row_hi"):
            assert getattr(block, name).tobytes() == getattr(one, name).tobytes(), name
        assert block.row_names == one.row_names == [f"r{i}" for i in range(m)]
    lp = LinearProgram()
    lp.add_var("x"), lp.add_var("y")
    with pytest.raises(ValueError, match="^row 'b' repeats variable 1$"):
        lp.add_rows([1, 0, 1], [1, 0, 1], [1.0, 1.0, 2.0], [0.0, 0.0], [1.0, 1.0], ["a", "b"])
    with pytest.raises(ValueError, match="^row 'b' references unknown variable 2$"):
        lp.add_rows([0, 1], [1, 2], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], ["a", "b"])
    with pytest.raises(ValueError, match="^row 'b': bounds"):
        lp.add_rows([0], [0], [1.0], [0.0, 2.0], [1.0, 1.0], ["a", "b"])
    with pytest.raises(ValueError, match="one of its 2 rows"):
        lp.add_rows([0, 2], [0, 1], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    assert lp.n_rows == 0 and lp.indptr.tolist() == [0]


def test_activities_of_some_rows_match_the_all_row_computation(hybrid):
    # extract_solution reads the network rows only: the activities must equal
    # the all-row computation, masked
    rng = np.random.default_rng(9)
    inst = build_problem(hybrid, Scenario(fl=0.7, case="b"), SolverConfig())
    cases = [(inst.lp, inst.thermal_rows.ravel()), (inst.lp, inst.v_rows.ravel())]
    for _ in range(30):
        lp = _lp_with_empty_ranges(rng)
        cases.append((lp, np.flatnonzero(rng.random(lp.n_rows) < 0.5)))
    for lp, rows in cases:
        x = rng.uniform(-2.0, 2.0, lp.n_vars)
        assert lp.activities(x, rows).tobytes() == lp.activities(x)[rows].tobytes()


def _assert_every_active_row_holds(mip: MILProblem, x: np.ndarray, cfg: SolverConfig) -> None:
    lp, tol = mip.lp, cfg.feasibility_tol
    act, (lo, hi) = lp.activities(x), active_row_bounds(mip, x[list(mip.binaries)])
    assert not ((act > hi + tol * (1.0 + np.abs(hi))) | (act < lo - tol * (1.0 + np.abs(lo)))).any()
    assert (x >= np.array(lp.lb) - tol).all() and (x <= np.array(lp.ub) + tol).all()


@pytest.mark.parametrize("seed", [11, 23])
def test_presolved_nodes_keep_every_status_and_row_on_random_instances(seed):
    # every span is presolved to a fixpoint by elimination, and must meet every
    # row and agree with the oracle
    cfg = SolverConfig()
    for grid, scenario in valid_random_instances(seed, 40, cfg, max_bus=10, max_hours=3):
        for hours in (scenario.hours, tuple(range(grid.hour_count))):
            inst = build_problem(grid, replace(scenario, hours=hours), cfg)
            sol = solve_milp(inst.mip, cfg)
            assert sol.status == "optimal"
            _assert_every_active_row_holds(inst.mip, sol.x, cfg)
            star = max_scal_bisection(grid, replace(scenario, hours=hours), cfg).scal_star
            assert abs(sol.x[inst.scal_idx] - star) <= 1e-9 * (1.0 + star)


@pytest.mark.parametrize("name", ["example", "urban_mv", "rural_mv", "hybrid_mv", "lv"])
def test_presolved_nodes_keep_every_status_and_row_on_the_fixtures(name):
    grid = parse_grid((FIXTURES / f"{name}.json").read_text())
    cfg = SolverConfig()
    for fl in (1.0, 0.7):
        for case in ("a", "b"):
            scenario = Scenario(fl=fl, case=case)
            inst = build_problem(grid, scenario, cfg)
            sol = solve_milp(inst.mip, cfg)
            assert (sol.status, sol.nodes) == ("optimal", 1), (fl, case)
            _assert_every_active_row_holds(inst.mip, sol.x, cfg)
            scal = extract_solution(inst, sol)
            star = max_scal_bisection(grid, scenario, cfg).scal_star
            assert abs(scal - star) <= 1e-9 * (1.0 + star), (fl, case)


# -- elimination -------------------------------------------------------------


def test_a_row_met_to_within_its_rounding_cuts_no_span():
    # a * y - c * s = d writes y as (d + c * s) / a; read back, the row's
    # slope in s is a few ulps off zero, whose root lands anywhere. Met at
    # both ends to within its rounding, the row cuts nothing: s reaches the
    # end of [0, 1000] its cost points to
    rng = np.random.default_rng(0)
    for a, c, d in rng.uniform(0.1, 10.0, (100, 3)):
        for cost, end in ((-1.0, 1000.0), (1.0, 0.0)):
            lp = LinearProgram()
            s = lp.add_var("s", ub=1000.0, obj=cost)
            y = lp.add_var("y")
            lp.add_row([s, y], [-c, a], d, d)
            sol = solve_milp(MILProblem(lp, scal=s))
            assert (sol.status, sol.nodes, sol.x[s]) == ("optimal", 1, end), (a, c, d)
            assert sol.x[y] == pytest.approx((d + c * end) / a, rel=1e-14)


def test_a_zero_entry_bounds_nothing():
    # s + 0 * y <= 4 holds s alone: y's zero entry is no open variable there, so
    # y = s is decided by the second row, and the first cuts s at 4
    lp = LinearProgram()
    s = lp.add_var("s", ub=10.0, obj=-1.0)
    y = lp.add_var("y", ub=5.0)
    lp.add_row([s, y], [1.0, 0.0], -INF, 4.0)
    lp.add_row([s, y], [-1.0, 1.0], 0.0, 0.0)
    sol = solve_milp(MILProblem(lp, scal=s))
    assert (sol.status, sol.nodes) == ("optimal", 1) and sol.x.tolist() == [4.0, 4.0]


def test_presolve_drops_redundant_rows_and_turns_singletons_into_bounds():
    # elimination, the presolve left, reads a redundant row as met and a row
    # with one open variable as a bound on it
    lp = LinearProgram()
    x = lp.add_var("x", ub=2.0, obj=-1.0)
    y = lp.add_var("y", ub=3.0, obj=1.0)
    z = lp.add_var("z", lb=1.0, ub=1.0)
    lp.add_row([x, y], [1.0, 1.0], -INF, 10.0)      # redundant: at most 5
    lp.add_row([x, z], [-2.0, 2.0], -1.0, INF)      # z fixed: -2x >= -3, so x <= 1.5
    lp.add_row([x, y], [1.0, 1.0], 1.0, INF)        # y written: x >= 1 - y
    lp.add_row([y, z], [1.0, 1.0], -INF, 1.0)       # y <= 0, which meets y >= 0
    lp.add_row([], [], -1.0, 1.0)                   # empty: 0 lies within its bounds
    sol = solve_milp(MILProblem(lp, scal=x))
    assert (sol.status, sol.nodes) == ("optimal", 1) and sol.x.tolist() == [1.5, 0.0, 1.0]


def test_presolve_rules_out_a_node_whose_singleton_bounds_cross():
    # a singleton row that no point within the bounds meets: x >= 4 > 3
    lp = LinearProgram()
    x = lp.add_var("x", ub=3.0, obj=-1.0)
    b = lp.add_var("b", lb=1.0, ub=1.0)
    lp.add_row([x, b], [1.0, -2.0], 2.0, INF)
    sol = solve_milp(MILProblem(lp))
    assert (sol.status, sol.nodes) == ("infeasible", 1)
    assert reference_lp(lp)[0] == "infeasible"
    # two singletons on one variable that cross: x >= 2 and x <= 1
    lp = LinearProgram()
    x = lp.add_var("x", ub=3.0)
    lp.add_row([x], [1.0], 2.0, INF)
    lp.add_row([x], [1.0], -INF, 1.0)
    sol = solve_milp(MILProblem(lp))
    assert (sol.status, sol.nodes) == ("infeasible", 1)
    assert reference_lp(lp)[0] == "infeasible"
    # bounds that cross by less than feasibility_tol: x is the lower one
    lp = LinearProgram()
    x = lp.add_var("x", ub=3.0, obj=-1.0)
    lp.add_row([x], [1.0], 3.0 + 1e-9, INF)
    sol = solve_milp(MILProblem(lp))
    assert (sol.status, sol.nodes) == ("optimal", 1) and sol.x.tolist() == [3.0 + 1e-9]


def _assert_elimination_matches_highs(mip, scal_idx, cfg, monkeypatch, where):
    """solve_milp as it is and with every span's LP solved by the HiGHS
    reference under the same bounds agree on the status and on scal."""
    sol = solve_milp(mip, cfg)
    with monkeypatch.context() as m:
        m.setattr(milp, "_eliminate",
                  lambda lp, obj, lb, ub, lo, hi, scal, tol: reference_lp(lp, lb, ub, lo, hi))
        ref = solve_milp(mip, cfg)
    assert sol.status == ref.status and sol.nodes == ref.nodes, where
    if ref.status == "optimal":
        s, want = sol.x[scal_idx], ref.x[scal_idx]
        assert abs(s - want) <= 1e-9 * (1.0 + abs(want)), where


@pytest.mark.parametrize("name", ["example", "urban_mv", "rural_mv", "hybrid_mv", "lv"])
def test_elimination_decides_every_fixture_span_as_highs_does(name, monkeypatch):
    grid = parse_grid((FIXTURES / f"{name}.json").read_text())
    cfg = SolverConfig()
    for fl in (1.0, 0.7):
        for case in ("a", "b"):
            inst = build_problem(grid, Scenario(fl=fl, case=case), cfg)
            _assert_elimination_matches_highs(inst.mip, inst.scal_idx, cfg, monkeypatch,
                                              (fl, case))


@pytest.mark.parametrize("all_hours", [False, True], ids=["worst_hour", "all_hours"])
def test_elimination_decides_every_random_span_as_highs_does(all_hours, monkeypatch):
    cfg = SolverConfig()
    count = 0
    for seed in (11, 12, 13, 23, 31):
        for grid, scenario in valid_random_instances(seed, 40, cfg, max_bus=10, max_hours=3):
            if all_hours:
                scenario = replace(scenario, hours=tuple(range(grid.hour_count)))
            inst = build_problem(grid, scenario, cfg)
            _assert_elimination_matches_highs(inst.mip, inst.scal_idx, cfg, monkeypatch,
                                              (seed, count))
            count += 1
    assert count == 200
