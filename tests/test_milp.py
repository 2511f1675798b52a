import numpy as np
import pytest

from feedincap.milp import (
    INF,
    LinearProgram,
    MILProblem,
    SolverConfig,
    _pivot_update,
    _ratio_test,
    compute_big_m,
    solve_lp,
    solve_milp,
)
from util import dump_lp, reference_ratio_test


def test_lp_single_var_at_bound():
    lp = LinearProgram()
    lp.add_var("x", lb=0.0, ub=3.0, obj=-1.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(-3.0)


def test_add_row_sorts_entries_and_rejects_unknown_variables():
    lp = LinearProgram()
    for name in "abc":
        lp.add_var(name)
    lp.add_row([2, 0], [1, np.float64(-2.0)], "<=", 1.0)
    assert (lp.row_idx[0].tolist(), lp.row_coef[0].tolist()) == ([0, 2], [-2.0, 1.0])
    assert lp.row_idx[0].dtype == np.intp and lp.row_coef[0].dtype == np.float64
    lp.add_row(np.array([2, 0, 1]), np.array([3.0, 1.0, 2.0]), ">=", -1.0)
    assert (lp.row_idx[1].tolist(), lp.row_coef[1].tolist()) == ([0, 1, 2], [1.0, 2.0, 3.0])
    lp.add_row([], [], "==", 0.0)
    assert lp.row_idx[2].size == lp.row_coef[2].size == 0
    # rows in final form keep the caller's arrays, so two rows can share them
    idx, coef = np.array([0, 2], dtype=np.intp), np.array([1.0, -1.0])
    lp.add_row(idx, coef, "<=", 1.0)
    lp.add_row(idx, coef, ">=", -1.0)
    assert lp.row_idx[3] is lp.row_idx[4] is idx and lp.row_coef[3] is lp.row_coef[4] is coef
    assert (lp.sense, lp.rhs) == (["<=", ">=", "==", "<=", ">="], [1.0, -1.0, 0.0, 1.0, -1.0])
    for bad_idx, bad in (([0, 3, 4], 3), ([-1, 1], -1), (np.array([2, 5, 0]), 5)):
        with pytest.raises(ValueError, match=f"unknown variable {bad}$"):
            lp.add_row(bad_idx, [1.0] * len(bad_idx), "<=", 0.0)
    with pytest.raises(ValueError, match="repeats variable 1$"):
        lp.add_row([1, 0, 1], [1.0, 2.0, 3.0], "<=", 0.0)
    with pytest.raises(ValueError, match="one length"):
        lp.add_row([0, 1], [1.0], "<=", 0.0)
    assert lp.n_rows == 5


def test_lp_infeasible():
    lp = LinearProgram()
    x = lp.add_var("x", lb=-INF, ub=INF, obj=1.0)
    lp.add_row([x], [1.0], ">=", 1.0)
    lp.add_row([x], [1.0], "<=", 0.0)
    assert solve_lp(lp).status == "infeasible"


def test_lp_face_optimum():
    lp = LinearProgram()
    x = lp.add_var("x", obj=-1.0)
    y = lp.add_var("y", obj=-1.0)
    lp.add_row([x, y], [1.0, 1.0], "<=", 1.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0)
    assert sol.x[0] + sol.x[1] == pytest.approx(1.0)


def test_lp_unbounded():
    lp = LinearProgram()
    lp.add_var("x", lb=0.0, ub=INF, obj=-1.0)
    assert solve_lp(lp).status == "unbounded"


def test_lp_equality_row():
    lp = LinearProgram()
    x = lp.add_var("x", obj=2.0)
    y = lp.add_var("y", obj=3.0)
    lp.add_row([x, y], [1.0, 1.0], "==", 4.0)
    lp.add_row([x, y], [1.0, -1.0], "<=", 2.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    # cheapest split puts everything on x, limited by x - y <= 2
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.x[1] == pytest.approx(1.0)


def test_lp_rejects_bad_rows():
    lp = LinearProgram()
    x = lp.add_var("x")
    with pytest.raises(ValueError):
        lp.add_row([x], [1.0], "!=", 0.0)
    with pytest.raises(ValueError):
        lp.add_row([x + 7], [1.0], "<=", 0.0)
    with pytest.raises(ValueError):
        lp.add_var("bad", lb=2.0, ub=1.0)


def _random_lp(rng: np.random.Generator, ensure_feasible: bool = False) -> LinearProgram:
    lp = LinearProgram()
    n = int(rng.integers(2, 7))
    for j in range(n):
        lp.add_var(f"x{j}", lb=0.0, ub=float(rng.uniform(0.5, 5.0)),
                   obj=float(rng.normal()))
    x0 = rng.uniform(lp.lb, lp.ub)
    for _ in range(int(rng.integers(1, 6))):
        cols = rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False)
        coef = [float(rng.normal()) for _ in cols]
        sense = ("<=", ">=", "==")[int(rng.integers(0, 3))]
        if ensure_feasible:
            at_x0 = sum(c * x0[j] for j, c in zip(cols, coef))
            slack = float(rng.uniform(0.0, 1.0))
            rhs = {"<=": at_x0 + slack, ">=": at_x0 - slack, "==": at_x0}[sense]
        else:
            rhs = float(rng.normal())
        lp.add_row(cols, coef, sense, rhs)
    return lp


def test_lp_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    checked = 0
    for k in range(60):
        lp = _random_lp(rng, ensure_feasible=k % 2 == 0)
        sol = solve_lp(lp)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for idx, coef, sense, rhs in zip(lp.row_idx, lp.row_coef, lp.sense, lp.rhs):
            dense = np.zeros(lp.n_vars)
            for j, c in zip(idx, coef):
                dense[j] = c
            if sense == "<=":
                a_ub.append(dense), b_ub.append(rhs)
            elif sense == ">=":
                a_ub.append(-dense), b_ub.append(-rhs)
            else:
                a_eq.append(dense), b_eq.append(rhs)
        ref = scipy_opt.linprog(
            np.array(lp.obj), A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=list(zip(lp.lb, lp.ub)), method="highs")
        if ref.status == 0:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
            checked += 1
        elif ref.status == 2:
            assert sol.status == "infeasible"
    assert checked >= 20


def test_lp_determinism():
    rng = np.random.default_rng(4)
    lp = _random_lp(rng, ensure_feasible=True)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status == "optimal"
    assert a.x.tobytes() == b.x.tobytes()


def test_activities_match_row_sums():
    rng = np.random.default_rng(8)
    for _ in range(30):
        lp = _random_lp(rng)
        lp.add_row([], [], "<=", 1.0)
        x = rng.standard_normal(lp.n_vars)
        want = np.array([sum(c * x[j] for j, c in zip(idx.tolist(), coef.tolist()))
                         for idx, coef in zip(lp.row_idx, lp.row_coef)])
        assert lp.activities(x).tobytes() == want.tobytes()


# -- simplex kernels -----------------------------------------------------------


def _ratio_case(rng: np.random.Generator):
    """Basis rows with exact ties, chains of near-ties within 1e-12, zero and
    sub-tolerance steps, and infinite bounds."""
    m = int(rng.integers(1, 30))
    n = m + int(rng.integers(0, 10))
    basis = rng.permutation(n)[:m]
    lb = rng.choice([-INF, -2.0, -1.0, 0.0], n)
    ub = rng.choice([INF, 0.0, 1.0, 2.0], n)
    step = rng.choice([0.0, -0.0, 1e-9, -1e-9, 5e-10, 1.0000001e-9, -1.0000001e-9,
                       0.5, -0.5, 1.0, -1.0, 1.0, -1.0, 2.0, -2.0], m)
    bvals = (rng.integers(-3, 4, m).astype(float)
             + 0.4e-12 * rng.integers(0, 5, m) * (rng.random(m) < 0.7))
    if rng.random() < 0.5:
        # every step of magnitude 1 lands within 1.6e-12 of t = 1
        lb[:], ub[:] = 0.0, 2.0
        bvals = 1.0 + 0.4e-12 * rng.integers(-4, 5, m)
    return step, bvals, lb, ub, basis


def test_ratio_test_matches_full_row_loop():
    rng = np.random.default_rng(5)
    chained = (np.ones(3), np.array([1.0, 1.0 + 0.8e-12, 1.0 + 1.6e-12]),
               np.zeros(6), np.full(6, INF), np.array([5, 3, 1]))
    cases = [chained] + [_ratio_case(rng) for _ in range(3000)]
    for step, bvals, lb, ub, basis in cases:
        r, t = _ratio_test(step, bvals, lb, ub, basis, 1e-9)
        r_ref, t_ref = reference_ratio_test(step, bvals, lb, ub, basis, 1e-9)
        assert (r, float(t).hex()) == (r_ref, float(t_ref).hex())
    # each near-tie with a lower variable index takes over, one after another
    assert _ratio_test(*chained, 1e-9)[0] == 2


def test_pivot_update_matches_dense_update():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        B_inv = rng.standard_normal((m, m)) * (rng.random((m, m)) < rng.uniform(0.02, 0.5))
        w = rng.standard_normal(m) * (rng.random(m) < rng.uniform(0.05, 0.6))
        r = int(rng.integers(m))
        w[r] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        brow = B_inv[r] / w[r]
        want = B_inv - np.outer(w, brow)
        want[r] = brow
        _pivot_update(B_inv, w, r)
        assert np.array_equal(B_inv, want)


# -- MILP --------------------------------------------------------------------


def test_milp_fixed_binaries_reduce_to_lp():
    lp = LinearProgram()
    b = lp.add_var("b", lb=1.0, ub=1.0, obj=-2.0)
    x = lp.add_var("x", lb=0.0, ub=4.0, obj=-1.0)
    lp.add_row([b, x], [1.0, 1.0], "<=", 3.0)
    ref = solve_lp(lp)
    sol = solve_milp(MILProblem(lp, binaries=(b,)))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.objective)
    assert sol.nodes <= 1
    # every binary is fixed, so the root LP is the only solve
    assert sol.lp_iterations == ref.iterations
    assert sol.x.tobytes() == ref.x.tobytes()


def test_milp_rounding_forced():
    lp = LinearProgram()
    b = lp.add_var("b", lb=0.0, ub=1.0, obj=-1.0)
    lp.add_row([b], [1.0], "<=", 0.5)
    sol = solve_milp(MILProblem(lp, binaries=(b,)))
    assert sol.status == "optimal"
    assert sol.x[b] == pytest.approx(0.0, abs=1e-9)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_milp_knapsack():
    lp = LinearProgram()
    a = lp.add_var("a", ub=1.0, obj=-5.0)
    b = lp.add_var("b", ub=1.0, obj=-4.0)
    c = lp.add_var("c", ub=1.0, obj=-3.0)
    lp.add_row([a, b, c], [2.0, 3.0, 1.0], "<=", 3.0)
    sol = solve_milp(MILProblem(lp, binaries=(a, b, c)))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-8.0)
    assert sol.x[a] == pytest.approx(1.0) and sol.x[c] == pytest.approx(1.0)


def test_milp_infeasible():
    lp = LinearProgram()
    b = lp.add_var("b", ub=1.0)
    lp.add_row([b], [1.0], ">=", 0.3)
    lp.add_row([b], [1.0], "<=", 0.7)
    sol = solve_milp(MILProblem(lp, binaries=(b,)))
    assert sol.status == "infeasible"


def test_milp_node_limit_reported():
    rng = np.random.default_rng(9)
    lp = LinearProgram()
    idx = [lp.add_var(f"b{j}", ub=1.0, obj=float(-rng.uniform(1, 2)))
           for j in range(12)]
    lp.add_row(idx, [float(rng.uniform(1, 3)) for _ in idx], "<=", 7.0)
    cfg = SolverConfig(node_limit=1)
    sol = solve_milp(MILProblem(lp, binaries=tuple(idx)), cfg)
    assert sol.status in ("node_limit", "optimal")
    full = solve_milp(MILProblem(lp, binaries=tuple(idx)))
    assert full.status == "optimal"
    if sol.status == "node_limit":
        assert sol.gap >= 0.0


def test_milp_determinism():
    rng = np.random.default_rng(21)
    lp = LinearProgram()
    idx = [lp.add_var(f"b{j}", ub=1.0, obj=float(-rng.uniform(0.5, 2)))
           for j in range(8)]
    y = lp.add_var("y", ub=10.0, obj=-0.1)
    lp.add_row([*idx, y], [*(float(rng.uniform(0.5, 2)) for _ in idx), 1.0], "<=", 6.0)
    mip = MILProblem(lp, binaries=tuple(idx))
    a = solve_milp(mip)
    b = solve_milp(mip)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective


# -- deferred rows -----------------------------------------------------------


def _lazy_lp():
    """max 2x + y with x + y <= 8 kept; x <= 3 binds but is deferred, and so
    is y <= 100, which never binds."""
    lp = LinearProgram()
    x = lp.add_var("x", ub=10.0, obj=-2.0)
    y = lp.add_var("y", ub=10.0, obj=-1.0)
    lp.add_row([x, y], [1.0, 1.0], "<=", 8.0)
    lp.add_row([x], [1.0], "<=", 3.0)
    lp.add_row([y], [1.0], "<=", 100.0)
    return lp


def test_deferred_row_violated_at_the_relaxed_optimum_is_added():
    lp = _lazy_lp()
    sol = solve_milp(MILProblem(lp, lazy=(1, 2)))
    full = solve_lp(lp)
    assert sol.status == full.status == "optimal"
    assert (sol.rounds, sol.rows_kept) == (2, 2)      # x <= 3 joined, y <= 100 never did
    assert sol.objective == pytest.approx(full.objective) == -11.0
    assert sol.x == pytest.approx(full.x)
    seeded = solve_milp(MILProblem(lp, lazy=(1, 2), seed=(1,)))
    assert (seeded.rounds, seeded.rows_kept) == (1, 2)
    assert seeded.objective == pytest.approx(-11.0)


def test_node_limit_caps_the_nodes_of_every_round():
    sol = solve_milp(MILProblem(_lazy_lp(), lazy=(1, 2)), SolverConfig(node_limit=1))
    assert (sol.status, sol.nodes, sol.rounds) == ("node_limit", 1, 2)


def _knapsack_lp(deferred_bound_on: int):
    """max 3a + 2b over binaries with 2a + 2b <= 3 kept, and a deferred
    a <= 0.5 (deferred_bound_on 0) or b <= 0.5 (deferred_bound_on 1). The root
    LP is a = 1, b = 0.5; the child b = 0 gives the incumbent a = 1, b = 0."""
    lp = LinearProgram()
    a = lp.add_var("a", ub=1.0, obj=-3.0)
    b = lp.add_var("b", ub=1.0, obj=-2.0)
    lp.add_row([a, b], [2.0, 2.0], "<=", 3.0)
    lp.add_row([(a, b)[deferred_bound_on]], [1.0], "<=", 0.5)
    return MILProblem(lp, binaries=(a, b), lazy=(1,))


def test_node_limit_incumbent_must_satisfy_the_deferred_rows():
    cfg = SolverConfig(node_limit=2)
    # the incumbent breaks a <= 0.5: no point of the full problem to report
    sol = solve_milp(_knapsack_lp(0), cfg)
    assert (sol.status, sol.nodes, sol.rounds) == ("node_limit", 2, 1)
    assert sol.x is None and sol.objective is None and sol.gap == INF
    # it satisfies b <= 0.5: kept, with the gap to the round's bound
    mip = _knapsack_lp(1)
    sol = solve_milp(mip, cfg)
    full = solve_milp(MILProblem(mip.lp, mip.binaries), cfg)
    assert (sol.status, sol.nodes, sol.rounds) == (full.status, full.nodes, 1) == ("node_limit", 2, 1)
    assert sol.x == pytest.approx(full.x) == [1.0, 0.0]
    assert (sol.objective, sol.gap) == pytest.approx((full.objective, full.gap)) == (-3.0, 1.0)


def test_infeasible_round_is_final():
    lp = LinearProgram()
    x = lp.add_var("x", ub=1.0, obj=-1.0)
    lp.add_row([x], [1.0], ">=", 2.0)
    lp.add_row([x], [1.0], "<=", 0.5)
    sol = solve_milp(MILProblem(lp, lazy=(1,)))
    assert (sol.status, sol.rounds, sol.rows_kept) == ("infeasible", 1, 1)


def test_seed_and_lazy_rows_must_exist():
    lp = _lazy_lp()
    for lazy, seed in (((1, 2), (0,)), ((1, 2), (5,)), ((1, 3), ()), ((-1,), ())):
        with pytest.raises(ValueError):
            solve_milp(MILProblem(lp, lazy=lazy, seed=seed))


# -- big-M -------------------------------------------------------------------


def test_big_m_no_eligible_capacity():
    assert compute_big_m(0.0, 0.0, 1.4) == pytest.approx(1.4 + 1.0)


def test_big_m_formula():
    # candidate B = 1 MW, CF = 1, FL = 0.7, SCAL_MAX = 10
    assert compute_big_m(10.0, 0.7 * 10.0, 0.0) == pytest.approx(18.0)


def test_big_m_rejects_negative():
    with pytest.raises(ValueError):
        compute_big_m(-1.0, 0.0, 0.0)


def test_big_m_covers_relaxed_rows():
    # For any scal <= SCAL_MAX and any production split, a deactivated
    # indicator row must have nonnegative slack.
    rng = np.random.default_rng(5)
    smax = 1000.0
    for _ in range(200):
        av0, av1, cap0, cap1, resid = rng.uniform(0.0, 3.0, 5)
        fl = rng.uniform(0.1, 1.0)
        m = compute_big_m(av0 + av1 * smax, fl * (cap0 + cap1 * smax), resid)
        s = rng.uniform(0.0, smax)
        avail = av0 + av1 * s
        flcap = fl * (cap0 + cap1 * s)
        prod = rng.uniform(0.0, avail)
        assert avail - flcap - resid <= m                 # trigger, alpha = 1
        assert abs(prod - flcap - resid) <= m             # pins, alpha = 0
        assert avail - prod <= m                          # spill, alpha = 1


def test_dump_lp_stable():
    lp = LinearProgram()
    x = lp.add_var("x", ub=3.0, obj=-1.0)
    b = lp.add_var("b", ub=1.0, obj=0.5)
    lp.add_row([x, b], [1.0, -2.0], "<=", 1.5, name="cap")
    text = dump_lp(MILProblem(lp, binaries=(b,)))
    assert text == dump_lp(MILProblem(lp, binaries=(b,)))
    assert "cap" in text and "b" in text
