import math

import numpy as np
import pytest

from feedincap.grid import Bus, Grid, Line
from feedincap.network import (
    NetworkError,
    ac_sweep,
    build_linear_model,
    compare_models,
    evaluate_linear,
)

from util import chain3, random_radial, two_bus


def _downstream(model, line_id):
    """Buses downstream of a line, read off the 0/1 flow map."""
    row = model.flow_map[model.line_order.index(line_id)]
    return frozenset(b for b, f in zip(model.bus_order, row) if f == 1.0)


def test_two_bus_downstream_set():
    model = build_linear_model(two_bus())
    assert _downstream(model, "sub-n1") == frozenset({"n1"})
    assert model.bus_order == ("n1",)


def test_chain_downstream_sets():
    model = build_linear_model(chain3())
    assert _downstream(model, "sub-A") == frozenset({"A", "B"})
    assert _downstream(model, "A-B") == frozenset({"B"})


def test_rural_downstream_matches_path_enumeration(rural):
    model = build_linear_model(rural)
    # independent path walk over the raw line list
    adj = {}
    for i, ln in enumerate(rural.lines):
        adj.setdefault(ln.from_bus, []).append((ln.to_bus, i))
        adj.setdefault(ln.to_bus, []).append((ln.from_bus, i))
    parent = {model.slack_id: None}
    stack = [model.slack_id]
    while stack:
        cur = stack.pop()
        for nxt, idx in adj.get(cur, []):
            if nxt not in parent:
                parent[nxt] = (cur, idx)
                stack.append(nxt)
    for bus in model.bus_order:
        on_path = set()
        cur = bus
        while parent[cur] is not None:
            cur, idx = parent[cur]
            on_path.add(rural.lines[idx].id)
        for lid in model.line_order:
            assert (bus in _downstream(model, lid)) == (lid in on_path)


def test_non_radial_rejected():
    bad = Grid(1.0, 20.0,
               buses=(Bus("sub", True), Bus("a"), Bus("b")),
               lines=(Line("sub", "a", 0.01, 0.01, 5.0),
                      Line("a", "b", 0.01, 0.01, 5.0),
                      Line("b", "sub", 0.01, 0.01, 5.0)))
    with pytest.raises(NetworkError):
        build_linear_model(bad)


def test_zero_injections_identity():
    model = build_linear_model(chain3())
    flows, v2 = evaluate_linear(model, np.zeros(2))
    assert np.all(flows == 0.0)
    assert np.all(v2 == 1.0)


def test_two_bus_lindistflow_value():
    grid = two_bus(r=0.01, x=0.0)
    model = build_linear_model(grid)
    flows, v2 = evaluate_linear(model, np.array([-0.1]))
    assert flows[0] == pytest.approx(-0.1)
    assert v2[0] == pytest.approx(0.998, abs=1e-15)


def test_superposition():
    rng = np.random.default_rng(7)
    grid = random_radial(rng, n_bus=8, hours=1)
    model = build_linear_model(grid)
    a = rng.normal(size=model.n_buses)
    b = rng.normal(size=model.n_buses)
    fa, va = evaluate_linear(model, a)
    fb, vb = evaluate_linear(model, b)
    f0, v0 = evaluate_linear(model, np.zeros_like(a))
    fab, vab = evaluate_linear(model, a + b)
    assert fab == pytest.approx(fa + fb - f0, abs=1e-12)
    assert vab == pytest.approx(va + vb - v0, abs=1e-12)


def test_batch_evaluation_shape():
    model = build_linear_model(chain3())
    p = np.array([[0.1, -0.2], [0.0, 0.3], [0.5, 0.5]])
    flows, v2 = evaluate_linear(model, p)
    assert flows.shape == (3, 2) and v2.shape == (3, 2)
    f0, v0 = evaluate_linear(model, p[1])
    assert np.allclose(flows[1], f0) and np.allclose(v2[1], v0)


def test_dimension_mismatch_raises():
    model = build_linear_model(chain3())
    with pytest.raises(NetworkError):
        evaluate_linear(model, np.zeros(5))


def test_flow_conservation(rural):
    model = build_linear_model(rural)
    rng = np.random.default_rng(3)
    p = rng.normal(size=model.n_buses)
    flows, _ = evaluate_linear(model, p)
    pos = {b: i for i, b in enumerate(model.bus_order)}
    for bus in model.bus_order:
        incident = [i for i, ln in enumerate(rural.lines)
                    if bus in (ln.from_bus, ln.to_bus)]
        up = [i for i in incident if model.flow_map[i, pos[bus]] == 1.0]
        down = [i for i in incident if i not in up]
        assert len(up) == 1
        resid = flows[up[0]] - sum(flows[i] for i in down) - p[pos[bus]]
        assert abs(resid) <= 1e-9


def test_voltage_monotone_in_injection(rural):
    model = build_linear_model(rural)
    # raising any single bus injection never lowers any squared voltage
    assert np.all(model.voltage_map_p >= 0.0)
    assert np.all(model.voltage_map_q >= 0.0)


# -- AC sweep ----------------------------------------------------------------


def test_ac_zero_injections():
    state = ac_sweep(chain3(), np.zeros(2))
    assert state.converged
    assert state.iterations == 0
    assert np.all(state.voltages == 1.0 + 0.0j)


def test_ac_two_bus_hand_value():
    grid = two_bus(r=0.01, x=0.0)
    state = ac_sweep(grid, np.array([-0.1]))
    # V(V - 1) = -r * P  ->  V = (1 + sqrt(1 - 4 * 0.001)) / 2
    expect = (1.0 + math.sqrt(0.996)) / 2.0
    assert abs(state.voltages[0]) == pytest.approx(expect, abs=1e-9)
    assert state.mismatch <= 1e-8


def test_ac_zero_impedance_rejected():
    grid = two_bus(r=0.0, x=0.0)
    with pytest.raises(NetworkError, match="zero impedance"):
        ac_sweep(grid, np.array([0.1]))


def test_ac_losses_positive_under_load():
    state = ac_sweep(chain3(), np.array([-0.3, -0.4]))
    assert state.converged and state.losses_mw > 0.0


def test_compare_zero_point():
    rep = compare_models(chain3(), np.zeros(2))
    assert rep.max_dv_pu == 0.0
    assert rep.max_dflow_mw == 0.0


def test_compare_light_loading(rural):
    model = build_linear_model(rural)
    p = -np.array([rural.bus(b).demand_p[0] for b in model.bus_order])
    flows, _ = evaluate_linear(model, p)
    limits = np.array([ln.s_max for ln in rural.lines])
    scale = min(1.0, 0.10 * float(np.min(limits / np.maximum(np.abs(flows), 1e-12))))
    rep = compare_models(rural, p * scale, model=model)
    assert rep.max_dv_pu <= 0.002


def test_compare_rated_loading(urban):
    from feedincap.formulation import Scenario
    from feedincap.oracle import max_scal_bisection, rule_injections

    scenario = Scenario(fl=1.0, case="a")
    search = max_scal_bisection(urban, scenario)
    assert search.status == "ok"
    state = rule_injections(urban, scenario, search.scal_star)
    model = build_linear_model(urban)
    cols = [state.bus_order.index(b) for b in model.bus_order]
    rep = compare_models(urban, state.injection_p[0, cols], model=model)
    assert rep.max_dv_pu <= 0.015
