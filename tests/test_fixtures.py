from pathlib import Path

import numpy as np
import pytest

import feedincap.fixtures as fixtures
from feedincap.fixtures import example_grid_7kwp, synth_grid, synth_profiles
from feedincap.formulation import Scenario, curtailment_rule
from feedincap.grid import PV_KINDS, serialize_grid, validate_grid
from feedincap.oracle import max_scal_bisection


def _total(grid, kind):
    return sum(g.p_max for g in grid.gens if g.kind == kind)


def _count(grid, kind):
    return sum(1 for g in grid.gens if g.kind == kind)


def test_rural_targets(rural):
    assert len(rural.buses) == 158
    assert sum(ln.length_km for ln in rural.lines) == pytest.approx(21.0, abs=1e-9)
    assert _count(rural, "pv_existing_scalable") == 53
    assert _total(rural, "pv_existing_scalable") == pytest.approx(6.838, rel=0.10)
    assert _total(rural, "pv_existing_scalable") == pytest.approx(6.838, abs=1e-9)
    assert _count(rural, "pv_existing_fixed") == 4
    assert _total(rural, "pv_existing_fixed") == pytest.approx(1.432, abs=1e-9)
    assert _count(rural, "wind") == 3
    assert _total(rural, "wind") == pytest.approx(0.320, abs=1e-9)
    assert _count(rural, "ror") == 1
    assert _total(rural, "ror") == pytest.approx(0.0044, abs=1e-12)
    assert sum(b.demand_p[0] for b in rural.buses) == pytest.approx(1.20, abs=1e-9)
    assert rural.base_mva == 25.0 and rural.base_kv == 20.0


def test_urban_targets(urban):
    assert len(urban.buses) == 110
    assert sum(ln.length_km for ln in urban.lines) == pytest.approx(4.0, abs=1e-9)
    assert _count(urban, "pv_existing_scalable") == 27
    assert _total(urban, "pv_existing_scalable") == pytest.approx(2.028, abs=1e-9)
    assert _count(urban, "pv_existing_fixed") == 2
    assert _total(urban, "pv_existing_fixed") == pytest.approx(2.622, abs=1e-9)
    assert _count(urban, "ror") == 2
    assert _total(urban, "ror") == pytest.approx(0.208, abs=1e-9)
    assert _count(urban, "fossil") == 1
    assert _total(urban, "fossil") == pytest.approx(0.300, abs=1e-9)
    assert sum(b.demand_p[0] for b in urban.buses) == pytest.approx(2.00, abs=1e-9)


def test_hybrid_targets(hybrid):
    assert len(hybrid.buses) == 267
    assert sum(ln.length_km for ln in hybrid.lines) == pytest.approx(78.0, abs=1e-9)
    assert _count(hybrid, "pv_existing_scalable") == 74
    assert _total(hybrid, "pv_existing_scalable") == pytest.approx(8.264, abs=1e-9)
    assert _count(hybrid, "pv_existing_fixed") == 1
    assert _count(hybrid, "ror") == 1
    assert _total(hybrid, "ror") == pytest.approx(0.080, abs=1e-9)
    assert sum(b.demand_p[0] for b in hybrid.buses) == pytest.approx(2.51, abs=1e-9)


def test_lv_targets(lv, lv_year):
    assert len(lv.buses) == 180
    assert sum(ln.length_km for ln in lv.lines) == pytest.approx(6.9, abs=1e-9)
    assert _count(lv, "pv_existing_fixed") == 39
    assert _total(lv, "pv_existing_fixed") == pytest.approx(0.352, abs=1e-9)
    assert lv.base_mva == 0.25 and lv.base_kv == 0.4
    annual = sum(sum(b.demand_p) for b in lv_year.buses) * lv_year.hour_duration_h
    assert annual == pytest.approx(483.72, abs=1e-6)


def test_voltage_bands(rural, lv):
    assert all((b.vmin, b.vmax) == (0.95, 1.03) for b in rural.buses)
    assert all((b.vmin, b.vmax) == (0.9, 1.1) for b in lv.buses)


def test_all_fixtures_validate_clean(rural, urban, hybrid, lv):
    for grid in (rural, urban, hybrid, lv, example_grid_7kwp()):
        assert validate_grid(grid) == []


def test_same_seed_byte_identical():
    a = serialize_grid(synth_grid("urban_mv", seed=3, hours=2))
    b = serialize_grid(synth_grid("urban_mv", seed=3, hours=2))
    assert a == b


def test_seed_changes_the_draw():
    a = serialize_grid(synth_grid("urban_mv", seed=1))
    b = serialize_grid(synth_grid("urban_mv", seed=2))
    assert a != b


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fixture kind"):
        synth_grid("suburban")
    with pytest.raises(ValueError, match="unknown fixture kind"):
        synth_profiles("suburban", 1)


def test_mv_candidates_shadow_scalable_sites(rural):
    scal_at = {g.bus: g.p_max for g in rural.gens
               if g.kind == "pv_existing_scalable"}
    cand_at = {g.bus: g.p_max for g in rural.gens if g.kind == "pv_candidate"}
    assert cand_at == scal_at


def test_lv_candidates_at_metered_nodes_without_pv(lv):
    pv_buses = {g.bus for g in lv.gens
                if g.kind in PV_KINDS and g.kind != "pv_candidate"}
    cands = [g for g in lv.gens if g.kind == "pv_candidate"]
    expected = [b.id for b in lv.buses
                if not b.is_slack and b.id not in pv_buses
                and any(v > 0 for v in b.demand_p)]
    assert sorted(g.bus for g in cands) == sorted(expected)
    assert all(g.p_max == 0.005 for g in cands)


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("kind", ["rural_mv", "urban_mv", "hybrid_mv"])
def test_mv_candidate_beside_each_scalable_unit(kind, seed):
    grid = synth_grid(kind, seed=seed, hours=24)
    scalable = [g for g in grid.gens if g.kind == "pv_existing_scalable"]
    n_existing = len(grid.gens) - len(scalable)
    assert all(g.kind != "pv_candidate" for g in grid.gens[:n_existing])
    cands = grid.gens[n_existing:]
    assert [(c.id, c.bus, c.kind, c.p_max) for c in cands] == \
        [(f"cand_{g.bus}", g.bus, "pv_candidate", g.p_max) for g in scalable]
    for c, g in zip(cands, scalable):
        assert c.profile.tolist() == g.profile.tolist()


@pytest.mark.parametrize("seed", [2, 3])
def test_lv_candidate_at_each_metered_node_without_pv(seed):
    grid = synth_grid("lv", seed=seed, hours=24)
    existing = [g for g in grid.gens if g.kind != "pv_candidate"]
    cands = grid.gens[len(existing):]
    pv_buses = {g.bus for g in existing if g.kind in PV_KINDS}
    metered = [b.id for b in grid.buses if not b.is_slack and b.id not in pv_buses
               and (b.demand_p > 0).any()]
    assert [(c.id, c.bus, c.kind, c.p_max) for c in cands] == \
        [(f"cand_{bid}", bid, "pv_candidate", 0.005) for bid in metered]
    pv_cf = synth_profiles("lv", 24, seed).pv_cf.tolist()
    assert all(c.profile.tolist() == pv_cf for c in cands)


def test_transformer_tension_flagged_in_docs():
    assert "0.25 MVA" in fixtures.__doc__


# -- profiles ----------------------------------------------------------------


def test_pv_profile_shape_properties():
    prof = synth_profiles("lv", 8760, seed=1)
    pv = np.array(prof.pv_cf)
    assert pv[0] == 0.0                       # first hour of the year is night
    assert pv.max() == 1.0
    assert 0.10 <= pv.mean() <= 0.15
    assert np.all((pv >= 0.0) & (pv <= 1.0))
    midnights = pv[0::24]
    assert np.all(midnights == 0.0)


def test_single_hour_slice_is_the_design_peak():
    prof = synth_profiles("rural_mv", 1, seed=1)
    assert prof.pv_cf == (1.0,)
    assert prof.peak_pos == 0


def test_other_series_bounded():
    prof = synth_profiles("urban_mv", 8760, seed=1)
    for series in (prof.wind_cf, prof.ror_cf, prof.demand_shape):
        arr = np.array(series)
        assert np.all((arr >= 0.0) & (arr <= 1.0))
    assert max(prof.demand_shape) == 1.0


def test_hour_slice_keeps_peak_reachable():
    prof = synth_profiles("lv", 100, seed=1)
    assert len(prof.hours) == 100
    assert max(prof.pv_cf) == 1.0


# -- reference example -------------------------------------------------------


def test_example_grid_reference_numbers():
    grid = example_grid_7kwp()
    cand = grid.gens[0]
    assert cand.kind == "pv_candidate"
    assert cand.p_max == pytest.approx(7e-3)
    assert cand.profile[0] == 1.0
    assert grid.bus("n001").demand_p[0] == pytest.approx(1.4e-3)

    _, c_07 = curtailment_rule(7.0, 7.0, 0.7, 1.4)
    assert c_07 == pytest.approx(0.7, abs=1e-12)
    _, c_10 = curtailment_rule(7.0, 7.0, 1.0, 1.4)
    assert c_10 == 0.0
    prod, _ = curtailment_rule(7.0, 7.0, 0.7, 1.4)
    assert prod - 1.4 == pytest.approx(4.9, abs=1e-12)


# -- binding stories ---------------------------------------------------------


def test_rural_calibrated_expansion(rural):
    search = max_scal_bisection(rural, Scenario(fl=1.0, case="a"))
    assert search.status == "ok"
    assert search.scal_star == pytest.approx(0.12, abs=1e-3)


def test_hybrid_exhausted_in_case_a(hybrid):
    search = max_scal_bisection(hybrid, Scenario(fl=0.7, case="a"))
    assert search.status == "ok"
    assert search.scal_star <= 1e-3
    search_b = max_scal_bisection(hybrid, Scenario(fl=0.7, case="b"))
    assert search_b.scal_star > 0.01


# -- shipped documents -------------------------------------------------------


def test_shipped_documents_match_generators():
    # regenerate with `feedincap synth` if these drift
    root = Path(__file__).resolve().parent.parent / "fixtures"
    shipped = {
        "rural_mv.json": synth_grid("rural_mv", seed=1, hours=1),
        "urban_mv.json": synth_grid("urban_mv", seed=1, hours=1),
        "hybrid_mv.json": synth_grid("hybrid_mv", seed=1, hours=1),
        "lv.json": synth_grid("lv", seed=1, hours=24),
        "example.json": example_grid_7kwp(),
    }
    for name, grid in shipped.items():
        assert (root / name).read_text() == serialize_grid(grid)
