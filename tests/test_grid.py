import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from feedincap.grid import (
    Bus,
    GenUnit,
    Grid,
    GridFormatError,
    Line,
    parse_grid,
    serialize_grid,
    validate_grid,
)
from feedincap.fixtures import example_grid_7kwp, synth_grid
from feedincap.formulation import Scenario, node_aggregates

from util import reference_serialize_grid, two_bus


MINIMAL_DOC = {
    "base_mva": 1.0,
    "base_kv": 20.0,
    "buses": [
        {"id": "sub", "is_slack": True},
        {"id": "n1", "demand_p": [0.5]},
    ],
    "lines": [{"from": "sub", "to": "n1", "r": 0.01, "x": 0.01, "s_max": 5.0}],
}


def test_parse_minimal_two_bus():
    grid = parse_grid(MINIMAL_DOC)
    assert len(grid.buses) == 2
    assert len(grid.lines) == 1
    assert grid.slack.id == "sub"
    assert grid.bus("n1").demand_p == (0.5,)


def test_series_are_read_only_float64_arrays():
    grid = two_bus(demand_mw=0.5, profile=(1, 0.25))      # tuples in, an int among them
    parsed = parse_grid(MINIMAL_DOC)
    for s in (grid.bus("n1").demand_p, grid.bus("n1").demand_q, grid.gens[0].profile,
              parsed.bus("n1").demand_p, parsed.bus("n1").demand_q):
        assert isinstance(s, np.ndarray) and s.dtype == np.float64
        with pytest.raises(ValueError):
            s[0] = 1.0
    assert grid.gens[0].profile.tolist() == [1.0, 0.25]
    assert parsed.bus("n1").demand_p.tolist() == [0.5]


def test_parse_kw_units_convert_to_mw():
    doc = dict(MINIMAL_DOC)
    doc["buses"] = [
        {"id": "sub", "is_slack": True},
        {"id": "n1", "demand_p": {"unit": "kW", "values": [1.4]}},
    ]
    doc["generators"] = [
        {"id": "pv", "bus": "n1", "kind": "pv_candidate",
         "p_max": {"unit": "kW", "value": 7.0}, "profile": [1.0]},
    ]
    grid = parse_grid(doc)
    assert grid.bus("n1").demand_p[0] == pytest.approx(1.4e-3, abs=1e-15)
    assert grid.gens[0].p_max == pytest.approx(7e-3, abs=1e-15)


def test_parsed_series_keep_their_bits():
    values = [1.4, 3, -0.0, 0.1, 1e-05, 7]
    doc = dict(MINIMAL_DOC)
    doc["buses"] = [
        {"id": "sub", "is_slack": True, "demand_p": values, "demand_q": values},
        {"id": "n1", "demand_p": {"unit": "kW", "values": values},
         "demand_q": {"unit": "MVAr", "values": values}},
    ]
    grid = parse_grid(doc)
    mw = np.array(values, dtype=np.float64)
    for series, want in ((grid.buses[0].demand_p, mw), (grid.buses[0].demand_q, mw),
                         (grid.buses[1].demand_p, mw * 1e-3), (grid.buses[1].demand_q, mw)):
        assert series.tobytes() == want.tobytes()
        assert not series.flags.writeable


def test_parse_rejects_cycle():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["buses"].append({"id": "n2"})
    doc["lines"] += [
        {"from": "n1", "to": "n2", "r": 0.01, "x": 0.01, "s_max": 5.0},
        {"from": "n2", "to": "sub", "r": 0.01, "x": 0.01, "s_max": 5.0},
    ]
    with pytest.raises(GridFormatError, match="non_radial"):
        parse_grid(doc)


def test_parse_bad_json_and_missing_keys():
    with pytest.raises(GridFormatError, match="JSON"):
        parse_grid("{not json")
    with pytest.raises(GridFormatError, match="base_kv"):
        parse_grid({"base_mva": 1.0, "buses": [], "lines": []})


def test_round_trip_identity():
    text = serialize_grid(synth_grid("rural_mv", seed=1, hours=1))
    assert serialize_grid(parse_grid(text)) == text


def test_round_trip_identity_two_bus():
    text = serialize_grid(two_bus(demand_mw=0.123456789, profile=(0.3, 1.0)))
    assert serialize_grid(parse_grid(text)) == text


def test_missing_series_span_the_document_hours():
    # the slack bus gives no demand and the unit no profile: all zeros and all
    # ones over the two hours of the first series given
    doc = {
        "base_mva": 1.0, "base_kv": 20.0,
        "buses": [{"id": "sub", "is_slack": True},
                  {"id": "n1", "demand_p": [0.5, 0.25]}],
        "lines": [{"from": "sub", "to": "n1", "r": 0.01, "x": 0.01, "s_max": 5.0}],
        "generators": [{"id": "pv", "bus": "n1", "kind": "pv_candidate", "p_max": 1.0}],
    }
    for grid in (parse_grid(json.dumps(doc)), parse_grid(doc)):
        assert grid.hour_count == 2
        assert grid.slack.demand_p.tolist() == grid.slack.demand_q.tolist() == [0.0, 0.0]
        assert grid.bus("n1").demand_q.tolist() == [0.0, 0.0]
        assert grid.gens[0].profile.tolist() == [1.0, 1.0]


# -- text and dict input: series decoded while reading or afterwards --

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))


def _all_series(grid):
    return [s for b in grid.buses for s in (b.demand_p, b.demand_q)] + \
        [g.profile for g in grid.gens]


def _assert_both_paths_agree(text):
    """parse_grid of the text (series decoded as their objects close) and of
    json.loads of it (series converted afterwards) give the same grid."""
    from_text, from_dict = parse_grid(text), parse_grid(json.loads(text))
    assert [s.tobytes() for s in _all_series(from_text)] == \
        [s.tobytes() for s in _all_series(from_dict)]
    assert serialize_grid(from_text) == serialize_grid(from_dict)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_text_and_dict_parse_alike_on_shipped_fixtures(path):
    text = path.read_text()
    _assert_both_paths_agree(text)
    assert serialize_grid(parse_grid(text)) == text


def test_text_and_dict_parse_alike_on_unit_tagged_series():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["buses"][1]["demand_p"] = {"unit": "kW", "values": [1.4, 0.1, 3, -0.0]}
    doc["buses"][1]["demand_q"] = {"unit": "kVAr", "values": [0.3, 0.7, 1e-05, 2]}
    doc["buses"][0]["demand_p"] = {"values": [0.0, 0.0, 0.0, 0.0]}
    _assert_both_paths_agree(json.dumps(doc))
    assert parse_grid(json.dumps(doc)).bus("n1").demand_p.tobytes() == \
        (np.array([1.4, 0.1, 3, -0.0]) * 1e-3).tobytes()


def _series_holders(doc):
    """(object, key) of a bus demand, a unit-tagged demand and a generator profile."""
    doc["buses"][1]["demand_q"] = {"unit": "kVAr", "values": [0.5]}
    doc["generators"] = [{"id": "pv", "bus": "n1", "kind": "pv_candidate",
                          "p_max": 1.0, "profile": [1.0]}]
    return ((doc["buses"][1], "demand_p"), (doc["buses"][1]["demand_q"], "values"),
            (doc["generators"][0], "profile"))


BAD_ENTRIES = {"true": True, "string": "0.9", "null": None, "nested": [0.5],
               "int-too-large": 10**400, "nan": float("nan")}
BAD_SERIES = {**{f"[{k}]": [v] for k, v in BAD_ENTRIES.items()},
              **{k: v for k, v in BAD_ENTRIES.items() if k != "nested"}}


@pytest.mark.parametrize("bad", BAD_SERIES.values(), ids=BAD_SERIES.keys())
@pytest.mark.parametrize("holder", [0, 1, 2], ids=["demand_p", "kw-values", "profile"])
def test_text_and_dict_reject_bad_series_alike(bad, holder):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    obj, key = _series_holders(doc)[holder]
    obj[key] = bad
    text = json.dumps(doc)
    with pytest.raises(GridFormatError) as from_text:
        parse_grid(text)
    with pytest.raises(GridFormatError) as from_dict:
        parse_grid(json.loads(text))
    assert str(from_text.value) == str(from_dict.value)


def test_series_become_arrays_while_the_document_is_read():
    # the parse holds the series as float64 arrays plus at most one list of
    # Python floats (32 bytes per number), not every series as a list at once
    text = serialize_grid(synth_grid("lv", seed=1, hours=720))
    series_bytes = sum(s.nbytes for s in _all_series(parse_grid(text, validate=False)))
    tracemalloc.start()
    try:
        parse_grid(text, validate=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * series_bytes


# -- the canonical writer against json.dumps(indent=1) of the whole document --


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_writer_matches_the_reference_on_shipped_fixtures(path):
    grid = parse_grid(path.read_text())
    assert serialize_grid(grid) == reference_serialize_grid(grid)


def test_writer_matches_the_reference_on_a_week_of_lv():
    grid = synth_grid("lv", seed=1, hours=168)
    assert serialize_grid(grid) == reference_serialize_grid(grid)


ODD_NUMBERS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-05, 1e+16,
               3.0, -7.0, 1e22, 0.1, 5e-324, 1.7976931348623157e+308)


def test_writer_matches_the_reference_on_odd_numbers():
    nan, inf = float("nan"), float("inf")
    grid = Grid(
        base_mva=nan, base_kv=inf, hour_duration_h=-inf,
        buses=(Bus("sub", True, ODD_NUMBERS, ODD_NUMBERS[::-1], vmin=-0.0, vmax=1e+16),
               Bus("n1", False, ODD_NUMBERS[3:], ODD_NUMBERS[:3], vmin=1e-05, vmax=2.0)),
        lines=(Line("sub", "n1", nan, -inf, inf, -0.0),),
        gens=(GenUnit("g1", "n1", "wind", 1e+16, ODD_NUMBERS[1:]),
              GenUnit("g2", "sub", "ror", -inf, (nan,))),
    )
    text = serialize_grid(grid)
    assert text == reference_serialize_grid(grid)
    for word in ("NaN", "Infinity", "-Infinity", "-0.0", "1e-05", "1e+16", "3.0"):
        assert f"    {word}," in text


def test_writer_matches_the_reference_on_empty_series_and_lists():
    grids = (
        Grid(1.0, 20.0, buses=(Bus("sub", True, (), ()),), lines=(),
             gens=(GenUnit("g", "sub", "wind", 1.0, ()),)),
        Grid(1.0, 20.0, buses=(Bus("sub", True, (), (0.5,)),), lines=()),
        Grid(1.0, 20.0, buses=(), lines=()),
    )
    for grid in grids:
        assert serialize_grid(grid) == reference_serialize_grid(grid)


@pytest.mark.parametrize("name", [
    'say "hi"', "Übergabe – 変電所", "nul\x00byte", "back\\slash", "null",
    '   "demand_p": null,', '"profile": null', '\n   "demand_q": null\n', "[]",
])
def test_writer_matches_the_reference_on_odd_ids(name):
    grid = Grid(
        1.0, 20.0,
        buses=(Bus(name, True, (0.5, 1.0), (0.1, 0.2)),
               Bus(name + "2", False, (0.25, 2.0), (0.3, 0.4))),
        lines=(Line(name, name + "2", 0.01, 0.01, 5.0),),
        gens=(GenUnit(name, name + "2", name, 1.0, (0.0, 1.0)),),
    )
    text = serialize_grid(grid)
    assert text == reference_serialize_grid(grid)
    assert parse_grid(text, validate=False).buses[0].id == name


def test_fixture_document_parses_to_158_buses():
    doc = serialize_grid(synth_grid("rural_mv", seed=1, hours=1))
    assert len(parse_grid(doc).buses) == 158


def test_validate_clean_grid():
    assert validate_grid(two_bus()) == []


def test_validate_degenerate_voltage_band():
    grid = two_bus(vmin=1.0, vmax=1.0)
    issues = validate_grid(grid)
    assert [i.code for i in issues] == ["bad_voltage_band", "bad_voltage_band"]
    assert "degenerate voltage band" in issues[0].message


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["demand_p", "demand_q", "r", "x", "s_max",
                                   "p_max", "base_mva", "base_kv",
                                   "hour_duration_h"])
def test_validate_rejects_non_finite(field, bad):
    grid = two_bus()
    if field in ("demand_p", "demand_q"):
        grid = replace(grid, buses=(grid.buses[0],
                                    replace(grid.buses[1], **{field: (bad,)})))
    elif field in ("r", "x", "s_max"):
        grid = replace(grid, lines=(replace(grid.lines[0], **{field: bad}),))
    elif field == "p_max":
        grid = replace(grid, gens=(replace(grid.gens[0], p_max=bad),))
    else:
        grid = replace(grid, **{field: bad})
    assert "non_finite" in {i.code for i in validate_grid(grid)}


def test_validate_rejects_a_vmax_whose_square_overflows():
    # 1e200 is finite, but the linear model squares it: 1e200**2 raises OverflowError
    issues = validate_grid(two_bus(vmax=1e200))
    assert [(i.code, i.location) for i in issues] == [("non_finite", "sub"),
                                                       ("non_finite", "n1")]


@pytest.mark.parametrize("key,value", [("r", 1e308), ("x", 1e308), ("base_mva", 1e-310)])
def test_validate_rejects_impedances_that_overflow_the_linear_model(key, value):
    # every value is finite, but 2 * r / base_mva (or x) is not, so the linear
    # model's voltage sensitivities would be infinite
    doc = json.loads(serialize_grid(example_grid_7kwp()))
    (doc if key == "base_mva" else doc["lines"][0])[key] = value
    issues = validate_grid(parse_grid(doc, validate=False))
    assert [(i.code, i.location) for i in issues] == [("non_finite", "grid")]


def test_nan_demand_document_is_rejected():
    # json accepts the NaN literal, and nan < 0 is False, so only the
    # finiteness check stands between this document and the solvers
    text = json.dumps(MINIMAL_DOC).replace("0.5", "NaN")
    assert "NaN" in text
    issues = validate_grid(parse_grid(text, validate=False))
    assert [(i.code, i.location) for i in issues] == [("non_finite", "n1")]
    with pytest.raises(GridFormatError, match="non_finite"):
        parse_grid(text)


def test_validate_profile_out_of_range():
    grid = two_bus(profile=(1.2,))
    issues = validate_grid(grid)
    assert [i.code for i in issues] == ["bad_profile"]
    assert "profile out of [0, 1]" in issues[0].message


def test_validate_cycle_message():
    bad = Grid(
        1.0, 20.0,
        buses=(Bus("sub", True), Bus("a"), Bus("b")),
        lines=(Line("sub", "a", 0.01, 0.01, 5.0),
               Line("a", "b", 0.01, 0.01, 5.0),
               Line("b", "sub", 0.01, 0.01, 5.0)),
    )
    issues = validate_grid(bad)
    assert any(i.code == "non_radial" and "non-radial topology" in i.message
               for i in issues)


def test_validate_catches_disconnected_and_duplicates():
    grid = Grid(
        1.0, 20.0,
        buses=(Bus("sub", True), Bus("a"), Bus("a"), Bus("orphan")),
        lines=(Line("sub", "a", 0.01, 0.01, 5.0),
               Line("sub", "a", 0.01, 0.01, 5.0),
               Line("orphan", "orphan", 0.01, 0.01, 5.0)),
        gens=(GenUnit("g", "a", "nonsense", -1.0, (1.0,)),),
    )
    codes = {i.code for i in validate_grid(grid)}
    assert {"duplicate_bus", "non_radial", "bad_kind", "bad_pmax"} <= codes


# -- demand multiplier ------------------------------------------------------


def test_scale_demand_on_rural_total(rural):
    h = int(max(range(rural.hour_count),
                key=lambda t: sum(b.demand_p[t] for b in rural.buses)))
    total = sum(b.demand_p[h] for b in rural.buses)
    total_q = sum(b.demand_q[h] for b in rural.buses)
    assert total == pytest.approx(1.20, abs=1e-9)
    agg = node_aggregates(rural, Scenario(demand_multiplier=1.2), (h,))
    assert agg.demand_p.sum() == pytest.approx(1.44, abs=1e-9)
    assert agg.demand_q.sum() == pytest.approx(1.2 * total_q, abs=1e-9)
