"""Radial grid data model and JSON document handling.

A grid document is UTF-8 JSON with keys base_mva, base_kv, hour_duration_h,
buses[], lines[] and generators[]. All power quantities are MW internally;
the document may tag individual fields with "kW"/"kWp" (or "MW"/"MWp") and
values are converted on parse. Time series (demand, generation profiles) are
hour-indexed lists of equal length, which defines the grid's hour count.

Topology must be radial: exactly one slack bus, |lines| == |buses| - 1 and
connected. validate_grid collects every violation instead of stopping at the
first one, so the CLI can print a full report.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

GEN_KINDS = (
    "pv_candidate",
    "pv_existing_scalable",
    "pv_existing_fixed",
    "wind",
    "ror",
    "fossil",
)

# Kinds counted as PV (curtailable under case "b"; candidates under case "a").
PV_KINDS = frozenset({"pv_candidate", "pv_existing_scalable", "pv_existing_fixed"})

_POWER_UNITS = {
    "MW": 1.0,
    "MWP": 1.0,
    "MVAR": 1.0,
    "MVA": 1.0,
    "KW": 1e-3,
    "KWP": 1e-3,
    "KVAR": 1e-3,
    "KVA": 1e-3,
}


class GridFormatError(ValueError):
    """Raised for documents that cannot be turned into a valid Grid."""


def _series(values, scale: float = 1.0) -> np.ndarray:
    """An hourly series times scale as a read-only float64 array (list, tuple or
    array in); a read-only float64 array at scale 1 is kept as is."""
    if scale == 1.0 and isinstance(values, np.ndarray) and values.dtype == np.float64 \
            and not values.flags.writeable:
        return values
    series = np.array(values, dtype=np.float64)
    if scale != 1.0:
        series *= scale
    series.flags.writeable = False
    return series


# Series fields are read-only float64 arrays, so Bus and GenUnit compare by
# identity (eq=False); compare grids through serialize_grid.
@dataclass(frozen=True, eq=False)
class Bus:
    id: str
    is_slack: bool = False
    demand_p: np.ndarray = (0.0,)     # MW per hour
    demand_q: np.ndarray = (0.0,)     # MVAr per hour
    vmin: float = 0.95                # p.u.
    vmax: float = 1.05                # p.u.

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand_p", _series(self.demand_p))
        object.__setattr__(self, "demand_q", _series(self.demand_q))


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    r: float                 # p.u. on system base
    x: float                 # p.u. on system base
    s_max: float             # MW, active-flow thermal limit
    length_km: float = 0.0

    @property
    def id(self) -> str:
        return f"{self.from_bus}-{self.to_bus}"


@dataclass(frozen=True, eq=False)
class GenUnit:
    id: str
    bus: str
    kind: str
    p_max: float                   # MW; base capacity for candidates
    profile: np.ndarray = (1.0,)   # per-hour capacity factor in [0, 1]

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", _series(self.profile))


@dataclass(frozen=True)
class Grid:
    base_mva: float
    base_kv: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    gens: tuple[GenUnit, ...] = ()
    hour_duration_h: float = 1.0

    @property
    def hour_count(self) -> int:
        return len(self.buses[0].demand_p) if self.buses else 0

    @property
    def slack(self) -> Bus:
        for b in self.buses:
            if b.is_slack:
                return b
        raise GridFormatError("grid has no slack bus")

    def bus(self, bus_id: str) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(bus_id)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    severity: str      # "error" | "warning"
    location: str      # bus/line/gen id, or "grid"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} at {self.location}: {self.message}"


# ---------------------------------------------------------------------------
# document parsing


def _number(value, kind=float):
    """kind(value) for a JSON number (int or float); a boolean, a string or null
    is not one. Series entries follow the same rule in _numbers."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {json.dumps(value, default=repr)}")
    return kind(value)


def _numbers(node: object, what: str) -> list | np.ndarray:
    """node if it is a list of JSON numbers (one type check, no per-value loop) or
    the float64 array _decode_series made of one."""
    if isinstance(node, np.ndarray) and node.dtype == np.float64 and node.ndim == 1:
        return node
    if not isinstance(node, (list, tuple)) or not set(map(type, node)) <= {int, float}:
        raise GridFormatError(f"{what}: expected a list of numbers")
    return node


_SERIES_KEYS = ("demand_p", "demand_q", "profile", "values")


def _decode_series(obj: dict) -> dict:
    """json.loads object hook: each series of obj becomes its array as obj closes,
    so the list of Python floats is freed at once and only one series of them is
    alive at a time. A list the number rule rejects, or one past the float range,
    stays a list for parse_grid to report."""
    for key in _SERIES_KEYS:
        if type(obj.get(key)) is list:
            try:
                obj[key] = _series(_numbers(obj[key], key))
            except (GridFormatError, OverflowError):
                pass
    return obj


def _power(node: object, what: str, series: bool = False) -> float | np.ndarray:
    """Decode a power field: bare number (MW) or {"unit": ..., "value(s)": ...}."""
    if isinstance(node, dict):
        unit = str(node.get("unit", "MW")).upper()
        if unit not in _POWER_UNITS:
            raise GridFormatError(f"{what}: unknown unit {node.get('unit')!r}")
        scale = _POWER_UNITS[unit]
        payload = node.get("values" if series else "value")
        if payload is None:
            raise GridFormatError(f"{what}: missing {'values' if series else 'value'}")
        node = payload
    else:
        scale = 1.0
    if series:
        return _series(_numbers(node, what), scale)
    try:
        return _number(node) * scale
    except TypeError:
        raise GridFormatError(f"{what}: expected a number") from None


def parse_grid(document: str | dict, *, validate: bool = True) -> Grid:
    """Parse a grid document (JSON text or dict) into a Grid.

    With validate=True (default) any error-severity issue raises
    GridFormatError. validate=False returns the structural object as-is so a
    caller (the `validate` subcommand) can report all issues itself; only
    shape/type problems that prevent construction still raise.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document, object_hook=_decode_series)
        except json.JSONDecodeError as exc:
            raise GridFormatError(f"not valid JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise GridFormatError("top-level document must be an object")
    for key in ("base_mva", "base_kv", "buses", "lines"):
        if key not in doc:
            raise GridFormatError(f"missing required key {key!r}")
    for key in ("buses", "lines", "generators"):
        if not isinstance(doc.get(key, []), list):
            raise GridFormatError(f"{key} must be a list")

    where = "grid"      # names the element whose value fails to convert
    try:
        bus_args = []
        for i, raw in enumerate(doc["buses"]):
            if not isinstance(raw, dict) or "id" not in raw:
                raise GridFormatError(f"buses[{i}]: expected an object with an 'id'")
            bid = str(raw["id"])
            where = f"bus {bid}"
            args = {key: _power(raw[key], f"bus {bid} {key}", series=True)
                    for key in ("demand_p", "demand_q") if key in raw}
            if not isinstance(raw.get("is_slack", False), bool):
                raise GridFormatError(f"bus {bid}: is_slack must be true or false")
            bus_args.append(dict(args, id=bid, is_slack=raw.get("is_slack", False),
                                 vmin=_number(raw.get("vmin", 0.95)),
                                 vmax=_number(raw.get("vmax", 1.05))))

        lines = []
        for i, raw in enumerate(doc["lines"]):
            if not isinstance(raw, dict) or "from" not in raw or "to" not in raw:
                raise GridFormatError(f"lines[{i}]: expected an object with 'from'/'to'")
            where = f"lines[{i}]"
            lines.append(
                Line(
                    from_bus=str(raw["from"]),
                    to_bus=str(raw["to"]),
                    r=_number(raw.get("r", 0.0)),
                    x=_number(raw.get("x", 0.0)),
                    s_max=_power(raw.get("s_max", math.inf), f"lines[{i}] s_max"),
                    length_km=_number(raw.get("length_km", 0.0)),
                )
            )

        gen_args = []
        for i, raw in enumerate(doc.get("generators", [])):
            if not isinstance(raw, dict) or "id" not in raw:
                raise GridFormatError(f"generators[{i}]: expected an object with an 'id'")
            gid = str(raw["id"])
            where = f"gen {gid}"
            args = {"id": gid, "bus": str(raw.get("bus", "")), "kind": str(raw.get("kind", "")),
                    "p_max": _power(raw.get("p_max", 0.0), f"gen {gid} p_max")}
            if "profile" in raw:
                args["profile"] = _series(_numbers(raw["profile"], f"gen {gid} profile"))
            gen_args.append(args)

        # a series the document leaves out spans the hours of the first one it gives
        given = [a[key] for a in bus_args for key in ("demand_p", "demand_q") if key in a]
        given += [a["profile"] for a in gen_args if "profile" in a]
        hours = len(given[0]) if given else 1
        zeros, ones = _series(np.zeros(hours)), _series(np.ones(hours))
        buses = [Bus(**{"demand_p": zeros, "demand_q": zeros, **a}) for a in bus_args]
        gens = [GenUnit(**{"profile": ones, **a}) for a in gen_args]

        where = "grid"
        grid = Grid(
            base_mva=_number(doc["base_mva"]),
            base_kv=_number(doc["base_kv"]),
            hour_duration_h=_number(doc.get("hour_duration_h", 1.0)),
            buses=tuple(buses),
            lines=tuple(lines),
            gens=tuple(gens),
        )
    except GridFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:   # not a number, or past float range
        raise GridFormatError(f"{where}: expected numbers ({exc})") from None
    if validate:
        errors = [iss for iss in validate_grid(grid) if iss.severity == "error"]
        if errors:
            listing = "; ".join(str(e) for e in errors[:8])
            more = "" if len(errors) <= 8 else f" (+{len(errors) - 8} more)"
            raise GridFormatError(f"invalid grid: {listing}{more}")
    return grid


# A series field's line in json.dumps(doc, indent=1) of a document whose series
# were replaced by None. A raw newline never occurs inside a JSON string, so only
# the keys of bus and generator objects start such a line.
_SERIES_HOLE = re.compile(r'^(   "(?:demand_p|demand_q|profile)": )null(,?)$', re.MULTILINE)


def _series_text(values: np.ndarray) -> str:
    """A series laid out as json.dumps(indent=1) lays it out at the depth of a
    bus or generator field: one number per line at 4 spaces, "]" at 3."""
    if not values.size:
        return "[]"
    # without an indent json.dumps runs the C encoder, which writes each float
    # as float.__repr__ does (NaN, Infinity, -Infinity for the rest)
    numbers = json.dumps(values.tolist(), separators=(",\n    ", ": "))[1:-1]
    return f"[\n    {numbers}\n   ]"


def serialize_grid(grid: Grid) -> str:
    """Serialize to the canonical document form (bare numbers, MW).

    The text is exactly json.dumps(doc, indent=1). With an indent json.dumps
    runs its pure-Python encoder, so only the skeleton goes through it; the
    hourly series, nearly all of the text, are rendered by the C encoder and
    spliced in. parse_grid(serialize_grid(g)) reproduces g exactly: floats go
    through repr-exact JSON in both directions.
    """
    doc = {
        "base_mva": grid.base_mva,
        "base_kv": grid.base_kv,
        "hour_duration_h": grid.hour_duration_h,
        "buses": [
            {
                "id": b.id,
                "is_slack": b.is_slack,
                "vmin": b.vmin,
                "vmax": b.vmax,
                "demand_p": None,
                "demand_q": None,
            }
            for b in grid.buses
        ],
        "lines": [
            {
                "from": ln.from_bus,
                "to": ln.to_bus,
                "r": ln.r,
                "x": ln.x,
                "s_max": ln.s_max,
                "length_km": ln.length_km,
            }
            for ln in grid.lines
        ],
        "generators": [
            {
                "id": g.id,
                "bus": g.bus,
                "kind": g.kind,
                "p_max": g.p_max,
                "profile": None,
            }
            for g in grid.gens
        ],
    }
    # the holes in document order
    series = [s for b in grid.buses for s in (b.demand_p, b.demand_q)]
    series += [g.profile for g in grid.gens]
    texts = map(_series_text, series)
    return _SERIES_HOLE.sub(lambda m: m[1] + next(texts) + m[2],
                            json.dumps(doc, indent=1))


# ---------------------------------------------------------------------------
# validation


def tree_walk(grid: Grid, root: str) -> tuple[dict[str, tuple[str, int]], list[str]]:
    """Walk out from root breadth first over the lines whose ends are both buses.

    Returns the parent map (bus -> (parent bus, line index)) and the buses in
    visiting order, root first.
    """
    adj: dict[str, list[tuple[str, int]]] = {b.id: [] for b in grid.buses}
    for idx, ln in enumerate(grid.lines):
        if ln.from_bus in adj and ln.to_bus in adj:
            adj[ln.from_bus].append((ln.to_bus, idx))
            adj[ln.to_bus].append((ln.from_bus, idx))
    parent: dict[str, tuple[str, int]] = {}
    order = [root]
    for cur in order:               # order grows while it is read: a queue
        for nxt, idx in adj[cur]:
            if nxt != root and nxt not in parent:
                parent[nxt] = (cur, idx)
                order.append(nxt)
    return parent, order


def validate_grid(grid: Grid) -> list[ValidationIssue]:
    """Check every structural invariant; returns [] iff the grid is sound."""
    issues: list[ValidationIssue] = []

    def err(code: str, loc: str, msg: str) -> None:
        issues.append(ValidationIssue(code, "error", loc, msg))

    if not grid.buses:
        err("empty", "grid", "no buses")
        return issues
    if not all(map(math.isfinite, (grid.base_mva, grid.base_kv, grid.hour_duration_h))):
        err("non_finite", "grid", "base_mva, base_kv and hour_duration_h must be finite, "
            f"got {grid.base_mva}/{grid.base_kv}/{grid.hour_duration_h}")
    if grid.base_mva <= 0 or grid.base_kv <= 0:
        err("bad_base", "grid", f"base_mva/base_kv must be > 0, got {grid.base_mva}/{grid.base_kv}")
    if grid.base_mva > 0 and not math.isfinite(1 / grid.base_mva):     # MW -> per unit
        err("non_finite", "grid", f"1/base_mva must be finite, got base_mva = {grid.base_mva}")
    if grid.hour_duration_h <= 0:
        err("bad_hour_duration", "grid", f"hour_duration_h must be > 0, got {grid.hour_duration_h}")

    slack_ids = [b.id for b in grid.buses if b.is_slack]
    if len(slack_ids) != 1:
        err("slack_count", "grid", f"expected exactly 1 slack bus, found {len(slack_ids)}")

    hour_count = len(grid.buses[0].demand_p)
    if hour_count < 1:
        err("series_length", grid.buses[0].id, "demand series must have at least one hour")

    seen_bus: set[str] = set()
    for b in grid.buses:
        if b.id in seen_bus:
            err("duplicate_bus", b.id, "bus id appears more than once")
        seen_bus.add(b.id)
        if len(b.demand_p) != hour_count or len(b.demand_q) != hour_count:
            err("series_length", b.id,
                f"demand series length {len(b.demand_p)}/{len(b.demand_q)} != {hour_count}")
        if not (np.isfinite(b.demand_p).all() and np.isfinite(b.demand_q).all()):
            err("non_finite", b.id, "demand series has NaN or infinite entries")
        if (b.demand_p < 0).any():
            err("neg_demand", b.id, "demand_p has negative entries")
        if not (0 < b.vmin < b.vmax):
            err("bad_voltage_band", b.id,
                f"degenerate voltage band: need 0 < vmin < vmax, got [{b.vmin}, {b.vmax}]")
        if not math.isfinite(b.vmax * b.vmax):      # ** would raise OverflowError
            err("non_finite", b.id, f"vmax^2 must be finite, got vmax = {b.vmax}")

    if not grid.lines:
        err("no_lines", "grid", "no lines: with nothing to rate and no bus off the "
            "slack, no network bound limits the expansion")
    line_pairs: set[frozenset[str]] = set()
    for ln in grid.lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in seen_bus:
                err("unknown_bus", ln.id, f"line references unknown bus {end!r}")
        if ln.from_bus == ln.to_bus:
            err("non_radial", ln.id, "self-loop")
        pair = frozenset((ln.from_bus, ln.to_bus))
        if pair in line_pairs:
            err("non_radial", ln.id, "parallel line forms a cycle")
        line_pairs.add(pair)
        if not all(map(math.isfinite, (ln.r, ln.x, ln.s_max))):
            err("non_finite", ln.id,
                f"r, x and s_max must be finite, got {ln.r}/{ln.x}/{ln.s_max}")
        if ln.r < 0 or ln.x < 0:
            err("bad_line_param", ln.id, f"negative impedance r={ln.r} x={ln.x}")
        if not ln.s_max > 0:
            err("bad_line_param", ln.id, f"s_max must be > 0, got {ln.s_max}")
        if ln.r == 0 and ln.x == 0:
            issues.append(ValidationIssue(
                "zero_impedance", "warning", ln.id,
                "r = x = 0: the linearized model accepts it, the AC power-flow check cannot"))

    # build_linear_model's voltage sensitivities are 2 * (r or x summed over
    # the lines two paths share) / base_mva; the sums over all lines bound them
    if grid.base_mva > 0 and all(math.isfinite(ln.r) and math.isfinite(ln.x) for ln in grid.lines):
        bounds = [2 * sum(getattr(ln, z) for ln in grid.lines) / grid.base_mva for z in "rx"]
        if not all(map(math.isfinite, bounds)):
            err("non_finite", "grid", "line impedances overflow the linear model: "
                f"2*sum(r)/base_mva = {bounds[0]}, 2*sum(x)/base_mva = {bounds[1]}")

    # Radiality: tree edge count plus connectivity from the slack.
    if len(slack_ids) == 1 and not any(i.code == "unknown_bus" for i in issues):
        if len(grid.lines) != len(grid.buses) - 1:
            err("non_radial", "grid",
                f"non-radial topology: a tree needs |lines| == |buses|-1, "
                f"got {len(grid.lines)} != {len(grid.buses) - 1}")
        missing = sorted(seen_bus - set(tree_walk(grid, slack_ids[0])[1]))
        if missing:
            err("disconnected", "grid", f"buses unreachable from slack: {', '.join(missing[:6])}")

    seen_gen: set[str] = set()
    for g in grid.gens:
        if g.id in seen_gen:
            err("duplicate_gen", g.id, "generator id appears more than once")
        seen_gen.add(g.id)
        if g.bus not in seen_bus:
            err("unknown_bus", g.id, f"generator references unknown bus {g.bus!r}")
        if g.kind not in GEN_KINDS:
            err("bad_kind", g.id, f"unknown kind {g.kind!r}")
        if not math.isfinite(g.p_max):
            err("non_finite", g.id, f"p_max must be finite, got {g.p_max}")
        if g.p_max < 0:
            err("bad_pmax", g.id, f"p_max must be >= 0, got {g.p_max}")
        if len(g.profile) != hour_count:
            err("series_length", g.id, f"profile length {len(g.profile)} != {hour_count}")
        if not ((g.profile >= 0.0) & (g.profile <= 1.0)).all():    # NaN fails both
            err("bad_profile", g.id, "profile out of [0, 1]")

    return issues
