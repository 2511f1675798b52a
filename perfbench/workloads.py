"""The benchmark workloads: their documents, timed requests and checks.

Every timed request goes through ``feedincap.cli.main(argv)`` in-process on
grid documents written at set-up, so a request costs what a CLI user pays.
Checks read the request's artifacts afterwards and run outside the timed
region. A workload's pass is its full request list, sent one after the
other (closed loop, one client).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

FL = 0.7
BISECTION_TOL = 1e-4        # tolerance of the CLI's oracle bisection
SWEEP_CELLS = 24            # default sweep: 4 FL x 2 cases x 3 demand multipliers
SWEEP_SEEDS = 2             # seed sets per sweep pass: S, S+1
PROBE_NODE_LIMIT = 1        # LV MILP probe budget: the root solve only


@dataclass(frozen=True)
class Doc:
    kind: str
    seed: int
    hours: int

    @property
    def filename(self) -> str:
        return f"{self.kind}-s{self.seed}-h{self.hours}.json"


# Every set-up also writes this document; the in-process warm-up uses it.
WARMUP_DOC = Doc("example", 1, 1)


@dataclass
class Outcome:
    label: str                  # request class, e.g. "bnb" or "root"
    argv: list[str]
    rc: int
    seconds: float
    outdir: Path
    stdout: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


class Session:
    """Sends requests through the CLI entry point and times each one."""

    def __init__(self, docdir: Path, passdir: Path, recorder=None):
        self.docdir = docdir
        self.passdir = passdir
        self.recorder = recorder
        self.outcomes: list[Outcome] = []

    def doc(self, d: Doc) -> str:
        return str(self.docdir / d.filename)

    def request(self, label: str, *argv: str) -> Outcome:
        from feedincap import cli

        outdir = self.passdir / f"r{len(self.outcomes):02d}"
        full = [*argv, "--outdir", str(outdir)]
        if self.recorder is not None:
            self.recorder.request = len(self.outcomes)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(full)
        except Exception:                      # a crash is a failed request
            rc = -1
            buf.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if self.recorder is not None:
            self.recorder.request = None
        out = Outcome(label, full, rc, seconds, outdir, buf.getvalue())
        if rc != 0:
            out.problems.append(f"exit code {rc}: {out.stdout.strip()[-300:]}")
        self.outcomes.append(out)
        return out


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return {"_error": f"cannot read {path.name}: {exc}"}


class Certifier:
    """Certifies reported scal* values with the public oracle.feasible_at.

    Passes repeat the same requests, so each distinct answer is certified once.
    """

    def __init__(self, docdir: Path):
        self.docdir = docdir
        self._grids = {}
        self._verdicts = {}

    def grid(self, doc: Doc):
        from feedincap import parse_grid

        if doc not in self._grids:
            text = (self.docdir / doc.filename).read_text(encoding="utf-8")
            self._grids[doc] = parse_grid(text)
        return self._grids[doc]

    def certify(self, doc: Doc, scenario, scal) -> str | None:
        """None when scal is feasible and scal + 2 tol is not, else a problem."""
        if not isinstance(scal, (int, float)):
            return f"no scal* reported ({scal!r})"
        key = (doc, scenario, scal)
        if key not in self._verdicts:
            self._verdicts[key] = self._certify(doc, scenario, scal)
        return self._verdicts[key]

    def _certify(self, doc: Doc, scenario, scal: float) -> str | None:
        from feedincap import SolverConfig, feasible_at

        cfg = SolverConfig()
        grid = self.grid(doc)
        if not feasible_at(grid, scenario, scal, cfg).feasible:
            return f"infeasible at the reported scal* {scal!r}"
        above = scal + 2.0 * BISECTION_TOL
        if scal < cfg.scal_max and feasible_at(grid, scenario, above, cfg).feasible:
            return f"still feasible at scal* + {2 * BISECTION_TOL:g} = {above!r}"
        return None


class Workload:
    name = ""
    setup_repeats = 5

    def documents(self, seed: int, smoke: bool) -> list[Doc]:
        raise NotImplementedError

    def run_pass(self, s: Session, seed: int, smoke: bool) -> None:
        raise NotImplementedError

    def check(self, s: Session, cert: Certifier, seed: int, smoke: bool) -> None:
        """Attach a problem to each outcome whose artifacts are wrong."""
        raise NotImplementedError

    def table(self, passes: list[list[Outcome]], walls: list[float]) -> dict:
        """Workload-specific end-to-end figures of each pass, by name."""
        return {}


def _label_seconds(outcomes: list[Outcome], label: str) -> float:
    return sum(o.seconds for o in outcomes if o.label == label)


class SnapshotMilp(Workload):
    name = "snapshot-milp"

    def documents(self, seed, smoke):
        if smoke:
            return [Doc("urban_mv", seed, 1)]
        return [Doc(k, seed, 1) for k in ("urban_mv", "rural_mv", "hybrid_mv", "lv")]

    def _requests(self, seed, smoke):
        if smoke:
            return [("bnb", WARMUP_DOC, "a"), ("root", Doc("urban_mv", seed, 1), "b")]
        return [("bnb", Doc("urban_mv", seed, 1), "a")] + [
            ("root", Doc(k, seed, 1), "b")
            for k in ("urban_mv", "rural_mv", "hybrid_mv")]

    def run_pass(self, s, seed, smoke):
        for label, doc, case in self._requests(seed, smoke):
            s.request(label, "plan", s.doc(doc), "--fl", str(FL), "--case", case,
                      "--engine", "both")

    def check(self, s, cert, seed, smoke):
        for o in s.outcomes:
            if o.rc != 0:
                continue
            plan = _read_json(o.outdir / "plan.json")
            orc, mil = plan.get("oracle_scal"), plan.get("milp_scal")
            if not (isinstance(orc, float) and isinstance(mil, float)):
                o.problems.append(f"plan.json lacks engine answers: {plan}")
            elif abs(orc - mil) > 1e-3 * (1.0 + orc):
                o.problems.append(f"engines disagree: oracle {orc!r}, milp {mil!r}")

    def probe(self, docdir: Path, seed: int, smoke: bool) -> dict:
        """MILP on the 1-hour LV grid under a root-solve budget.

        The full solve does not finish in bounded time today, so the probe
        records how far one budget gets. It is not a timed request.
        """
        from feedincap import Scenario, SolverConfig, build_problem, parse_grid, solve_milp

        doc = WARMUP_DOC if smoke else Doc("lv", seed, 1)
        grid = parse_grid((docdir / doc.filename).read_text(encoding="utf-8"))
        cfg = SolverConfig(node_limit=PROBE_NODE_LIMIT)
        t0 = time.perf_counter()
        inst = build_problem(grid, Scenario(fl=FL, case="b"), cfg)
        sol = solve_milp(inst.mip, cfg)
        seconds = time.perf_counter() - t0
        lp = inst.lp
        return {
            "document": doc.filename,
            "node_limit": PROBE_NODE_LIMIT,
            "status": sol.status,
            "finished": sol.status == "optimal",
            "nodes": sol.nodes,
            "lp_iterations": sol.lp_iterations,
            "free_binaries": sum(1 for j in inst.binaries if lp.lb[j] < lp.ub[j]),
            "seconds": seconds,
        }

    def table(self, passes, walls):
        return {"plan_s.bnb": [_label_seconds(p, "bnb") for p in passes],
                "plan_s.root": [_label_seconds(p, "root") for p in passes]}


class AnnualOracle(Workload):
    name = "annual-oracle"
    setup_repeats = 2

    def _doc(self, seed, smoke):
        return Doc("lv", seed, 48 if smoke else 8760)

    def documents(self, seed, smoke):
        return [self._doc(seed, smoke)]

    def run_pass(self, s, seed, smoke):
        path = s.doc(self._doc(seed, smoke))
        plan07, _ = (s.request("annual", "plan", path, "--mode", "annual",
                               "--engine", "oracle", "--fl", str(fl))
                     for fl in (FL, 1.0))
        scal = _read_json(plan07.outdir / "plan.json").get("scal_star")
        s.request("simulate", "simulate", path, "--fl", str(FL),
                  "--scal", repr(scal if isinstance(scal, float) else 0.0))

    def check(self, s, cert, seed, smoke):
        from feedincap import Scenario

        doc = self._doc(seed, smoke)
        plan07, plan10, sim = s.outcomes
        plans = {}
        for o, fl in ((plan07, FL), (plan10, 1.0)):
            if o.rc != 0:
                continue
            plans[fl] = _read_json(o.outdir / "plan.json")
            problem = cert.certify(doc, Scenario(fl=fl, mode="annual"),
                                   plans[fl].get("scal_star"))
            if problem:
                o.problems.append(f"fl {fl}: {problem}")
        if len(plans) == 2:
            a07 = plans[FL].get("added_capacity_mw", 0.0)
            a10 = plans[1.0].get("added_capacity_mw", 0.0)
            if not a07 > a10:
                plan10.problems.append(
                    f"fl {FL} adds {a07!r} MW, not more than fl 1.0 ({a10!r} MW)")
        if sim.rc == 0:
            doc_sim = _read_json(sim.outdir / "simulate.json")
            if FL in plans and doc_sim.get("scal") != plans[FL].get("scal_star"):
                sim.problems.append("simulated scal differs from the plan's scal*")
            if not doc_sim.get("curtailed_share", 1.0) <= 0.05:
                sim.problems.append(
                    f"curtailed share {doc_sim.get('curtailed_share')!r} > 0.05")
            if doc_sim.get("violation_hours") != 0:
                sim.problems.append(
                    f"violation hours {doc_sim.get('violation_hours')!r}")

    def table(self, passes, walls):
        return {"plan_s.annual": [_label_seconds(p, "annual") for p in passes],
                "simulate_s": [_label_seconds(p, "simulate") for p in passes]}


class SweepOracle(Workload):
    name = "sweep-oracle"

    def documents(self, seed, smoke):
        if smoke:
            return [Doc("urban_mv", seed, 1)]
        return [Doc(k, sd, 24 if k == "lv" else 1)
                for sd in range(seed, seed + SWEEP_SEEDS)
                for k in ("urban_mv", "rural_mv", "hybrid_mv", "lv")]

    def run_pass(self, s, seed, smoke):
        for doc in self.documents(seed, smoke):
            s.request("sweep", "sweep", s.doc(doc))

    def check(self, s, cert, seed, smoke):
        from feedincap import Scenario

        for doc, o in zip(self.documents(seed, smoke), s.outcomes):
            if o.rc != 0:
                continue
            cells = _read_json(o.outdir / "sweep.json").get("cells", [])
            solved = [c for c in cells if c.get("status") == "ok"]
            if len(cells) != SWEEP_CELLS or len(solved) != SWEEP_CELLS:
                o.problems.append(f"{len(solved)}/{len(cells)} cells solved, "
                                  f"{SWEEP_CELLS} expected")
            for c in solved:
                sc = Scenario(fl=c["fl"], case=c["case"],
                              demand_multiplier=c["demand_multiplier"])
                problem = cert.certify(doc, sc, c.get("scal_star"))
                if problem:
                    o.problems.append(f"cell fl={c['fl']} case={c['case']} "
                                      f"x{c['demand_multiplier']}: {problem}")

    def table(self, passes, walls):
        cells = [sum(_cells_solved(o) for o in p) for p in passes]
        return {"cells_per_s": [n / w for n, w in zip(cells, walls)]}


def _cells_solved(o: Outcome) -> int:
    m = re.search(r"^(\d+)/\d+ cells solved", o.stdout, re.MULTILINE)
    return int(m.group(1)) if m else 0


WORKLOADS = {w.name: w for w in (SnapshotMilp(), AnnualOracle(), SweepOracle())}
