"""Self-test of the benchmark: a minimal-size smoke run of every workload.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload, untraced
and traced, prints each metric named there with its unit and passes its
correctness checks, that the table names all nine end-to-end figures, that
the tracer rebinds every module attribute of a traced function, and that the
benchmark refuses to run without the package sources. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TABLE_NAMES = ("setup_s", "wall_s", "ops_failed", "peak_rss_mb", "plan_s.bnb",
               "plan_s.root", "plan_s.annual", "simulate_s", "cells_per_s")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the keys")
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
           "names are well formed and unique")
    expect(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]),
           "units are well formed")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"]), "end-to-end metrics carry bounds <= 0.25")
    expect(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
           "per-layer metrics carry no bound")
    expect({"name": "setup_s", "unit": "s", "better": "lower"}.items()
           <= next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), {}).items(),
           "setup_s is an end-to-end metric in s, lower is better")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in spec["workloads"]),
           "workloads have a one-line why")


def smoke(spec: dict, workload: str, trace: int) -> None:
    tag = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    expect(proc.returncode == 0, f"{tag}: exit code 0 ({proc.stderr.strip()[-300:]})")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{tag}: last line is a JSON result")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result has exactly the four keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: correct, {result['attempted']} attempted, {result['failed']} failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    expect(set(got) == set(wanted), f"{tag}: every named metric is printed, no other")
    expect(all(got[n]["unit"] == u for n, u in wanted.items() if n in got),
           f"{tag}: every metric is printed with its unit")
    expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in got.values()), f"{tag}: every value is a finite number")
    table = "\n".join(lines[:-1])
    expect(all(re.search(rf"^  {re.escape(n)} +(\S+ \S+|n/a)", table, re.MULTILINE)
               for n in TABLE_NAMES), f"{tag}: the table names all nine figures")
    if trace:
        rec = json.loads((ROOT / ".perfbench" / "results"
                          / f"{workload}-seed1-trace1-smoke.json").read_text())
        bound = set(rec["traced_bindings"])
        expect({"feedincap.formulation.build_problem", "feedincap.cli.build_problem",
                "feedincap.oracle.node_aggregates", "feedincap.analysis.max_scal_bisection",
                "feedincap.cli.main", "feedincap.feasible_at"} <= bound,
               f"{tag}: traced functions are rebound in every module that binds them")
        expect(rec["spans"] and all(s["end_ns"] >= s["start_ns"] for s in rec["spans"]),
               f"{tag}: spans are recorded")


def refuses_without_sources() -> None:
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "snapshot-milp",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without the sources the run exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            smoke(spec, w["name"], trace)
    refuses_without_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
