"""feedincap benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of snapshot-milp, annual-oracle, sweep-oracle, or ``all`` to run
the three one after another. The run sets up (generating the grid documents
from the seed, timed in fresh interpreters), warms up, then repeats passes of
the workload's requests until S seconds of passes have run; every pass is
checked afterwards. With --trace 0 the last line of standard output holds the
end-to-end metrics named in BENCHMARK.json, with --trace 1 the per-layer
metrics of one extra traced pass. A record with the environment, every
request and, when traced, every span is written under .perfbench/results/.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy is first imported, here and in every child.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SUBPROCESS_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Certifier, Session, SnapshotMilp  # noqa: E402

# Figures that belong to some workloads only, so BENCHMARK.json cannot list
# them as end-to-end metrics; traced runs report them as per-layer metrics.
REQUEST_FIGURES = (("ops_failed", "share"), ("plan_s.bnb", "s"),
                   ("plan_s.root", "s"), ("plan_s.annual", "s"),
                   ("simulate_s", "s"), ("cells_per_s", "cells/s"))
# the nine end-to-end figures every run prints in its table
TABLE = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")) + REQUEST_FIGURES


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(seeds: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seeds": seeds,
        "src_lines": src_lines,
    }


def time_setup(workload: str, seed: int, docdir: Path, smoke: bool) -> float:
    cmd = [sys.executable, str(HERE / "setup_docs.py"), "--workload", workload,
           "--seed", str(seed), "--docdir", str(docdir)] + (["--smoke"] if smoke else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return seconds


def _outcome_record(o) -> dict:
    return {"label": o.label, "argv": o.argv[:-2], "rc": o.rc,
            "seconds": o.seconds, "problems": o.problems}


def run_workload(args, work: Path) -> tuple[dict, dict]:
    """Set up, time the passes, check them; return (result, record)."""
    from tracer import Recorder, layer_metrics, request_counters

    wl = WORKLOADS[args.workload]
    seeds = sorted({d.seed for d in wl.documents(args.seed, args.smoke)})
    docdir = work / "docs"
    setups = [time_setup(wl.name, args.seed, docdir, args.smoke)
              for _ in range(1 if args.trace else wl.setup_repeats)]

    # this process pays the same imports and warm-up, untimed
    from setup_docs import warm_up
    warm_up(docdir, work / "warmup")

    sessions, walls = [], []
    while not walls or sum(walls) < args.seconds:
        s = Session(docdir, work / f"pass{len(walls)}")
        t0 = time.perf_counter()
        wl.run_pass(s, args.seed, args.smoke)
        walls.append(time.perf_counter() - t0)
        sessions.append(s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = rec = None
    if args.trace:
        rec = Recorder()
        traced = Session(docdir, work / "traced", rec)
        rec.install()
        try:
            t0 = time.perf_counter()
            wl.run_pass(traced, args.seed, args.smoke)
            traced_wall = time.perf_counter() - t0
        finally:
            rec.uninstall()

    cert = Certifier(docdir)
    for s in sessions + ([traced] if traced else []):
        wl.check(s, cert, args.seed, args.smoke)
    # the probe feeds per-layer metrics only, so untraced runs skip it
    probe = (wl.probe(docdir, args.seed, args.smoke)
             if args.trace and isinstance(wl, SnapshotMilp) else None)

    outcomes = [o for s in sessions + ([traced] if traced else []) for o in s.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    probe_failed = int(probe is not None and not probe["finished"])

    passes = [s.outcomes for s in sessions]
    table = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
             "ops_failed": (failed + probe_failed) / (attempted + (probe is not None)),
             "peak_rss_mb": peak_rss_mb}
    table.update({k: statistics.median(v) for k, v in wl.table(passes, walls).items()})

    if args.trace:
        metrics = layer_metrics(rec.spans)
        metrics["tracing_overhead_s"] = traced_wall - table["wall_s"]
        metrics.update({name: table.get(name, 0.0) for name, _ in REQUEST_FIGURES})
        p = probe or {}
        metrics.update({
            "milp.lv_probe.finished": float(p.get("finished", 0)),
            "milp.lv_probe.nodes": p.get("nodes", 0),
            "milp.lv_probe.lp_iterations": p.get("lp_iterations", 0),
            "milp.lv_probe.free_binaries": p.get("free_binaries", 0),
            "milp.lv_probe_s": p.get("seconds", 0.0),
        })
        wanted = load_spec()["per_layer"]
    else:
        metrics = table
        wanted = load_spec()["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(seeds),
        "result": result, "table": table, "setup_runs_s": setups,
        "pass_walls_s": walls,
        "passes": [[_outcome_record(o) for o in p] for p in passes],
        "probe": probe,
    }
    if args.trace:
        record["traced_pass"] = [_outcome_record(o) for o in traced.outcomes]
        record["traced_wall_s"] = traced_wall
        record["request_counters"] = request_counters(rec.spans)
        record["traced_bindings"] = rec.bindings
        record["spans"] = rec.dump()
    return result, record


def print_table(record: dict) -> None:
    env, table = record["environment"], record["table"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {len(record['pass_walls_s'])}  python {env['python']}  "
          f"numpy {env['numpy']}  {env['blas']} x{env['blas_threads']} thread(s)  "
          f"nproc {env['nproc']}  src lines {env['src_lines']}")
    for name, unit in TABLE:
        value = table.get(name)
        shown = "n/a (not part of this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<14} {shown}")
    probe = record.get("probe")
    if probe:
        print(f"  LV MILP probe (counted in ops_failed unless finished): "
              f"status {probe['status']}, {probe['free_binaries']} free binaries, "
              f"{probe['nodes']} node(s), {probe['lp_iterations']} LP iterations, "
              f"{probe['seconds']:.3f} s")
    for i, o in enumerate(record.get("traced_pass", [])):
        c = record["request_counters"].get(i, {})
        per_bisection = (c.get("evaluations", 0) / c["bisections"]
                         if c.get("bisections") else 0)
        print(f"  traced request {i} [{o['label']}] {Path(o['argv'][1]).name}: "
              f"{o['seconds']:.3f} s, milp nodes {c.get('nodes', 0):g}, "
              f"lp iterations {c.get('lp_iterations', 0):g}, "
              f"feasible_at per bisection {per_bisection:g}")
    for p in record["passes"] + [record.get("traced_pass", [])]:
        for o in p:
            for problem in o["problems"]:
                print(f"  FAILED {o['argv'][0]} {Path(o['argv'][1]).name}: {problem}")


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="seconds of passes to run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes, for the self-test only")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    if not (SRC / "feedincap" / "__init__.py").is_file():
        print(f"error: no feedincap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        result, record = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-smoke" if args.smoke else ""))
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_table(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
