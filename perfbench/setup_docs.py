"""One benchmark set-up, run in a fresh interpreter so imports are paid.

Imports feedincap, generates the workload's grids with fixtures.synth_grid,
serialises them to the document directory, and warms up with one small
plan and one small sweep through the CLI. run.py times this whole process.

    python3 perfbench/setup_docs.py --workload NAME --seed N --docdir DIR [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from feedincap import cli, fixtures, serialize_grid  # noqa: E402

from workloads import WARMUP_DOC, WORKLOADS  # noqa: E402


def warm_up(docdir: Path, outdir: Path) -> None:
    """First calls through the plan, MILP, oracle and sweep code paths."""
    doc = str(docdir / WARMUP_DOC.filename)
    with contextlib.redirect_stdout(io.StringIO()):
        rcs = [cli.main(["plan", doc, "--engine", "both", "--outdir", str(outdir)]),
               cli.main(["sweep", doc, "--outdir", str(outdir)])]
    if any(rcs):
        raise SystemExit(f"warm-up failed with exit codes {rcs}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--docdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    docdir = Path(args.docdir)
    docdir.mkdir(parents=True, exist_ok=True)
    for doc in [WARMUP_DOC, *WORKLOADS[args.workload].documents(args.seed, args.smoke)]:
        grid = fixtures.synth_grid(doc.kind, seed=doc.seed, hours=doc.hours)
        (docdir / doc.filename).write_text(serialize_grid(grid), encoding="utf-8")
    warm_up(docdir, docdir / "warmup")
    return 0


if __name__ == "__main__":
    sys.exit(main())
