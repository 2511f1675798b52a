"""The public surface: the README's Library snippet runs as written, every
exported name resolves, and the test-only helpers stay out of the package."""

import re
from pathlib import Path

import pytest

import feedincap
from feedincap import milp, network, oracle

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_snippet_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(snippet, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert float(printed[0]) == pytest.approx(float(printed[1]), abs=1e-6)   # MILP, oracle


def test_every_exported_name_resolves():
    assert len(set(feedincap.__all__)) == len(feedincap.__all__)
    for name in feedincap.__all__:
        assert getattr(feedincap, name) is not None, name


def test_test_only_helpers_left_the_package():
    moved = {"enumerate_alpha", "EnumerationResult", "rule_injections", "dump_lp"}
    assert moved.isdisjoint(feedincap.__all__)
    for name in moved:
        assert not hasattr(feedincap, name), name
    assert not hasattr(oracle, "enumerate_alpha") and not hasattr(oracle, "rule_injections")
    assert not hasattr(milp, "dump_lp") and not hasattr(milp, "_fmt")
    assert not hasattr(oracle, "build_problem") and not hasattr(oracle, "solve_lp")
    # the simplex is gone, not moved: elimination is the MILP's one LP method,
    # and the tests' LP reference is scipy's HiGHS
    for name in ("solve_lp", "LPSolution", "_StandardForm"):
        assert name not in feedincap.__all__, name
        assert not hasattr(feedincap, name) and not hasattr(milp, name), name
    # the AC sweep is the tests' reference for LinDistFlow (util), not package API
    for name in ("ac_sweep", "ACState", "compare_models", "DeviationReport",
                 "ConvergenceError", "AC_TOL", "AC_MAX_ITER"):
        assert name not in feedincap.__all__, name
        assert not hasattr(feedincap, name) and not hasattr(network, name), name
