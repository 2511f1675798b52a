"""The exit-code contract on fuzzed documents: the shipped example grid with
one numeric field replaced by a drawn value either runs, fails as a domain
error or is refused as bad input (exit 0, 1 or 2); it never raises."""

import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from feedincap import cli

DOC = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "example.json")
                 .read_text())


def _numeric_paths(node, path=()):
    """Key paths of every JSON number in node, in document order."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _numeric_paths(child, path + (key,))
    elif type(node) in (int, float):
        yield path


VALUES = st.one_of(
    st.sampled_from([1e200, -1e200, 1e-300, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(),                                    # NaN and the infinities included
    st.integers(min_value=-10**400, max_value=10**400),
)


@settings(derandomize=True, database=None, deadline=None)
@given(path=st.sampled_from(list(_numeric_paths(DOC))), value=VALUES)
@example(path=("buses", 1, "vmax"), value=1e200)
def test_fuzzed_example_exits_0_1_or_2(path, value):
    doc = json.loads(json.dumps(DOC))
    *parents, leaf = path
    node = doc
    for key in parents:
        node = node[key]
    node[leaf] = value
    with tempfile.TemporaryDirectory() as tmp:
        grid = Path(tmp) / "grid.json"
        grid.write_text(json.dumps(doc))
        for argv in (["validate", str(grid)],
                     ["plan", str(grid), "--engine", "both", "--fl", "0.7",
                      "--outdir", tmp]):
            assert cli.main(argv) in (0, 1, 2), argv
