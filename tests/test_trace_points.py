"""The benchmark's tracer (perfbench/spans.py) wraps the package's entry
points by name, as class attributes and module globals where their
callers look them up.  A name that moves or goes, such as a hashing
import a module no longer calls itself, fails traced benchmark runs
with a KeyError; this test fails first."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    points = load_spans().entry_points()
    assert points
    missing = [(owner.__name__, attr) for owner, attr, _, _ in points
               if attr not in vars(owner)]
    assert not missing
