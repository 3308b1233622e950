"""Every module-level import of the package is read by its module.

An import that nothing reads is dead weight, and it hides which names a
module really depends on.  Two kinds of name are kept without a reader:
those the module lists in ``__all__`` (the package's re-exports), and
those the benchmark's tracer (perfbench/spans.py) patches on that
module, where their callers look them up.
"""

import ast
from pathlib import Path

import pytest

import aqf
from test_trace_points import load_spans

SRC = Path(aqf.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def patched_names():
    """{module name: names that the tracer patches on that module}."""
    names = {}
    for owner, attr, _, _ in load_spans().entry_points():
        if isinstance(owner, type(aqf)):
            names.setdefault(owner.__name__, set()).add(attr)
    return names


def imported(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports, __future__ aside."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def exported(tree: ast.Module) -> set[str]:
    """The strings of the module's ``__all__`` list, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    keep = read | exported(tree) | patched_names().get(f"aqf.{path.stem}", set())
    assert [name for name in imported(tree) if name not in keep] == []

