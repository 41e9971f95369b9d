"""The benchmark's traced run wraps package functions by module attribute.

``perfbench/spans.py`` lists them in ``TRACED`` as (module, attribute)
pairs; an attribute that a refactor drops breaks ``--self-check`` and
``--trace 1`` while every other test stays green.  A module keeps a name
that only the trace reads by importing it under ``# noqa: F401``; such an
import may hold no name that is neither used nor traced.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TRACED]


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module(f"monogamy.{module}"), attr)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: p.stem)
def test_noqa_imports_are_used_or_traced(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = {attr for module, attr in traced_names() if module == path.stem}
    idle = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            names = (alias.asname or alias.name for alias in node.names)
            idle += [name for name in names if name not in used | traced]
    assert idle == [], f"{path.name} keeps unused, untraced names under noqa: {idle}"
