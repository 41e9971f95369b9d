"""The benchmark's traced run wraps package functions by module attribute.

``perfbench/spans.py`` lists them in ``TRACED`` as (module, attribute)
pairs; an attribute that a refactor drops breaks ``--self-check`` and
``--trace 1`` while every other test stays green.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TRACED]


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module(f"monogamy.{module}"), attr)
