"""The ``lint-obs`` metric-catalog check (``tools/lint_obs.py``)."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "lint_obs.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_obs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''
from repro.obs import get_registry, inc_counter, observe_histogram, set_gauge

def work(registry, name):
    inc_counter("declared_total", engine="float")
    observe_histogram("undeclared_seconds", 0.1)
    set_gauge("declared_gauge", 1.0)
    get_registry().counter("registry_total").inc()
    registry.histogram("declared_seconds")
    inc_counter(name)                  # dynamic name: not checked
    np.histogram([1.0], bins=3)        # not a registry
'''


def test_finds_literal_emits(lint):
    emits = [name for _, name in lint.find_metric_emits(ast.parse(SOURCE))]
    assert emits == [
        "declared_total",
        "undeclared_seconds",
        "declared_gauge",
        "registry_total",
        "declared_seconds",
    ]


def test_reports_mismatches_both_ways(lint):
    emits: dict[str, list[str]] = {}
    for line, name in lint.find_metric_emits(ast.parse(SOURCE)):
        emits.setdefault(name, []).append(f"fake.py:{line}")
    catalog = {
        "declared_total", "declared_gauge", "declared_seconds",
        "registry_total", "orphan_total",
    }
    findings = lint.check_catalog(emits, catalog)
    assert len(findings) == 2
    assert findings[0].startswith("fake.py:")
    assert "'undeclared_seconds' is emitted but not in" in findings[0]
    assert "'orphan_total' has no emitter" in findings[1]


def test_matching_catalog_is_clean(lint):
    emits = {"a_total": ["x.py:1"]}
    assert lint.check_catalog(emits, {"a_total"}) == []


def test_source_tree_is_clean(lint, capsys):
    assert lint.main() == 0
    assert "metric catalog matches" in capsys.readouterr().out
