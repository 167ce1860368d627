"""Module boundaries a refactor must keep, checked from the source text.

* ``repro/core/experiment.py`` and the ``repro/rare`` modules reach each
  other only through public names: neither imports nor attribute-accesses
  an underscore name that the other defines at module level.
* Every ``repro`` name the benchmark scripts under ``perfbench/`` import
  still resolves, so a rename fails here and not only in the benchmark
  self-test.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXPERIMENT = PACKAGE / "core" / "experiment.py"
RARE = sorted((PACKAGE / "rare").glob("*.py"))


def _private_definitions(path: Path) -> set[str]:
    """Underscore (non-dunder) names bound at the top level of ``path``."""
    names: set[str] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {
        name for name in names if name.startswith("_") and not name.startswith("__")
    }


def _referenced_names(path: Path) -> set[str]:
    """Every name ``path`` imports by name or reads as an attribute."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _crossings(users: list[Path], owners: list[Path]) -> list[str]:
    private = set().union(*(_private_definitions(path) for path in owners))
    return sorted(
        f"{path.relative_to(PACKAGE).as_posix()}: {name}"
        for path in users
        for name in _referenced_names(path) & private
    )


def test_experiment_and_rare_use_only_each_others_public_names():
    crossings = _crossings([EXPERIMENT], RARE) + _crossings(RARE, [EXPERIMENT])
    assert crossings == []


def _repro_imports(path: Path):
    """``(module, name)`` for each ``from repro… import name`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def test_every_repro_name_perfbench_imports_resolves():
    scripts = sorted((ROOT / "perfbench").glob("*.py"))
    imports = [(path.name, *pair) for path in scripts for pair in _repro_imports(path)]
    assert imports, "perfbench imports nothing from repro"
    missing = [
        f"{script}: from {module} import {name}"
        for script, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
