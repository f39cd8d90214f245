"""Every name a package module, script or test imports is used in that module.

A static scan with the standard-library ``ast`` module: nothing is imported
or executed. Package ``__init__.py`` files are skipped, because their
imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for pattern in ("src/rfsom/*.py", "scripts/*.py", "tests/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)

# (module file, name) imports kept on purpose although the module never uses them
EXEMPT = {
    # perfbench/tracer.py rebinds it to count the per-step kernel calls
    ("src/rfsom/som.py", "neighborhood_weight"),
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else refers to."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]

def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .mrf import full_mask, load_mask as read_mask\n"
        "def f(cb) -> Codebook:\n"
        "    return os.path.join(read_mask(cb))\n"
        "from .som import Codebook\n"
    )
    assert unused_imports(source) == ["full_mask"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    where = path.relative_to(ROOT).as_posix()
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unused if (where, name) not in EXEMPT] == []
