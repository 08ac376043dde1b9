"""Every name a module of the package or of its tests imports is read in
that module. `__init__.py` is skipped: its imports are the package's
re-exported names, and each of those must be read by another module of the
package, so the public surface holds no name that only tests use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src/cantornormal"
MODULES = sorted(path for folder in (PACKAGE, ROOT / "tests")
                 for path in folder.glob("*.py") if path.name != "__init__.py")
# reference routes that no module of the package reads: README documents them
# and perfbench/layertrace.py wraps them
UNREAD_EXPORTS = {"digit_stream", "orbit_values", "star_discrepancy", "extreme_discrepancy"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted({name for name in bound if name not in read})


def test_unused_import_scan_examples():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert unused_imports("import a.b\na.b.c\n") == []
    assert unused_imports("from a import b as c, d\ndef f():\n    return c\n") == ["d"]
    assert unused_imports("from __future__ import annotations\nfrom a import *\n") == []
    # a name only stored to is not read
    assert unused_imports("import os\nos = 1\n") == ["os"]


def test_no_unused_imports():
    assert MODULES
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path in MODULES for name in unused_imports(path.read_text())]
    assert unused == []


def read_names(source: str) -> set[str]:
    """Names loaded as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_read_names_examples():
    assert read_names("a.b(c)\nd = e\nf.g = 1\n") == {"a", "b", "c", "e", "f"}


def test_every_export_is_read_in_the_package():
    exported = {a.asname or a.name
                for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert UNREAD_EXPORTS <= exported
    read = set().union(*(read_names(path.read_text()) for path in MODULES
                         if path.parent == PACKAGE))
    assert sorted(exported - read - UNREAD_EXPORTS) == []
