"""Every name a module of the package or of its tests imports is read in
that module. `__init__.py` is skipped: its imports are the package's
re-exported names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/cantornormal", "tests")
                 for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")


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
