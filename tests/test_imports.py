"""Every name a module of the package or of its tests imports is read in
that module. `__init__.py` is skipped: its export table lists the package's
re-exported names, and each of those must be read by another module of the
package, so the public surface holds no name that only tests use. The
package namespace is lazy: importing it loads no submodule."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import cantornormal

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src/cantornormal"
MODULES = sorted(path for folder in (PACKAGE, ROOT / "tests")
                 for path in folder.glob("*.py") if path.name != "__init__.py")
# reference routes that no module of the package reads: README documents them,
# and perfbench/layertrace.py wraps every one but digit_stream
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


def export_table(source: str) -> dict[str, tuple[str, ...]]:
    """The literal `_EXPORTS` table, {module: names}, assigned in `source`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS":
            return ast.literal_eval(node.value)
    raise AssertionError("no _EXPORTS table")


def test_every_export_is_read_in_the_package():
    exported = {name for names in export_table((PACKAGE / "__init__.py").read_text()).values()
                for name in names}
    assert UNREAD_EXPORTS <= exported
    read = set().union(*(read_names(path.read_text()) for path in MODULES
                         if path.parent == PACKAGE))
    assert sorted(exported - read - UNREAD_EXPORTS) == []


def test_every_export_resolves_to_its_defining_module():
    table = export_table((PACKAGE / "__init__.py").read_text())
    assert sorted(name for names in table.values() for name in names) == cantornormal.__all__
    for module, names in table.items():
        defining = importlib.import_module(f"cantornormal.{module}")
        for name in names:
            assert getattr(cantornormal, name) is getattr(defining, name), name
    # each name is cached in the package on first access
    assert set(cantornormal.__all__) <= set(vars(cantornormal))


def test_dir_lists_every_export():
    assert set(cantornormal.__all__) <= set(dir(cantornormal))
    assert "__version__" in dir(cantornormal)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cantornormal.no_such_name
    assert not hasattr(cantornormal, "no_such_name")


def test_package_import_loads_no_numpy():
    code = "import cantornormal, sys; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
