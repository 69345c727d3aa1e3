"""Architecture invariants of the package, read from the source with `ast`.

* numpy is the only third-party runtime dependency: every import in
  `src/cavent` is from the standard library, numpy or `cavent` itself;
* the library does not import the command line: only `__init__`,
  `__main__` and `cli` itself import `cavent.cli`.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cavent"
MODULES = sorted(PACKAGE.glob("*.py"))
CLI_IMPORTERS = {"__init__", "__main__", "cli"}


def imported_modules(path):
    """Absolute dotted names a module imports; relative imports resolve into cavent."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "cavent" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            # `from . import cli` and `from cavent import cli` import a submodule
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return names


def test_modules_found():
    assert {"cli", "fields", "entanglement"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_and_cavent(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "cavent"}
    foreign = {name for name in imported_modules(path) if name.split(".")[0] not in allowed}
    assert not foreign


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem not in CLI_IMPORTERS], ids=lambda path: path.name
)
def test_library_does_not_import_cli(path):
    assert "cavent.cli" not in imported_modules(path)
