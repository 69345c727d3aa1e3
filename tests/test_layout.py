"""Architecture invariants of the package, read from the source with `ast`.

* numpy is the only third-party runtime dependency: every import in
  `src/cavent` is from the standard library, numpy or `cavent` itself;
* the library does not import the command line: only `__main__` and `cli`
  itself import `cavent.cli`, so `import cavent` leaves it unloaded;
* the library calls no numpy sort: the first `sort`, `argsort`, `partition`
  or `argpartition` in a process pages in numpy's sort kernels, ~0.3 MB of
  code that every command would pay for in resident memory, while the
  builtin `sorted` and a compare-exchange network give the same bits;
* the library has one eigen path: the only `numpy.linalg` routine it calls is
  `eigvalsh`, of the concurrence's tau (and of a refused matrix, to name its
  lowest eigenvalue);
* the library has one validation layer: no module but `errors` names
  `isfinite` or the unit-sum tolerance 1e-6, save the concurrence's
  NumericsError for a non-finite density matrix, which is not an input rule;
* no module imports a name it never uses;
* the benchmark's view of the library holds: every `from cavent... import
  name` in `perfbench/` resolves, and `cavent.cli` binds the layer functions
  that the benchmark's tracer wraps there (an unbound one would silently read
  as zero calls) and the entry points it calls.  `perfbench/` is read, never
  imported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavent"
MODULES = sorted(PACKAGE.glob("*.py"))
CLI_IMPORTERS = {"__main__", "cli"}
BENCHMARK_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))
# the functions perfbench/layers.py's LAYERS wraps in cavent.cli, and the
# entry points perfbench/run.py calls there
CLI_NAMES_BENCHMARKED = (
    "squeezed_distribution",
    "gamma_coefficients",
    "assemble_rho",
    "concurrence",
    "tripartite_state",
    "trace_out_field",
    "main",
    "build_parser",
)


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


def module_file(dotted):
    """Source file of a cavent module, e.g. `cavent.cli` -> src/cavent/cli.py."""
    parts = dotted.split(".")
    return PACKAGE.joinpath(*parts[1:]).with_suffix(".py") if parts[1:] else PACKAGE / "__init__.py"


def bound_names(path):
    """Names a module binds at its top level: definitions, assignments and imports."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def benchmark_imports():
    """(script, module, name) for every `from cavent... import name` in perfbench/;
    name is None for `import cavent...`."""
    found = []
    for path in BENCHMARK_SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cavent":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                found += [(path.name, m, None) for m in modules if m.split(".")[0] == "cavent"]
    return found


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


def test_importing_the_package_leaves_the_cli_unloaded():
    code = "import cavent, sys; print('cavent.cli' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.stdout == "False\n"


NUMPY_SORTS = {"sort", "argsort", "partition", "argpartition"}


def numpy_sorts(path):
    """(line, name) of every reference to a numpy sort in a module: as an
    attribute (`np.sort`, `arr.sort()`) or as a bare name (`from numpy import sort`)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in NUMPY_SORTS:
            found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_calls_no_numpy_sort(path):
    assert not numpy_sorts(path)


def test_sort_check_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\nfrom numpy import argpartition\n"
        "a = np.sort(x)\nx.argsort()\nargpartition(x, 1)\nsorted(x)\n"
    )
    assert sorted(numpy_sorts(module)) == [(3, "sort"), (4, "argsort"), (5, "argpartition")]


def linalg_routines(path):
    """(line, name) of every numpy.linalg routine a module refers to: as
    `np.linalg.name` or `linalg.name`, or imported from numpy.linalg."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and "linalg" in (
            getattr(node.value, "attr", None), getattr(node.value, "id", None)
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, alias.name) for alias in node.names]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_calls_no_linalg_routine_but_eigvalsh(path):
    assert {name for _, name in linalg_routines(path)} <= {"eigvalsh"}


def test_linalg_check_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\nfrom numpy import linalg\nfrom numpy.linalg import svd\n"
        "np.linalg.eigh(a)\nlinalg.qr(a)\nnp.linalg.eigvalsh(a)\n"
    )
    assert sorted(linalg_routines(module)) == [(3, "svd"), (4, "eigh"), (5, "qr"), (6, "eigvalsh")]


def range_rules(path):
    """(line, what) of every place a module decides finiteness or the unit-sum
    tolerance by itself: a reference to `isfinite`, math's or numpy's (as an
    attribute, a bare name or an import), or the literal 1e-6."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name == "isfinite":
            found.append((node.lineno, "isfinite"))
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-6:
            found.append((node.lineno, "1e-6"))
    return found


# concurrence's NumericsError for a non-finite rho, a numerical guarantee
# rather than an input range
RANGE_RULES_KEPT = {"entanglement.py": ["isfinite"]}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "errors.py"], ids=lambda path: path.name
)
def test_decides_no_range_outside_the_validation_layer(path):
    assert [what for _, what in range_rules(path)] == RANGE_RULES_KEPT.get(path.name, [])


def test_range_check_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import math\nimport numpy as np\nfrom math import isfinite\n"
        "math.isfinite(x)\nnp.isfinite(a)\nisfinite(x)\ntol = 1e-6\ntol = 1e-5\n"
    )
    assert sorted(range_rules(module)) == [
        (3, "isfinite"), (4, "isfinite"), (5, "isfinite"), (6, "isfinite"), (7, "1e-6")
    ]


def unused_imports(path):
    """(line, name) of every name a module imports and never reads, counting
    the names its __all__ lists as read; `from __future__` is not an import."""
    imported, used = [], set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_no_unused_name(path):
    assert not unused_imports(path)


def test_unused_import_check_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\nimport math\nimport numpy as np\nimport os.path\n"
        "from typing import NamedTuple, Any as A\nfrom .x import exported, read\n"
        "__all__ = ['exported']\nnp.zeros(1)\nread()\n"
    )
    assert unused_imports(module) == [(2, "math"), (4, "os"), (5, "NamedTuple"), (5, "A")]


def test_benchmark_imports_found():
    assert {script for script, _, _ in benchmark_imports()} >= {"baseline.py", "workloads.py"}


@pytest.mark.parametrize("script,module,name", benchmark_imports(), ids=str)
def test_benchmark_import_resolves(script, module, name):
    assert module_file(module).is_file(), f"{script}: no module {module}"
    if name is not None:
        submodule = module_file(f"{module}.{name}")
        assert name in bound_names(module_file(module)) or submodule.is_file(), (
            f"{script}: {module} has no {name}"
        )


@pytest.mark.parametrize("name", CLI_NAMES_BENCHMARKED)
def test_cli_binds_what_the_benchmark_uses(name):
    assert name in bound_names(PACKAGE / "cli.py")
