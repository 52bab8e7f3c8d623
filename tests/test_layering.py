"""The three structure-constant backends stay independent of one another.

Imports are read with ast, so an import inside a function counts too.
"""

import ast
from pathlib import Path

import qgrass

PACKAGE = Path(qgrass.__file__).parent


def _qgrass_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("qgrass."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qgrass."):
                    found.add(alias.name.split(".")[1])
    return found


def test_niltl_imports_only_errors_and_partitions():
    assert _qgrass_imports("niltl") <= {"errors", "partitions"}


def test_schur_and_tableaux_import_no_other_backend():
    for module in ("schur", "tableaux"):
        assert not _qgrass_imports(module) & {"quantum", "niltl", "symmetry", "cli"}, module


def test_import_reader_sees_function_level_imports():
    # quantum imports niltl inside gw_invariant only.
    assert "niltl" in _qgrass_imports("quantum")


def test_tableaux_imports_only_errors_and_partitions():
    # The toric route runs on ints: the strip enumerator and the chain DP read no loop,
    # shape or tableau object.
    assert _qgrass_imports("tableaux") <= {"errors", "partitions"}


def test_only_the_package_imports_cylindric():
    # cylindric is the paper's object model, outside every route.
    modules = [path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    assert "tableaux" in modules and "cylindric" in _qgrass_imports("__init__")
    assert [m for m in modules if "cylindric" in _qgrass_imports(m)] == []
