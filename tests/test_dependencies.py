import ast
import sys
from pathlib import Path

import superimm

PACKAGE = Path(superimm.__file__).parent


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependencies: every import in it names a
    standard-library module or superimm itself."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "superimm", (path.name, name)


def test_only_superring_reads_polynomial_terms():
    """`SuperPoly._terms` is private to superring: other modules go through
    its public methods (`terms`, `coefficient`, `poly_to_terms`, ...)."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        if path.name == "superring.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "_terms"]
        assert not readers, (path.name, readers)
