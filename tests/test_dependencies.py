import ast
import sys
from collections import Counter
from pathlib import Path

import superimm

PACKAGE = Path(superimm.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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
    """`SuperPoly._terms` and `_den` are private to superring: other modules go
    through its public methods (`terms`, `coefficient`, `poly_to_terms`, ...)."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        if path.name == "superring.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in ("_terms", "_den")]
        assert not readers, (path.name, readers)


def _imported_names(tree: ast.Module):
    """(bound name, line) for every import in a module except `__future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_package_has_no_unused_imports():
    """Every name an import binds in a library module (the package's
    `__init__` re-exports, so it is exempt) is read somewhere in that module."""
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert sources
    for path in sources:
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [(name, line) for name, line in _imported_names(tree) if name not in read]
        assert not unused, (path.name, unused)


# Top-level names, and methods as `Class.method`, that no check, script or
# CLI path calls, kept on purpose.
UNREACHED_BY_DESIGN = {
    "immanant_via_idempotent": "test oracle: the immanant as a supertrace through an idempotent",
    "star_product_slotwise": "test oracle: star products slot by slot",
    "berezinian": "public API: the Berezinian of a supermatrix",
    "poly_from_terms": "public API: inverse of poly_to_terms",
    "is_supersymmetric": "public API: the supersymmetry test as a predicate",
    "fusion_idempotent": "test oracle: the fusion procedure for primitive idempotents",
    "central_idempotent": "public API: central idempotents of the group algebra",
    "transposition_relation": "test oracle: the Jucys-Murphy transposition relation",
    "lr_coefficient": "public API: one Littlewood-Richardson coefficient, both oracles agreeing",
    "check_classical_degeneration": "test oracle: classical immanants at n = 0, no odd block",
    "complete_super": "test oracle: one Jacobi-Trudi entry from a series of its own order",
    "GroupAlgebraElement.star": "public API: the inversion anti-involution of the group algebra",
    "GroupAlgebraElement.conjugate_by": "test oracle: centrality of idempotents under conjugation",
}


def _definitions(tree: ast.Module):
    """(key, name, body) for every top-level def or class, keyed by its name,
    and for every method of a top-level class but dunders, keyed `Class.method`."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield top.name, top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    yield f"{top.name}.{node.name}", node.name, node


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_names(func) -> set:
    """The names a function binds itself: its parameters and the names it
    assigns, nested functions and classes left out."""
    args = func.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    names = {param.arg for param in params if param is not None}
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _referenced_names(node, bound=frozenset()):
    """The identifier of every Attribute under a node, and of every Name but
    those that an enclosing function binds itself: a local `body` is not a
    call of a method `body`."""
    if isinstance(node, _FUNCTIONS):
        bound = bound | _bound_names(node)
    if isinstance(node, ast.Name) and node.id not in bound:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _referenced_names(child, bound)


def test_library_code_has_a_caller():
    """Every top-level def or class of the package, and every method of its
    classes but dunders, is referenced somewhere in the package (outside its
    own definition), in `scripts` or in `perfbench`; tests alone do not keep
    library code alive."""
    trees = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    others = [_parse(path) for path in
              sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))]
    total = Counter(name for tree in [*trees.values(), *others] for name in _referenced_names(tree))
    unreached = {
        key: f"{module}:{key}"
        for module, tree in trees.items()
        for key, name, body in _definitions(tree)
        if total[name] == Counter(_referenced_names(body))[name]
    }
    uncalled = sorted(unreached[key] for key in unreached.keys() - UNREACHED_BY_DESIGN.keys())
    assert not uncalled, uncalled
    stale = sorted(UNREACHED_BY_DESIGN.keys() - unreached.keys())
    assert not stale, f"allowed as unreached, but reached or gone: {stale}"
