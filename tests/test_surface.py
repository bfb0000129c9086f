"""Every public top-level function and class of the package is reached from
the package's own code, its command line or the benchmark scripts; a name
that only tests reach is surface to delete, not to keep.

References are read from the source with `ast`: the identifiers (names,
attributes and imported names) in module-level code outside definitions and
in `perfbench/*.py` are reached, and so is every identifier in the body of a
reached definition. Identifiers are matched by name alone, so a name that a
reached definition mentions for another object counts as reached too.

Every name a package module imports is read in that module: an import left
behind when its last use goes is dead code no linter here would report.

Every functools cache of the package is a module or class attribute, where
the benchmark finds the caches it empties before each operation.
"""

import ast
import importlib
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "k3zeta").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# public names kept without a caller, each with its reason
ALLOWED = {
    "jsonio.encode_lattice": "writes the lattice file format that decode_lattice reads",
    "jsonio.encode_frame": "writes the frame file format that `period --frame` reads",
    "jsonio.encode_spectrum": "writes the spectrum file format that `--spectrum` reads",
    "jsonio.encode_curve": "writes the curve file format that `tau --curves` reads",
}


def _identifiers(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _definitions():
    """(module, top-level definition node) for every package module, and
    the identifiers of the package's module-level code outside them."""
    defs, roots = [], set()
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, stmt))
            else:
                roots |= _identifiers(stmt)
    return defs, roots


def _unreached(extra_roots=()) -> list[str]:
    defs, roots = _definitions()
    for path in BENCHMARK:
        roots |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    bodies = {}
    for _, node in defs:
        bodies.setdefault(node.name, set()).update(_identifiers(node))
    reached, todo = set(), list(roots | set(extra_roots))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(bodies.get(name, ()))
    return sorted(
        "%s.%s" % (module, node.name)
        for module, node in defs
        if not node.name.startswith("_") and node.name not in reached
    )


def test_every_public_name_is_reached_outside_the_tests():
    allowed = [name.rpartition(".")[2] for name in ALLOWED]
    assert _unreached(allowed) == []


def test_every_allowance_is_still_needed():
    assert sorted(ALLOWED) == [n for n in _unreached() if n in ALLOWED]
    assert all(reason.strip() for reason in ALLOWED.values())


def _unused_imports(path) -> list[str]:
    """The names a module imports (apart from __future__ features) that no
    name in the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    unused = {path.stem: _unused_imports(path) for path in PACKAGE}
    assert {module: names for module, names in unused.items() if names} == {}


def _decorated_caches() -> set[str]:
    """module.name of every definition that `ast` finds decorated with
    lru_cache or cache, in any spelling (bare, called or an attribute)."""
    found = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(dec, "attr", getattr(dec, "id", None))
                if name in ("lru_cache", "cache"):
                    found.add("%s.%s" % (path.stem, node.name))
    return found


def _clearable_caches() -> set[str]:
    """module.name of every attribute with a cache_clear, on a package
    module or on a class defined there: the caches the benchmark's worker
    empties before each operation."""
    found = set()
    for path in PACKAGE:
        stem = "" if path.stem == "__init__" else "." + path.stem
        module = importlib.import_module("k3zeta" + stem)
        for obj in vars(module).values():
            owners = [obj]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                owners += list(vars(obj).values())
            for owner in owners:
                if callable(getattr(owner, "cache_clear", None)):
                    found.add("%s.%s" % (path.stem, owner.__name__))
    return found


def test_every_functools_cache_can_be_emptied_from_outside():
    # a cache kept anywhere else (in a closure, say) would outlive the
    # benchmark's clearing and make repeated operations look fast
    decorated = _decorated_caches()
    assert {"models._torus_of", "models._sphere_of"} <= decorated
    assert _clearable_caches() == decorated
