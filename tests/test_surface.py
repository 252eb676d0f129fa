"""The package keeps no public function, class or method that nothing in the
package names, and no defaulted parameter that no call in the package
passes: what no command reaches is deleted, or kept in ``tests/oracles.py``
when a suite still needs it. No module reaches into another module's
``_``-prefixed names: what a module shares is public. Each module imports
exactly the package modules ``IMPORT_GRAPH`` lists for it, and outside the
package only the standard library and numpy, the one runtime dependency that
``pyproject.toml`` declares. Only ``artifacts`` makes directories or writes
files."""

import ast
import sys
from pathlib import Path

import pytest

import research_space

SRC = Path(research_space.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _public_defs(tree):
    """(qualified name, node) of each public top-level function or class and
    each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _defaulted(fn, is_method):
    """(position, name) of each parameter of fn that has a default; keyword-only
    parameters have position None. A method's self or cls is not counted."""
    positional = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield i - skip, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call, position, name):
    """Whether a call passes the parameter, by position or by keyword;
    unpacked arguments count as passing everything they could."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (position < len(call.args)
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_public_definition_is_named_in_the_package():
    trees = _trees()
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))}
    unused = [f"{module}:{qualname}"
              for module, tree in trees.items() if module != "cli.py"
              for qualname, node in _public_defs(tree) if node.name not in named]
    assert not unused, f"defined but never named in the package: {unused}"


def test_every_defaulted_parameter_is_passed_in_the_package():
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                calls.setdefault(name, []).append(n)
    never_passed = [
        f"{module}:{qualname}({param})"
        for module, tree in trees.items() if module != "cli.py"
        for qualname, node in _public_defs(tree) if isinstance(node, ast.FunctionDef)
        for position, param in _defaulted(node, "." in qualname)
        if not any(_passes(call, position, param) for call in calls.get(node.name, []))
    ]
    assert not never_passed, f"defaults no call in the package overrides: {never_passed}"


def _private_names(tree):
    """Each ``_``-prefixed, non-dunder name the tree takes from another
    package module: imported by name, or read as an attribute of a module
    imported from the package."""
    modules, found = {}, []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith(
                "research_space")):
            for alias in n.names:
                if n.module in (None, "research_space"):  # package modules
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.append(f"from {'.' * n.level}{n.module} import {alias.name}")
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in modules and n.attr.startswith("_")
                and not n.attr.startswith("__")):
            found.append(f"{modules[n.value.id]}.{n.attr}")
    return found


def test_no_module_names_another_modules_private_attribute():
    private = {module: names for module, tree in _trees().items()
               if (names := _private_names(tree))}
    assert not private, f"private names used across modules: {private}"


# The package modules each package module imports, at any depth of its code.
# An edge not listed here fails the test below: a new dependency between
# modules is a deliberate edit of this table.
IMPORT_GRAPH = {
    "__init__": set(),
    "artifacts": {"corpus", "errors", "presence"},
    "cli": {"artifacts", "corpus", "emb_model", "errors", "freq_model",
            "network_analysis", "prediction_eval", "presence", "specialization"},
    "corpus": {"errors"},
    "emb_model": {"errors"},
    "errors": set(),
    "freq_model": set(),
    "network_analysis": {"corpus", "errors"},
    "prediction_eval": {"errors"},
    "presence": {"corpus", "errors"},
    "specialization": {"errors"},
}


def _package_imports(tree):
    """The package modules a module's tree imports, relatively or by the
    package's name."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith(
                "research_space")):
            module = (n.module or "").removeprefix("research_space").lstrip(".")
            found.update([module.split(".")[0]] if module else
                         [alias.name for alias in n.names])
        elif isinstance(n, ast.Import):
            found.update(alias.name.split(".")[1] for alias in n.names
                         if alias.name.startswith("research_space."))
    return found


def test_package_modules_import_exactly_the_listed_modules():
    graph = {module.removesuffix(".py"): _package_imports(tree)
             for module, tree in _trees().items()}
    assert graph == IMPORT_GRAPH


def _outside_imports(tree):
    """The top-level names of the modules outside the package that a tree
    imports."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            found.update(alias.name.split(".")[0] for alias in n.names)
        elif isinstance(n, ast.ImportFrom) and not n.level:
            found.add(n.module.split(".")[0])
    return found - {"research_space"}


def test_modules_import_only_the_standard_library_and_numpy():
    foreign = {module: names for module, tree in _trees().items()
               if (names := _outside_imports(tree) - set(sys.stdlib_module_names)
                   - {"numpy"})}
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy"]


def _writes(tree):
    """Each call in the tree that makes a directory or writes a file, with its
    line: a ``mkdir``, ``makedirs``, ``write_text`` or ``write_bytes`` call, or
    the builtin ``open`` with a mode that is not a constant without w, a, x
    or +. ``os.open`` is not the builtin."""
    found = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        if isinstance(n.func, ast.Attribute) and n.func.attr in (
                "mkdir", "makedirs", "write_text", "write_bytes"):
            found.append(f"{n.func.attr}:{n.lineno}")
        elif isinstance(n.func, ast.Name) and n.func.id == "open":
            mode = n.args[1] if len(n.args) > 1 else next(
                (kw.value for kw in n.keywords if kw.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not set(mode.value) & set("wax+")):
                found.append(f"open:{n.lineno}")
    return found


def test_only_artifacts_makes_directories_or_writes_files():
    writes = {module: found for module, tree in _trees().items()
              if module != "artifacts.py" and (found := _writes(tree))}
    assert not writes, f"directories or files made outside artifacts: {writes}"
