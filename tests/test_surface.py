"""The package keeps no public function, class or method that nothing in the
package names: what no command reaches is deleted, or kept in
``tests/oracles.py`` when a suite still needs it."""

import ast
from pathlib import Path

import research_space

SRC = Path(research_space.__file__).parent


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


def test_every_public_definition_is_named_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))}
    unused = [f"{module}:{qualname}"
              for module, tree in trees.items() if module != "cli.py"
              for qualname, node in _public_defs(tree) if node.name not in named]
    assert not unused, f"defined but never named in the package: {unused}"
