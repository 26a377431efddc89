"""Every public top-level function and class of the library, and every
public method of its classes, has a caller in the library or its scripts: a
name only tests call is surface that no pipeline runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "slicerank").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "scripts").glob("*.py"))

# reference implementations that the tests compare the library's fast paths
# against: the pointwise tensor, the sunflower predicates and the
# brute-force search maximum
REFERENCE_ORACLES = (
    "tensor_value",
    "is_sunflower",
    "is_sunflower_free",
    "triple_is_sunflower",
    "brute_force_max",
)


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _public_methods(tree):
    """(class, method) for each public non-dunder method of a top-level class."""
    return [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _named(tree, skip=None):
    """The names a module's code reads, as a bare name or as an attribute,
    outside the definition `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_has_a_caller():
    assert SOURCES
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in USERS}
    dead = []
    for path in SOURCES:
        for definition in _public_definitions(trees[path]):
            if definition.name in REFERENCE_ORACLES:
                continue
            if not any(definition.name in _named(tree, definition if p == path else None)
                       for p, tree in trees.items()):
                dead.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert dead == []


def test_every_public_method_has_a_caller():
    # a method counts as read where its name is read outside its own body
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in USERS}
    dead = []
    for path in SOURCES:
        for cls, method in _public_methods(trees[path]):
            if not any(method.name in _named(tree, method if p == path else None)
                       for p, tree in trees.items()):
                dead.append(f"{path.name}:{method.lineno} {cls.name}.{method.name}")
    assert dead == []


def test_reference_oracles_are_defined():
    # an oracle deleted from the library must leave the list too
    defined = {definition.name for path in SOURCES
               for definition in _public_definitions(ast.parse(path.read_text()))}
    assert set(REFERENCE_ORACLES) <= defined
