"""Every public top-level function and class of the library, and every
public method of its classes, has a caller in the library or its scripts: a
name only tests call is surface that no pipeline runs.  Likewise every
defaulted parameter and dataclass field is set by some such call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "slicerank").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "scripts").glob("*.py"))

# reference implementations that the tests compare the library's fast paths
# against: the pointwise tensor and its diagonality scan, the sunflower
# predicates and the brute-force search maximum
REFERENCE_ORACLES = (
    "tensor_value",
    "check_diagonal",
    "is_sunflower",
    "triple_is_sunflower",
    "brute_force_max",
)

# defaulted parameters that callers outside the library and its scripts set:
# the console script calls main() bare, and in-process callers (the tests and
# the benchmark harness) pass argv
SET_BY_OTHER_CALLERS = ("main.argv",)


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


# what the library's fast paths decide freeness and verify sums with: an
# oracle that reads one of them checks the producer against itself
FAST_PATHS = {"completions", "value_masks", "find_sunflower", "_pair_tables", "_diagram",
              "_intern_level"}


def test_reference_oracles_share_nothing_with_the_fast_paths():
    # neither an oracle nor a module-private helper it reaches, directly or
    # through another helper, reads a fast path
    shared = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        helpers = {node.name: node for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name.startswith("_")}
        for oracle in _public_definitions(tree):
            if oracle.name not in REFERENCE_ORACLES:
                continue
            reached, todo = {oracle.name}, [oracle]
            while todo:
                node = todo.pop()
                names = _named(node)
                shared += [f"{path.name} {oracle.name} via {node.name}: {name}"
                           for name in sorted(names & FAST_PATHS)]
                for name in sorted(names - reached):
                    if name in helpers:
                        reached.add(name)
                        todo.append(helpers[name])
    assert shared == []


def _settable_values(tree):
    """(label, callee, name, position) for each defaulted parameter of a
    function or method and each defaulted dataclass field.  The callee is
    the name a call that sets the value is made to, the class for __init__
    and the fields; position is the index a positional argument reaches the
    value by, None for a keyword-only parameter."""
    values = []
    owners = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        owners.update((node, cls) for node in cls.body if isinstance(node, ast.FunctionDef))
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)]
            values += [(f"{cls.name}.{node.target.id}", cls.name, node.target.id, i)
                       for i, node in enumerate(fields) if node.value is not None]
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = owners.get(fn)
        label = fn.name if cls is None else f"{cls.name}.{fn.name}"
        callee = cls.name if fn.name == "__init__" else fn.name
        # a call never passes a method's self or cls
        skip = cls is not None and "staticmethod" not in map(ast.unparse, fn.decorator_list)
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        values += [(f"{label}.{arg.arg}", callee, arg.arg, i - skip)
                   for i, arg in enumerate(positional) if i >= first]
        values += [(f"{label}.{arg.arg}", callee, arg.arg, None)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return values


def _sets(call, name, position) -> bool:
    """Does the call set the parameter: by keyword, through **, or by
    position (any position past a *args)?"""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or position < len(call.args)


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_defaulted_value_is_set_by_a_caller():
    # a default that no library or script call overrides is a knob nothing
    # turns; a call to a subclass sets its base class's values
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in USERS}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    bases = {node.name: {ast.unparse(b) for b in node.bases}
             for path in SOURCES for node in ast.walk(trees[path])
             if isinstance(node, ast.ClassDef)}

    def builds(callee, owner):
        return callee == owner or callee in bases and any(builds(b, owner) for b in bases[callee])

    values = [value for path in SOURCES for value in _settable_values(trees[path])]
    unset = [label for label, owner, name, position in values
             if not any(builds(_callee(call), owner) and _sets(call, name, position)
                        for call in calls)]
    # a value deleted from the library must leave the list too
    assert set(SET_BY_OTHER_CALLERS) <= {value[0] for value in values}
    assert sorted(set(unset) - set(SET_BY_OTHER_CALLERS)) == []
