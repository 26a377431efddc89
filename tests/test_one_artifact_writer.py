"""Every file the library writes goes through `cli._write_artifact`, which
overwrites in place and cuts to length; `Path.write_text`, `write_bytes` or
a write-mode `open` elsewhere would truncate to zero on open again."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "slicerank").glob("*.py"))
WRITER = ("cli.py", "_write_artifact")
OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return any(isinstance(n, ast.Attribute) and n.attr in OS_WRITE_FLAGS
                   for arg in call.args[1:] for n in ast.walk(arg))
    # builtin, io or Path open: the mode is the argument after the path, or
    # the first one of Path.open
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    first = 0 if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) != "io" else 1
    modes += call.args[first:first + 1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


def _writes(tree: ast.AST, skip: ast.AST | None = None) -> list[int]:
    skipped = set() if skip is None else {id(n) for n in ast.walk(skip)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skipped
            and _opens_for_writing(node)]


def test_the_rule_finds_each_kind_of_write():
    writes = ["Path(p).write_text(s)", "p.write_bytes(b)", "open(p, 'w')", "open(p, mode='ab')",
              "open(p, m)", "io.open(p, 'x')", "Path(p).open('r+')",
              "os.open(p, os.O_WRONLY | os.O_CREAT)"]
    reads = ["open(p)", "open(p, 'rb')", "io.open(p, 'r')", "Path(p).open()", "p.read_text()",
             "os.open(p, os.O_RDONLY)"]
    assert [len(_writes(ast.parse(src))) for src in writes] == [1] * len(writes)
    assert [len(_writes(ast.parse(src))) for src in reads] == [0] * len(reads)


def test_the_library_writes_files_only_through_the_artifact_writer():
    assert SOURCES
    found, writers = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        writer = next((node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                       and (path.name, node.name) == WRITER), None)
        if writer is not None:
            writers.append(writer)
            assert _writes(writer), "the writer no longer opens the file itself"
        found += [f"{path.name}:{line}" for line in _writes(tree, writer)]
    assert len(writers) == 1
    assert found == []
