"""Every exception roleblock raises is an ``EngineError``.

The CLI's exit-code contract rests on this: ``cli.main`` maps each
``EngineError`` (and ``OSError``) to an exit code, so any other exception
would surface as a traceback.  The source is parsed, not run, so a raise on a
path no test reaches is checked too.
"""

import ast
from collections import Counter
from pathlib import Path

import roleblock
from roleblock import errors

SRC = Path(roleblock.__file__).resolve().parent


def _raises():
    # (module, enclosing function, handler name, raise node) for every raise
    def walk(node, module, func, handler):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, module, child.name, None)
            elif isinstance(child, ast.ExceptHandler):
                yield from walk(child, module, func, child.name)
            else:
                if isinstance(child, ast.Raise):
                    yield module, func, handler, child
                yield from walk(child, module, func, handler)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem, None, None)


def _kind(module, func, handler, node):
    """The raised class's name, or why the raise needs no ``EngineError``."""
    exc = node.exc
    if exc is None:
        return "re-raise"
    if not isinstance(exc, ast.Call):
        return None
    callee = exc.func
    # raise type(exc)(...) inside ``except ... as exc`` re-raises the caught type
    if (
        isinstance(callee, ast.Call)
        and isinstance(callee.func, ast.Name)
        and callee.func.id == "type"
        and [a.id for a in callee.args if isinstance(a, ast.Name)] == [handler]
    ):
        return "re-raise"
    if not isinstance(callee, ast.Name):
        return None
    if (module, func, callee.id) == ("cli", "run", "SystemExit"):
        return "SystemExit"
    cls = getattr(errors, callee.id, None)
    if isinstance(cls, type) and issubclass(cls, errors.EngineError):
        return callee.id
    return None


def test_every_raise_in_src_is_an_engine_error():
    found = list(_raises())
    bad = [f"{m}.py:{n.lineno}" for m, f, h, n in found if _kind(m, f, h, n) is None]
    assert not bad, f"raises that are no EngineError: {bad}"
    kinds = Counter(_kind(*r) for r in found)
    assert kinds["SystemExit"] == 1
    assert kinds["StructuralError"] > 0 and kinds["InputError"] > 0


def test_the_check_sees_a_foreign_raise():
    tree = ast.parse("def f():\n    raise ValueError('x')\n")
    node = tree.body[0].body[0]
    assert _kind("core", "f", None, node) is None
    assert _kind("cli", "main", None, ast.parse("raise SystemExit(1)").body[0]) is None
