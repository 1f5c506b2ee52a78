"""roleblock is pure stdlib, and importing its CLI stays cheap.

Every import in ``src/roleblock``, at module level or inside a function, is
either roleblock's own or a module of the standard library.  Importing
``roleblock.cli`` in a fresh interpreter loads none of the modules that the
code avoids on purpose, each a large share of a command's start-up:
``reduction._Record`` stands in for a dataclass, because ``dataclasses``
loads ``inspect``, and ``cli.main`` imports ``traceback`` only when an
internal error prints one.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import roleblock

PACKAGE = Path(roleblock.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
AVOIDED = {"inspect", "dataclasses", "traceback"}


def _imported(tree):
    """The top-level name of each module that ``tree`` imports, absolute imports only."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_every_module_is_read():
    assert {"cli.py", "core.py", "documents.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_stdlib_or_roleblock(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = {
        name for name in _imported(tree)
        if name != "roleblock" and name not in sys.stdlib_module_names
    }
    assert foreign == set()


def test_importing_the_cli_loads_no_avoided_module():
    code = (
        "import sys; before = set(sys.modules); import roleblock.cli; "
        "print(sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(PACKAGE.parent)},
    )
    added = set(ast.literal_eval(done.stdout))
    assert "roleblock.cli" in added
    assert added & AVOIDED == set()
