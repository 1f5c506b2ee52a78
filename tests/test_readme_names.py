"""Every backticked dotted library name in README.md resolves in ``roleblock``.

A name counts when its first part is ``roleblock``, one of its modules, or a
name the package exports, as in `core.row_rule` or `Relation.out`; others,
such as `s.cayley`, are variables of an example and are not checked.  A
refactor that removes or renames a name the README gives fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import roleblock

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(roleblock.__path__)}
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _names():
    names = set()
    for name in DOTTED.findall(README.read_text(encoding="utf-8")):
        head = name.split(".")[0]
        if head == "roleblock" or head in MODULES or hasattr(roleblock, head):
            names.add(name)
    return sorted(names)


NAMES = _names()


def test_the_readme_names_library_members():
    assert "core.Structure" in NAMES and "core.row_rule" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_resolves(name):
    head, *rest = name.split(".")
    if head == "roleblock":
        obj = roleblock
    elif head in MODULES:
        obj = importlib.import_module(f"roleblock.{head}")
    else:
        obj = getattr(roleblock, head)
    for part in rest:
        assert hasattr(obj, part), f"{name}: no {part!r} in {obj!r}"
        obj = getattr(obj, part)
