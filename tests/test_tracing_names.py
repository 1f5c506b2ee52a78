"""The benchmark's tracer patches roleblock names by module attribute.

``perfbench/tracing.py`` is read here, never imported as a package or
changed: every (module, attribute) it wraps or calls must resolve, so a
refactor that moves one of those names fails this suite, not only a traced
benchmark run.
"""

from pathlib import Path

import pytest

import roleblock
import roleblock.cli  # noqa: F401  (loads the cli and documents modules)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_namespace():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


TRACED = _tracing_namespace()
NAMES = sorted(
    set(TRACED["PATCHED_SPANS"])
    | set(TRACED["PATCHED_HOT"])
    | {(module, attr) for attr, (module, _) in TRACED["DIRECT"].items()}
)


@pytest.mark.parametrize("module,attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(getattr(roleblock, module), attr))
