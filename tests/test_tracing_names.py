"""The benchmark's tracer patches roleblock names by module attribute.

``perfbench/tracing.py`` is read here, never imported as a package or
changed: every (module, attribute) it wraps or calls must resolve, and with
its ``Tracer`` installed, running every verb on a graph and an F-hypergraph
must fire every span it patches.  A refactor that moves a call out from under
its traced name then fails this suite, not only a traced benchmark run.
"""

from pathlib import Path

import pytest

import roleblock
import roleblock.cli  # noqa: F401  (loads the cli and documents modules)
from roleblock.fixtures import (
    family_three_merged,
    generations_partition,
    parent_tree_hyper,
    tree_generations_partition,
)
from roleblock.reduction import pushforward_network, quotient_map

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


def _verbs(tmp_path, net, e, compose):
    """One argv per traced verb on ``net``, its files written under ``tmp_path``."""
    documents = roleblock.documents
    f = quotient_map(e)
    dst = pushforward_network(net, f)
    mapping = documents.map_to_doc(f)
    docs = {
        "net": documents.network_to_doc(net),
        "e": documents.partition_to_doc(e),
        "dst": documents.network_to_doc(dst),
        "map": mapping,
        "s1": documents.stage_to_doc(net, mapping["map"]),
        "s2": documents.stage_to_doc(dst),
    }
    tmp_path.mkdir()
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        documents.write_text(paths[name], documents.dumps_canonical(doc))
    network = ["--network", paths["net"]]
    return [
        ["check-regular", *network, "--partition", paths["e"]],
        ["max-regular", *network],
        ["blockmodel", *network, "--partition", paths["e"],
         "-o", str(tmp_path / "q.json"), "--dot", str(tmp_path / "q.dot")],
        ["oracle", "coarsest", *network],
        ["roles", *network, "--compose", compose, "--table", str(tmp_path / "t.csv")],
        ["induce", "--source", paths["net"], "--map", paths["map"], "--target", paths["dst"],
         "--compose", compose],
        ["functor-check", "--stages", paths["s1"], paths["s2"], "--compose", compose],
    ]


def test_every_traced_span_fires_and_uninstall_restores(tmp_path, capsys):
    patched = [*TRACED["PATCHED_SPANS"], *TRACED["PATCHED_HOT"]]
    originals = {(m, a): getattr(getattr(roleblock, m), a) for m, a in patched}
    graph, hyper = family_three_merged(), parent_tree_hyper()
    argvs = _verbs(tmp_path / "graph", graph, generations_partition(graph.actors), "graph")
    argvs += _verbs(tmp_path / "hyper", hyper, tree_generations_partition(hyper.actors), "tight")
    tracer = TRACED["Tracer"](roleblock)
    tracer.install()
    try:
        codes = [roleblock.cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(argvs), capsys.readouterr().err
    names = set(TRACED["PATCHED_SPANS"].values()) | set(TRACED["PATCHED_HOT"].values())
    assert names - TRACED["fired"](tracer.spans, tracer.hot) == set()
    restored = {(m, a): getattr(getattr(roleblock, m), a) for m, a in patched}
    assert all(restored[name] is fn for name, fn in originals.items())
