"""The ``roles --words`` listing, pinned to ``structure_to_doc``.

``documents.structure_lines`` formats each distinct (actor, part) of a
closure once and reads the stored index tuples, decoding no mask; its lines
must equal ``json.dumps(structure_to_doc(x), sort_keys=True)`` byte for byte
on every element of graph, tight, loose and loose-pruned closures.  Rosters draw labels whose sorted order differs from
roster order, non-ASCII labels and labels holding ``"`` or ``\\``; rows and
families may be empty, targets may be empty, and a target's labels come in
roster order, so they need not be sorted.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_multihyper, random_network
from roleblock import (
    ActorSet,
    FHyperStructure,
    MultiHypergraph,
    MultiNetwork,
    Relation,
    ResourceLimitError,
    core,
    documents,
    hypergraph,
    role_semigroup,
)
from roleblock.cli import main
from roleblock.documents import structure_lines, structure_to_doc
from roleblock.fixtures import parent_grandparent_hyper

LABELS = ["v2", "v10", "a", "B", "é", "ß", "雪", 'q"', "b\\", "a b", "v1"]


def oracle(structures):
    return [json.dumps(structure_to_doc(x), sort_keys=True) for x in structures]


@st.composite
def network(draw):
    labels = draw(st.lists(st.sampled_from(LABELS), max_size=4, unique=True))
    acts = ActorSet(labels)
    n = len(labels)
    index = st.integers(0, max(n - 1, 0))
    some = 1 if n else 0  # an empty roster has no edges
    names = ["P", "S"][: draw(st.integers(1, 2))]
    if draw(st.booleans()):
        pairs = st.lists(st.tuples(index, index), max_size=6 * some)
        rels = [(name, Relation.from_pairs(acts, draw(pairs))) for name in names]
        return MultiNetwork(acts, rels)
    edges = st.lists(st.tuples(index, st.lists(index, max_size=3)), max_size=5 * some)
    hypers = [(name, FHyperStructure.from_edges(acts, draw(edges))) for name in names]
    return MultiHypergraph(acts, hypers)


def closures(net):
    """The closures of ``net``: graph for a network, else tight, loose and loose-pruned."""
    if isinstance(net, MultiNetwork):
        kinds = [("graph", False)]
    else:
        kinds = [("tight", False), ("loose", False), ("loose", True)]
    out = []
    for kind, prune in kinds:
        try:
            out.append(role_semigroup(net, kind, prune_empty=prune, cap=2000))
        except ResourceLimitError:
            pass
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(net=network())
def test_lines_equal_structure_to_doc(net):
    for s in closures(net):
        assert list(structure_lines(s.elements)) == oracle(s.elements)
    generators = list(net.relations.values())
    assert list(structure_lines(generators)) == oracle(generators)


def test_lines_on_the_edge_cases():
    # label order b\ < q" < v10 < v2 < é is not roster order; a target keeps
    # roster order (q", b\) and sorts after its prefix (q"); \, " and é are escaped
    acts = ActorSet(["v2", "v10", "é", 'q"', "b\\"])
    r = Relation.from_pairs(acts, [(0, 1), (0, 0), (1, 4), (2, 3)])
    h = FHyperStructure(acts, [[[1, 0], []], [], [[4, 3], [3]], [], [[2]]])
    empty = FHyperStructure(acts, [[]] * 5)
    lines = list(structure_lines([r, h, empty, Relation(acts, [()] * 5)]))
    assert lines == oracle([r, h, empty, Relation(acts, [()] * 5)])
    assert lines == [
        r'[["v10", "b\\"], ["v2", "v10"], ["v2", "v2"], ["\u00e9", "q\""]]',
        r'[{"src": "b\\", "tgt": ["\u00e9"]}, {"src": "v2", "tgt": []}, '
        r'{"src": "v2", "tgt": ["v2", "v10"]}, {"src": "\u00e9", "tgt": ["q\""]}, '
        r'{"src": "\u00e9", "tgt": ["q\"", "b\\"]}]',
        "[]",
        "[]",
    ]


def test_lines_follow_each_structures_roster():
    # a fragment is reused only for the roster it was made for
    one, two = ActorSet(["a", "b"]), ActorSet(["b", "a"])
    structures = [Relation.from_pairs(one, [(0, 1)]), Relation.from_pairs(two, [(0, 1)])]
    assert list(structure_lines(structures)) == ['[["a", "b"]]', '[["b", "a"]]']


def parts(s):
    """The distinct (actor, part) pairs to format: each nonempty row of a
    relation, each nonempty family of an F-structure."""
    seen = set()
    for x in s.elements:
        stored = x.out if isinstance(x, Relation) else x.targets
        seen.update((a, part) for a, part in enumerate(stored) if part)
    return len(seen)


def refuse(*args):
    raise AssertionError("the listing called a function it must not call")


@pytest.mark.parametrize(
    "net,compose",
    [
        # 365 elements over 5 actors
        (random_network(random.Random(15), 5, 2, 0.25), ["--compose", "graph"]),
        (parent_grandparent_hyper(), ["--compose", "loose"]),
        # 47 elements: 68 distinct (actor, family) parts holding 326 targets
        (random_multihyper(random.Random(13), 5, 2, 3, 3), ["--compose", "tight"]),
    ],
    ids=["random-graph", "tree-loose", "random-tight"],
)
def test_listing_decodes_nothing_and_formats_each_part_once(
    net, compose, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "net.json"
    documents.save_network(net, path)
    s = role_semigroup(net, compose[1])
    expected = oracle(s.elements)
    with monkeypatch.context() as patch:
        # no mask is decoded or built while the lines are made
        for module in (core, hypergraph, documents):
            patch.setattr(module, "mask_members", refuse, raising=False)
            patch.setattr(module, "index_mask", refuse, raising=False)
        assert list(structure_lines(s.elements)) == expected
    formatted = []
    for name in ("_pairs", "_hyperedges"):
        real = getattr(documents._Fragments, name)

        def counted(self, src, part, real=real):
            formatted.append(part)
            return real(self, src, part)

        monkeypatch.setattr(documents._Fragments, name, counted)
    monkeypatch.setattr(documents, "structure_to_doc", refuse)
    assert main(["roles", "--network", str(path), *compose, "--words"]) == 0
    out = capsys.readouterr().out
    assert out.count("\t") == len(s)
    assert len(formatted) == parts(s)
