"""The one-pass network decoder, pinned to the three-pass decoder it replaced.

``documents.network_from_doc`` checks, resolves and stores each edge in one
pass; ``helpers.naive_network_from_doc`` checks every edge's shape, then
resolves every label, then builds the structures.  On random graph, fhyper
and undirected documents, whole or damaged the way ``test_cli_fuzz`` damages
them, both must give an equal network or an ``InputError`` with the same
message.  Two differences are intended, both on undirected documents: a
hyperedge that is not a list is an input error (the naive decoder read a
string or an object by its characters or keys, and crashed on anything
else), and a label that cannot be hashed is an unknown actor (the naive
decoder crashed on it).
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import naive_network_from_doc
from roleblock import InputError, MultiNetwork, UndirectedHypergraph
from roleblock import documents
from roleblock.documents import network_from_doc
from test_cli_fuzz import damaged, junk

LABELS = ["a", "b", "c", "d"]


def outcome(decode, *args, **kwargs):
    try:
        return decode(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the oracle may crash; the test says how
        return exc


@st.composite
def network_doc(draw):
    kind = draw(st.sampled_from(documents.KINDS))
    actors = draw(st.lists(st.sampled_from(LABELS), max_size=4, unique=True))
    label = st.sampled_from(actors + ["zz"]) if actors else st.just("zz")
    if kind == "undirected":
        edge = st.one_of(st.lists(label, max_size=3), st.lists(label, max_size=3), junk)
        return {"kind": kind, "actors": actors, "hyperedges": draw(st.lists(edge, max_size=6))}
    if kind == "graph":
        good = st.tuples(label, label).map(list)
    else:
        good = st.builds(lambda s, t: {"src": s, "tgt": t}, label, st.lists(label, max_size=3))
    edges = st.lists(good, max_size=8) | st.lists(st.one_of(good, good, junk), max_size=8)
    names = draw(st.lists(st.sampled_from(["P", "S", "0", ""]), max_size=3, unique=True))
    return {
        "kind": kind,
        "actors": actors,
        "relations": {name: draw(edges) for name in names},
    }


def _has_non_list_hyperedge(doc):
    if not (isinstance(doc, dict) and doc.get("kind") == "undirected"):
        return False
    edges = doc.get("hyperedges")
    return isinstance(edges, list) and any(not isinstance(e, list) for e in edges)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_one_pass_decoder_matches_the_three_pass_oracle(data):
    doc = data.draw(network_doc())
    text = data.draw(st.one_of(st.just(json.dumps(doc).encode()), damaged(doc)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_bytes(text)
        got = outcome(documents.load_network, path)
        parsed = outcome(documents._load_json, path)
        if isinstance(parsed, InputError):
            expected = parsed
        else:
            expected = outcome(naive_network_from_doc, parsed, source=str(path))

    not_a_list = "is not a list of labels"
    if isinstance(expected, Exception) and type(expected) is not InputError:
        # the oracle crashed on an undirected hyperedge or label of the wrong type
        assert type(got) is InputError
        assert "unknown actor" in str(got) or str(got).endswith(not_a_list)
    elif not isinstance(parsed, InputError) and _has_non_list_hyperedge(parsed):
        assert type(got) is InputError
        if not (type(expected) is InputError and str(got) == str(expected)):
            assert str(got).endswith(not_a_list)
    elif isinstance(expected, Exception):
        assert type(got) is InputError
        assert str(got) == str(expected)
    else:
        assert type(got) is type(expected)
        assert got == expected


def decode_both(doc):
    """The message of the error both decoders raise; they must agree on it."""
    with pytest.raises(InputError) as got:
        network_from_doc(doc)
    with pytest.raises(InputError) as expected:
        naive_network_from_doc(doc)
    assert str(got.value) == str(expected.value)
    return str(got.value)


class TestErrorOrder:
    def test_malformed_edge_after_an_unknown_label_wins(self):
        edges = [["a", "zz"]] + [["a", "b"]] * 4 + [["a"]]
        doc = {"kind": "graph", "actors": ["a", "b"], "relations": {"R": edges}}
        assert decode_both(doc) == "<input>: relation 'R': edge ['a'] is not a [src, tgt] pair"

    def test_malformed_hyperedge_after_an_unknown_label_wins(self):
        edges = [{"src": "zz", "tgt": []}] + [{"src": "a", "tgt": ["b"]}] * 4 + [{"src": "a"}]
        doc = {"kind": "fhyper", "actors": ["a", "b"], "relations": {"H": edges}}
        assert decode_both(doc) == (
            "<input>: relation 'H': hyperedge {'src': 'a'} must be "
            '{"src": label, "tgt": [labels]}'
        )

    def test_unknown_label_in_a_hyperedge_target(self):
        edges = [{"src": "a", "tgt": ["b"]}, {"src": "a", "tgt": ["b", "zz", "yy"]}]
        doc = {"kind": "fhyper", "actors": ["a", "b"], "relations": {"H": edges}}
        assert decode_both(doc) == "<input>: relation 'H': unknown actor 'zz'"

    def test_unknown_source_comes_before_an_unknown_target(self):
        edges = [{"src": "yy", "tgt": ["zz"]}]
        doc = {"kind": "fhyper", "actors": ["a"], "relations": {"H": edges}}
        assert decode_both(doc) == "<input>: relation 'H': unknown actor 'yy'"

    def test_first_relation_is_finished_before_the_second(self):
        doc = {
            "kind": "graph",
            "actors": ["a"],
            "relations": {"R": [["zz", "a"]], "S": [["a"]]},
        }
        assert decode_both(doc) == "<input>: relation 'R': unknown actor 'zz'"

    def test_error_in_the_second_relation_beats_an_invalid_name(self):
        doc = {
            "kind": "graph",
            "actors": ["a", "b"],
            "relations": {"0": [["a", "b"]], "R": [["a", "zz"]]},
        }
        assert decode_both(doc) == "<input>: relation 'R': unknown actor 'zz'"

    def test_invalid_name_is_reported_once_every_relation_parses(self):
        doc = {"kind": "fhyper", "actors": ["a"], "relations": {"H": [], "0": []}}
        assert decode_both(doc) == (
            "<input>: relation name '0' is reserved for the absorbing element"
        )


class TestDuplicateEdges:
    def test_graph(self):
        doc = {"kind": "graph", "actors": ["a", "b"], "relations": {"R": [["a", "b"]] * 3}}
        net = network_from_doc(doc)
        assert net == naive_network_from_doc(doc)
        assert net.relations["R"].label_pairs() == [("a", "b")]

    def test_fhyper(self):
        edges = [
            {"src": "b", "tgt": ["b", "a"]},
            {"src": "b", "tgt": ["a", "b", "a"]},
            {"src": "a", "tgt": []},
            {"src": "a", "tgt": []},
        ]
        doc = {"kind": "fhyper", "actors": ["a", "b"], "relations": {"H": edges}}
        net = network_from_doc(doc)
        assert net == naive_network_from_doc(doc)
        assert net.relations["H"].targets == (((),), ((0, 1),))

    def test_undirected(self):
        doc = {"kind": "undirected", "actors": ["a", "b"], "hyperedges": [["b", "a"], ["a", "b", "b"]]}
        u = network_from_doc(doc)
        assert u == naive_network_from_doc(doc)
        assert u.hyperedges == ((0, 1),)


class TestUndirectedShape:
    @pytest.mark.parametrize("edge", ["ab", {"a": 1}, 5, None])
    def test_a_hyperedge_must_be_a_list(self, edge):
        doc = {"kind": "undirected", "actors": ["a", "b"], "hyperedges": [["a"], edge]}
        with pytest.raises(InputError) as exc:
            network_from_doc(doc)
        assert str(exc.value) == f"<input>: hyperedge {edge!r} is not a list of labels"

    @pytest.mark.parametrize("label", [None, 5, ["a"]])
    def test_a_label_that_is_not_a_string_is_unknown(self, label):
        doc = {"kind": "undirected", "actors": ["a"], "hyperedges": [["a", label]]}
        with pytest.raises(InputError) as exc:
            network_from_doc(doc)
        assert str(exc.value) == f"<input>: unknown actor {label!r}"

    def test_errors_are_reported_in_edge_order(self):
        doc = {"kind": "undirected", "actors": ["a"], "hyperedges": [["zz"], 5]}
        assert decode_both(doc) == "<input>: unknown actor 'zz'"


def test_decoded_structures_are_canonical():
    """Structures built straight from canonical tuples equal the constructors' own."""
    doc = {
        "kind": "graph",
        "actors": ["c", "a", "b"],
        "relations": {"R": [["b", "c"], ["c", "a"], ["b", "a"], ["c", "a"]], "S": []},
    }
    net = network_from_doc(doc)
    assert isinstance(net, MultiNetwork)
    assert net == naive_network_from_doc(doc)
    assert hash(net.relations["R"]) == hash(naive_network_from_doc(doc).relations["R"])
    u_doc = {"kind": "undirected", "actors": ["a", "b", "c"],
             "hyperedges": [["c", "a"], ["b"], [], ["a", "c"]]}
    u = network_from_doc(u_doc)
    assert isinstance(u, UndirectedHypergraph)
    assert u.hyperedges == UndirectedHypergraph(u.actors, [[2, 0], [1], [], [0, 2]]).hyperedges
