import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_network_from_doc
from roleblock import InputError, MultiHypergraph, MultiNetwork, Partition, UndirectedHypergraph
from roleblock import documents
from roleblock.fixtures import (
    coauthor_undirected,
    fanout_pair_hyper,
    family_three,
    family_three_merged,
    generations_partition,
    mirrored_pair_graph,
    mirrored_pair_partition,
    parent_grandparent_hyper,
    parent_tree_hyper,
    single_parent_graph,
    tree_generations_partition,
)
from roleblock.reduction import identity_map


class TestNetworkRoundTrip:
    def test_graph_round_trips_after_one_canonical_pass(self, tmp_path):
        path = tmp_path / "family.json"
        documents.save_network(family_three(), path)
        first = path.read_text()
        documents.save_network(documents.load_network(path), path)
        assert path.read_text() == first

    def test_fhyper_round_trips(self, tmp_path):
        path = tmp_path / "tree.json"
        net = parent_grandparent_hyper()
        documents.save_network(net, path)
        loaded = documents.load_network(path)
        assert isinstance(loaded, MultiHypergraph)
        assert loaded.relations == net.relations

    def test_undirected_round_trips(self, tmp_path):
        path = tmp_path / "papers.json"
        documents.save_network(coauthor_undirected(), path)
        loaded = documents.load_network(path)
        assert isinstance(loaded, UndirectedHypergraph)
        assert loaded == coauthor_undirected()

    def test_duplicate_edges_deduplicated(self):
        doc = {
            "kind": "graph",
            "actors": ["a", "b"],
            "relations": {"R": [["a", "b"], ["a", "b"]]},
        }
        net = documents.network_from_doc(doc)
        assert net.relations["R"].label_pairs() == [("a", "b")]

    def test_relation_order_follows_document(self):
        doc = {
            "kind": "graph",
            "actors": ["a", "b"],
            "relations": {"Z": [], "A": []},
        }
        assert documents.network_from_doc(doc).names == ("Z", "A")

    def test_empty_target_survives_round_trip(self, tmp_path):
        doc = {
            "kind": "fhyper",
            "actors": ["a"],
            "relations": {"H": [{"src": "a", "tgt": []}]},
        }
        net = documents.network_from_doc(doc)
        assert net.relations["H"].has_empty_target
        path = tmp_path / "h.json"
        documents.save_network(net, path)
        assert documents.load_network(path).relations == net.relations


class TestNetworkValidation:
    def test_unknown_actor_is_named(self):
        doc = {"kind": "graph", "actors": ["a"], "relations": {"R": [["a", "z"]]}}
        with pytest.raises(InputError, match="'z'"):
            documents.network_from_doc(doc)

    def test_bad_kind(self):
        with pytest.raises(InputError, match="kind"):
            documents.network_from_doc({"kind": "mesh", "actors": [], "relations": {}})

    def test_reserved_relation_name(self):
        doc = {"kind": "graph", "actors": ["a"], "relations": {"0": []}}
        with pytest.raises(InputError, match="reserved"):
            documents.network_from_doc(doc)

    def test_duplicate_actor(self):
        doc = {"kind": "graph", "actors": ["a", "a"], "relations": {}}
        with pytest.raises(InputError, match="duplicate"):
            documents.network_from_doc(doc)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "kind": "graph",\n  oops\n}\n')
        with pytest.raises(InputError, match="line 3"):
            documents.load_network(path)

    @pytest.mark.parametrize(
        "content",
        [
            b'{"kind": "graph", "actors": ["\xff"], "relations": {}}',
            b"[" * 100_000,
            b'{"kind": "graph", "actors": [' + b"7" * 5000 + b'], "relations": {}}',
        ],
        ids=["non-utf8", "deep-nesting", "long-integer"],
    )
    def test_unreadable_text_is_an_input_error_naming_the_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(InputError, match="bad.json: unreadable JSON"):
            documents.load_network(path)

    def test_malformed_hyperedge(self):
        doc = {"kind": "fhyper", "actors": ["a"], "relations": {"H": [["a"]]}}
        with pytest.raises(InputError, match="hyperedge"):
            documents.network_from_doc(doc)

    # Edges that a trusting unpack would read as valid: a string or an object
    # whose two characters or keys are labels, a tuple, a target that is a
    # string or an object of labels.  Each is malformed, with the message of
    # the checking pass, wherever it stands among valid edges.
    @pytest.mark.parametrize(
        "kind,edge",
        [
            ("graph", "ab"),
            ("graph", {"a": "b", "b": "a"}),
            ("graph", ("a", "b")),
            ("graph", ["a", "b", "a"]),
            ("fhyper", {"src": "a", "tgt": "ab"}),
            ("fhyper", {"src": "a", "tgt": {"a": 1, "b": 2}}),
            ("fhyper", {"src": "a", "tgt": ("a", "b")}),
        ],
    )
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_an_edge_that_unpacks_like_a_valid_one_is_malformed(self, kind, edge, at):
        good = ["a", "b"] if kind == "graph" else {"src": "a", "tgt": ["b"]}
        edges = [good, good]
        edges.insert(at, edge)
        doc = {"kind": kind, "actors": ["a", "b"], "relations": {"R": edges}}
        with pytest.raises(InputError) as exc:
            documents.network_from_doc(doc)
        with pytest.raises(InputError) as expected:
            naive_network_from_doc(doc)
        assert str(exc.value) == str(expected.value)
        assert "must be" in str(exc.value) or "is not a [src, tgt] pair" in str(exc.value)


class TestPartitionDocuments:
    def test_round_trip(self, tmp_path):
        net = family_three()
        e = generations_partition(net.actors)
        path = tmp_path / "p.json"
        documents.save_partition(e, path)
        assert documents.load_partition(path, net.actors) == e

    def test_generations_doc_shape(self):
        net = family_three()
        doc = documents.partition_to_doc(generations_partition(net.actors))
        assert doc == {"blocks": [["a", "b"], ["d"]]}

    def test_non_exhaustive_rejected(self):
        net = family_three()
        with pytest.raises(InputError, match="missing"):
            documents.partition_from_doc({"blocks": [["a", "b"]]}, net.actors)

    def test_overlap_rejected(self):
        net = family_three()
        with pytest.raises(InputError, match="two blocks"):
            documents.partition_from_doc(
                {"blocks": [["a", "b"], ["b", "d"]]}, net.actors
            )

    def test_repeat_within_one_block_rejected(self):
        net = family_three()
        with pytest.raises(InputError, match="'a' occurs twice in one block"):
            documents.partition_from_doc({"blocks": [["a", "a", "b", "d"]]}, net.actors)

    def test_unknown_label_rejected(self):
        net = family_three()
        with pytest.raises(InputError, match="'z'"):
            documents.partition_from_doc({"blocks": [["a", "b", "d", "z"]]}, net.actors)


class TestMapDocuments:
    def test_round_trip(self, tmp_path):
        net = family_three()
        e = generations_partition(net.actors)
        from roleblock.reduction import quotient_map

        f = quotient_map(e)
        path = tmp_path / "m.json"
        path.write_text(documents.dumps_canonical(documents.map_to_doc(f)))
        assert documents.load_map(path, f.source, f.target) == f

    def test_partial_map_rejected(self):
        net = family_three()
        doc = {"map": {"a": "a"}}
        with pytest.raises(InputError, match="not total"):
            documents.map_from_doc(doc, net.actors, net.actors)


    def test_unknown_source_key_rejected(self):
        net = family_three()
        doc = {"map": {"a": "a", "b": "b", "d": "d", "zz": "a"}}
        with pytest.raises(InputError, match="'zz' is not a source actor"):
            documents.map_from_doc(doc, net.actors, net.actors)


class TestWriteText:
    def test_writes_whole_text(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        documents.write_text(path, "new\ntext\n")
        assert path.read_bytes() == b"new\ntext\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(documents.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            documents.write_text(path, "new")
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestStageDocuments:
    def test_stage_with_and_without_map(self, tmp_path):
        net = family_three()
        with_map = tmp_path / "s1.json"
        with_map.write_text(
            documents.dumps_canonical(
                documents.stage_to_doc(net, {"a": "a", "b": "a", "d": "d"})
            )
        )
        loaded_net, mapping = documents.load_stage(with_map)
        assert isinstance(loaded_net, MultiNetwork)
        assert mapping == {"a": "a", "b": "a", "d": "d"}

        last = tmp_path / "s2.json"
        last.write_text(documents.dumps_canonical(documents.stage_to_doc(net)))
        _, mapping = documents.load_stage(last)
        assert mapping is None

    def test_missing_network_field(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{}")
        with pytest.raises(InputError, match="network"):
            documents.load_stage(path)


# The writer in ``dumps_canonical`` is pinned to ``json.dumps(indent=2,
# sort_keys=True)`` on any JSON tree and on every fixture document.
TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),  # lone surrogates included
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'),
), max_size=6)
JSON_VALUES = st.recursive(
    TEXT | st.integers() | st.booleans() | st.none() | st.floats(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(TEXT, max_size=4)
        | st.dictionaries(TEXT, inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=3)  # json turns the keys into strings
    ),
    max_leaves=20,
)
FIXTURE_NETWORKS = [
    family_three(), family_three_merged(), single_parent_graph(), mirrored_pair_graph(),
    parent_tree_hyper(), parent_grandparent_hyper(), fanout_pair_hyper(), coauthor_undirected(),
]
FIXTURE_PARTITIONS = [
    generations_partition(family_three_merged().actors),
    mirrored_pair_partition(mirrored_pair_graph().actors),
    tree_generations_partition(parent_tree_hyper().actors),
]


class TestCanonicalText:
    def test_keys_and_edges_sorted(self):
        text = documents.dumps_canonical(documents.network_to_doc(family_three()))
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert text.index('"B"') < text.index('"P"') < text.index('"S"')

    @settings(max_examples=500, deadline=None)
    @given(JSON_VALUES)
    def test_writer_matches_json_dumps(self, value):
        assert documents.dumps_canonical(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_writer_matches_json_dumps_on_the_fixture_documents(self):
        docs = []
        for net in FIXTURE_NETWORKS:
            ident = documents.map_to_doc(identity_map(net.actors))
            docs += [
                documents.network_to_doc(net),
                documents.stage_to_doc(net),
                documents.stage_to_doc(net, ident["map"]),
                documents.partition_to_doc(Partition.universal(net.actors)),
            ]
        docs += [documents.partition_to_doc(e) for e in FIXTURE_PARTITIONS]
        for doc in docs:
            assert documents.dumps_canonical(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_sparse_graph_holds_linear_memory():
    # 20,000 actors with 3 random out-neighbours each: index tuples hold
    # O(n + m); one int mask per row would hold O(n^2) bits, about 40 MiB
    rng = random.Random(0)
    n = 20_000
    labels = [f"a{i}" for i in range(n)]
    edges = [[labels[i], labels[rng.randrange(n)]] for i in range(n) for _ in range(3)]
    doc = {"kind": "graph", "actors": labels, "relations": {"R": edges}}
    distinct = len({tuple(edge) for edge in edges})
    tracemalloc.start()
    try:
        net = documents.network_from_doc(doc)
        del doc, edges
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8 * 2**20
    assert sum(map(len, net.relations["R"].out)) == distinct
