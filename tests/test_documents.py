import json

import pytest

from roleblock import InputError, MultiHypergraph, MultiNetwork, UndirectedHypergraph
from roleblock import documents
from roleblock.fixtures import (
    coauthor_undirected,
    family_three,
    generations_partition,
    parent_grandparent_hyper,
)


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

    def test_malformed_hyperedge(self):
        doc = {"kind": "fhyper", "actors": ["a"], "relations": {"H": [["a"]]}}
        with pytest.raises(InputError, match="hyperedge"):
            documents.network_from_doc(doc)


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


class TestCanonicalText:
    def test_keys_and_edges_sorted(self):
        text = documents.dumps_canonical(documents.network_to_doc(family_three()))
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert text.index('"B"') < text.index('"P"') < text.index('"S"')
