import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from roleblock import (
    MultiHypergraph,
    MultiNetwork,
    Partition,
    cli,
    documents,
    from_undirected,
    multiplication_table,
    role_semigroup,
)
from roleblock.cli import main
from roleblock.errors import InvariantViolation
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
)
from roleblock.reduction import identity_map

# the family multiplication table under canonical (sorted) generator order
FAMILY_CSV = """\
*,B,P,S,BS,PB,PS,SB
B,0,0,BS,0,0,0,B
P,PB,0,PS,PS,0,0,PB
S,SB,0,0,S,0,0,0
BS,B,0,0,BS,0,0,0
PB,0,0,PS,0,0,0,PB
PS,PB,0,0,PS,0,0,0
SB,0,0,S,0,0,0,SB
"""

# the family summary and word listing, on stdout, or on stderr with --table -
FAMILY_WORDS = """\
kind: graph
generators: B,P,S
elements: 8
nonzero: 7
absorbing: BB
identity: absent
B\t[["b", "a"]]
P\t[["a", "d"], ["b", "d"]]
S\t[["a", "b"]]
BB\t[]
BS\t[["a", "a"]]
PB\t[["b", "d"]]
PS\t[["a", "d"]]
SB\t[["b", "b"]]
"""


@pytest.fixture
def files(tmp_path):
    def write_network(name, net):
        path = tmp_path / name
        documents.save_network(net, path)
        return str(path)

    def write_partition(name, e):
        path = tmp_path / name
        documents.save_partition(e, path)
        return str(path)

    def write_doc(name, doc):
        path = tmp_path / name
        path.write_text(documents.dumps_canonical(doc))
        return str(path)

    return tmp_path, write_network, write_partition, write_doc


class TestCheckRegular:
    def test_regular_partition_exits_zero(self, files, capsys):
        _, wn, wp, _ = files
        net = family_three_merged()
        code = main(
            [
                "check-regular",
                "--network", wn("net.json", net),
                "--partition", wp("e.json", generations_partition(net.actors)),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "S: outward=yes inward=yes" in out
        assert "result: regular" in out

    def test_irregular_partition_exits_one(self, files, capsys):
        _, wn, wp, _ = files
        net = mirrored_pair_graph()
        code = main(
            [
                "check-regular",
                "--network", wn("net.json", net),
                "--partition", wp("e.json", mirrored_pair_partition(net.actors)),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "R: outward=no inward=no" in out
        assert "result: not regular" in out

    def test_hyper_network(self, files, capsys):
        _, wn, wp, _ = files
        from roleblock.fixtures import tree_generations_partition

        mh = parent_tree_hyper()
        code = main(
            [
                "check-regular",
                "--network", wn("net.json", mh),
                "--partition", wp("e.json", tree_generations_partition(mh.actors)),
            ]
        )
        assert code == 0
        assert "H: regular=yes" in capsys.readouterr().out

    def test_mode_rejected_for_hyper(self, files, capsys):
        _, wn, wp, _ = files
        from roleblock import Partition

        mh = parent_tree_hyper()
        code = main(
            [
                "check-regular",
                "--network", wn("net.json", mh),
                "--partition", wp("e.json", Partition.discrete(mh.actors)),
                "--mode", "out",
            ]
        )
        assert code == 2
        assert "--mode" in capsys.readouterr().err


class TestMaxRegular:
    def test_graph(self, files, capsys):
        _, wn, _, _ = files
        code = main(["max-regular", "--network", wn("net.json", single_parent_graph())])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"blocks": [["a"], ["b", "c"]]}

    def test_hyper_with_seed(self, files, capsys):
        _, wn, wp, _ = files
        from roleblock import Partition

        mh = parent_tree_hyper()
        code = main(
            [
                "max-regular",
                "--network", wn("net.json", mh),
                "--seed", wp("seed.json", Partition.universal(mh.actors)),
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"blocks": [["r"], ["a", "b"], ["a1", "a2", "b1", "b2"]]}


class TestBlockmodel:
    def test_stdout_document(self, files, capsys):
        _, wn, wp, _ = files
        net = single_parent_graph()
        from roleblock import Partition

        e = Partition.from_label_blocks(net.actors, [["a"], ["b", "c"]])
        code = main(
            [
                "blockmodel",
                "--network", wn("net.json", net),
                "--partition", wp("e.json", e),
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["actors"] == ["{a}", "{b,c}"]
        assert doc["relations"]["R"] == [["{b,c}", "{a}"]]

    def test_output_and_dot_files(self, files):
        tmp_path, wn, wp, _ = files
        net = parent_tree_hyper()
        from roleblock.fixtures import tree_generations_partition

        out = tmp_path / "q.json"
        dot = tmp_path / "q.dot"
        code = main(
            [
                "blockmodel",
                "--network", wn("net.json", net),
                "--partition", wp("e.json", tree_generations_partition(net.actors)),
                "-o", str(out),
                "--dot", str(dot),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["kind"] == "fhyper"
        assert "shape=point" in dot.read_text()


class TestRoles:
    def test_family_table_to_stdout(self, files, capsys):
        _, wn, _, _ = files
        code = main(
            [
                "roles",
                "--network", wn("family.json", family_three()),
                "--compose", "graph",
                "--table", "-",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == FAMILY_CSV
        assert "elements: 8" in captured.err

    def test_summary_and_words(self, files, capsys):
        _, wn, _, _ = files
        code = main(
            [
                "roles",
                "--network", wn("tree.json", parent_grandparent_hyper()),
                "--compose", "loose",
                "--prune-empty",
                "--words",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "nonzero: 2" in out
        assert "absorbing: H1H2" in out
        assert out.count("\t") == 3  # one word line per element

    @pytest.mark.parametrize("table", [[], ["--table", "-"]], ids=["stdout", "stderr"])
    def test_words_listing_bytes(self, files, capsys, table):
        _, wn, _, _ = files
        path = wn("family.json", family_three())
        code = main(["roles", "--network", path, "--compose", "graph", "--words", *table])
        captured = capsys.readouterr()
        assert code == 0
        if table:
            assert (captured.out, captured.err) == (FAMILY_CSV, FAMILY_WORDS)
        else:
            assert (captured.out, captured.err) == (FAMILY_WORDS, "")

    def test_table_file(self, files):
        tmp_path, wn, _, _ = files
        table = tmp_path / "t.csv"
        code = main(
            [
                "roles",
                "--network", wn("family.json", family_three()),
                "--compose", "graph",
                "--table", str(table),
            ]
        )
        assert code == 0
        assert table.read_text() == FAMILY_CSV

    def test_cap_exit_code(self, files, capsys):
        _, wn, _, _ = files
        code = main(
            [
                "roles",
                "--network", wn("family.json", family_three()),
                "--compose", "graph",
                "--cap", "3",
            ]
        )
        assert code == 3
        assert "resource limit" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_an_input_error(self, files, capsys, cap):
        _, wn, _, _ = files
        code = main(
            ["roles", "--network", wn("family.json", family_three()), "--compose", "graph",
             "--cap", cap]
        )
        assert code == 2
        assert "cap must be at least 1" in capsys.readouterr().err

    def test_cap_bounds_the_generators_too(self, files, capsys):
        _, _, _, wd = files
        path = wd(
            "net.json",
            {
                "kind": "graph",
                "actors": ["a", "b"],
                "relations": {
                    "P": [["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"]],
                    "S": [["a", "a"], ["b", "b"]],
                },
            },
        )
        assert main(["roles", "--network", path, "--compose", "graph", "--cap", "1"]) == 3
        assert "resource limit" in capsys.readouterr().err
        assert main(["roles", "--network", path, "--compose", "graph", "--cap", "2"]) == 0
        assert "elements: 2" in capsys.readouterr().out

    def test_compose_kind_mismatch(self, files, capsys):
        _, wn, _, _ = files
        code = main(
            [
                "roles",
                "--network", wn("family.json", family_three()),
                "--compose", "tight",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("compose,net", [("graph", family_three), ("tight", parent_tree_hyper)])
    def test_prune_empty_needs_loose_composition(self, files, capsys, compose, net):
        _, wn, _, _ = files
        code = main(
            ["roles", "--network", wn("net.json", net()), "--compose", compose, "--prune-empty"]
        )
        assert code == 2
        assert "prune_empty only applies to loose composition" in capsys.readouterr().err

    def test_network_without_relations(self, files, capsys):
        _, _, _, wd = files
        path = wd("empty.json", {"kind": "graph", "actors": ["a"], "relations": {}})
        code = main(["roles", "--network", path, "--compose", "graph"])
        assert code == 2
        assert "generator" in capsys.readouterr().err

    def test_memory_budget_exit_code(self, files, capsys):
        # one idempotent element, but 2,000 rows that each reach the last 30
        # actors: 64 x (2,000 + 60,000) bits, about 3.97 Mbit, over the budget
        # of cap 50 (3.28 Mbit) and within that of cap 100 (6.55 Mbit)
        _, _, _, wd = files
        labels = [f"a{i}" for i in range(2000)]
        path = wd("wide.json", {"kind": "graph", "actors": labels,
                                "relations": {"R": [[a, b] for a in labels for b in labels[-30:]]}})
        assert main(["roles", "--network", path, "--compose", "graph", "--cap", "50"]) == 3
        assert "memory budget" in capsys.readouterr().err
        assert main(["roles", "--network", path, "--compose", "graph", "--cap", "100"]) == 0
        assert "elements: 1" in capsys.readouterr().out

    def test_table_with_quoted_labels_round_trips_through_csv(self, files, capsys):
        _, wn, _, _ = files
        net = family_three()
        renamed = MultiNetwork(net.actors, [("P,Q", net.relations["P"]), ("S", net.relations["S"]),
                                            ('B"', net.relations["B"])])
        path = wn("net.json", renamed)
        assert main(["roles", "--network", path, "--compose", "graph", "--table", "-"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        labels, grid = multiplication_table(role_semigroup(documents.load_network(path), "graph"))
        assert rows == [["*"] + labels] + [[lab] + cells for lab, cells in zip(labels, grid)]
        assert "P,QS" in labels and 'B"S' in labels

    def test_deterministic_output(self, files, capsys):
        _, wn, _, _ = files
        path = wn("family.json", family_three())
        main(["roles", "--network", path, "--compose", "graph", "--table", "-"])
        first = capsys.readouterr().out
        main(["roles", "--network", path, "--compose", "graph", "--table", "-"])
        assert capsys.readouterr().out == first


class TestInduce:
    def _write_reduction(self, files, net, e):
        _, wn, _, wd = files
        from roleblock.reduction import pushforward_network, quotient_map

        f = quotient_map(e)
        dst = pushforward_network(net, f)
        src_path = wn("src.json", net)
        dst_path = wn("dst.json", dst)
        map_path = wd("map.json", documents.map_to_doc(f))
        return src_path, map_path, dst_path

    def test_generations_reduction(self, files, capsys):
        net = family_three_merged()
        src, mp, dst = self._write_reduction(files, net, generations_partition(net.actors))
        code = main(
            ["induce", "--source", src, "--map", mp, "--target", dst, "--compose", "graph"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: ok" in out
        assert "hom: well-defined" in out
        assert "hom surjective: yes" in out

    def test_obstructed_reduction(self, files, capsys):
        net = mirrored_pair_graph()
        src, mp, dst = self._write_reduction(files, net, mirrored_pair_partition(net.actors))
        code = main(
            ["induce", "--source", src, "--map", mp, "--target", dst, "--compose", "graph"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.split("\n")[:5] == [
            "surjective: yes",
            "preserves[R]: yes",
            "reflects[R]: no",
            "blockmodel-match: yes",
            "validation: failed",
        ]
        assert "hom: ill-defined" in out
        assert "'RR'" in out and "'RRR'" in out

    def test_relation_order_mismatch_between_documents(self, files, capsys):
        # a hand-written source keeps its declaration order while tool output
        # is canonically sorted; generator alignment must go by name
        tmp_path, _, _, wd = files
        net = family_three_merged()
        src_doc = {
            "kind": "graph",
            "actors": ["a", "b", "d"],
            "relations": {
                "S": [["a", "b"], ["b", "a"]],  # declared before P on purpose
                "P": [["a", "d"], ["b", "d"]],
            },
        }
        src = tmp_path / "src.json"
        src.write_text(json.dumps(src_doc) + "\n")
        from roleblock.reduction import pushforward_network, quotient_map

        f = quotient_map(generations_partition(net.actors))
        dst = documents.dumps_canonical(
            documents.network_to_doc(pushforward_network(net, f))
        )
        dst_path = tmp_path / "dst.json"
        dst_path.write_text(dst)
        mp = wd("map.json", documents.map_to_doc(f))
        code = main(
            [
                "induce",
                "--source", str(src),
                "--map", mp,
                "--target", str(dst_path),
                "--compose", "graph",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: ok" in out
        assert "hom surjective: yes" in out

    def test_unknown_map_key_is_an_input_error(self, files, capsys):
        tmp_path, _, _, wd = files
        net = family_three_merged()
        src, mp, dst = self._write_reduction(files, net, generations_partition(net.actors))
        doc = json.loads((tmp_path / "map.json").read_text())
        doc["map"]["zz"] = "{a,b}"
        mp = wd("map.json", doc)
        code = main(
            ["induce", "--source", src, "--map", mp, "--target", dst, "--compose", "graph"]
        )
        assert code == 2
        assert "'zz' is not a source actor" in capsys.readouterr().err

    def test_tight_reduction_on_hypergraph(self, files, capsys):
        from roleblock.fixtures import tree_generations_partition

        net = parent_tree_hyper()
        src, mp, dst = self._write_reduction(
            files, net, tree_generations_partition(net.actors)
        )
        code = main(
            ["induce", "--source", src, "--map", mp, "--target", dst, "--compose", "tight"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: ok" in out
        assert "hom surjective: yes" in out


class TestFunctorCheck:
    def test_two_stage_chain(self, files, capsys):
        tmp_path, _, _, wd = files
        from roleblock import Partition
        from roleblock.reduction import pushforward_network, quotient_map

        net = family_three_merged()
        f1 = quotient_map(Partition.discrete(net.actors))
        n1 = pushforward_network(net, f1)
        e2 = Partition.from_label_blocks(n1.actors, [["{a}", "{b}"], ["{d}"]])
        f2 = quotient_map(e2)
        n2 = pushforward_network(n1, f2)

        s1 = wd("s1.json", documents.stage_to_doc(net, documents.map_to_doc(f1)["map"]))
        s2 = wd("s2.json", documents.stage_to_doc(n1, documents.map_to_doc(f2)["map"]))
        s3 = wd("s3.json", documents.stage_to_doc(n2))
        code = main(["functor-check", "--stages", s1, s2, s3, "--compose", "graph"])
        out = capsys.readouterr().out
        assert code == 0
        assert "identity law: ok" in out
        assert "composition law: ok" in out

    def test_invalid_stage(self, files, capsys):
        _, _, _, wd = files
        from roleblock.reduction import pushforward_network, quotient_map

        net = mirrored_pair_graph()
        f = quotient_map(mirrored_pair_partition(net.actors))
        dst = pushforward_network(net, f)
        s1 = wd("s1.json", documents.stage_to_doc(net, documents.map_to_doc(f)["map"]))
        s2 = wd("s2.json", documents.stage_to_doc(dst))
        code = main(["functor-check", "--stages", s1, s2, "--compose", "graph"])
        assert code == 1
        assert "stage validation failed" in capsys.readouterr().out

    def test_unknown_map_key_is_an_input_error(self, files, capsys):
        _, _, _, wd = files
        from roleblock.reduction import identity_map

        net = family_three_merged()
        mapping = documents.map_to_doc(identity_map(net.actors))["map"]
        mapping["zz"] = "a"
        s1 = wd("s1.json", documents.stage_to_doc(net, mapping))
        s2 = wd("s2.json", documents.stage_to_doc(net))
        code = main(["functor-check", "--stages", s1, s2, "--compose", "graph"])
        assert code == 2
        assert "'zz' is not a source actor" in capsys.readouterr().err

    def test_non_string_map_value_is_an_input_error(self, files, capsys):
        _, _, _, wd = files
        from roleblock.reduction import identity_map

        net = family_three_merged()
        mapping = documents.map_to_doc(identity_map(net.actors))["map"]
        mapping["a"] = ["a"]
        s1 = wd("s1.json", documents.stage_to_doc(net, mapping))
        s2 = wd("s2.json", documents.stage_to_doc(net))
        code = main(["functor-check", "--stages", s1, s2, "--compose", "graph"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {s1}: map entry 'a'")

    def test_missing_map(self, files, capsys):
        _, _, _, wd = files
        net = family_three_merged()
        s1 = wd("s1.json", documents.stage_to_doc(net))
        s2 = wd("s2.json", documents.stage_to_doc(net))
        code = main(["functor-check", "--stages", s1, s2, "--compose", "graph"])
        assert code == 2

    @pytest.mark.parametrize("undirected_at", [0, 1])
    def test_undirected_stage_is_an_input_error(self, files, capsys, undirected_at):
        _, _, _, wd = files
        u = coauthor_undirected()
        nets = [MultiHypergraph(u.actors, [("H", from_undirected(u))])] * 2
        nets[undirected_at] = u
        mapping = documents.map_to_doc(identity_map(u.actors))["map"]
        stages = [wd("s1.json", documents.stage_to_doc(nets[0], mapping)),
                  wd("s2.json", documents.stage_to_doc(nets[1]))]
        code = main(["functor-check", "--stages", *stages, "--compose", "graph"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {stages[undirected_at]}: undirected hypergraphs carry no named "
            "relations; convert to fhyper first\n"
        )

    def test_one_stage_is_an_input_error(self, files, capsys):
        _, _, _, wd = files
        net = family_three_merged()
        s1 = wd("s1.json", documents.stage_to_doc(net, documents.map_to_doc(identity_map(net.actors))["map"]))
        code = main(["functor-check", "--stages", s1, "--compose", "graph"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need at least two stages\n"

    def test_map_on_the_final_stage_is_an_input_error(self, files, capsys):
        _, _, _, wd = files
        net = family_three_merged()
        mapping = documents.map_to_doc(identity_map(net.actors))["map"]
        s1 = wd("s1.json", documents.stage_to_doc(net, mapping))
        s2 = wd("s2.json", documents.stage_to_doc(net, mapping))
        code = main(["functor-check", "--stages", s1, s2, "--compose", "graph"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {s2}: the final stage must not carry a map\n"


class TestConvert:
    def test_coauthor_conversion(self, files, capsys):
        _, wn, _, _ = files
        code = main(["convert", "--undirected", wn("u.json", coauthor_undirected())])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "fhyper"
        assert len(doc["relations"]["H"]) == 8
        assert {"src": "c", "tgt": ["a", "d"]} in doc["relations"]["H"]

    def test_wrong_kind_rejected(self, files, capsys):
        _, wn, _, _ = files
        code = main(["convert", "--undirected", wn("g.json", family_three())])
        assert code == 2


class TestOracle:
    def test_partitions_stream(self, files, capsys):
        _, wn, _, _ = files
        code = main(
            ["oracle", "partitions", "--network", wn("net.json", single_parent_graph())]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == 5
        assert json.loads(lines[0]) == {"blocks": [["a", "b", "c"]]}

    def test_coarsest(self, files, capsys):
        _, wn, _, _ = files
        code = main(
            ["oracle", "coarsest", "--network", wn("net.json", single_parent_graph())]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"blocks": [["a"], ["b", "c"]]}

    @pytest.mark.parametrize("what", ["partitions", "coarsest"])
    def test_mode_rejected_for_hyper(self, files, capsys, what):
        _, wn, _, _ = files
        code = main(["oracle", what, "--network", wn("h.json", parent_tree_hyper()), "--mode", "in"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --mode applies only to graph networks\n"

    @pytest.mark.parametrize("mode", ["out", "in", "both"])
    def test_mode_rejected_for_graph_partitions(self, files, capsys, mode):
        _, wn, _, _ = files
        code = main(["oracle", "partitions", "--network", wn("g.json", single_parent_graph()), "--mode", mode])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --mode does not apply to oracle partitions\n"

    def test_size_cap_exit_code(self, files, capsys):
        _, wn, _, _ = files
        import random

        from helpers import random_network

        net = random_network(random.Random(0), n=9, k=1)
        code = main(["oracle", "coarsest", "--network", wn("net.json", net)])
        assert code == 3


def test_any_other_engine_error_is_an_internal_error(files, capsys, monkeypatch):
    _, wn, _, _ = files

    def broken(*args, **kwargs):
        raise InvariantViolation("blocks out of order")

    monkeypatch.setattr(cli, "max_regular_partition", broken)
    code = main(["max-regular", "--network", wn("net.json", single_parent_graph())])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "internal error: blocks out of order\n"


def _verb_argv(verb, files):
    """An argv that reaches ``verb``'s library call, and the output file it would write."""
    tmp_path, wn, wp, wd = files
    out = str(tmp_path / "out")
    if verb in ("check-regular", "max-regular", "oracle"):
        net = single_parent_graph()
        path = wn("net.json", net)
        if verb == "check-regular":
            return [verb, "--network", path, "--partition", wp("e.json", Partition.discrete(net.actors))], None
        if verb == "max-regular":
            return [verb, "--network", path], None
        return [verb, "coarsest", "--network", path], None
    if verb == "blockmodel":
        net = family_three()
        e = wp("e.json", generations_partition(net.actors))
        return [verb, "--network", wn("net.json", net), "--partition", e, "-o", out], out
    if verb == "roles":
        return [verb, "--network", wn("net.json", family_three()), "--compose", "graph", "--table", out], out
    if verb == "convert":
        return [verb, "--undirected", wn("u.json", coauthor_undirected()), "-o", out], out
    from roleblock.reduction import pushforward_network, quotient_map

    net = family_three_merged()
    f = quotient_map(generations_partition(net.actors))
    dst = pushforward_network(net, f)
    if verb == "induce":
        maps = wd("map.json", documents.map_to_doc(f))
        return [verb, "--source", wn("src.json", net), "--map", maps, "--target", wn("dst.json", dst),
                "--compose", "graph"], None
    s1 = wd("s1.json", documents.stage_to_doc(net, documents.map_to_doc(f)["map"]))
    s2 = wd("s2.json", documents.stage_to_doc(dst))
    return [verb, "--stages", s1, s2, "--compose", "graph"], None


# one library call per verb, made to raise
LIBRARY_CALLS = {
    "check-regular": "is_outward_regular",
    "max-regular": "max_regular_partition",
    "blockmodel": "blockmodel_network",
    "roles": "render_table_csv",
    "induce": "validate_positional_reduction",
    "functor-check": "check_functoriality",
    "convert": "from_undirected",
    "oracle": "coarsest_regular_bruteforce",
}


@pytest.mark.parametrize("verb", sorted(LIBRARY_CALLS))
@pytest.mark.parametrize(
    "exc,code,first_line",
    [
        (MemoryError(), 3, "resource limit: out of memory in {verb}"),
        (TypeError("boom"), 2, "internal error: TypeError: boom"),
    ],
    ids=["memory", "type-error"],
)
def test_unforeseen_exceptions_keep_the_exit_code_contract(files, capsys, monkeypatch, verb, exc, code, first_line):
    argv, out = _verb_argv(verb, files)
    first_line = first_line.format(verb=verb)

    def broken(*args, **kwargs):
        if verb == "roles":
            args[1]("*,B,P\n")  # part of a table, through the renderer's write
        raise exc

    monkeypatch.setattr(cli, LIBRARY_CALLS[verb], broken)
    before = sorted(os.listdir(files[0]))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.split("\n")[0] == first_line
    if code == 3:
        assert err == first_line + "\n"
    else:
        assert "Traceback (most recent call last):" in err
        assert err.rstrip("\n").split("\n")[-1] == "TypeError: boom"
    assert sorted(os.listdir(files[0])) == before
    assert out is None or not os.path.exists(out)


def test_running_out_of_memory_exits_three(tmp_path):
    resource = pytest.importorskip("resource")
    # The limit holds in the child only.  At 96 MiB a small document loads and
    # refines (CPython 3.11 on Linux starts roleblock in about 18 MiB of
    # address space), while a sparse graph of 100,000 actors runs out of
    # memory while it loads, within half a second; with 400 MiB it completes.
    limit = 96 << 20
    n = 100_000
    labels = [f"v{i}" for i in range(n)]
    edges = [[labels[i], labels[(i * 7 + k) % n]] for i in range(n) for k in (1, 2, 3)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"kind": "graph", "actors": labels, "relations": {"R": edges}}))
    small = tmp_path / "small.json"
    documents.save_network(single_parent_graph(), small)
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(path):
        return subprocess.run(
            [sys.executable, "-m", "roleblock", "max-regular", "--network", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    control = run(small)
    assert control.returncode == 0, control.stderr
    proc = run(big)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "resource limit: out of memory in max-regular\n"
    assert proc.stdout == ""


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["max-regular", "--network", "/nonexistent.json"]) == 2

    def test_unknown_actor_named(self, files, capsys):
        tmp_path, _, _, wd = files
        path = wd(
            "bad.json",
            {"kind": "graph", "actors": ["a"], "relations": {"R": [["a", "z"]]}},
        )
        assert main(["max-regular", "--network", path]) == 2
        assert "'z'" in capsys.readouterr().err

    def test_failed_replace_keeps_old_output(self, files, capsys, monkeypatch):
        tmp_path, wn, wp, _ = files
        net = family_three_merged()
        network = wn("net.json", net)
        partition = wp("e.json", generations_partition(net.actors))
        out = tmp_path / "q.json"
        out.write_text("old")
        before = sorted(p.name for p in tmp_path.iterdir())

        def fail(src, dst):
            # an OS error that main reports with exit 2
            raise FileNotFoundError("replace failed")

        monkeypatch.setattr(documents.os, "replace", fail)
        code = main(["blockmodel", "--network", network, "--partition", partition, "-o", str(out)])
        assert code == 2
        assert out.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_unwritable_table_leaves_no_partial_file(self, files, capsys):
        tmp_path, wn, _, _ = files
        target = tmp_path / "missing_dir" / "t.csv"
        code = main(
            [
                "roles",
                "--network", wn("family.json", family_three()),
                "--compose", "graph",
                "--table", str(target),
            ]
        )
        assert code == 2
        assert not target.exists()


# Unreadable documents and paths that cannot be read or written are input
# errors; exit 1 would read as a negative verdict.
UNREADABLE = {
    "network-is-a-directory": (None, ["roles", "--network", ".", "--compose", "graph"]),
    "non-utf8": (
        b'{"kind": "graph", "actors": ["\xff"], "relations": {}}',
        ["max-regular", "--network", "doc.json"],
    ),
    "deep-nesting": (b"[" * 100_000, ["max-regular", "--network", "doc.json"]),
    "long-integer": (
        b'{"kind": "graph", "actors": [' + b"7" * 5000 + b'], "relations": {}}',
        ["max-regular", "--network", "doc.json"],
    ),
    "output-is-a-directory": (
        None,
        ["blockmodel", "--network", "net.json", "--partition", "e.json", "-o", "out"],
    ),
    "table-is-a-directory": (
        None,
        ["roles", "--network", "net.json", "--compose", "graph", "--table", "out"],
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_or_unwritable_output_exits_two(files, capsys, monkeypatch, case):
    tmp_path, wn, wp, _ = files
    net = family_three_merged()
    wn("net.json", net)
    wp("e.json", generations_partition(net.actors))
    (tmp_path / "out").mkdir()
    content, argv = UNREADABLE[case]
    if content is not None:
        (tmp_path / "doc.json").write_bytes(content)
    monkeypatch.chdir(tmp_path)
    before = sorted(str(p) for p in tmp_path.rglob("*"))
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(str(p) for p in tmp_path.rglob("*")) == before


BLOCKMODEL = ["blockmodel", "--network", "net.json", "--partition", "e.json"]
ROLES = ["roles", "--network", "net.json", "--compose", "graph"]


@pytest.mark.parametrize(
    "argv",
    [
        BLOCKMODEL + ["-o", "out"],
        BLOCKMODEL + ["-o", "nodir/q.json"],
        BLOCKMODEL + ["--dot", "nodir/q.dot"],
        ROLES + ["--table", "nodir/t.csv"],
    ],
    ids=["o-directory", "o-missing-dir", "dot-missing-dir", "table-missing-dir"],
)
def test_unwritable_output_error_names_the_given_path(files, capsys, monkeypatch, argv):
    tmp_path, wn, wp, _ = files
    net = family_three_merged()
    wn("net.json", net)
    wp("e.json", generations_partition(net.actors))
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    before = sorted(str(p) for p in tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"'{argv[-1]}'" in err
    assert ".tmp" not in err
    assert sorted(str(p) for p in tmp_path.rglob("*")) == before


# ── repeated calls in one process ────────────────────────────────────────────
#
# ``main`` builds its parser once and reuses it.  Each sequence below runs
# through ``main`` twice: as it is, and with a fresh ``build_parser()`` per
# call.  Every call must give the same exit code, stdout, stderr and written
# files both times, so no call sees an option or default of the call before.


def _call(argv, capsys, out_dir):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    out, err = capsys.readouterr()
    written = {}
    for path in sorted(out_dir.iterdir()):
        written[path.name] = path.read_bytes()
        path.unlink()
    return code, out, err, written


def _same_as_fresh_parsers(argvs, capsys, monkeypatch, out_dir):
    cli._parser.cache_clear()
    reused = [_call(argv, capsys, out_dir) for argv in argvs]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [_call(argv, capsys, out_dir) for argv in argvs]
    for argv, got, expected in zip(argvs, reused, fresh):
        assert got == expected, argv
    return [code for code, *_ in reused]


@pytest.fixture
def reentry(files, capsys, monkeypatch):
    tmp_path, wn, wp, wd = files
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    paths = {
        "family": wn("family.json", family_three_merged()),
        "tree": wn("tree.json", parent_grandparent_hyper()),
        "e": wp("e.json", generations_partition(family_three_merged().actors)),
    }

    def run(argvs):
        return _same_as_fresh_parsers(argvs, capsys, monkeypatch, out_dir)

    return run, paths, out_dir, files


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert main(["oracle", "partitions", "--network", "missing.json"]) == 2
        with pytest.raises(SystemExit):
            main(["roles"])
        assert main(["oracle", "coarsest", "--network", "missing.json"]) == 2
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1
    assert real() is not real()


def test_mode_given_then_omitted(reentry):
    run, paths, _, _ = reentry
    family, tree, e = paths["family"], paths["tree"], paths["e"]
    codes = run([
        ["max-regular", "--network", family, "--mode", "out"],
        ["max-regular", "--network", family],
        ["max-regular", "--network", family, "--mode", "both"],
        ["check-regular", "--network", family, "--partition", e, "--mode", "in"],
        ["check-regular", "--network", family, "--partition", e],
        ["max-regular", "--network", tree],
    ])
    assert codes == [0, 0, 0, 0, 0, 0]


def test_mode_omitted_resolves_to_both_again(reentry, capsys):
    run, paths, _, _ = reentry
    family = paths["family"]
    run([["max-regular", "--network", family, "--mode", "out"]])
    main(["max-regular", "--network", family, "--mode", "in"])
    capsys.readouterr()
    assert main(["max-regular", "--network", family]) == 0
    omitted = capsys.readouterr().out
    assert main(["max-regular", "--network", family, "--mode", "both"]) == 0
    assert capsys.readouterr().out == omitted


def test_cap_given_then_default(reentry):
    run, paths, _, _ = reentry
    roles = ["roles", "--network", paths["family"], "--compose", "graph"]
    assert run([roles + ["--cap", "3"], roles, roles + ["--cap", "3"]]) == [3, 0, 3]


def test_prune_empty_and_table_then_neither(reentry):
    run, paths, out_dir, _ = reentry
    roles = ["roles", "--network", paths["tree"], "--compose", "loose"]
    table = str(out_dir / "t.csv")
    codes = run([
        roles + ["--prune-empty", "--table", "-"],
        roles,
        roles + ["--prune-empty", "--table", table, "--words"],
        roles,
    ])
    assert codes == [0, 0, 0, 0]


def test_usage_error_then_valid_call(reentry):
    run, paths, _, _ = reentry
    family = paths["family"]
    codes = run([
        ["max-regular", "--network", family, "--mode", "sideways"],
        ["max-regular", "--network", family],
        ["roles", "--network", family],
        ["roles", "--network", family, "--compose", "graph"],
        ["no-such-verb"],
        ["oracle", "coarsest", "--network", family],
    ])
    assert codes == ["SystemExit(2)", 0, "SystemExit(2)", 0, "SystemExit(2)", 0]


def test_every_verb_on_the_fixtures_twice(reentry):
    run, _, out_dir, (_, wn, wp, wd) = reentry
    graphs = [family_three(), family_three_merged(), single_parent_graph(), mirrored_pair_graph()]
    hypers = [parent_tree_hyper(), parent_grandparent_hyper(), fanout_pair_hyper()]
    argvs = []
    for k, net in enumerate(graphs + hypers):
        path = wn(f"net{k}.json", net)
        e = wp(f"e{k}.json", Partition.universal(net.actors))
        ident = documents.map_to_doc(identity_map(net.actors))
        m = wd(f"map{k}.json", ident)
        s1 = wd(f"s{k}a.json", documents.stage_to_doc(net, ident["map"]))
        s2 = wd(f"s{k}b.json", documents.stage_to_doc(net))
        composes = ["graph"] if k < len(graphs) else ["tight", "loose"]
        modes = [["--mode", "out"], ["--mode", "in"], []] if k < len(graphs) else [[]]
        for mode in modes:
            argvs += [
                ["check-regular", "--network", path, "--partition", e, *mode],
                ["max-regular", "--network", path, "--seed", e, *mode],
                ["oracle", "coarsest", "--network", path, *mode],
            ]
        argvs += [
            ["blockmodel", "--network", path, "--partition", e,
             "-o", str(out_dir / "q.json"), "--dot", str(out_dir / "q.dot")],
            ["blockmodel", "--network", path, "--partition", e],
            ["oracle", "partitions", "--network", path],
        ]
        for compose in composes:
            argvs += [
                ["roles", "--network", path, "--compose", compose, "--words", "--table", "-"],
                ["induce", "--source", path, "--map", m, "--target", path, "--compose", compose],
                ["functor-check", "--stages", s1, s2, "--compose", compose],
            ]
    u = wn("u.json", coauthor_undirected())
    argvs += [["convert", "--undirected", u], ["convert", "--undirected", u, "-o", str(out_dir / "c.json")]]
    codes = run(argvs + argvs)
    assert codes[: len(argvs)] == codes[len(argvs):]
    assert set(codes) <= {0, 1}


def test_python_m_roleblock_runs_from_a_checkout(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "roleblock", "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: roleblock ")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # pytest loads both itself, so only a fresh interpreter can tell
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, roleblock.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ── dispatch ─────────────────────────────────────────────────────────────────
#
# ``main`` hands the arguments after a verb straight to that verb's subparser.
# Over this corpus it must give the same exit code, stdout, stderr and written
# files as a ``main`` whose parser has no verb table, so that every argv gets
# the full ``parse_args``.


def test_dispatch_matches_the_full_parse(reentry, capsys, monkeypatch):
    _, paths, out_dir, (_, wn, _, wd) = reentry
    family, tree, e = paths["family"], paths["tree"], paths["e"]
    ident = documents.map_to_doc(identity_map(family_three_merged().actors))
    m = wd("map.json", ident)
    s1 = wd("s1.json", documents.stage_to_doc(family_three_merged(), ident["map"]))
    s2 = wd("s2.json", documents.stage_to_doc(family_three_merged()))
    u = wn("u.json", coauthor_undirected())
    q = str(out_dir / "q.json")
    argvs = [
        ["check-regular", "--network", family, "--partition", e, "--mode", "out"],
        ["max-regular", "--network", tree],
        ["max-regular", "--network", family, "--seed", e, "--mode", "in"],
        ["blockmodel", "--network", family, "--partition", e, "-o", q, "--dot", str(out_dir / "q.dot")],
        ["roles", "--network", tree, "--compose", "loose", "--prune-empty", "--words", "--table", "-"],
        ["induce", "--source", family, "--map", m, "--target", family, "--compose", "graph"],
        ["functor-check", "--stages", s1, s2, "--compose", "graph", "--cap", "50"],
        ["convert", "--undirected", u, "-o", q],
        ["oracle", "partitions", "--network", family],
        ["oracle", "coarsest", "--network", tree],
        [],
        ["-h"],
        ["--help"],
        ["roles", "-h"],
        ["induce", "--help"],
        ["-h", "roles"],
        ["--help", "max-regular", "--network", family],
        ["no-such-verb", "--network", family],
        ["max-regular", "--network", family, "extra"],
        ["oracle", "coarsest", "extra", "--network", family],
        ["max-regular", "--network", family, "--no-such-option"],
        ["max-regular", "--network", family, "--no-such-option=1", "-x"],
        ["check-regular", "--network", family],
        ["roles", "--network", family],
        ["max-regular", "--net", family],
        ["max-regular", "--network=" + family, "--mode=out"],
        ["roles", "--net=" + family, "--comp", "graph", "--cap=3"],
        ["oracle", "--network", family, "--", "coarsest"],
        ["max-regular", "--network", family, "--", "extra"],
        ["max-regular", "--", "--network", family],
        ["--", "max-regular", "--network", family],
        ["max-regular", "--mode", "sideways", "--network", family],
        ["roles", "--network", family, "--compose", "graph", "--cap", "many"],
    ]
    direct = [_call(argv, capsys, out_dir) for argv in argvs]
    full = cli.build_parser()
    full.verbs = {}
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_parser", lambda: full)
        reference = [_call(argv, capsys, out_dir) for argv in argvs]
    for argv, got, expected in zip(argvs, direct, reference):
        assert got == expected, argv
    assert {code for code, *_ in direct} == {0, 3, "SystemExit(0)", "SystemExit(2)"}
