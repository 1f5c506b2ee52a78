import json

import pytest

from roleblock import documents
from roleblock.cli import main
from roleblock.fixtures import (
    coauthor_undirected,
    family_three,
    family_three_merged,
    generations_partition,
    mirrored_pair_graph,
    mirrored_pair_partition,
    parent_grandparent_hyper,
    parent_tree_hyper,
    single_parent_graph,
)

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

    def test_size_cap_exit_code(self, files, capsys):
        _, wn, _, _ = files
        import random

        from helpers import random_network

        net = random_network(random.Random(0), n=9, k=1)
        code = main(["oracle", "coarsest", "--network", wn("net.json", net)])
        assert code == 3


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
