"""Acceptance suite: one test per shipped criterion, each with a wall-clock
budget, printing one PASS/FAIL line per criterion (run with -s to see them)."""

import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    actors,
    pp_bisimulation_oracle,
    random_fhyper,
    random_multihyper,
    random_network,
    random_partition,
    random_relation,
    table_is_associative,
)
from roleblock import (
    Partition,
    ResourceLimitError,
    WellDefinednessError,
    check_functoriality,
    coarsest_regular_bruteforce,
    coarsest_regular_hyper_bruteforce,
    compose_relations,
    embed_relation,
    empty_relation,
    from_undirected,
    generator_induced_hom,
    identity_relation,
    is_inward_regular,
    is_outward_regular,
    is_regular_hyper,
    loose_compose,
    max_regular_hyper_partition,
    max_regular_partition,
    multiplication_table,
    role_semigroup,
    tight_compose,
)
from roleblock.fixtures import (
    family_three,
    family_three_merged,
    fanout_pair_hyper,
    generations_partition,
    mirrored_pair_graph,
    mirrored_pair_partition,
    parent_grandparent_hyper,
    parent_tree_hyper,
)
from roleblock.hypergraph import UndirectedHypergraph
from roleblock.reduction import pushforward_network, quotient_map
from test_semigroup import FAMILY_TABLE


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_01_family_role_table_exact(tmp_path, capsys):
    with criterion("family role table exact", 1.0):
        s = role_semigroup(family_three(), "graph")
        assert len(s) == 8
        assert len(s.nonzero_indices()) == 7
        assert s.absorbing is not None
        labels, grid = multiplication_table(s)
        table = {r: dict(zip(labels, row)) for r, row in zip(labels, grid)}
        assert table == FAMILY_TABLE
        # spot anchors
        assert table["S"]["S"] == "0"
        assert table["S"]["B"] == "SB"
        assert table["P"]["B"] == "PB"

        # same result through the command line
        from roleblock import documents
        from roleblock.cli import main

        net_path = tmp_path / "family.json"
        documents.save_network(family_three(), net_path)
        assert main(["roles", "--network", str(net_path), "--compose", "graph",
                     "--table", "-"]) == 0
        csv_rows = capsys.readouterr().out.strip().splitlines()
        header = csv_rows[0].split(",")[1:]
        assert len(header) == 7
        for row in csv_rows[1:]:
            cells = row.split(",")
            for col, entry in zip(header, cells[1:]):
                assert entry == FAMILY_TABLE[cells[0]][col]


def test_02_generations_quotient_table_exact(tmp_path, capsys):
    with criterion("generations quotient table exact", 1.0):
        net = family_three_merged()
        e = generations_partition(net.actors)
        quotient = pushforward_network(net, quotient_map(e))
        s = role_semigroup(quotient, "graph")
        labels, grid = multiplication_table(s)
        table = {r: dict(zip(labels, row)) for r, row in zip(labels, grid)}
        assert set(labels) == {"S", "P"}
        assert table["P"]["S"] == "P"  # parent of a sibling is a parent
        assert table["S"]["S"] == "S"
        assert all(table[r]["P"] == "0" for r in labels)

        # same result via blockmodel + roles on the command line
        from roleblock import documents
        from roleblock.cli import main

        net_path = tmp_path / "merged.json"
        part_path = tmp_path / "generations.json"
        q_path = tmp_path / "quotient.json"
        documents.save_network(net, net_path)
        documents.save_partition(e, part_path)
        assert main(["blockmodel", "--network", str(net_path),
                     "--partition", str(part_path), "-o", str(q_path)]) == 0
        assert main(["roles", "--network", str(q_path), "--compose", "graph",
                     "--table", "-"]) == 0
        assert capsys.readouterr().out == "*,P,S\nP,0,P\nS,0,S\n"


def test_03_mirrored_pair_negative_control(tmp_path, capsys):
    with criterion("mirrored pair negative control", 1.0):
        net = mirrored_pair_graph()
        e = mirrored_pair_partition(net.actors)
        rel = net.relations["R"]
        assert not is_outward_regular(rel, e)
        assert not is_inward_regular(rel, e)

        # check-regular must report the failure with exit code 1
        from roleblock import documents
        from roleblock.cli import main

        net_path = tmp_path / "mirror.json"
        part_path = tmp_path / "blocks.json"
        documents.save_network(net, net_path)
        documents.save_partition(e, part_path)
        assert main(["check-regular", "--network", str(net_path),
                     "--partition", str(part_path)]) == 1
        out = capsys.readouterr().out
        assert "R: outward=no inward=no" in out

        f = quotient_map(e)
        dst = pushforward_network(net, f)
        src_sg = role_semigroup(net, "graph")
        dst_sg = role_semigroup(dst, "graph")
        with pytest.raises(WellDefinednessError) as err:
            generator_induced_hom(src_sg, dst_sg)
        exc = err.value
        # the witness pins the obstruction: the tie's square vanishes in the
        # source while the blockmodel's square is the diagonal
        words = {exc.word_a, exc.word_b}
        assert words == {"RR", "RRR"}
        zero = src_sg.elements[src_sg.absorbing]
        assert zero.is_empty
        q = dst.relations["R"]
        assert compose_relations(q, q) == identity_relation(dst.actors)


def test_04_tree_closure_counts(tmp_path, capsys):
    with criterion("tree closure counts", 1.0):
        mh = parent_grandparent_hyper()
        h1, h2 = mh.relations["H1"], mh.relations["H2"]

        tight = role_semigroup(mh, "tight")
        assert len(tight.nonzero_indices()) == 3

        pruned = role_semigroup(mh, "loose", prune_empty=True)
        assert len(pruned.nonzero_indices()) == 2
        assert loose_compose(h1, h1, prune_empty=True) == h2

        # the literal reading differs: empty-target hyperedges survive
        literal = role_semigroup(mh, "loose")
        lit_square = loose_compose(h1, h1)
        assert lit_square != h2
        assert lit_square.has_empty_target
        assert len(literal) == 5
        assert literal.absorbing is None

        # the pruned count through the command-line flag
        from roleblock import documents
        from roleblock.cli import main

        net_path = tmp_path / "tree.json"
        documents.save_network(mh, net_path)
        assert main(["roles", "--network", str(net_path), "--compose", "loose",
                     "--prune-empty"]) == 0
        assert "nonzero: 2" in capsys.readouterr().out


def test_05_fanout_composites_exact():
    with criterion("fanout composites exact", 1.0):
        mh = fanout_pair_hyper()
        h1, h2 = mh.relations["H1"], mh.relations["H2"]
        tight = tight_compose(h2, h1)
        assert sorted(tight.label_edges()) == [
            ("r", ("a1", "a2")),
            ("r", ("a2", "b1", "b2")),
        ]
        loose = loose_compose(h2, h1)
        assert sorted(loose.label_edges()) == [("r", ("a1", "a2", "b1", "b2"))]
        assert loose_compose(h2, h1, prune_empty=True) == loose


def test_06_oracle_equivalence():
    with criterion("oracle equivalence", 30.0):
        rng = random.Random(600)
        mismatches = 0
        for _ in range(200):
            net = random_network(
                rng, n=rng.randint(0, 7), k=rng.randint(0, 3), density=rng.uniform(0.1, 0.5)
            )
            for mode in ("out", "in", "both"):
                fast = max_regular_partition(net, mode=mode)
                slow = coarsest_regular_bruteforce(net, mode=mode)
                if fast != slow:
                    mismatches += 1
        assert mismatches == 0


def _graph_chain(rng):
    net = random_network(rng, n=rng.randint(2, 5), k=rng.randint(1, 2), density=0.22)
    e1 = max_regular_partition(net, mode="out", seed=random_partition(rng, net.actors))
    f1 = quotient_map(e1)
    n1 = pushforward_network(net, f1)
    e2 = max_regular_partition(n1, mode="out", seed=random_partition(rng, n1.actors))
    f2 = quotient_map(e2)
    n2 = pushforward_network(n1, f2)
    return [net, n1, n2], [f1, f2]


def _hyper_chain(rng):
    mh = random_multihyper(rng, n=rng.randint(2, 5), k=rng.randint(1, 2))
    e1 = max_regular_hyper_partition(mh, seed=random_partition(rng, mh.actors))
    f1 = quotient_map(e1)
    n1 = pushforward_network(mh, f1)
    e2 = max_regular_hyper_partition(n1, seed=random_partition(rng, n1.actors))
    f2 = quotient_map(e2)
    n2 = pushforward_network(n1, f2)
    return [mh, n1, n2], [f1, f2]


def test_07_functoriality():
    with criterion("functoriality over fuzzed chains", 60.0):
        rng = random.Random(700)
        chains = 0
        failures = 0
        while chains < 70:  # graph chains
            networks, maps = _graph_chain(rng)
            try:
                report = check_functoriality(networks, maps, "graph", cap=400)
            except ResourceLimitError:
                continue
            if not report.ok:
                failures += 1
            chains += 1
        hyper_chains = 0
        while hyper_chains < 35:
            networks, maps = _hyper_chain(rng)
            try:
                for kind, prune in (("tight", False), ("loose", False), ("loose", True)):
                    report = check_functoriality(
                        networks, maps, kind, prune_empty=prune, cap=400
                    )
                    if not report.ok:
                        failures += 1
            except ResourceLimitError:
                continue
            hyper_chains += 1
            chains += 1
        assert chains >= 100
        assert failures == 0


def test_08_embedding_coherence():
    with criterion("embedding coherence", 30.0):
        rng = random.Random(800)
        for _ in range(200):
            acts = actors(rng.randint(0, 5))
            r1 = random_relation(rng, acts, rng.uniform(0.1, 0.5))
            r2 = random_relation(rng, acts, rng.uniform(0.1, 0.5))
            assert tight_compose(embed_relation(r2), embed_relation(r1)) == embed_relation(
                compose_relations(r2, r1)
            )
        for _ in range(200):
            acts = actors(rng.randint(1, 5))
            edges = [
                rng.sample(range(len(acts)), rng.randint(0, len(acts)))
                for _ in range(rng.randint(0, 3))
            ]
            h = from_undirected(UndirectedHypergraph(acts, edges))
            e = random_partition(rng, acts)
            assert is_regular_hyper(h, e) == pp_bisimulation_oracle(h, e)


def test_09_algebra_laws():
    with criterion("algebra laws", 60.0):
        rng = random.Random(900)
        # associativity of relation composition
        for _ in range(200):
            acts = actors(rng.randint(0, 5))
            r1, r2, r3 = (random_relation(rng, acts, 0.3) for _ in range(3))
            assert compose_relations(compose_relations(r3, r2), r1) == compose_relations(
                r3, compose_relations(r2, r1)
            )
        # associativity of the three hypergraph compositions
        ops = {
            "tight": tight_compose,
            "loose": loose_compose,
            "pruned": lambda x, y: loose_compose(x, y, prune_empty=True),
        }
        for op in ops.values():
            for _ in range(200):
                acts = actors(rng.randint(1, 5))
                h1, h2, h3 = (random_fhyper(rng, acts) for _ in range(3))
                assert op(op(h3, h2), h1) == op(h3, op(h2, h1))
        # identity and absorption
        for _ in range(100):
            acts = actors(rng.randint(0, 5))
            r = random_relation(rng, acts, 0.3)
            delta, zero = identity_relation(acts), empty_relation(acts)
            assert compose_relations(delta, r) == r == compose_relations(r, delta)
            assert compose_relations(zero, r) == zero == compose_relations(r, zero)
        # Cayley associativity on every generated semigroup small enough to scan
        semigroups = [
            role_semigroup(family_three(), "graph"),
            role_semigroup(family_three_merged(), "graph"),
            role_semigroup(mirrored_pair_graph(), "graph"),
            role_semigroup(parent_grandparent_hyper(), "tight"),
            role_semigroup(parent_grandparent_hyper(), "loose"),
            role_semigroup(parent_grandparent_hyper(), "loose", prune_empty=True),
            role_semigroup(parent_tree_hyper(), "tight"),
        ]
        for _ in range(20):
            try:
                semigroups.append(
                    role_semigroup(random_network(rng, 4, 2, 0.25), "graph", cap=60)
                )
            except ResourceLimitError:
                continue
        for _ in range(10):
            try:
                semigroups.append(role_semigroup(random_multihyper(rng, 4, 2), "tight", cap=60))
            except ResourceLimitError:
                continue
        scanned = 0
        for s in semigroups:
            if len(s) <= 60:
                assert table_is_associative(s)
                scanned += 1
        assert scanned >= 10


def test_10_tree_coarsest_partition():
    with criterion("tree coarsest partition", 5.0):
        mh = parent_tree_hyper()
        fast = max_regular_hyper_partition(mh, seed=Partition.universal(mh.actors))
        assert fast.label_blocks() == [["r"], ["a", "b"], ["a1", "a2", "b1", "b2"]]
        assert fast == coarsest_regular_hyper_bruteforce(mh)
