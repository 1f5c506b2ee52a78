import random

import pytest

from helpers import (
    BAD_IMAGES,
    actors,
    loose_oracle,
    pp_bisimulation_oracle,
    random_fhyper,
    random_multihyper,
    random_partition,
    random_relation,
    tight_oracle,
)
from roleblock import (
    FHyperStructure,
    MultiHypergraph,
    Partition,
    StructuralError,
    UndirectedHypergraph,
    blockmodel_network,
    coarsest_regular_bruteforce,
    compose_relations,
    embed_relation,
    from_undirected,
    identity_relation,
    is_graph_like,
    is_outward_regular,
    loose_compose,
    max_regular_partition,
    neighbourhood,
    network_passes,
    prune_empty_targets,
    tight_compose,
    to_relation,
)
from roleblock.fixtures import (
    coauthor_undirected,
    fanout_pair_hyper,
    parent_grandparent_hyper,
    parent_tree_hyper,
    tree_generations_partition,
)


def edges_of(h):
    return sorted(h.label_edges())


# ── canonical form ───────────────────────────────────────────────────────────

class TestFHyperStructure:
    def test_duplicate_targets_collapse(self):
        acts = actors(3)
        h = FHyperStructure(acts, [[(1, 2), (2, 1), (2,)], [], []])
        assert h.targets[0] == ((1, 2), (2,))

    def test_empty_target_is_a_hyperedge(self):
        acts = actors(2)
        with_empty = FHyperStructure(acts, [[()], []])
        without = FHyperStructure(acts, [[], []])
        assert with_empty != without
        assert with_empty.has_empty_target
        assert not with_empty.is_empty
        assert without.is_empty

    def test_target_index_validated(self):
        with pytest.raises(StructuralError):
            FHyperStructure(actors(2), [[(2,)], []])

    def test_equality_and_hash(self):
        acts = actors(3)
        h1 = FHyperStructure.from_edges(acts, [(0, (2, 1)), (0, (1, 2))])
        h2 = FHyperStructure.from_edges(acts, [(0, (1, 2))])
        assert h1 == h2
        assert hash(h1) == hash(h2)


# Index sets with an index out of range for 3 actors, and the index each error
# names: the first bad one, sets in the order given, each set in sorted order.
OUT_OF_RANGE = [
    pytest.param([(0, -1)], -1, id="negative"),
    pytest.param([(4, 1, 3)], 3, id="too-large"),
    pytest.param([(5, -2, 1, -1)], -2, id="both"),
    pytest.param([(0,), (4,), (-1,)], 4, id="first-set-given"),
]


@pytest.mark.parametrize("sets,bad", OUT_OF_RANGE)
def test_target_out_of_range_is_named(sets, bad):
    with pytest.raises(StructuralError) as exc:
        FHyperStructure(actors(3), [[], sets, [(0, 1)]])
    assert str(exc.value) == f"target index {bad} out of range for 3 actors"


@pytest.mark.parametrize("sets,bad", OUT_OF_RANGE)
def test_vertex_out_of_range_is_named(sets, bad):
    with pytest.raises(StructuralError) as exc:
        UndirectedHypergraph(actors(3), [(0, 1)] + sets)
    assert str(exc.value) == f"vertex index {bad} out of range for 3 actors"


@pytest.mark.parametrize("image,message", BAD_IMAGES, ids=["short", "too-large", "negative"])
def test_pushforward_rejects_a_bad_image(image, message):
    acts = actors(3)
    h = FHyperStructure(acts, [[(1,)], [], []])
    with pytest.raises(StructuralError) as exc:
        h.pushforward(image, acts)
    assert str(exc.value) == message


class TestNeighbourhood:
    def test_tree_root(self):
        mh = parent_tree_hyper()
        assert neighbourhood(mh.relations["H"], "r") == (("a", "b"),)

    def test_actor_without_hyperedges(self):
        mh = parent_tree_hyper()
        assert neighbourhood(mh.relations["H"], "a1") == ()

    def test_tree_neighbourhoods_are_singleton_families(self):
        mh = parent_tree_hyper()
        h = mh.relations["H"]
        for lab in ("r", "a", "b"):
            assert len(neighbourhood(h, lab)) == 1

    def test_unknown_actor(self):
        mh = parent_tree_hyper()
        with pytest.raises(StructuralError, match="unknown actor"):
            neighbourhood(mh.relations["H"], "z")


# ── undirected reading ───────────────────────────────────────────────────────

class TestFromUndirected:
    def test_single_pair_edge(self):
        acts = actors(2)
        u = UndirectedHypergraph(acts, [(0, 1)])
        assert edges_of(from_undirected(u)) == [("v0", ("v1",)), ("v1", ("v0",))]

    def test_coauthor_system(self):
        h = from_undirected(coauthor_undirected())
        assert h.edge_count == 8
        assert ("c", ("a", "d")) in h.label_edges()

    def test_empty(self):
        assert from_undirected(UndirectedHypergraph(actors(3), [])).is_empty

    def test_singleton_hyperedge_gives_empty_target(self):
        acts = actors(2)
        u = UndirectedHypergraph(acts, [(0,)])
        assert edges_of(from_undirected(u)) == [("v0", ())]


# ── the two compositions ─────────────────────────────────────────────────────

class TestTightCompose:
    def test_fanout_pair(self):
        mh = fanout_pair_hyper()
        got = tight_compose(mh.relations["H2"], mh.relations["H1"])
        assert edges_of(got) == [("r", ("a1", "a2")), ("r", ("a2", "b1", "b2"))]

    def test_tree_parents_squared(self):
        mh = parent_grandparent_hyper()
        h1 = mh.relations["H1"]
        got = tight_compose(h1, h1)
        assert edges_of(got) == [("r", ("a1", "a2")), ("r", ("b1", "b2"))]

    def test_agrees_with_relation_composition_on_embeddings(self):
        rng = random.Random(20)
        for _ in range(60):
            acts = actors(rng.randint(0, 5))
            r1 = random_relation(rng, acts, 0.3)
            r2 = random_relation(rng, acts, 0.3)
            via_hyper = tight_compose(embed_relation(r2), embed_relation(r1))
            assert via_hyper == embed_relation(compose_relations(r2, r1))

    def test_matches_oracle(self):
        rng = random.Random(21)
        for _ in range(60):
            acts = actors(rng.randint(1, 5))
            h = random_fhyper(rng, acts)
            k = random_fhyper(rng, acts)
            assert tight_compose(k, h) == tight_oracle(k, h)


class TestLooseCompose:
    def test_fanout_pair_same_in_both_modes(self):
        mh = fanout_pair_hyper()
        h1, h2 = mh.relations["H1"], mh.relations["H2"]
        expected = [("r", ("a1", "a2", "b1", "b2"))]
        assert edges_of(loose_compose(h2, h1)) == expected
        assert edges_of(loose_compose(h2, h1, prune_empty=True)) == expected

    def test_tree_parents_squared_literal_keeps_empty_targets(self):
        mh = parent_grandparent_hyper()
        h1 = mh.relations["H1"]
        got = loose_compose(h1, h1)
        assert edges_of(got) == [("a", ()), ("b", ()), ("r", ("a1", "a2", "b1", "b2"))]

    def test_tree_parents_squared_pruned_is_grandparents(self):
        mh = parent_grandparent_hyper()
        assert loose_compose(mh.relations["H1"], mh.relations["H1"], prune_empty=True) == (
            mh.relations["H2"]
        )

    def test_matches_oracle(self):
        rng = random.Random(22)
        for _ in range(60):
            acts = actors(rng.randint(1, 5))
            h = random_fhyper(rng, acts)
            k = random_fhyper(rng, acts)
            assert loose_compose(k, h) == loose_oracle(k, h)


class TestPruneEmptyTargets:
    def test_drops_only_empty(self):
        acts = actors(2)
        h = FHyperStructure.from_edges(acts, [(0, ()), (1, (0,))])
        assert edges_of(prune_empty_targets(h)) == [("v1", ("v0",))]

    def test_noop_without_empty_targets(self):
        mh = parent_tree_hyper()
        h = mh.relations["H"]
        assert prune_empty_targets(h) == h

    def test_prunes_literal_composite_to_grandparents(self):
        mh = parent_grandparent_hyper()
        h1 = mh.relations["H1"]
        assert prune_empty_targets(loose_compose(h1, h1)) == mh.relations["H2"]

    def test_pruning_stability(self):
        rng = random.Random(23)
        for _ in range(60):
            acts = actors(rng.randint(1, 5))
            h = random_fhyper(rng, acts)
            k = random_fhyper(rng, acts)
            for op in (tight_compose, loose_compose):
                direct = prune_empty_targets(op(k, h))
                pruned_inputs = prune_empty_targets(
                    op(prune_empty_targets(k), prune_empty_targets(h))
                )
                assert direct == pruned_inputs


class TestAssociativity:
    @pytest.mark.parametrize(
        "op",
        [
            tight_compose,
            loose_compose,
            lambda x, y: loose_compose(x, y, prune_empty=True),
        ],
        ids=["tight", "loose-literal", "loose-pruned"],
    )
    def test_on_fuzz(self, op):
        rng = random.Random(24)
        for _ in range(80):
            acts = actors(rng.randint(1, 5))
            h1, h2, h3 = (random_fhyper(rng, acts) for _ in range(3))
            assert op(op(h3, h2), h1) == op(h3, op(h2, h1))


# ── blockmodels and regularity ───────────────────────────────────────────────

class TestBlockmodelHypergraph:
    def test_tree_by_generations(self):
        mh = parent_tree_hyper()
        e = tree_generations_partition(mh.actors)
        quotient = blockmodel_network(mh, e)
        q, bm = quotient.actors, quotient.relations["H"]
        assert q.labels == ("{r}", "{a,b}", "{a1,a2,b1,b2}")
        assert edges_of(bm) == [
            ("{a,b}", ("{a1,a2,b1,b2}",)),
            ("{r}", ("{a,b}",)),
        ]

    def test_tree_by_parent_split(self):
        mh = parent_tree_hyper()
        e = Partition.from_label_blocks(
            mh.actors, [["r"], ["a"], ["b"], ["a1", "b1"], ["a2", "b2"]]
        )
        bm = blockmodel_network(mh, e).relations["H"]
        assert edges_of(bm) == [
            ("{a}", ("{a1,b1}", "{a2,b2}")),
            ("{b}", ("{a1,b1}", "{a2,b2}")),
            ("{r}", ("{a}", "{b}")),
        ]

    def test_discrete_partition_is_isomorphic(self):
        rng = random.Random(25)
        for _ in range(20):
            acts = actors(rng.randint(1, 5))
            h = random_fhyper(rng, acts)
            bm = blockmodel_network(
                MultiHypergraph(acts, [("H", h)]), Partition.discrete(acts)
            ).relations["H"]
            assert bm.targets == h.targets


class TestIsRegularHyper:
    def test_tree_generations_regular(self):
        mh = parent_tree_hyper()
        e = tree_generations_partition(mh.actors)
        assert is_outward_regular(mh.relations["H"], e)

    def test_tree_parent_split_regular(self):
        mh = parent_tree_hyper()
        e = Partition.from_label_blocks(
            mh.actors, [["r"], ["a"], ["b"], ["a1", "b1"], ["a2", "b2"]]
        )
        assert is_outward_regular(mh.relations["H"], e)

    def test_merging_root_with_parent_fails(self):
        mh = parent_tree_hyper()
        e = Partition.from_label_blocks(
            mh.actors, [["r", "a"], ["b"], ["a1"], ["a2"], ["b1"], ["b2"]]
        )
        assert not is_outward_regular(mh.relations["H"], e)

    def test_agrees_with_lifting_oracle(self):
        rng = random.Random(26)
        for _ in range(120):
            acts = actors(rng.randint(1, 5))
            h = random_fhyper(rng, acts)
            e = random_partition(rng, acts)
            assert is_outward_regular(h, e) == pp_bisimulation_oracle(h, e)

    def test_agrees_with_lifting_oracle_on_undirected(self):
        rng = random.Random(27)
        for _ in range(60):
            acts = actors(rng.randint(1, 5))
            edges = [
                rng.sample(range(len(acts)), rng.randint(0, len(acts)))
                for _ in range(rng.randint(0, 3))
            ]
            h = from_undirected(UndirectedHypergraph(acts, edges))
            e = random_partition(rng, acts)
            assert is_outward_regular(h, e) == pp_bisimulation_oracle(h, e)


class TestMaxRegularHyperPartition:
    def test_tree_generations(self):
        mh = parent_tree_hyper()
        got = max_regular_partition(mh)
        assert got.label_blocks() == [["r"], ["a", "b"], ["a1", "a2", "b1", "b2"]]
        assert got == coarsest_regular_bruteforce(mh)

    def test_discrete_seed_stays_discrete(self):
        mh = parent_tree_hyper()
        seed = Partition.discrete(mh.actors)
        assert max_regular_partition(mh, seed=seed) == seed

    def test_empty_structure_gives_universal(self):
        acts = actors(4)
        mh = MultiHypergraph(acts, [("H", FHyperStructure(acts, [[], [], [], []]))])
        assert max_regular_partition(mh) == Partition.universal(acts)

    def test_agrees_with_bruteforce_on_fuzz(self):
        rng = random.Random(28)
        for _ in range(40):
            mh = random_multihyper(rng, n=rng.randint(1, 4), k=rng.randint(1, 2))
            assert max_regular_partition(mh) == coarsest_regular_bruteforce(mh)

    def test_output_refines_seed_and_passes(self):
        rng = random.Random(29)
        for _ in range(40):
            mh = random_multihyper(rng, n=rng.randint(1, 5))
            seed = random_partition(rng, mh.actors)
            got = max_regular_partition(mh, seed=seed)
            assert got.refines(seed)
            assert all(is_outward_regular(h, got) for h in mh.relations.values())

    @pytest.mark.parametrize("mode", ["in", "both"])
    def test_inward_modes_refuse_f_structures(self, mode):
        # an F-structure points one way: its views, and every graph call that
        # reads them, refuse to read it backwards
        acts = actors(2)
        mh = MultiHypergraph(acts, [("H", FHyperStructure(acts, [[(1,)], []]))])
        e = Partition.universal(acts)
        calls = [
            lambda: mh.views(mode),
            lambda: max_regular_partition(mh, mode=mode),
            lambda: network_passes(mh, e, mode),
            lambda: coarsest_regular_bruteforce(mh, mode),
        ]
        for call in calls:
            with pytest.raises(StructuralError, match="only to graph networks"):
                call()


# ── graph embedding ──────────────────────────────────────────────────────────

class TestGraphLike:
    def test_round_trip(self):
        rng = random.Random(30)
        for _ in range(30):
            acts = actors(rng.randint(0, 5))
            r = random_relation(rng, acts, 0.3)
            h = embed_relation(r)
            assert is_graph_like(h)
            assert to_relation(h) == r

    def test_fanout_structure_is_not_graph_like(self):
        mh = fanout_pair_hyper()
        assert not is_graph_like(mh.relations["H1"])

    def test_to_relation_rejects_non_graph_like(self):
        mh = fanout_pair_hyper()
        with pytest.raises(StructuralError, match="graph-like"):
            to_relation(mh.relations["H1"])

    def test_embedded_identity(self):
        acts = actors(3)
        h = embed_relation(identity_relation(acts))
        assert edges_of(h) == [("v0", ("v0",)), ("v1", ("v1",)), ("v2", ("v2",))]
