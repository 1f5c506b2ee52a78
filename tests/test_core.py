import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BAD_IMAGES,
    actors,
    compose_oracle,
    naive_blocks,
    naive_refine,
    naive_refines,
    random_multihyper,
    random_network,
    random_partition,
    random_relation,
)
import roleblock
from roleblock import (
    ActorSet,
    FHyperStructure,
    MultiNetwork,
    Partition,
    Relation,
    ResourceLimitError,
    StructuralError,
    blockmodel_network,
    coarsest_regular_bruteforce,
    compose_relations,
    empty_relation,
    enumerate_partitions,
    identity_relation,
    is_inward_regular,
    is_outward_regular,
    is_regular,
    max_regular_partition,
    network_passes,
    quotient_actor_set,
)
from roleblock.core import Structure, refine
from roleblock.fixtures import (
    family_three,
    mirrored_pair_graph,
    mirrored_pair_partition,
    single_parent_graph,
)


# ── construction and canonical forms ─────────────────────────────────────────

class TestActorSet:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(StructuralError, match="duplicate"):
            ActorSet(["a", "b", "a"])

    def test_duplicates_in_a_large_roster_named_in_sorted_order(self):
        # 60,000 labels: one count per label would take about a minute here
        labels = [f"v{i:05d}" for i in range(60_000)]
        labels[40_000] = "v50000"
        labels[59_998] = "v00007"
        with pytest.raises(StructuralError) as exc:
            ActorSet(labels)
        assert str(exc.value) == "duplicate actor labels: v00007, v50000"

    def test_empty_label_rejected(self):
        with pytest.raises(StructuralError):
            ActorSet(["a", ""])

    def test_resolve_unknown(self):
        with pytest.raises(StructuralError, match="unknown actor 'z'"):
            ActorSet(["a"]).resolve("z")

    def test_empty_roster_allowed(self):
        assert len(ActorSet([])) == 0


class TestRelation:
    def test_equality_is_bitwise(self):
        acts = actors(3)
        r1 = Relation.from_pairs(acts, [(0, 1), (0, 1), (2, 0)])
        r2 = Relation.from_pairs(acts, [(2, 0), (0, 1)])
        assert r1 == r2
        assert hash(r1) == hash(r2)

    def test_index_out_of_range(self):
        with pytest.raises(StructuralError):
            Relation.from_pairs(actors(2), [(0, 2)])

    def test_pairs_row_major(self):
        acts = actors(3)
        r = Relation.from_pairs(acts, [(2, 0), (0, 2), (0, 1)])
        assert list(r.pairs()) == [(0, 1), (0, 2), (2, 0)]

    def test_transpose(self):
        acts = actors(3)
        r = Relation.from_pairs(acts, [(0, 1), (2, 1)])
        assert sorted(r.transpose().pairs()) == [(1, 0), (1, 2)]


class TestStructure:
    """``Relation`` and ``FHyperStructure`` share storage and identity through ``Structure``."""

    SHARED = {
        "__init__",
        "_from_canonical",
        "_from_indices",
        "__eq__",
        "__hash__",
        "stored_bits",
        "is_empty",
        "edges",
        "pushforward",
    }

    def test_subclasses_define_none_of_the_shared_members(self):
        source = Path(roleblock.__file__).parent
        defined = {}
        for module in ("core.py", "hypergraph.py"):
            for node in ast.parse((source / module).read_text()).body:
                if isinstance(node, ast.ClassDef) and node.name in ("Relation", "FHyperStructure"):
                    names = defined[node.name] = set()
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            names.add(item.name)
                        elif isinstance(item, ast.Assign):
                            names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        assert set(defined) == {"Relation", "FHyperStructure"}
        assert {name: names & self.SHARED for name, names in defined.items()} == {
            "Relation": set(),
            "FHyperStructure": set(),
        }

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_a_relation_never_equals_an_f_structure(self, n):
        acts = actors(n)
        r, h = Relation(acts, [()] * n), FHyperStructure(acts, [()] * n)
        assert r.is_empty and h.is_empty and r.parts == h.parts
        assert r != h
        assert h != r

    def test_aliases_read_the_parts_slot(self):
        acts = actors(3)
        r = Relation.from_pairs(acts, [(0, 1), (2, 0)])
        h = FHyperStructure.from_edges(acts, [(0, [1, 2]), (2, [])])
        assert r.out is r.parts
        assert h.targets is h.parts
        assert list(r.pairs()) == list(r.edges()) == [(0, 1), (2, 0)]
        for x in (r, h, Relation._from_canonical(acts, r.parts)):
            assert isinstance(x, Structure)
            assert not hasattr(x, "__dict__")

    def test_count_errors_name_the_part(self):
        with pytest.raises(StructuralError) as exc:
            Relation(actors(3), [(), ()])
        assert str(exc.value) == "expected 3 rows, got 2"
        with pytest.raises(StructuralError) as exc:
            FHyperStructure(actors(3), [(), ()])
        assert str(exc.value) == "expected 3 target families, got 2"


class TestPartition:
    def test_first_occurrence_numbering(self):
        p = Partition(actors(4), [7, 3, 7, 0])
        assert p.block_of == (0, 1, 0, 2)
        for i, b in enumerate(p.block_of):
            assert b <= 1 + max(p.block_of[:i], default=-1)

    def test_blocks(self):
        p = Partition(actors(4), [0, 1, 0, 2])
        assert p.blocks() == ((0, 2), (1,), (3,))

    def test_from_label_blocks_validates(self):
        acts = actors(3)
        with pytest.raises(StructuralError, match="missing"):
            Partition.from_label_blocks(acts, [["v0", "v1"]])
        with pytest.raises(StructuralError, match="two blocks"):
            Partition.from_label_blocks(acts, [["v0", "v1"], ["v1", "v2"]])

    def test_a_label_repeated_within_one_block_is_named_as_such(self):
        with pytest.raises(StructuralError, match="^actor 'v0' occurs twice in one block$"):
            Partition.from_label_blocks(actors(3), [["v0", "v0", "v1", "v2"]])

    def test_refines(self):
        acts = actors(4)
        fine = Partition(acts, [0, 0, 1, 2])
        coarse = Partition(acts, [0, 0, 1, 1])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert Partition.discrete(acts).refines(fine)
        assert fine.refines(Partition.universal(acts))

    def test_empty_roster(self):
        p = Partition(actors(0), ())
        assert (p.blocks(), p.num_blocks, p.label_blocks()) == ((), 0, [])
        assert p.refines(Partition.universal(actors(0)))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=8), st.data())
def test_partition_blocks_and_refines_equal_naive(fine, data):
    other = data.draw(st.lists(st.integers(0, 3), min_size=len(fine), max_size=len(fine)))
    acts = actors(len(fine))
    e, f = Partition(acts, fine), Partition(acts, other)
    assert e.blocks() == naive_blocks(fine)
    assert e.num_blocks == len(set(fine))
    assert e.refines(f) == naive_refines(fine, other)
    assert f.refines(e) == naive_refines(other, fine)
    coarser = [b // 2 for b in e.block_of]
    assert e.refines(Partition(acts, coarser)) and naive_refines(fine, coarser)


class TestMultiNetwork:
    def test_reserved_name(self):
        acts = actors(2)
        with pytest.raises(StructuralError, match="reserved"):
            MultiNetwork(acts, [("0", empty_relation(acts))])

    def test_mismatched_actor_sets(self):
        with pytest.raises(StructuralError):
            MultiNetwork(actors(2), [("R", empty_relation(actors(3)))])


# ── composition ──────────────────────────────────────────────────────────────

class TestCompose:
    def test_family_sister_squared_is_zero(self):
        net = family_three()
        s = net.relations["S"]
        assert compose_relations(s, s) == empty_relation(net.actors)

    def test_empty_absorbs(self):
        rng = random.Random(1)
        for _ in range(20):
            acts = actors(rng.randint(0, 5))
            r = random_relation(rng, acts, 0.4)
            zero = empty_relation(acts)
            assert compose_relations(r, zero) == zero
            assert compose_relations(zero, r) == zero

    def test_parent_after_sister(self):
        net = family_three()
        p, s = net.relations["P"], net.relations["S"]
        got = compose_relations(p, s)
        assert got == compose_oracle(p, s)
        assert got.label_pairs() == [("a", "d")]

    def test_matches_oracle_on_fuzz(self):
        rng = random.Random(2)
        for _ in range(100):
            acts = actors(rng.randint(0, 5))
            r1 = random_relation(rng, acts, 0.3)
            r2 = random_relation(rng, acts, 0.3)
            assert compose_relations(r2, r1) == compose_oracle(r2, r1)

    def test_mismatched_actor_sets(self):
        with pytest.raises(StructuralError):
            compose_relations(empty_relation(actors(2)), empty_relation(actors(3)))

    def test_associativity_on_fuzz(self):
        rng = random.Random(3)
        for _ in range(100):
            acts = actors(rng.randint(0, 6))
            r1, r2, r3 = (random_relation(rng, acts, 0.3) for _ in range(3))
            left = compose_relations(compose_relations(r3, r2), r1)
            right = compose_relations(r3, compose_relations(r2, r1))
            assert left == right


class TestIdentityAndEmpty:
    def test_identity_pairs(self):
        assert sorted(identity_relation(actors(3)).pairs()) == [(0, 0), (1, 1), (2, 2)]

    def test_identity_laws(self):
        rng = random.Random(4)
        for _ in range(30):
            acts = actors(rng.randint(0, 6))
            r = random_relation(rng, acts, 0.3)
            delta = identity_relation(acts)
            assert compose_relations(delta, r) == r
            assert compose_relations(r, delta) == r

    def test_empty_universe(self):
        acts = actors(0)
        assert identity_relation(acts) == empty_relation(acts)

    def test_blockmodel_of_empty_relation(self):
        acts = actors(4)
        e = Partition(acts, [0, 0, 1, 1])
        quotient = empty_relation(acts).pushforward(e.block_of, quotient_actor_set(e))
        assert quotient.is_empty


@pytest.mark.parametrize("image,message", BAD_IMAGES, ids=["short", "too-large", "negative"])
def test_pushforward_rejects_a_bad_image(image, message):
    acts = actors(3)
    # no pair involves actor 2, so only a length check sees a short image
    r = Relation.from_pairs(acts, [(0, 1)])
    with pytest.raises(StructuralError) as exc:
        r.pushforward(image, acts)
    assert str(exc.value) == message


# ── blockmodels ──────────────────────────────────────────────────────────────

class TestBlockmodel:
    def test_single_parent_two_generations(self):
        net = single_parent_graph()
        e = Partition.from_label_blocks(net.actors, [["a"], ["b", "c"]])
        quotient = blockmodel_network(net, e)
        q, rel = quotient.actors, quotient.relations["R"]
        assert q.labels == ("{a}", "{b,c}")
        assert rel.label_pairs() == [("{b,c}", "{a}")]

    def test_discrete_partition_is_isomorphic(self):
        rng = random.Random(5)
        for _ in range(20):
            acts = actors(rng.randint(1, 5))
            r = random_relation(rng, acts, 0.3)
            quotient = blockmodel_network(MultiNetwork(acts, [("R", r)]), Partition.discrete(acts))
            q, rel = quotient.actors, quotient.relations["R"]
            assert q.labels == tuple("{%s}" % lab for lab in acts.labels)
            assert list(rel.pairs()) == list(r.pairs())

    def test_mirrored_pair_quotient(self):
        net = mirrored_pair_graph()
        e = mirrored_pair_partition(net.actors)
        rel = blockmodel_network(net, e).relations["R"]
        assert sorted(rel.pairs()) == [(0, 1), (1, 0)]

    def test_simultaneous_blockmodel(self):
        net = family_three()
        e = Partition.universal(net.actors)
        quotient = blockmodel_network(net, e)
        assert quotient.names == net.names
        assert len(quotient.actors) == 1

    def test_blockmodel_equals_pushforward_along_quotient_map(self):
        from roleblock.reduction import pushforward_network, quotient_map

        rng = random.Random(12)
        for _ in range(20):
            net = random_network(rng, n=rng.randint(1, 5), k=2, density=0.3)
            e = random_partition(rng, net.actors)
            assert blockmodel_network(net, e) == pushforward_network(net, quotient_map(e))

    def test_colliding_quotient_labels_are_disambiguated(self):
        # a label containing a comma can make two blocks render identically
        acts = ActorSet(["a,b", "a", "b"])
        e = Partition.from_blocks(acts, [[0], [1, 2]])
        q = blockmodel_network(MultiNetwork(acts, [("R", empty_relation(acts))]), e).actors
        assert q.labels == ("{a,b}", "{a,b}#2")


# ── regularity checks ────────────────────────────────────────────────────────

class TestRegularity:
    def test_single_parent_merging_child_with_parent_fails(self):
        net = single_parent_graph()
        r = net.relations["R"]
        e1 = Partition.from_label_blocks(net.actors, [["a", "b"], ["c"]])
        assert not is_outward_regular(r, e1)
        assert not is_inward_regular(r, e1)

    def test_single_parent_generations_is_regular(self):
        net = single_parent_graph()
        r = net.relations["R"]
        e2 = Partition.from_label_blocks(net.actors, [["a"], ["b", "c"]])
        assert is_outward_regular(r, e2)
        assert is_inward_regular(r, e2)
        assert is_regular(r, e2)

    def test_discrete_always_regular(self):
        rng = random.Random(6)
        for _ in range(30):
            acts = actors(rng.randint(0, 5))
            r = random_relation(rng, acts, 0.4)
            assert is_regular(r, Partition.discrete(acts))

    def test_single_parent_universal_not_regular(self):
        net = single_parent_graph()
        assert not is_regular(net.relations["R"], Partition.universal(net.actors))

    def test_empty_relation_always_regular(self):
        rng = random.Random(7)
        for _ in range(20):
            acts = actors(rng.randint(0, 5))
            assert is_regular(empty_relation(acts), random_partition(rng, acts))


# ── coarsest regular partition ───────────────────────────────────────────────

class TestMaxRegularPartition:
    def test_single_parent(self):
        net = single_parent_graph()
        got = max_regular_partition(net, mode="both")
        assert got.label_blocks() == [["a"], ["b", "c"]]

    def test_discrete_seed_stays_discrete(self):
        rng = random.Random(8)
        for _ in range(10):
            net = random_network(rng, n=rng.randint(1, 5))
            seed = Partition.discrete(net.actors)
            assert max_regular_partition(net, seed=seed) == seed

    def test_mirrored_pair(self):
        net = mirrored_pair_graph()
        got = max_regular_partition(net, mode="both")
        assert got.label_blocks() == [["a", "b'"], ["a'", "b"]]
        assert got == coarsest_regular_bruteforce(net, mode="both")

    def test_no_relations_returns_seed(self):
        acts = actors(4)
        net = MultiNetwork(acts, [])
        seed = Partition(acts, [0, 0, 1, 1])
        assert max_regular_partition(net, seed=seed) == seed

    def test_output_refines_seed_and_passes(self):
        rng = random.Random(9)
        for _ in range(60):
            net = random_network(rng, n=rng.randint(1, 5), k=rng.randint(1, 3), density=0.3)
            seed = random_partition(rng, net.actors)
            for mode in ("out", "in", "both"):
                got = max_regular_partition(net, mode=mode, seed=seed)
                assert got.refines(seed)
                assert network_passes(net, got, mode)

    def test_agrees_with_bruteforce(self):
        rng = random.Random(10)
        for _ in range(40):
            net = random_network(rng, n=rng.randint(0, 5), k=rng.randint(0, 3), density=0.3)
            for mode in ("out", "in", "both"):
                assert max_regular_partition(net, mode=mode) == coarsest_regular_bruteforce(
                    net, mode=mode
                )

    def test_bad_mode(self):
        with pytest.raises(StructuralError):
            max_regular_partition(family_three(), mode="sideways")

    @pytest.mark.parametrize("size", [3, 5])
    def test_refine_rejects_a_structure_on_another_roster(self, size):
        # without the check, a roster other than the structure's gives a wrong
        # partition or an IndexError
        acts = actors(4)
        path = [(0, 1), (1, 2), (2, 3)]
        for s in (Relation.from_pairs(acts, path), FHyperStructure.from_edges(acts, [(i, [j]) for i, j in path])):
            with pytest.raises(StructuralError, match="different actor sets"):
                refine([s], actors(size))


def half_singleton_seed(rng, acts):
    """A seed whose blocks are half singletons: every other block has one actor."""
    order = rng.sample(range(len(acts)), len(acts))
    block_of = [0] * len(acts)
    b = p = 0
    while p < len(order):
        size = 1 if b % 2 == 0 else rng.randint(2, 4)
        for i in order[p:p + size]:
            block_of[i] = b
        p += size
        b += 1
    return Partition(acts, block_of)


def sparse_graph(n, rng):
    """n actors, each with 3 distinct random out-neighbours, in one relation."""
    acts = actors(n)
    pairs = [(i, j) for i in range(n) for j in rng.sample(range(n), 3)]
    return MultiNetwork(acts, [("R", Relation.from_pairs(acts, pairs))])


class TestSettledNodes:
    """Refinement skips nodes alone in their block; the partitions stay those of the naive rounds."""

    @pytest.mark.parametrize("mode", ["out", "in", "both"])
    def test_discrete_seed(self, mode):
        rng = random.Random(11)
        for _ in range(10):
            net = random_network(rng, n=rng.randint(1, 30), k=rng.randint(1, 2), density=0.15)
            seed = Partition.discrete(net.actors)
            expected = naive_refine(net.views(mode), net.actors, seed)
            assert expected == seed
            assert max_regular_partition(net, mode=mode, seed=seed) == expected

    @pytest.mark.parametrize("mode", ["out", "in", "both"])
    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_seed_with_half_its_blocks_singletons(self, mode, rng):
        net = random_network(rng, rng.randint(1, 30), rng.randint(1, 2), rng.choice([0.05, 0.1, 0.3]))
        seed = half_singleton_seed(rng, net.actors)
        assert max_regular_partition(net, mode=mode, seed=seed) == naive_refine(net.views(mode), net.actors, seed)

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_hyper_seed_with_half_its_blocks_singletons(self, rng):
        mh = random_multihyper(rng, rng.randint(1, 30), rng.randint(1, 2), max_target=3)
        seed = half_singleton_seed(rng, mh.actors)
        assert max_regular_partition(mh, seed=seed) == naive_refine(mh.views(), mh.actors, seed)

    @pytest.mark.parametrize("mode", ["out", "in", "both"])
    def test_a_path_ends_discrete(self, mode):
        acts = actors(50)
        net = MultiNetwork(acts, [("R", Relation.from_pairs(acts, [(i, i + 1) for i in range(49)]))])
        got = max_regular_partition(net, mode=mode)
        assert got == naive_refine(net.views(mode), net.actors)
        assert got == Partition.discrete(acts)

    @pytest.mark.parametrize("mode", ["out", "in", "both"])
    def test_a_sparse_graph_ends_discrete(self, mode):
        net = sparse_graph(40, random.Random(0))
        got = max_regular_partition(net, mode=mode)
        assert got == naive_refine(net.views(mode), net.actors)
        if mode == "both":
            assert got == Partition.discrete(net.actors)


class TestFirstSplit:
    """Refinement starts from the seed split by label set; the partitions stay those of the naive rounds."""

    def refined(self, structures, acts, seed=None):
        got = refine(structures, acts, seed)
        assert got == naive_refine(structures, acts, seed)
        return got

    def test_members_that_differ_only_in_their_label_sets(self):
        # 0 and 1 each have one edge into {2, 3}, by different relations
        acts = actors(4)
        r = Relation(acts, [[2], [], [], []])
        s = Relation(acts, [[], [3], [], []])
        seed = Partition(acts, [0, 0, 1, 1])
        assert self.refined([r, s], acts, seed) == Partition(acts, [0, 1, 2, 2])

    @pytest.mark.parametrize("mode", ["out", "in", "both"])
    def test_one_label_set_for_every_node_moves_no_block(self, mode):
        acts = actors(6)
        net = MultiNetwork(acts, [("R", Relation(acts, [[(i + 1) % 6, (i + 2) % 6] for i in range(6)]))])
        assert self.refined(list(net.views(mode)), acts) == Partition.universal(acts)

    @pytest.mark.parametrize("n", [0, 1])
    def test_the_empty_roster_and_one_actor(self, n):
        acts = actors(n)
        for rows in ([[]] * n, [[0]] * n):
            assert self.refined([Relation(acts, rows)], acts) == Partition.universal(acts)
        assert self.refined([], acts) == Partition.universal(acts)
        fams = FHyperStructure(acts, [[[]]] * n)
        assert self.refined([fams], acts) == Partition.universal(acts)

    def test_an_empty_target_set_beside_actors_without_targets(self):
        acts = actors(4)
        h = FHyperStructure(acts, [[[]], [], [[]], []])
        assert self.refined([h], acts) == Partition(acts, [0, 1, 0, 1])
        # with a non-empty target the empty one's node splits from it
        h = FHyperStructure(acts, [[[]], [], [[], [1]], [[2]]])
        assert self.refined([h], acts) == Partition(acts, [0, 1, 2, 3])

    @pytest.mark.parametrize("mode", ["out", "in", "both"])
    def test_a_seed_whose_largest_piece_is_not_its_first_block(self, mode):
        acts = actors(8)
        net = MultiNetwork(acts, [("R", Relation(acts, [[1], [2], [3], [0], [5], [6], [7], [4]]))])
        seed = Partition(acts, [0, 1, 1, 1, 1, 1, 2, 2])
        self.refined(list(net.views(mode)), acts, seed)
        seed = Partition(acts, [0, 1, 2, 3, 3, 3, 3, 3])
        self.refined(list(net.views(mode)), acts, seed)


# ── enumeration and brute force ──────────────────────────────────────────────

class TestEnumeratePartitions:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_partitions(actors(n))) == count

    def test_all_distinct_and_canonical(self):
        seen = set()
        for p in enumerate_partitions(actors(4)):
            assert p not in seen
            seen.add(p)
            for i, b in enumerate(p.block_of):
                assert b <= 1 + max(p.block_of[:i], default=-1)

    def test_first_is_universal_last_is_discrete(self):
        acts = actors(4)
        ps = list(enumerate_partitions(acts))
        assert ps[0] == Partition.universal(acts)
        assert ps[-1] == Partition.discrete(acts)

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_partitions(actors(11))


class TestBruteforce:
    def test_single_parent(self):
        got = coarsest_regular_bruteforce(single_parent_graph(), mode="both")
        assert got.label_blocks() == [["a"], ["b", "c"]]

    def test_no_relations_gives_universal(self):
        acts = actors(4)
        net = MultiNetwork(acts, [])
        assert coarsest_regular_bruteforce(net) == Partition.universal(acts)

    def test_directed_path_forces_discrete(self):
        acts = ActorSet(["a", "b", "c"])
        net = MultiNetwork(
            acts, [("R", Relation.from_label_pairs(acts, [("a", "b"), ("b", "c")]))]
        )
        got = coarsest_regular_bruteforce(net, mode="both")
        assert got == Partition.discrete(acts)

    def test_size_cap(self):
        rng = random.Random(11)
        net = random_network(rng, n=9, k=1)
        with pytest.raises(ResourceLimitError):
            coarsest_regular_bruteforce(net)
