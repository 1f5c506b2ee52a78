import random

import pytest

from helpers import actors, naive_cayley, naive_pushforward, random_network, table_is_associative
from roleblock import (
    BITS_PER_ELEMENT,
    ActorSet,
    ElementCongruence,
    FHyperStructure,
    InputError,
    InvariantViolation,
    MultiNetwork,
    Relation,
    ResourceLimitError,
    SemigroupHom,
    StructuralError,
    WellDefinednessError,
    compose_relations,
    congruence_closure,
    find_identity,
    generate_closure,
    generator_induced_hom,
    identity_relation,
    multiplication_table,
    quotient_semigroup,
    render_table_csv,
    role_semigroup,
)
from roleblock.fixtures import (
    family_three,
    family_three_merged,
    generations_partition,
    mirrored_pair_graph,
    mirrored_pair_partition,
    parent_grandparent_hyper,
)
from roleblock.reduction import pushforward_network, quotient_map

# The seven-role multiplication table of the three-member family, keyed by
# (row word, column word); "0" marks products that vanish.  Row = left
# operand = the relation applied last.
FAMILY_TABLE = {
    "S": {"S": "0", "B": "SB", "P": "0", "BS": "S", "SB": "0", "PS": "0", "PB": "0"},
    "B": {"S": "BS", "B": "0", "P": "0", "BS": "0", "SB": "B", "PS": "0", "PB": "0"},
    "P": {"S": "PS", "B": "PB", "P": "0", "BS": "PS", "SB": "PB", "PS": "0", "PB": "0"},
    "BS": {"S": "0", "B": "B", "P": "0", "BS": "BS", "SB": "0", "PS": "0", "PB": "0"},
    "SB": {"S": "S", "B": "0", "P": "0", "BS": "0", "SB": "SB", "PS": "0", "PB": "0"},
    "PS": {"S": "0", "B": "PB", "P": "0", "BS": "PS", "SB": "0", "PS": "0", "PB": "0"},
    "PB": {"S": "PS", "B": "0", "P": "0", "BS": "0", "SB": "PB", "PS": "0", "PB": "0"},
}


def family_semigroup():
    return role_semigroup(family_three(), "graph")


def word_eval(s, word):
    """Evaluate a generator-index word over the raw generators (not the table)."""
    gens = [s.elements[i] for i in s.generator_elements]
    from roleblock.semigroup import composition_for

    op = composition_for(s.compose_kind, s.prune_empty) if s.compose_kind != "custom" else None
    acc = gens[word[-1]]
    for g in reversed(word[:-1]):
        acc = op(gens[g], acc)
    return acc


def full_and_identity():
    acts = actors(2)
    full = Relation.from_pairs(acts, [(i, j) for i in range(2) for j in range(2)])
    return MultiNetwork(acts, [("P", full), ("S", identity_relation(acts))])


class TestGenerateClosure:
    def test_family_has_seven_nonzero_roles(self):
        s = family_semigroup()
        assert len(s) == 8
        assert len(s.nonzero_indices()) == 7
        assert set(s.word_labels()) == {"S", "B", "P", "SS", "SB", "BS", "PS", "PB"}

    def test_family_table_entries(self):
        s = family_semigroup()
        labels, grid = multiplication_table(s)
        assert sorted(labels) == sorted(FAMILY_TABLE)
        for ri, row_label in enumerate(labels):
            for ci, col_label in enumerate(labels):
                assert grid[ri][ci] == FAMILY_TABLE[row_label][col_label], (
                    row_label,
                    col_label,
                )

    def test_tree_tight_closure(self):
        s = role_semigroup(parent_grandparent_hyper(), "tight")
        assert len(s.nonzero_indices()) == 3
        assert set(s.word_labels()) == {"H1", "H2", "H1H1", "H1H2"}
        assert s.absorbing is not None

    def test_tree_pruned_loose_closure(self):
        mh = parent_grandparent_hyper()
        s = role_semigroup(mh, "loose", prune_empty=True)
        assert len(s.nonzero_indices()) == 2
        # the square of the parents structure is the grandparents structure
        h1 = s.index_of(mh.relations["H1"])
        assert s.cayley[h1][h1] == s.index_of(mh.relations["H2"])

    def test_tree_literal_loose_closure_differs(self):
        mh = parent_grandparent_hyper()
        s = role_semigroup(mh, "loose")
        assert len(s) == 5
        assert s.absorbing is None
        h1 = s.index_of(mh.relations["H1"])
        square = s.elements[s.cayley[h1][h1]]
        assert square != mh.relations["H2"]
        assert square.has_empty_target

    def test_word_soundness(self):
        for s in (
            family_semigroup(),
            role_semigroup(parent_grandparent_hyper(), "tight"),
            role_semigroup(parent_grandparent_hyper(), "loose", prune_empty=True),
        ):
            for i, word in enumerate(s.words):
                assert word_eval(s, word) == s.elements[i]

    def test_words_are_shortest_and_bfs_ordered(self):
        s = family_semigroup()
        lengths = [len(w) for w in s.words]
        assert lengths == sorted(lengths)
        # within a length level, discovery order is lexicographic on indices
        for a, b in zip(s.words, s.words[1:]):
            if len(a) == len(b):
                assert a < b

    def test_closure_completeness(self):
        s = family_semigroup()
        assert tuple(s.cayley) == naive_cayley(s, compose_relations)

    def test_cap_exceeded(self):
        with pytest.raises(ResourceLimitError) as err:
            role_semigroup(family_three(), "graph", cap=3)
        assert err.value.count == 3

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(InputError, match="cap"):
            role_semigroup(full_and_identity(), "graph", cap=cap)

    def test_cap_counts_generators(self):
        # P*P = P*S = S*P = P and S*S = S: the generators are the whole closure
        net = full_and_identity()
        with pytest.raises(ResourceLimitError) as err:
            role_semigroup(net, "graph", cap=1)
        assert err.value.count == 1
        assert len(role_semigroup(net, "graph", cap=2)) == 2

    def test_closure_of_exactly_cap_elements_succeeds(self):
        size = len(family_semigroup())
        assert len(role_semigroup(family_three(), "graph", cap=size)) == size

    def test_memory_budget_counts_stored_bits(self):
        # one idempotent relation on 2,000 actors whose rows all reach the last
        # 30 actors: a 64-bit slot per actor and per out-neighbour, between
        # 50 and 100 x BITS_PER_ELEMENT
        acts = actors(2000)
        r = Relation.from_pairs(acts, [(i, j) for i in range(2000) for j in range(1970, 2000)])
        assert r.stored_bits() == 64 * (2000 + 2000 * 30)
        assert 50 * BITS_PER_ELEMENT < r.stored_bits() <= 100 * BITS_PER_ELEMENT
        net = MultiNetwork(acts, [("R", r)])
        with pytest.raises(ResourceLimitError, match="memory budget") as err:
            role_semigroup(net, "graph", cap=50)
        assert err.value.count == 0
        assert len(role_semigroup(net, "graph", cap=100)) == 1
        # 64 bits per actor, per target set and per target member
        h = FHyperStructure(actors(3), [[(0, 2)], [], [(), (1,)]])
        assert h.stored_bits() == 64 * (3 + 3 + 3)

    def test_zero_generators_rejected(self):
        with pytest.raises(InputError):
            generate_closure([], compose_relations)

    def test_duplicate_generator_values_collapse(self):
        acts = actors(2)
        r = Relation.from_pairs(acts, [(0, 1)])
        net = MultiNetwork(acts, [("X", r), ("Y", r)])
        s = role_semigroup(net, "graph")
        assert s.generator_elements[0] == s.generator_elements[1]
        assert s.word_label(s.generator_elements[1]) == "X"

    def test_cayley_associativity(self):
        rng = random.Random(40)
        for s in (
            family_semigroup(),
            role_semigroup(family_three_merged(), "graph"),
            role_semigroup(parent_grandparent_hyper(), "tight"),
            role_semigroup(parent_grandparent_hyper(), "loose"),
            role_semigroup(parent_grandparent_hyper(), "loose", prune_empty=True),
            role_semigroup(random_network(rng, 4, 2, 0.2), "graph", cap=200),
        ):
            if len(s) <= 60:
                assert table_is_associative(s)


class TestAbsorbingAndIdentity:
    def test_family_has_zero_but_no_identity(self):
        s = family_semigroup()
        zero = s.absorbing
        assert zero is not None
        assert s.elements[zero].is_empty
        assert s.word_label(zero) == "SS"
        assert find_identity(s) is None

    def test_identity_closure(self):
        acts = actors(3)
        net = MultiNetwork(acts, [("I", identity_relation(acts))])
        s = role_semigroup(net, "graph")
        assert len(s) == 1
        assert find_identity(s) == 0
        assert s.absorbing is None

    def test_nonzero_idempotent_has_no_absorbing(self):
        acts = actors(2)
        net = MultiNetwork(acts, [("R", Relation.from_pairs(acts, [(0, 0)]))])
        s = role_semigroup(net, "graph")
        assert len(s) == 1
        assert s.absorbing is None


class TestMultiplicationTable:
    def test_family_is_seven_by_seven(self):
        labels, grid = multiplication_table(family_semigroup())
        assert len(labels) == 7
        assert all(len(row) == 7 for row in grid)
        assert "SS" not in labels  # the zero row/column is omitted

    def test_single_idempotent_generator(self):
        acts = actors(2)
        net = MultiNetwork(acts, [("R", Relation.from_pairs(acts, [(0, 0)]))])
        labels, grid = multiplication_table(role_semigroup(net, "graph"))
        assert labels == ["R"]
        assert grid == [["R"]]

    def test_generations_blockmodel_table(self):
        net = family_three_merged()
        e = generations_partition(net.actors)
        quotient = pushforward_network(net, quotient_map(e))
        s = role_semigroup(quotient, "graph")
        labels, grid = multiplication_table(s)
        table = {r: dict(zip(labels, row)) for r, row in zip(labels, grid)}
        assert set(labels) == {"S", "P"}
        assert table["P"]["S"] == "P"
        assert table["S"]["S"] == "S"
        assert table["S"]["P"] == "0"
        assert table["P"]["P"] == "0"

    def test_csv_rendering(self):
        acts = actors(2)
        net = MultiNetwork(acts, [("R", Relation.from_pairs(acts, [(0, 0)]))])
        assert render_table_csv(role_semigroup(net, "graph")) == "*,R\nR,R\n"

    def test_zero_only_closure_renders_header_only(self):
        acts = actors(2)
        net = MultiNetwork(acts, [("R", Relation.from_pairs(acts, []))])
        s = role_semigroup(net, "graph")
        assert s.absorbing == 0
        assert render_table_csv(s) == "*\n"


class TestCongruence:
    def test_sister_brother_merge_collapses_everything_but_parent(self):
        s = family_semigroup()
        net = family_three()
        pairs = [(s.index_of(net.relations["S"]), s.index_of(net.relations["B"]))]
        c = congruence_closure(s, pairs)
        # merging S with B forces S*BS = S ~ B*BS = 0, which drags every
        # product of S or B into the zero class; only P survives alone
        assert c.num_classes == 2
        classes = [sorted(s.word_label(i) for i in cl) for cl in c.classes()]
        assert ["P"] in classes
        big = next(cl for cl in classes if len(cl) > 1)
        assert big == sorted(["S", "B", "SS", "SB", "BS", "PS", "PB"])
        assert c.is_compatible()

    def test_empty_pairs_gives_discrete(self):
        s = family_semigroup()
        c = congruence_closure(s, [])
        assert c.num_classes == len(s)

    def test_collapsing_with_zero_swallows_the_ideal(self):
        s = family_semigroup()
        net = family_three()
        zero = s.absorbing
        c = congruence_closure(s, [(s.index_of(net.relations["P"]), zero)])
        classes = [sorted(s.word_label(i) for i in cl) for cl in c.classes()]
        assert sorted(["P", "PS", "PB", "SS"]) in classes
        assert c.num_classes == 5

    def test_pair_index_validated(self):
        with pytest.raises(StructuralError):
            congruence_closure(family_semigroup(), [(0, 99)])


class TestQuotientSemigroup:
    def test_discrete_congruence_is_isomorphic(self):
        s = family_semigroup()
        q, hom = quotient_semigroup(s, congruence_closure(s, []))
        assert len(q) == len(s)
        assert hom.image == tuple(range(len(s)))
        assert hom.holds()

    def test_universal_congruence_is_one_element(self):
        s = family_semigroup()
        c = ElementCongruence(s, [0] * len(s))
        q, hom = quotient_semigroup(s, c)
        assert len(q) == 1
        assert hom.is_surjective

    def test_sister_brother_quotient(self):
        s = family_semigroup()
        net = family_three()
        pairs = [(s.index_of(net.relations["S"]), s.index_of(net.relations["B"]))]
        q, hom = quotient_semigroup(s, congruence_closure(s, pairs))
        assert len(q) == 2
        assert hom.is_surjective
        assert hom.holds()

    def test_incompatible_classes_rejected(self):
        s = family_semigroup()
        net = family_three()
        # merging S with P alone is not a congruence: S*S = 0 but P*S = PS
        i_s, i_p = s.index_of(net.relations["S"]), s.index_of(net.relations["P"])
        block_of = [0] * len(s)
        for i in range(len(s)):
            block_of[i] = 1 if i in (i_s, i_p) else 2 + i
        with pytest.raises(InvariantViolation):
            quotient_semigroup(s, ElementCongruence(s, block_of))


class TestQuotientIsGenerated:
    """A quotient is generated by its generators' classes, so generator scans take it."""

    def sister_brother_quotient(self):
        s = family_semigroup()
        net = family_three()
        pairs = [(s.index_of(net.relations["S"]), s.index_of(net.relations["B"]))]
        return (s, *quotient_semigroup(s, congruence_closure(s, pairs)))

    def test_hom_holds(self):
        _, q, _ = self.sister_brother_quotient()
        assert SemigroupHom(q, q, range(len(q))).holds()
        # P*P lands in the zero class, so sending everything to P breaks the law
        assert not SemigroupHom(q, q, [1] * len(q)).holds()

    def test_generator_induced_hom(self):
        s, q, to_quotient = self.sister_brother_quotient()
        assert generator_induced_hom(s, q).image == to_quotient.image
        assert generator_induced_hom(q, q).image == (0, 1)

    def test_element_congruence(self):
        _, q, _ = self.sister_brother_quotient()
        c = ElementCongruence(q, [0] * len(q))
        assert c.is_compatible()
        one, to_one = quotient_semigroup(q, c)
        assert len(one) == 1 and to_one.holds()
        assert one.elements == ((0, 1),)

    def test_find_identity(self):
        s, q, _ = self.sister_brother_quotient()
        assert find_identity(q) is None
        # the one-element quotient is its own identity and zero
        one, _ = quotient_semigroup(s, ElementCongruence(s, [0] * len(s)))
        assert find_identity(one) == 0 == one.absorbing

    def test_words_and_zero(self):
        s, q, _ = self.sister_brother_quotient()
        # each class carries its first member's word; S's class holds the zero
        assert q.word_labels() == ("S", "P")
        assert q.absorbing == 0 and q.display_label(0) == "0"
        assert q.generator_elements == (0, 0, 1)
        assert q.index_of(q.elements[1]) == 1 and s.word_label(q.elements[1][0]) == "P"


class TestSemigroupHom:
    @pytest.mark.parametrize("bad", [8, 999, -1])
    def test_image_out_of_range_rejected(self, bad):
        s = family_semigroup()
        with pytest.raises(StructuralError, match=f"image index {bad} out of range for 8 elements"):
            SemigroupHom(s, s, [0] * (len(s) - 1) + [bad])

    def test_image_length_checked(self):
        s = family_semigroup()
        with pytest.raises(StructuralError, match="hom must assign an image to every source element"):
            SemigroupHom(s, s, [0])


class TestGeneratorInducedHom:
    def test_generations_reduction(self):
        net = family_three_merged()
        e = generations_partition(net.actors)
        f = quotient_map(e)
        quotient = pushforward_network(net, f)
        src = role_semigroup(net, "graph")
        dst = role_semigroup(quotient, "graph")
        hom = generator_induced_hom(src, dst)
        assert hom.is_surjective
        assert hom.holds()
        # every element maps to its blockmodel
        for i, element in enumerate(src.elements):
            assert dst.elements[hom.image[i]] == naive_pushforward(element, f)

    def test_identity_hom(self):
        s = family_semigroup()
        hom = generator_induced_hom(s, s)
        assert hom.image == tuple(range(len(s)))

    def test_mirrored_pair_is_obstructed(self):
        net = mirrored_pair_graph()
        e = mirrored_pair_partition(net.actors)
        quotient = pushforward_network(net, quotient_map(e))
        src = role_semigroup(net, "graph")
        dst = role_semigroup(quotient, "graph")
        with pytest.raises(WellDefinednessError) as err:
            generator_induced_hom(src, dst)
        exc = err.value
        # the witness words agree in the source but split in the target:
        # the square of the tie vanishes while the square of its blockmodel
        # is the diagonal
        assert {exc.word_a, exc.word_b} == {"RR", "RRR"}
        assert exc.image_a != exc.image_b

    def test_mismatched_generators_rejected(self):
        src = family_semigroup()
        dst = role_semigroup(family_three_merged(), "graph")
        with pytest.raises(StructuralError):
            generator_induced_hom(src, dst)

    def test_collapsed_generators_must_stay_collapsed(self):
        acts = actors(2)
        r = Relation.from_pairs(acts, [(0, 1)])
        src = role_semigroup(MultiNetwork(acts, [("X", r), ("Y", r)]), "graph")
        r2 = Relation.from_pairs(acts, [(1, 0)])
        dst = role_semigroup(MultiNetwork(acts, [("X", r), ("Y", r2)]), "graph")
        with pytest.raises(WellDefinednessError):
            generator_induced_hom(src, dst)


class TestEmptyUniverse:
    def test_closure_on_zero_actors(self):
        acts = ActorSet([])
        net = MultiNetwork(acts, [("R", Relation(acts, []))])
        s = role_semigroup(net, "graph")
        assert len(s) == 1
        assert s.absorbing == 0
