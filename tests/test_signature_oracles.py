"""The shared signature code, pinned to naive oracles for both kinds.

Regularity, refinement, blockmodels and reduction validation are written once
over ``signature``, ``support`` and ``pushforward``; each result on random
relations and F-structures (n <= 6) must equal the pairwise or edge-by-edge
oracle in ``helpers`` or the brute-force search.  Seeded refinement is pinned
to the round-based ``naive_refine`` up to n = 24, beyond brute force's reach,
and its signature calls are counted on paths and chains.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    actors,
    naive_outward_regular,
    naive_preserves,
    naive_pushforward,
    naive_refine,
    naive_reflects,
    pp_bisimulation_oracle,
    random_multihyper,
    random_network,
    random_fhyper,
    random_partition,
    random_relation,
)
from roleblock import (
    ActorMap,
    MultiNetwork,
    Partition,
    Relation,
    blockmodel_multihypergraph,
    blockmodel_network,
    coarsest_regular_bruteforce,
    coarsest_regular_hyper_bruteforce,
    is_inward_regular,
    is_outward_regular,
    is_regular_hyper,
    max_regular_hyper_partition,
    max_regular_partition,
    network_passes,
    pushforward_network,
    quotient_map,
    validate_positional_reduction,
)
from roleblock.core import refine

SETTINGS = settings(max_examples=60, deadline=None)

MODES = ["out", "in", "both"]


def graph(rng, n_max=6):
    return random_network(rng, rng.randint(0, n_max), rng.randint(1, 3), rng.choice([0.15, 0.3, 0.5]))


def hyper(rng, n_max=6):
    return random_multihyper(rng, rng.randint(0, n_max), rng.randint(1, 2))


@pytest.mark.parametrize("mode", MODES)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_graph_check_equals_pairwise_check(mode, rng):
    net = graph(rng)
    # a random partition, or the coarsest regular one, so both verdicts occur
    if rng.random() < 0.5:
        e = random_partition(rng, net.actors)
    else:
        e = max_regular_partition(net, mode=mode)
    rels = list(net.relations.values())
    expected = all(
        (mode == "in" or naive_outward_regular(r, e))
        and (mode == "out" or naive_outward_regular(r.transpose(), e))
        for r in rels
    )
    assert network_passes(net, e, mode) == expected
    for r in rels:
        assert is_outward_regular(r, e) == naive_outward_regular(r, e)
        assert is_inward_regular(r, e) == naive_outward_regular(r.transpose(), e)


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_hyper_check_equals_bisimulation_oracle(rng):
    mh = hyper(rng)
    if rng.random() < 0.5:
        e = random_partition(rng, mh.actors)
    else:
        e = max_regular_hyper_partition(mh)
    for h in mh.relations.values():
        assert is_regular_hyper(h, e) == pp_bisimulation_oracle(h, e)


@pytest.mark.parametrize("mode", MODES)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_graph_refinement_equals_bruteforce(mode, rng):
    net = graph(rng)
    assert max_regular_partition(net, mode=mode) == coarsest_regular_bruteforce(net, mode=mode)


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_hyper_refinement_equals_bruteforce(rng):
    mh = hyper(rng)
    assert max_regular_hyper_partition(mh) == coarsest_regular_hyper_bruteforce(mh)


@pytest.mark.parametrize("mode", MODES)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_seeded_graph_refinement_equals_naive_rounds(mode, rng):
    net = random_network(rng, rng.randint(0, 24), rng.randint(1, 3), rng.choice([0.04, 0.1, 0.2, 0.4]))
    seed = random_partition(rng, net.actors) if rng.random() < 0.7 else None
    expected = naive_refine(net.views(mode), net.actors, seed)
    assert max_regular_partition(net, mode=mode, seed=seed) == expected


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_seeded_hyper_refinement_equals_naive_rounds(rng):
    # target sets of size 0 occur, so empty targets are covered
    mh = random_multihyper(rng, rng.randint(0, 24), rng.randint(1, 2), max_target=3)
    seed = random_partition(rng, mh.actors) if rng.random() < 0.7 else None
    assert max_regular_hyper_partition(mh, seed=seed) == naive_refine(mh.views(), mh.actors, seed)


class CountedSignatures:
    """A structure that forwards to another and counts its ``signature`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def signature(self, i, image):
        self.calls += 1
        return self.inner.signature(i, image)

    def support(self, i):
        return self.inner.support(i)


def chains(count, length):
    """``count`` disjoint directed paths of ``length`` actors each."""
    acts = actors(count * length)
    return Relation.from_pairs(
        acts, [(c * length + i, c * length + i + 1) for c in range(count) for i in range(length - 1)]
    )


@pytest.mark.parametrize(
    "count,length", [(1, 2000), (2, 280)], ids=["path-2000", "two-280-link-chains"]
)
@pytest.mark.parametrize("mode", ["out", "in"])
def test_refinement_signs_each_actor_about_twice(count, length, mode):
    r = chains(count, length)
    counted = CountedSignatures(r if mode == "out" else r.transpose())
    got = refine([counted], r.actors)
    n = count * length
    # round-based refinement re-signs every actor in each of ``length`` rounds
    assert counted.calls <= 2 * n + 8
    # an actor's class is its distance to its chain's end (out) or start (in)
    assert got == Partition(
        r.actors, [length - 1 - i if mode == "out" else i for _ in range(count) for i in range(length)]
    )


def random_map(rng, src, dst_actors):
    """A random map: a quotient map, or any map, surjective or not."""
    if rng.random() < 0.4:
        return quotient_map(random_partition(rng, src.actors))
    return ActorMap(
        src.actors, dst_actors, [rng.randrange(len(dst_actors)) for _ in range(len(src.actors))]
    )


def random_target(rng, src, f):
    # the pushforward (every flag may hold), or a random structure on f's target
    if rng.random() < 0.5:
        return pushforward_network(src, f)
    make = random_relation if isinstance(src, MultiNetwork) else random_fhyper
    return type(src)(f.target, [(name, make(rng, f.target)) for name in src.names])


@pytest.mark.parametrize("kind,mode", [("graph", "out"), ("graph", "in"), ("fhyper", "out")])
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_validation_flags_equal_naive_flags(kind, mode, rng):
    src = graph(rng) if kind == "graph" else hyper(rng)
    assume(len(src.actors) > 0)
    f = random_map(rng, src, actors(rng.randint(1, len(src.actors) + 1), prefix="w"))
    dst = random_target(rng, src, f)
    report = validate_positional_reduction(f, src, dst, mode=mode)

    def oriented(s):
        return s.transpose() if mode == "in" else s

    assert report.surjective == f.is_surjective
    for name in src.names:
        s, d = oriented(src.relations[name]), oriented(dst.relations[name])
        assert report.preserves[name] == naive_preserves(f, s, d)
        assert report.reflects[name] == naive_reflects(f, s, d)
    assert report.matches_blockmodel == (
        f.is_surjective
        and all(naive_pushforward(src.relations[n], f) == dst.relations[n] for n in src.names)
    )


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_blockmodels_are_pushforwards_along_the_quotient_map(rng):
    for net, blockmodel in ((graph(rng), blockmodel_network), (hyper(rng), blockmodel_multihypergraph)):
        e = random_partition(rng, net.actors)
        f = quotient_map(e)
        quotient = blockmodel(net, e)
        assert quotient == pushforward_network(net, f)
        for name, s in net.relations.items():
            assert quotient.relations[name] == naive_pushforward(s, f)
