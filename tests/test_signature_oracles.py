"""The shared signature code, pinned to naive oracles for both kinds.

Regularity, refinement, blockmodels and reduction validation are written once
over ``signature`` and ``pushforward``; each result on random relations and
F-structures (n <= 6) must equal the pairwise or edge-by-edge oracle in
``helpers`` or the brute-force search.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    actors,
    naive_outward_regular,
    naive_preserves,
    naive_pushforward,
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
