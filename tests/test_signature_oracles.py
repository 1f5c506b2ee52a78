"""The shared structure code, pinned to naive oracles for both kinds.

Regularity and reduction validation are written once over ``signatures``,
blockmodels over ``pushforward``, and refinement over the edge view that
``successors`` gives.  Each result on random relations and F-structures
(n <= 6) must equal the pairwise or edge-by-edge oracle in ``helpers`` or the
brute-force search.  Seeded refinement is pinned to the round-based
``naive_refine`` beyond brute force's reach: graphs of up to 24 actors, some
with hub rows, and F-structures that share target masks, on up to 2,000
actors.  A refinement decodes each view once, and a hub costs it about
what the paths it reads cost.  A check signs each view in one pass, up to
its first failing actor, and each pass equals the per-actor signatures.
"""

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    BulkOnly,
    CountedEdges,
    actors,
    naive_bruteforce,
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
    FHyperStructure,
    MultiHypergraph,
    MultiNetwork,
    Partition,
    Relation,
    blockmodel_network,
    coarsest_regular_bruteforce,
    is_inward_regular,
    is_outward_regular,
    max_regular_partition,
    network_passes,
    pushforward_network,
    quotient_map,
    validate_positional_reduction,
)
from roleblock.core import refine, signatures_agree

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
        e = max_regular_partition(mh)
    for h in mh.relations.values():
        assert is_outward_regular(h, e) == pp_bisimulation_oracle(h, e)


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
    assert max_regular_partition(mh) == coarsest_regular_bruteforce(mh)


def per_actor(s, image):
    return [s.signature(i, image) for i in range(len(s.actors))]


def images(rng, net):
    """Images of net's actors: two partitions' ``block_of`` and a map onto a smaller roster."""
    acts = net.actors
    m = rng.randint(1, max(1, len(acts) - 1))
    onto = ActorMap(acts, actors(m, prefix="w"), [rng.randrange(m) for _ in range(len(acts))])
    return [random_partition(rng, acts).block_of, Partition.discrete(acts).block_of, onto.image]


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_graph_signatures_equal_per_actor_signatures(rng):
    net = graph(rng, n_max=10)
    for r in net.relations.values():
        for s in (r, r.transpose()):
            for image in images(rng, net):
                assert list(s.signatures(image)) == per_actor(s, image)


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_hyper_signatures_equal_per_actor_signatures(rng):
    # empty targets, target sets shared by several actors and actors without
    # targets all occur in ``two_sorted``
    mh = two_sorted(rng) if rng.random() < 0.5 else hyper(rng, n_max=10)
    for h in mh.relations.values():
        for image in images(rng, mh):
            assert list(h.signatures(image)) == per_actor(h, image)


def bulk_views(monkeypatch, cls):
    """Make ``cls.views`` hand out ``BulkOnly`` proxies; returns the list they are kept in."""
    proxies, views = [], cls.views

    def bulk(self, *mode):
        made = [BulkOnly(s) for s in views(self, *mode)]
        proxies.extend(made)
        return made

    monkeypatch.setattr(cls, "views", bulk)
    return proxies


@pytest.mark.parametrize("mode", ["out", "in", "fhyper"])
def test_checks_and_validation_sign_each_view_in_one_pass(monkeypatch, mode):
    rng = random.Random(7)
    if mode == "fhyper":
        net, mode, cls = random_multihyper(rng, n=12, k=2, max_target=3), "out", MultiHypergraph
        e = max_regular_partition(net)
    else:
        net, cls = random_network(rng, n=12, k=2, density=0.2), MultiNetwork
        e = max_regular_partition(net, mode)
    f = quotient_map(e)
    dst = pushforward_network(net, f)
    structures = [BulkOnly(s) for s in net.views(mode)]
    # e is regular, so every actor of every view is signed
    assert signatures_agree(structures, e)
    assert [(b.calls, b.yielded) for b in structures] == [(1, 12), (1, 12)]
    proxies = bulk_views(monkeypatch, cls)
    assert network_passes(net, e, mode)
    assert [(b.calls, b.yielded) for b in proxies] == [(1, 12), (1, 12)]
    proxies.clear()
    assert validate_positional_reduction(f, net, dst, mode).ok
    q = e.num_blocks
    assert sorted((b.calls, b.yielded) for b in proxies) == [(1, q), (1, q), (1, 12), (1, 12)]


def test_a_check_stops_at_the_first_failing_actor(monkeypatch):
    # actor 1 has no out-edge and actor 0 has one, so the universal partition
    # fails at the second actor signed
    acts = actors(6)
    e = Partition.universal(acts)
    r = Relation(acts, [[1], [], [3], [4], [5], [0]])
    h = FHyperStructure(acts, [[[1, 2]], [], [[3]], [[4]], [[5]], [[0]]])
    for s in (r, h):
        first, second = BulkOnly(s), BulkOnly(s)
        assert not signatures_agree([first, second], e)
        assert (first.calls, first.yielded, second.calls) == (1, 2, 0)
    net = MultiNetwork(acts, [("R", r), ("S", r)])
    proxies = bulk_views(monkeypatch, MultiNetwork)
    assert not network_passes(net, e, "both")
    assert [(b.calls, b.yielded) for b in proxies] == [(1, 2), (0, 0), (0, 0), (0, 0)]


def with_hubs(rng, net):
    """``net`` with about a fifth of its rows made full: hubs that point at every actor."""
    full = range(len(net.actors))
    return MultiNetwork(net.actors, [
        (name, Relation(net.actors, [full if rng.random() < 0.2 else row for row in r.out]))
        for name, r in net.relations.items()
    ])


@pytest.mark.parametrize("mode", MODES)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_seeded_graph_refinement_equals_naive_rounds(mode, rng):
    net = random_network(rng, rng.randint(0, 24), rng.randint(1, 3), rng.choice([0.04, 0.1, 0.2, 0.4]))
    if rng.random() < 0.3:
        net = with_hubs(rng, net)
    seed = random_partition(rng, net.actors) if rng.random() < 0.7 else None
    expected = naive_refine(net.views(mode), net.actors, seed)
    assert max_regular_partition(net, mode=mode, seed=seed) == expected


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_seeded_hyper_refinement_equals_naive_rounds(rng):
    # target sets of size 0 occur, so empty targets are covered
    mh = random_multihyper(rng, rng.randint(0, 24), rng.randint(1, 2), max_target=3)
    seed = random_partition(rng, mh.actors) if rng.random() < 0.7 else None
    assert max_regular_partition(mh, seed=seed) == naive_refine(mh.views(), mh.actors, seed)


def two_sorted(rng):
    """Two F-structures drawing their targets from one small pool of masks.

    A pooled target is shared by several actors and by both structures.  The
    pool holds the empty target, actor 0 has it and actor 1 has no targets
    at all.  On a roster of 2,000 actors the targets are sparse wide masks.
    """
    n = rng.choice([rng.randint(2, 12), 2000])
    acts = actors(n)
    width = 3 if n > 12 else n

    def target():
        return rng.sample(range(n), rng.randint(1, width))

    pool = [[]] + [target() for _ in range(rng.randint(1, 4))]
    owners = range(n) if n <= 12 else rng.sample(range(2, n), 30)

    def family(a):
        if a == 0:
            return [[]]
        if a == 1 or a not in owners:
            return []
        return [rng.choice(pool) if rng.random() < 0.7 else target() for _ in range(rng.randint(0, 3))]

    return MultiHypergraph(
        acts,
        [(name, FHyperStructure(acts, [family(a) for a in range(n)])) for name in ("H", "K")],
    )


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_two_sorted_view_equals_naive_rounds(rng):
    mh = two_sorted(rng)
    seed = random_partition(rng, mh.actors) if rng.random() < 0.5 else None
    assert max_regular_partition(mh, seed=seed) == naive_refine(mh.views(), mh.actors, seed)


@pytest.mark.parametrize("mode", MODES)
def test_refinement_decodes_each_structure_once(mode):
    net = random_network(random.Random(5), n=30, k=2, density=0.1)
    counted = [CountedEdges(v) for v in net.views(mode)]
    assert refine(counted, net.actors) == naive_refine(net.views(mode), net.actors)
    assert [c.calls for c in counted] == [1] * len(counted)


def test_hyper_refinement_decodes_each_structure_once():
    mh = random_multihyper(random.Random(5), n=30, k=2, max_target=3)
    counted = [CountedEdges(h) for h in mh.views()]
    assert refine(counted, mh.actors) == naive_refine(mh.views(), mh.actors)
    assert [c.calls for c in counted] == [1, 1]


def chains_and_hub(kind, hub, count=2, length=1000):
    """``count`` directed paths of ``length`` actors, and one more actor.

    With ``hub`` that actor points at every path actor: in a graph by an edge
    each, in an F-hypergraph by a singleton target each ("singletons") or by
    one target that holds every path actor ("whole").
    """
    n = count * length
    acts = actors(n + 1)
    links = [(c * length + i, c * length + i + 1) for c in range(count) for i in range(length - 1)]
    if kind in MODES:
        pairs = links + [(n, j) for j in range(n) if hub]
        return MultiNetwork(acts, [("R", Relation.from_pairs(acts, pairs))])
    fams = [[] for _ in range(n + 1)]
    for i, j in links:
        fams[i].append((j,))
    if hub:
        fams[n] = [(j,) for j in range(n)] if kind == "singletons" else [tuple(range(n))]
    return MultiHypergraph(acts, [("H", FHyperStructure(acts, fams))])


def coarsest(kind, net):
    if kind in MODES:
        return max_regular_partition(net, mode=kind)
    return max_regular_partition(net)


def best_time(kind, net):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        coarsest(kind, net)
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("kind", [*MODES, "singletons", "whole"])
def test_a_hub_costs_about_what_its_paths_cost(kind):
    with_hub, without = chains_and_hub(kind, True), chains_and_hub(kind, False)
    # an actor's class is its place on its path, counted from either end in
    # every mode, and the hub has a class of its own
    assert coarsest(kind, with_hub) == Partition(with_hub.actors, [*range(1000), *range(1000), 1000])
    # re-signing the hub from its whole row at every split of a path made
    # this ratio up to about 90
    assert best_time(kind, with_hub) < 5 * best_time(kind, without)


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
def test_inward_checks_equal_their_oracles_on_transposes(rng):
    # every inward check and refinement reads the relations backwards: each
    # equals its oracle on the transposed relations
    net = graph(rng)
    assume(len(net.actors) > 0)
    if rng.random() < 0.5:
        e = random_partition(rng, net.actors)
    else:
        e = max_regular_partition(net, mode="in")
    f = random_map(rng, net, actors(rng.randint(1, len(net.actors) + 1), prefix="w"))
    dst = random_target(rng, net, f)
    rels = list(net.relations.values())
    converses = [r.transpose() for r in rels]
    inward = [naive_outward_regular(t, e) for t in converses]
    outward = [naive_outward_regular(r, e) for r in rels]
    read = {"in": converses, "both": rels + converses}
    coarsest = {mode: naive_bruteforce(views, net.actors) for mode, views in read.items()}
    refined = {mode: naive_refine(views, net.actors) for mode, views in read.items()}
    assert [is_inward_regular(r, e) for r in rels] == inward
    assert network_passes(net, e, "in") == all(inward)
    assert network_passes(net, e, "both") == (all(inward) and all(outward))
    for mode in read:
        assert coarsest_regular_bruteforce(net, mode) == coarsest[mode]
        assert max_regular_partition(net, mode) == refined[mode]
    report = validate_positional_reduction(f, net, dst, mode="in")
    for name, s in net.relations.items():
        s, d = s.transpose(), dst.relations[name].transpose()
        assert report.preserves[name] == naive_preserves(f, s, d)
        assert report.reflects[name] == naive_reflects(f, s, d)


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_blockmodels_are_pushforwards_along_the_quotient_map(rng):
    for net, blockmodel in ((graph(rng), blockmodel_network), (hyper(rng), blockmodel_network)):
        e = random_partition(rng, net.actors)
        f = quotient_map(e)
        quotient = blockmodel(net, e)
        assert quotient == pushforward_network(net, f)
        for name, s in net.relations.items():
            assert quotient.relations[name] == naive_pushforward(s, f)
