"""The branch-and-bound oracle ``core.bruteforce``, pinned to the plain scan.

``naive_bruteforce`` in ``helpers`` scans every partition in restricted-growth
order and keeps the first regular one with the fewest blocks; the search must
return the same partition on random graphs (empty and complete relations
among them, every mode) and F-hypergraphs (empty, repeated and unsorted target
sets) of up to 7 actors.  Its ``signature`` calls are counted against the
scan's on two inputs with a discrete answer, where the scan has to reject
every coarser partition, and on one where the bound cut acts.  A search
leaves no reference cycle behind for the cyclic collector to free.
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CountedSignatures,
    actors,
    naive_bruteforce,
    random_network,
    random_relation,
)
from roleblock import (
    FHyperStructure,
    MultiHypergraph,
    MultiNetwork,
    Relation,
    coarsest_regular_bruteforce,
    core,
    fixtures,
)
from roleblock.core import bruteforce

SETTINGS = settings(max_examples=60, deadline=None)


def graph(rng):
    acts = actors(rng.randint(0, 7))
    n = len(acts)
    rels = []
    for name in ("R", "S")[: rng.randint(1, 2)]:
        shape = rng.random()
        if shape < 0.15:
            rel = Relation(acts, [()] * n)
        elif shape < 0.3:
            rel = Relation(acts, [range(n)] * n)
        else:
            rel = random_relation(rng, acts, rng.choice([0.1, 0.2, 0.35, 0.6]))
        rels.append((name, rel))
    return MultiNetwork(acts, rels)


def hyper(rng):
    acts = actors(rng.randint(0, 7))
    n = len(acts)

    def family():
        # members drawn with replacement and left unsorted; a target may be
        # empty and a family may repeat a target
        fam = [[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(0, 3))]
        if fam and rng.random() < 0.3:
            fam.append(list(reversed(fam[0])))
        return fam

    names = ("H", "K")[: rng.randint(1, 2)]
    return MultiHypergraph(acts, [(name, FHyperStructure(acts, [family() for _ in range(n)])) for name in names])


@pytest.mark.parametrize("mode", ["out", "in", "both"])
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_graph_search_equals_the_scan(mode, rng):
    net = graph(rng)
    assert bruteforce(net.views(mode), net.actors) == naive_bruteforce(net.views(mode), net.actors)


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_hyper_search_equals_the_scan(rng):
    mh = hyper(rng)
    assert bruteforce(mh.views(), mh.actors) == naive_bruteforce(mh.views(), mh.actors)


def test_search_never_refines(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle refined")

    monkeypatch.setattr(core, "refine", refuse)
    monkeypatch.setattr(core, "max_regular_partition", refuse)
    net = random_network(random.Random(3), n=6, k=2, density=0.3)
    assert bruteforce(net.views("both"), net.actors) == naive_bruteforce(net.views("both"), net.actors)


def counted_calls(search, structures, acts):
    counted = [CountedSignatures(s) for s in structures]
    result = search(counted, acts)
    return result, sum(c.calls for c in counted)


def directed_path_8():
    acts = actors(8)
    return MultiNetwork(acts, [("R", Relation.from_pairs(acts, [(i, i + 1) for i in range(7)]))])


def discrete_random_7():
    return random_network(random.Random(1), n=7, k=2, density=0.25)


def five_block_random_7():
    return random_network(random.Random(3), n=7, k=1, density=0.3)


# The first two inputs have a discrete answer, so the scan signs actors in all
# 4,140 (877) partitions until one fails, while the search signs each actor
# once its signature is complete, that is once the actor and everything it
# reads are placed, and cuts the branch as soon as that signature differs from
# the first complete one in its block.  On the third the search finds regular
# partitions with more than five blocks first, and the bound cuts every branch
# that has reached the best count so far.  Each search makes at most a tenth of
# the scan's calls.
@pytest.mark.parametrize(
    "make,blocks,search_calls,scan_calls",
    [
        (directed_path_8, 8, 316, 15698),
        (discrete_random_7, 7, 262, 3381),
        (five_block_random_7, 5, 166, 2765),
    ],
    ids=["directed-path-8", "random-7", "random-7-five-blocks"],
)
def test_signature_calls_are_pinned(make, blocks, search_calls, scan_calls):
    net = make()
    found, calls = counted_calls(bruteforce, list(net.views("out")), net.actors)
    scanned, naive_calls = counted_calls(naive_bruteforce, list(net.views("out")), net.actors)
    assert found == scanned
    assert found.num_blocks == blocks
    assert (calls, naive_calls) == (search_calls, scan_calls)
    assert 10 * calls <= naive_calls


@pytest.mark.parametrize(
    "make,oracle",
    [
        (fixtures.family_three, coarsest_regular_bruteforce),
        (fixtures.mirrored_pair_graph, coarsest_regular_bruteforce),
        (fixtures.parent_grandparent_hyper, coarsest_regular_bruteforce),
        (fixtures.fanout_pair_hyper, coarsest_regular_bruteforce),
    ],
    ids=["family-three", "mirrored-pair", "parent-grandparent", "fanout-pair"],
)
def test_search_leaves_no_reference_cycle(make, oracle):
    net = make()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        oracle(net)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
