"""Bitmask F-structures, pinned to a tuple-form reference.

``hypergraph`` stores each target set as an int mask.  On random structures
over at most 6 actors, drawn with empty targets, duplicate members, repeated
and unsorted sets, every view the mask code gives must equal the tuple-form
oracle in ``helpers``: the decoded targets and edge order, both compositions
(literal and with ``prune_empty``), signature equality, support, and the
structure queries.  Index lists with indices out of range must fail with the
tuple form's exact message.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    actors,
    loose_oracle,
    naive_canonical_families,
    naive_edges,
    naive_has_empty_target,
    naive_is_graph_like,
    naive_pushforward,
    naive_signature,
    naive_support,
    pruned_loose_oracle,
    tight_oracle,
)
from roleblock import (
    ActorMap,
    FHyperStructure,
    StructuralError,
    UndirectedHypergraph,
    from_undirected,
    is_graph_like,
    loose_compose,
    prune_empty_targets,
    tight_compose,
)

SETTINGS = settings(max_examples=150, deadline=None)


def index_sets(n):
    # members may repeat and come unsorted; the empty set is drawn too
    return st.lists(st.lists(st.integers(0, n - 1), max_size=4) if n else st.just([]), max_size=4)


@st.composite
def raw_structures(draw, count=2):
    """An actor count and ``count`` raw per-actor families of index lists."""
    n = draw(st.integers(0, 6))
    fams = [draw(st.lists(index_sets(n), min_size=n, max_size=n)) for _ in range(count)]
    return n, fams


@SETTINGS
@given(raw_structures(), st.data())
def test_mask_form_matches_the_tuple_form(job, data):
    n, raws = job
    acts = actors(n)
    hs = [FHyperStructure(acts, raw) for raw in raws]
    naives = [naive_canonical_families(raw, n, "target") for raw in raws]
    # a map of the actors onto at most 6 blocks
    img = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    sigs, naive_sigs = [], []
    for h, naive in zip(hs, naives):
        assert h.targets == naive
        assert list(h.edges()) == naive_edges(naive)
        labs = acts.labels
        assert h.label_edges() == [
            (labs[a], tuple(labs[j] for j in t)) for a, t in naive_edges(naive)
        ]
        assert h.edge_count == len(naive_edges(naive))
        assert h.is_empty == (not naive_edges(naive))
        assert h.has_empty_target == naive_has_empty_target(naive)
        assert is_graph_like(h) == naive_is_graph_like(naive)
        assert prune_empty_targets(h).targets == tuple(
            tuple(t for t in family if t) for family in naive
        )
        for i in range(n):
            assert set(h.support(i)) == naive_support(naive, i)
            sigs.append(h.signature(i, img))
            naive_sigs.append(naive_signature(naive, i, img))
    # signatures of both structures, compared pairwise: equal exactly when the
    # tuple-form signatures are equal
    for x, nx in zip(sigs, naive_sigs):
        for y, ny in zip(sigs, naive_sigs):
            assert (x == y) == (nx == ny)
    m = max(img, default=-1) + 1
    f = ActorMap(acts, actors(m, "b"), img)
    assert hs[0].pushforward(img, f.target) == naive_pushforward(hs[0], f)


@SETTINGS
@given(raw_structures())
def test_compositions_match_the_oracles(job):
    n, raws = job
    acts = actors(n)
    k, h = (FHyperStructure(acts, raw) for raw in raws)
    assert tight_compose(k, h) == tight_oracle(k, h)
    assert loose_compose(k, h) == loose_oracle(k, h)
    assert loose_compose(k, h, prune_empty=True) == pruned_loose_oracle(k, h)


@SETTINGS
@given(raw_structures(count=1))
def test_undirected_masks_match_the_tuple_form(job):
    n, (raw,) = job
    acts = actors(n)
    edges = [t for family in raw for t in family]
    u = UndirectedHypergraph(acts, edges)
    (naive,) = naive_canonical_families([edges], n, "vertex")
    assert u.hyperedges == naive
    directed = [(a, tuple(x for x in edge if x != a)) for edge in naive for a in edge]
    assert from_undirected(u) == FHyperStructure.from_edges(acts, directed)


def _error(build, *args):
    try:
        build(*args)
    except StructuralError as exc:
        return str(exc)
    return None


@SETTINGS
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.lists(st.integers(-2, n + 1), max_size=4), max_size=3), min_size=n, max_size=n
    ))
))
def test_range_errors_match_the_tuple_form(job):
    n, raw = job
    acts = actors(n)
    expected = _error(naive_canonical_families, raw, n, "target")
    assert _error(FHyperStructure, acts, raw) == expected
    edges = [t for family in raw for t in family]
    assert _error(UndirectedHypergraph, acts, edges) == _error(
        naive_canonical_families, [edges], n, "vertex"
    )
