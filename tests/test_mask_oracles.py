"""Stored index tuples and the compositions that build masks, pinned to naive references.

A ``Relation`` stores one sorted tuple of out-neighbours per actor, and an
``FHyperStructure`` one sorted tuple of sorted target tuples; masks, bit j
for actor j, appear only inside compositions.  On
random F-structures over at most 6 actors, drawn with empty targets,
duplicate members, repeated and unsorted sets, every view must equal the
tuple-form oracle in ``helpers``: the targets and edge order, both
compositions (literal and with ``prune_empty``), signature equality, support
and the structure queries.  On random pair lists over at most 8 actors, with
duplicate pairs, every view of a relation must equal what the distinct pairs
give.  Indices out of range must fail with the reference's exact message.
Outside their own definitions, the mask helpers are named only by the
functions that build masks.
"""

import ast
from pathlib import Path

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
import roleblock
from roleblock import (
    ActorMap,
    FHyperStructure,
    Relation,
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


@st.composite
def pair_lists(draw):
    """An actor count, pairs over it with repeats, and an image onto at most 6 blocks."""
    n = draw(st.integers(0, 8))
    index = st.integers(0, n - 1) if n else st.nothing()
    pairs = draw(st.lists(st.tuples(index, index), max_size=20)) if n else []
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    image = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return n, pairs, image


@SETTINGS
@given(pair_lists())
def test_relation_views_match_the_pairs(job):
    n, pairs, img = job
    acts = actors(n)
    r = Relation.from_pairs(acts, pairs)
    distinct = sorted(set(pairs))
    out = [tuple(j for i, j in distinct if i == a) for a in range(n)]
    into = [tuple(i for i, j in distinct if j == a) for a in range(n)]
    assert list(r.pairs()) == distinct
    assert r.out == tuple(out)
    # index lists in any order and with repeats give the same relation
    assert Relation(acts, [[j for i, j in reversed(pairs) if i == a] for a in range(n)]) == r
    assert hash(Relation(acts, out)) == hash(r)
    assert r.stored_bits() == 64 * (n + len(distinct))
    assert r.is_empty == (not distinct)
    nodes = {}
    assert list(r.successors(nodes)) == out and not nodes
    assert list(r.transpose().successors(nodes)) == into and not nodes
    for a in range(n):
        assert r.support(a) == out[a]
        assert r.signature(a, img) == frozenset(img[j] for j in out[a])
        assert r.transpose().support(a) == into[a]
        assert r.transpose().signature(a, img) == frozenset(img[i] for i in into[a])
        assert [r.has(a, j) for j in range(n)] == [(a, j) in distinct for j in range(n)]
    assert list(r.transpose().pairs()) == sorted((j, i) for i, j in distinct)
    target = actors(max(img, default=-1) + 1, "b")
    pushed = r.pushforward(img, target)
    assert list(pushed.pairs()) == sorted({(img[i], img[j]) for i, j in distinct})
    assert pushed == Relation.from_pairs(target, [(img[i], img[j]) for i, j in pairs])


@SETTINGS
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=6),
    st.lists(st.lists(st.integers(-2, n + 1), max_size=4), min_size=n, max_size=n),
)))
def test_relation_range_errors_match_the_pairs(job):
    n, pairs, lists = job
    acts = actors(n)
    bad = [(i, j) for i, j in pairs if not (0 <= i < n and 0 <= j < n)]
    expected = f"pair {bad[0]} out of range for {n} actors" if bad else None
    assert _error(Relation.from_pairs, acts, pairs) == expected
    # out-lists: the first actor with an index out of range names its smallest
    bad = [min(j for j in row if not 0 <= j < n) for row in lists if any(not 0 <= j < n for j in row)]
    expected = f"out-neighbour index {bad[0]} out of range for {n} actors" if bad else None
    assert _error(Relation, acts, lists) == expected
    assert _error(Relation, acts, [()] * (n + 1)) == f"expected {n} rows, got {n + 1}"


MASK_HELPERS = {"index_mask", "mask_members"}
MASK_BUILDERS = MASK_HELPERS | {"row_rule", "loose_rule"}


def test_masks_are_built_only_inside_composition_and_the_oracle():
    users = set()
    for path in Path(roleblock.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in MASK_HELPERS or (
                    isinstance(sub, ast.Attribute) and sub.attr in MASK_HELPERS
                ):
                    users.add((path.name, getattr(node, "name", None)))
    assert users and {name for _, name in users} <= MASK_BUILDERS, sorted(users, key=str)
