"""F-hypergraph structures, their two composition operations, and regularity.

An F-hypergraph assigns to each actor a family of target sets.  The canonical
form keeps, per actor, a sorted tuple of sorted index tuples (set-of-sets
semantics: duplicate targets collapse, multiplicity is never tracked); the
two constructors below are the only code that builds it.  An empty target
tuple ``()`` is a legal hyperedge target and is distinct from an actor having
no hyperedges at all.
"""

from .core import (
    MultiStructure,
    Relation,
    blockmodel_network,
    bruteforce,
    refine,
    signatures_agree,
)
from .errors import StructuralError


def _canonical_families(families, n, what):
    """Each family of index sets as a sorted tuple of distinct sorted index tuples.

    Every index must lie in range(n); the error names the first one that does
    not, taking the sets in the order given and each set in sorted order.
    """
    canon = []
    for family in families:
        sets = set()
        for t in family:
            t = tuple(sorted(set(t)))
            if t and (t[0] < 0 or t[-1] >= n):
                j = next(j for j in t if not 0 <= j < n)
                raise StructuralError(f"{what} index {j} out of range for {n} actors")
            sets.add(t)
        canon.append(tuple(sorted(sets)))
    return tuple(canon)


class FHyperStructure:
    """Per-actor families of target sets over one ActorSet, in canonical form."""

    __slots__ = ("actors", "targets")

    def __init__(self, actors, targets):
        targets = list(targets)
        if len(targets) != len(actors):
            raise StructuralError(f"expected {len(actors)} target families, got {len(targets)}")
        self.actors = actors
        self.targets = _canonical_families(targets, len(actors), "target")

    @classmethod
    def from_edges(cls, actors, edges):
        """Build from (source index, target index iterable) hyperedges."""
        fams = [[] for _ in range(len(actors))]
        for a, t in edges:
            if not (0 <= a < len(actors)):
                raise StructuralError(f"source index {a} out of range")
            fams[a].append(t)
        return cls(actors, fams)

    @classmethod
    def from_label_edges(cls, actors, edges):
        return cls.from_edges(
            actors,
            [(actors.resolve(src), [actors.resolve(x) for x in tgt]) for src, tgt in edges],
        )

    def edges(self):
        """Yield (source, target tuple) hyperedges in canonical order."""
        for a, family in enumerate(self.targets):
            for t in family:
                yield a, t

    def label_edges(self):
        labs = self.actors.labels
        return [(labs[a], tuple(labs[j] for j in t)) for a, t in self.edges()]

    @property
    def edge_count(self):
        return sum(len(family) for family in self.targets)

    @property
    def is_empty(self):
        return self.edge_count == 0

    @property
    def has_empty_target(self):
        return any(() in family for family in self.targets)

    def signature(self, i, image):
        """The images under ``image`` of i's target sets, as sorted index tuples."""
        return frozenset(tuple(sorted({image[j] for j in t})) for t in self.targets[i])

    def support(self, i):
        """The actors that i's signature reads: the union of its target sets."""
        return {j for t in self.targets[i] for j in t}

    def pushforward(self, image, target):
        """Image structure on ``target``: (image[a], image[U]) for every hyperedge (a, U)."""
        fams = [set() for _ in range(len(target))]
        for a in range(len(self.actors)):
            fams[image[a]] |= self.signature(a, image)
        return FHyperStructure(target, fams)

    def __eq__(self, other):
        return (
            isinstance(other, FHyperStructure)
            and self.actors == other.actors
            and self.targets == other.targets
        )

    def __hash__(self):
        return hash((self.actors.labels, self.targets))

    def __repr__(self):
        return f"FHyperStructure({self.label_edges()!r})"


class UndirectedHypergraph:
    """A plain hypergraph: a set of vertex subsets over one ActorSet."""

    __slots__ = ("actors", "hyperedges")

    def __init__(self, actors, hyperedges):
        self.actors = actors
        (self.hyperedges,) = _canonical_families([hyperedges], len(actors), "vertex")

    @classmethod
    def from_label_edges(cls, actors, hyperedges):
        return cls(actors, [[actors.resolve(x) for x in edge] for edge in hyperedges])

    def label_hyperedges(self):
        labs = self.actors.labels
        return [[labs[j] for j in edge] for edge in self.hyperedges]

    def __eq__(self, other):
        return (
            isinstance(other, UndirectedHypergraph)
            and self.actors == other.actors
            and self.hyperedges == other.hyperedges
        )

    def __hash__(self):
        return hash((self.actors.labels, self.hyperedges))

    def __repr__(self):
        return f"UndirectedHypergraph({self.label_hyperedges()!r})"


class MultiHypergraph(MultiStructure):
    """Named F-hypergraph structures on one roster."""

    __slots__ = ()

    def views(self, mode="out"):
        """The structures; an F-structure points one way, so only "out" is accepted."""
        if mode != "out":
            raise StructuralError(f"mode {mode!r} applies only to graph networks")
        return self.relations.values()


# ── basic queries and conversions ────────────────────────────────────────────

def neighbourhood(h, actor):
    """The family of target sets of one actor, as sorted label tuples."""
    a = h.actors.resolve(actor) if isinstance(actor, str) else actor
    if not (0 <= a < len(h.actors)):
        raise StructuralError(f"actor index {a} out of range")
    labs = h.actors.labels
    return tuple(tuple(labs[j] for j in t) for t in h.targets[a])


def from_undirected(u):
    """Directed reading of a plain hypergraph.

    Every hyperedge W contributes, for each member a, the hyperedge
    (a, W minus {a}); a singleton hyperedge {a} therefore becomes (a, ()).
    """
    edges = []
    for edge in u.hyperedges:
        for a in edge:
            edges.append((a, tuple(x for x in edge if x != a)))
    return FHyperStructure.from_edges(u.actors, edges)


def is_graph_like(h):
    """True when every target is a singleton, i.e. the structure encodes a relation."""
    return all(all(len(t) == 1 for t in family) for family in h.targets)


def to_relation(h):
    """Collapse a singleton-target structure to the relation it encodes."""
    if not is_graph_like(h):
        raise StructuralError("structure has a non-singleton target; not graph-like")
    return Relation.from_pairs(h.actors, [(a, t[0]) for a, t in h.edges()])


def embed_relation(r):
    """The singleton-target structure encoding a relation: (a, {b}) per pair (a, b)."""
    return FHyperStructure.from_edges(r.actors, [(i, (j,)) for i, j in r.pairs()])


# ── the two compositions ─────────────────────────────────────────────────────

def tight_compose(k, h):
    """Branch-preserving composite.

    (a, U) is a hyperedge iff h has some (a, V) with a member b such that
    (b, U) is a hyperedge of k.  Each branch through V contributes its own
    target set.
    """
    k.actors.require_same(h.actors)
    fams = []
    for family in h.targets:
        out = set()
        for V in family:
            for b in V:
                out.update(k.targets[b])
        fams.append(out)
    return FHyperStructure(h.actors, fams)


def loose_compose(k, h, prune_empty=False):
    """Branch-merging composite.

    Each hyperedge (a, V) of h yields exactly one hyperedge (a, W) where W is
    the union of every k-target of every member of V.  W may be empty (when V
    is empty or no member of V has k-hyperedges); the literal mode keeps such
    hyperedges, ``prune_empty`` deletes them afterwards.
    """
    k.actors.require_same(h.actors)
    fams = []
    for family in h.targets:
        out = []
        for V in family:
            w = set()
            for b in V:
                for U in k.targets[b]:
                    w.update(U)
            if w or not prune_empty:
                out.append(w)
        fams.append(out)
    return FHyperStructure(h.actors, fams)


def prune_empty_targets(h):
    """Drop every hyperedge whose target set is empty."""
    return FHyperStructure(
        h.actors, [[t for t in family if t] for family in h.targets]
    )


# ── blockmodels and regularity: the shared code in ``core`` ─────────────────

blockmodel_multihypergraph = blockmodel_network


def is_regular_hyper(h, e):
    """Equivalent actors have the same family of block-level target sets."""
    return signatures_agree([h], e)


def max_regular_hyper_partition(mh, seed=None):
    """Coarsest partition refining ``seed`` that is regular for every structure."""
    return refine(mh.views(), mh.actors, seed)


def coarsest_regular_hyper_bruteforce(mh):
    """Scan every partition and return the coarsest regular one (oracle)."""
    return bruteforce(mh.views(), mh.actors)
