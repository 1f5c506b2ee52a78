"""F-hypergraph structures and their two composition operations.

An F-hypergraph assigns to each actor a family of target sets, and an
``FHyperStructure`` is the ``core.Structure`` whose part is that family.  A
target set is stored as a sorted tuple of distinct actor indices, and each
actor's family as a sorted tuple of distinct target sets (set-of-sets
semantics: duplicate targets collapse, multiplicity is never tracked),
O(n + m) in all for n actors and m target members.  The one normaliser,
``FHyperStructure._normal_part``, makes that form from in-range index lists:
``core.sorted_distinct`` on each target set, then on the family.  An
``UndirectedHypergraph`` keeps its hyperedges in the form of one family.
Everything but ``loose_compose`` reads the stored tuples as they are, and
``core`` checks, refines, blockmodels and pushes forward both kinds alike.  An
empty target set, the empty tuple, is a legal hyperedge target and is
distinct from an actor having no hyperedges.

Both compositions are per actor, like ``core.compose_relations``: the left
operand's rule for one family (``tight_rule``, ``loose_rule``) maps each
family of the right one.  Inside a closure a ``core.PartAction`` keeps that
rule and applies it once per distinct family id.
"""

from itertools import chain

from .core import (
    MultiStructure,
    PartAction,
    Relation,
    Structure,
    in_range,
    index_mask,
    mask_members,
    sorted_distinct,
)
from .errors import StructuralError


class FHyperStructure(Structure):
    """Per-actor families of target sets over one ActorSet, in canonical form.

    ``targets[i]`` is i's family: a sorted tuple of distinct target sets,
    each a sorted tuple of distinct actor indices.
    """

    __slots__ = ()
    _noun = "target families"
    targets = Structure.parts

    @staticmethod
    def _in_range(family, n):
        # set by set in the order given: the first set given that is out of range is named
        return [in_range(t, n, "target") for t in family]

    @staticmethod
    def _normal_part(family):
        return sorted_distinct(list(map(sorted_distinct, family)))

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

    def label_edges(self):
        label = self.actors.labels.__getitem__
        return [(label(a), tuple(map(label, t))) for a, t in self.edges()]

    @property
    def edge_count(self):
        return sum(map(len, self.targets))

    @property
    def has_empty_target(self):
        # families are sorted, so an empty target is the first of its family
        return any(family and not family[0] for family in self.targets)

    @staticmethod
    def part_bits(family):
        """What one actor's family adds to ``stored_bits``: a slot for it, one per
        target set and one per target member."""
        return 64 * (1 + len(family) + sum(map(len, family)))

    def signature(self, i, image):
        """The images under ``image`` of i's target sets, as a frozenset of frozensets."""
        get = image.__getitem__
        return frozenset([frozenset(map(get, t)) for t in self.targets[i]])

    def signatures(self, image):
        """Yield every actor's ``signature`` under ``image``, in actor order, each as a set.

        Each distinct target set's image is made once.
        """
        get, seen = image.__getitem__, {}
        for family in self.targets:
            sig = set()
            for t in family:
                u = seen.get(t)
                if u is None:
                    u = seen[t] = frozenset(map(get, t))
                sig.add(u)
            yield sig

    def support(self, i):
        """The actors that i's signature reads: the union of its target sets, in index order."""
        return tuple(sorted(set(chain.from_iterable(self.targets[i]))))

    def successors(self, nodes):
        """Each actor's target sets as nodes of ``refine``'s edge view.

        ``nodes`` maps each distinct target set, by its index tuple, to its
        node, numbered from n on in order of first sight; a target set not yet
        in it is added, so the structures of one roster share its node.
        """
        n = len(self.actors)
        return [tuple(nodes.setdefault(t, n + len(nodes)) for t in family) for family in self.targets]

    def __repr__(self):
        return f"FHyperStructure({self.label_edges()!r})"


class UndirectedHypergraph:
    """A plain hypergraph: a set of vertex subsets over one ActorSet.

    ``hyperedges`` is a sorted tuple of distinct sorted index tuples.
    """

    __slots__ = ("actors", "hyperedges")

    def __init__(self, actors, hyperedges):
        self.actors = actors
        checked = [in_range(w, len(actors), "vertex") for w in hyperedges]
        self.hyperedges = FHyperStructure._normal_part(checked)

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

    def views(self, mode=None):
        """The structures; an F-structure points one way, so only "out" or None is accepted."""
        if mode not in (None, "out"):
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
    fams = [[] for _ in range(len(u.actors))]
    for w in u.hyperedges:
        for a in w:
            fams[a].append(tuple(x for x in w if x != a))
    return FHyperStructure._from_indices(u.actors, fams)


def is_graph_like(h):
    """True when every target is a singleton, i.e. the structure encodes a relation."""
    return all(len(t) == 1 for family in h.targets for t in family)


def to_relation(h):
    """Collapse a singleton-target structure to the relation it encodes."""
    if not is_graph_like(h):
        raise StructuralError("structure has a non-singleton target; not graph-like")
    # a family of distinct singletons, sorted, lists its members in index order
    return Relation._from_canonical(h.actors, [tuple(t for (t,) in family) for family in h.targets])


def embed_relation(r):
    """The singleton-target structure encoding a relation: (a, {b}) per pair (a, b)."""
    return FHyperStructure._from_canonical(r.actors, [tuple((j,) for j in row) for row in r.out])


# ── the two compositions ─────────────────────────────────────────────────────

def tight_rule(families):
    """The one-family rule of tight composition after k, whose families are ``families``.

    A result depends only on the union of the family's members, so the rule
    keeps one per union, and families with equal unions share it.
    """
    ks, unions = families.__getitem__, {}

    def rule(family):
        members = frozenset(chain.from_iterable(family))
        out = unions.get(members)
        if out is None:
            out = unions[members] = tuple(sorted(set().union(*map(ks, members))))
        return out

    return rule


def tight_compose(k, h):
    """Branch-preserving composite.

    (a, U) is a hyperedge iff h has some (a, V) with a member b such that
    (b, U) is a hyperedge of k.  Each branch through V contributes its own
    target set, so a's family is the union of k's families over the members
    of a's targets.

    Inside a closure the operands come interned: k as its ``PartAction`` and
    h as a tuple of family ids, and the composite's family ids are returned.
    """
    if isinstance(k, PartAction):
        return tuple(map(k.__getitem__, h))
    k.actors.require_same(h.actors)
    return FHyperStructure._from_canonical(h.actors, map(tight_rule(k.targets), h.targets))


def loose_rule(families, prune_empty=False):
    """The one-family rule of loose composition after k, whose families are ``families``.

    Each actor's union of k-targets is made an int mask, bit j for actor j,
    once, so that each W is a few ORs, decoded once per result.
    """
    flat = [index_mask(chain.from_iterable(targets)) for targets in families]

    def rule(family):
        masks = set()
        for v in family:
            w = 0
            for b in v:
                w |= flat[b]
            if w or not prune_empty:
                masks.add(w)
        return tuple(sorted(map(mask_members, masks)))

    return rule


def loose_compose(k, h, prune_empty=False):
    """Branch-merging composite.

    Each hyperedge (a, V) of h yields exactly one hyperedge (a, W) where W is
    the union of every k-target of every member of V.  W may be empty (when V
    is empty or no member of V has k-hyperedges); the literal mode keeps such
    hyperedges, ``prune_empty`` deletes them afterwards.

    Inside a closure the operands come interned: k as its ``PartAction``,
    whose rule fixes ``prune_empty``, and h as a tuple of family ids, and the
    composite's family ids are returned.
    """
    if isinstance(k, PartAction):
        return tuple(map(k.__getitem__, h))
    k.actors.require_same(h.actors)
    fams = map(loose_rule(k.targets, prune_empty), h.targets)
    return FHyperStructure._from_canonical(h.actors, fams)


def prune_empty_targets(h):
    """Drop every hyperedge whose target set is empty."""
    # families are sorted, so an empty target is the first of its family
    return FHyperStructure._from_canonical(
        h.actors, [family[1:] if family and not family[0] else family for family in h.targets]
    )
