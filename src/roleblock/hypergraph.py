"""F-hypergraph structures, their two composition operations, and regularity.

An F-hypergraph assigns to each actor a family of target sets.  A target set
is stored as an int mask, bit j for actor j, as ``Relation`` stores its rows;
the canonical form keeps, per actor, a sorted tuple of distinct masks
(set-of-sets semantics: duplicate targets collapse, multiplicity is never
tracked).  ``_canonical_family`` alone builds it, family by family, for both
constructors and for every structure computed here, and checks that no mask
names an actor index >= n.  Composition, signatures and pushforwards work on
the masks; ``targets``, ``hyperedges`` and ``edges()`` decode them into sorted
index tuples, in sorted order.  An empty target set, mask 0, is a legal
hyperedge target and is distinct from an actor having no hyperedges at all.

Both compositions take an optional ``memo`` dict, valid for one left operand
and ``prune_empty`` value, that keeps the canonical result of each family of
a right operand; ``semigroup.composition_for`` keeps one per left operand.
"""

from functools import reduce
from itertools import chain
from operator import or_

from .core import (
    MultiStructure,
    Relation,
    blockmodel_network,
    bruteforce,
    check_image,
    mask_members,
    refine,
    signatures_agree,
)
from .errors import StructuralError


def _index_masks(families, n, what):
    """Each family of index sets as a list of target masks.

    Every index must lie in range(n); the error names the first one that does
    not, taking the sets in the order given and each set in sorted order.
    """
    out = []
    for family in families:
        masks = []
        for t in family:
            m = 0
            members = iter(t)
            for j in members:
                if not 0 <= j < n:
                    j = min(x for x in (j, *members) if not 0 <= x < n)
                    raise StructuralError(f"{what} index {j} out of range for {n} actors")
                m |= 1 << j
            masks.append(m)
        out.append(masks)
    return out


def _canonical_family(family, n):
    """A family of target masks as a sorted tuple of distinct masks.

    Every mask must lie in range(1 << n), that is, name no index >= n.
    """
    family = sorted(set(family))
    if family and (family[0] < 0 or family[-1] >> n):
        raise StructuralError(f"target set refers to an actor index >= {n}")
    return tuple(family)


def _canonical_masks(families, n):
    """Each family of target masks in canonical form, by ``_canonical_family``."""
    return tuple(_canonical_family(family, n) for family in families)


def _decode(family):
    """A family of masks as a sorted tuple of sorted index tuples."""
    return tuple(sorted(map(mask_members, family)))


def _union(masks):
    return reduce(or_, masks, 0)


def _image_mask(mask, image):
    """The mask of the images under ``image`` of the actors in ``mask``."""
    out = 0
    for j in mask_members(mask):
        out |= 1 << image[j]
    return out


class FHyperStructure:
    """Per-actor families of target sets over one ActorSet, in canonical form."""

    __slots__ = ("actors", "_masks")

    def __init__(self, actors, targets):
        targets = list(targets)
        n = len(actors)
        if len(targets) != n:
            raise StructuralError(f"expected {n} target families, got {len(targets)}")
        self.actors = actors
        self._masks = _canonical_masks(_index_masks(targets, n, "target"), n)

    @classmethod
    def _from_masks(cls, actors, families):
        """Build from one family of target masks per actor; every mask is range-checked."""
        return cls._from_canonical(actors, _canonical_masks(families, len(actors)))

    @classmethod
    def _from_canonical(cls, actors, masks):
        """Build from families that ``_canonical_family`` returned for ``len(actors)``."""
        h = cls.__new__(cls)
        h.actors = actors
        h._masks = tuple(masks)
        return h

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

    @property
    def masks(self):
        """Each actor's family of target masks, a sorted tuple of distinct ints."""
        return self._masks

    @property
    def targets(self):
        """Each actor's target sets as sorted index tuples, in sorted order."""
        return tuple(_decode(family) for family in self._masks)

    def edges(self):
        """Yield (source, target tuple) hyperedges in canonical order."""
        for a, family in enumerate(self._masks):
            for t in sorted(map(mask_members, family)):
                yield a, t

    def label_edges(self):
        label = self.actors.labels.__getitem__
        return [
            (label(a), tuple(map(label, t)))
            for a, family in enumerate(self._masks)
            for t in sorted(map(mask_members, family))
        ]

    @property
    def edge_count(self):
        return sum(map(len, self._masks))

    @property
    def is_empty(self):
        return not any(self._masks)

    @property
    def has_empty_target(self):
        # masks are sorted, so an empty target is the first of its family
        return any(family and not family[0] for family in self._masks)

    def stored_bits(self):
        """What the structure keeps, in bits: each mask's bits plus a 64-bit slot
        per actor and per mask."""
        masks = self._masks
        return 64 * (len(masks) + sum(map(len, masks))) + sum(map(int.bit_length, chain.from_iterable(masks)))

    def signature(self, i, image):
        """The images under ``image`` of i's target sets, as a frozenset of masks."""
        return frozenset(_image_mask(m, image) for m in self._masks[i])

    def support(self, i):
        """The actors that i's signature reads: the union of its target sets."""
        return mask_members(_union(self._masks[i]))

    def successors(self, masks):
        """Each actor's target sets as nodes of ``refine``'s edge view.

        ``masks`` maps each distinct target mask to its node, numbered from n
        on in order of first sight; a mask not yet in it is added, so the
        structures of one roster share the node of a mask.
        """
        n = len(self.actors)
        return [tuple(masks.setdefault(m, n + len(masks)) for m in family) for family in self._masks]

    def pushforward(self, image, target):
        """Image structure on ``target``: (image[a], image[U]) for every hyperedge (a, U)."""
        check_image(image, self.actors, target)
        fams = [set() for _ in range(len(target))]
        for a in range(len(self.actors)):
            fams[image[a]] |= self.signature(a, image)
        return FHyperStructure._from_masks(target, fams)

    def __eq__(self, other):
        return (
            isinstance(other, FHyperStructure)
            and self.actors == other.actors
            and self._masks == other._masks
        )

    def __hash__(self):
        return hash((self.actors.labels, self._masks))

    def __repr__(self):
        return f"FHyperStructure({self.label_edges()!r})"


class UndirectedHypergraph:
    """A plain hypergraph: a set of vertex subsets over one ActorSet."""

    __slots__ = ("actors", "_masks")

    def __init__(self, actors, hyperedges):
        n = len(actors)
        self.actors = actors
        (self._masks,) = _canonical_masks(_index_masks([hyperedges], n, "vertex"), n)

    @classmethod
    def from_label_edges(cls, actors, hyperedges):
        return cls(actors, [[actors.resolve(x) for x in edge] for edge in hyperedges])

    @property
    def hyperedges(self):
        """The hyperedges as sorted index tuples, in sorted order."""
        return _decode(self._masks)

    def label_hyperedges(self):
        labs = self.actors.labels
        return [[labs[j] for j in edge] for edge in self.hyperedges]

    def __eq__(self, other):
        return (
            isinstance(other, UndirectedHypergraph)
            and self.actors == other.actors
            and self._masks == other._masks
        )

    def __hash__(self):
        return hash((self.actors.labels, self._masks))

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
    return tuple(tuple(labs[j] for j in t) for t in _decode(h._masks[a]))


def from_undirected(u):
    """Directed reading of a plain hypergraph.

    Every hyperedge W contributes, for each member a, the hyperedge
    (a, W minus {a}); a singleton hyperedge {a} therefore becomes (a, ()).
    """
    fams = [[] for _ in range(len(u.actors))]
    for w in u._masks:
        for a in mask_members(w):
            fams[a].append(w ^ (1 << a))
    return FHyperStructure._from_masks(u.actors, fams)


def is_graph_like(h):
    """True when every target is a singleton, i.e. the structure encodes a relation."""
    return all(m and not m & (m - 1) for family in h._masks for m in family)


def to_relation(h):
    """Collapse a singleton-target structure to the relation it encodes."""
    if not is_graph_like(h):
        raise StructuralError("structure has a non-singleton target; not graph-like")
    return Relation(h.actors, [_union(family) for family in h._masks])


def embed_relation(r):
    """The singleton-target structure encoding a relation: (a, {b}) per pair (a, b)."""
    fams = [[1 << j for j in mask_members(row)] for row in r.rows]
    return FHyperStructure._from_masks(r.actors, fams)


# ── the two compositions ─────────────────────────────────────────────────────

def tight_compose(k, h, *, memo=None):
    """Branch-preserving composite.

    (a, U) is a hyperedge iff h has some (a, V) with a member b such that
    (b, U) is a hyperedge of k.  Each branch through V contributes its own
    target set, so a's family is the union of k's families over the members
    of a's targets.

    ``memo``, one dict per left operand k, maps each family of h already
    composed with k to its canonical result, so a distinct family is composed
    and range-checked once; without it, each call starts an empty one.
    """
    k.actors.require_same(h.actors)
    if memo is None:
        memo = {}
    ks, n = k._masks, len(h.actors)
    fams = []
    for family in h._masks:
        out = memo.get(family)
        if out is None:
            out = set()
            for b in mask_members(_union(family)):
                out.update(ks[b])
            out = memo[family] = _canonical_family(out, n)
        fams.append(out)
    return FHyperStructure._from_canonical(h.actors, fams)


def loose_compose(k, h, prune_empty=False, *, memo=None):
    """Branch-merging composite.

    Each hyperedge (a, V) of h yields exactly one hyperedge (a, W) where W is
    the union of every k-target of every member of V.  W may be empty (when V
    is empty or no member of V has k-hyperedges); the literal mode keeps such
    hyperedges, ``prune_empty`` deletes them afterwards.

    ``memo``, one dict per left operand k and ``prune_empty`` value, maps
    each family of h already composed to its canonical result, so a distinct
    family is composed and range-checked once, and each actor's union of
    k-targets is built on a call's first miss only; without it, each call
    starts an empty one.
    """
    k.actors.require_same(h.actors)
    if memo is None:
        memo = {}
    n, flat = len(h.actors), None
    fams = []
    for family in h._masks:
        out = memo.get(family)
        if out is None:
            if flat is None:
                flat = [_union(targets) for targets in k._masks]
            out = []
            for v in family:
                w = 0
                for b in mask_members(v):
                    w |= flat[b]
                if w or not prune_empty:
                    out.append(w)
            out = memo[family] = _canonical_family(out, n)
        fams.append(out)
    return FHyperStructure._from_canonical(h.actors, fams)


def prune_empty_targets(h):
    """Drop every hyperedge whose target set is empty."""
    return FHyperStructure._from_masks(h.actors, [[m for m in family if m] for family in h._masks])


# ── blockmodels and regularity: the shared code in ``core`` ─────────────────

blockmodel_multihypergraph = blockmodel_network


def is_regular_hyper(h, e):
    """Equivalent actors have the same family of block-level target sets."""
    return signatures_agree([h], e)


def max_regular_hyper_partition(mh, seed=None):
    """Coarsest partition refining ``seed`` that is regular for every structure."""
    return refine(mh.views(), mh.actors, seed)


def coarsest_regular_hyper_bruteforce(mh):
    """Brute-force oracle for ``max_regular_hyper_partition`` with no seed."""
    return bruteforce(mh.views(), mh.actors)
