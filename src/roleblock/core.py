"""Actors, binary relations, partitions, and regular-equivalence machinery.

A relation is a ``Structure`` whose part, one per actor, is a sorted tuple
of distinct out-neighbour indices, O(n + m) for n actors and m pairs, which
signatures, supports and refinement's edge view read as they are, and a
``Converse`` reads backwards, from the same rows.  Each kind
has one normaliser, ``_normal_part``, from in-range index lists to its part
(for a row, ``sorted_distinct``), which the constructor applies after
``in_range`` and ``Structure._from_indices`` applies unchecked, as
``pushforward`` does to the signatures it joins over each fibre.  Int masks,
bit j for actor j, are built only inside composition, where a role
semigroup's small roster makes a row a machine word or two and a composite a
few ORs.  Everything in this module is an immutable value: operations return
fresh objects and never mutate their inputs.
"""

from collections import Counter
from itertools import accumulate, chain

from .errors import ResourceLimitError, StructuralError

MODES = ("out", "in", "both")

MAX_ENUM_ACTORS = 10
MAX_ORACLE_ACTORS = 8


# the members of every mask below 256, the masks of at most 8 actors
_BYTE_MEMBERS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def mask_members(mask):
    """The indices of the set bits of ``mask``, in increasing order, as a tuple."""
    if mask < 256:
        return _BYTE_MEMBERS[mask]
    out = []
    while mask:
        j = mask.bit_length() - 1
        out.append(j)
        mask ^= 1 << j
    out.reverse()
    return tuple(out)


def sorted_distinct(items):
    """An iterable of hashable, ordered items as a sorted tuple of its distinct items."""
    try:
        size = len(items)
    except TypeError:  # an iterator
        return tuple(sorted(set(items)))
    # most rows and families of a sparse network hold one or two items, and
    # a pair is put in order with no set or list made
    if size == 2:
        a, b = items
        return (a, b) if a < b else (b, a) if b < a else (a,)
    return tuple(items) if size < 2 else tuple(sorted(set(items)))


def in_range(indices, n, what):
    """An iterable of indices as a list, each checked to lie in range(n).

    The error names the smallest index out of range; ``what`` names the index.
    """
    t = list(indices)
    if t and not (0 <= min(t) and max(t) < n):
        j = min(t) if min(t) < 0 else min(j for j in t if j >= n)
        raise StructuralError(f"{what} index {j} out of range for {n} actors")
    return t


def index_mask(indices):
    """The int mask of an iterable of indices, bit j for index j."""
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def check_image(image, source, target):
    """Raise unless ``image`` sends each actor of ``source`` to an index of ``target``."""
    if len(image) != len(source):
        raise StructuralError(f"expected {len(source)} images, got {len(image)}")
    check_indices(image, len(target), "actors")


def check_indices(image, m, what):
    """Raise unless every index in ``image`` lies in range(m); ``what`` names the m things."""
    if image and not (0 <= min(image) and max(image) < m):
        v = next(v for v in image if not 0 <= v < m)
        raise StructuralError(f"image index {v} out of range for {m} {what}")


def fibre_unions(image, sets, m):
    """For each b in range(m), the union of ``sets`` over the fibre of b under ``image``."""
    out = [set() for _ in range(m)]
    for b, items in zip(image, sets):
        out[b] |= items
    return out


def canonical_blocks(block_of):
    """Block numbers renumbered by first occurrence, and how many blocks there are."""
    remap = {}
    return tuple(remap.setdefault(b, len(remap)) for b in block_of), len(remap)


def block_lists(block_of, count):
    """The members of each of ``count`` canonically numbered blocks, in index order."""
    out = [[] for _ in range(count)]
    for i, b in enumerate(block_of):
        out[b].append(i)
    return tuple(tuple(c) for c in out)


class ActorSet:
    """An ordered roster of distinct actor labels; indices follow roster order."""

    __slots__ = ("labels", "index")

    def __init__(self, labels):
        labels = tuple(labels)
        if not (set(map(type, labels)) <= {str} and "" not in labels):
            # only to name the first label that is not a non-empty string
            for lab in labels:
                if not isinstance(lab, str) or not lab:
                    raise StructuralError(f"actor labels must be non-empty strings, got {lab!r}")
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            dupes = sorted(lab for lab, count in Counter(labels).items() if count > 1)
            raise StructuralError(f"duplicate actor labels: {', '.join(dupes)}")
        self.labels = labels
        self.index = index

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, ActorSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"ActorSet({list(self.labels)!r})"

    def resolve(self, label):
        try:
            return self.index[label]
        except KeyError:
            raise StructuralError(f"unknown actor {label!r}") from None

    def require_same(self, other):
        if self != other:
            raise StructuralError("operands live on different actor sets")


class Structure:
    """One part per actor of an ActorSet, a coalgebra X -> F(X): ``parts[i]`` is i's part.

    A part is a row for a ``Relation`` and a family of target sets for an
    ``FHyperStructure``.  A subclass names parts with ``_noun``, checks one with
    ``_in_range(part, n)``, makes one canonical with ``_normal_part`` and weighs
    one with ``part_bits``; ``pushforward`` joins the sets its ``signatures`` yields.
    """

    __slots__ = ("actors", "parts")

    def __init__(self, actors, parts):
        parts = tuple(parts)
        n = len(actors)
        if len(parts) != n:
            raise StructuralError(f"expected {n} {self._noun}, got {len(parts)}")
        self.actors = actors
        self.parts = tuple(self._normal_part(self._in_range(part, n)) for part in parts)

    @classmethod
    def _from_canonical(cls, actors, parts):
        """Build from one part per actor, each already in the form ``_normal_part`` gives."""
        s = cls.__new__(cls)
        s.actors = actors
        s.parts = tuple(parts)
        return s

    @classmethod
    def _from_indices(cls, actors, parts):
        """Build from one part per actor, in-range index lists, put through ``_normal_part``."""
        return cls._from_canonical(actors, map(cls._normal_part, parts))

    @property
    def is_empty(self):
        return not any(self.parts)

    def pushforward(self, image, target):
        """The structure on ``target`` along ``image``: its part at b is F(image)
        of every part over b, joined, so a relation gets (image[i], image[j]) for
        each pair (i, j) and an F-structure (image[a], image[U]) for each (a, U)."""
        check_image(image, self.actors, target)
        return self._from_indices(target, fibre_unions(image, self.signatures(image), len(target)))

    def stored_bits(self):
        """What the structure keeps, in bits: the sum of ``part_bits`` over its parts."""
        return sum(map(self.part_bits, self.parts))

    def edges(self):
        """Yield (actor, item) for each item of each actor's part, in canonical order."""
        for i, part in enumerate(self.parts):
            for item in part:
                yield i, item

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.actors == other.actors
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash(self.parts)


class Relation(Structure):
    """A binary relation on an ActorSet; ``out[i]`` is i's out-neighbours, a sorted index tuple.

    ``out`` gives, per actor, an iterable of out-neighbour indices; duplicates collapse.
    """

    __slots__ = ()
    _noun = "rows"
    out = Structure.parts
    pairs = Structure.edges
    _normal_part = staticmethod(sorted_distinct)

    @staticmethod
    def _in_range(row, n):
        return in_range(row, n, "out-neighbour")

    @classmethod
    def from_pairs(cls, actors, pairs):
        n = len(actors)
        out = [[] for _ in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise StructuralError(f"pair ({i}, {j}) out of range for {n} actors")
            out[i].append(j)
        return cls._from_indices(actors, out)

    @classmethod
    def from_label_pairs(cls, actors, pairs):
        return cls.from_pairs(actors, [(actors.resolve(a), actors.resolve(b)) for a, b in pairs])

    def label_pairs(self):
        labs = self.actors.labels
        return [(labs[i], labs[j]) for i, j in self.pairs()]

    def transpose(self):
        """The converse relation, each actor's in-neighbours read as its row."""
        into = [[] for _ in self.out]
        for v, row in enumerate(self.out):
            for u in row:
                into[u].append(v)
        return Relation._from_canonical(self.actors, map(tuple, into))

    def has(self, i, j):
        return j in self.out[i]

    @staticmethod
    def part_bits(row):
        """What one actor's row adds to ``stored_bits``: a slot for it and one per member."""
        return 64 * (1 + len(row))

    def signature(self, i, image):
        """The images of i's out-neighbours under ``image`` (a sequence of indices)."""
        return frozenset(map(image.__getitem__, self.out[i]))

    def signatures(self, image):
        """Yield every actor's ``signature`` under ``image``, in actor order, each as a set."""
        for row in self.out:
            sig = set()
            for j in row:
                sig.add(image[j])
            yield sig

    def support(self, i):
        """The actors that i's signature reads: its out-neighbours."""
        return self.out[i]

    def successors(self, nodes):
        """Each actor's out-neighbours as an index tuple: its part of ``refine``'s edge view.

        A relation has no target sets, so it adds nothing to ``nodes``.
        """
        return self.out

    def __repr__(self):
        return f"Relation({sorted(self.label_pairs())!r})"


class Converse:
    """A relation read backwards from its own rows: i's part is its in-neighbours.

    It offers what a view offers, ``signature``, ``signatures``, ``support``
    and ``successors``, and holds only the relation: ``signatures`` makes
    every actor's set in one pass over ``out``, and ``successors`` hands
    itself to ``refine``'s edge view, which reads the rows backwards.  Only
    ``signature`` and ``support``, the brute-force oracle's one-actor reads,
    need the in-rows: the rows of ``Relation.transpose``, built once, on
    their first call.
    """

    __slots__ = ("relation", "_rows")

    def __init__(self, relation):
        self.relation = relation
        self._rows = None

    @property
    def actors(self):
        return self.relation.actors

    def _in_rows(self):
        if self._rows is None:
            self._rows = self.relation.transpose().out
        return self._rows

    def signature(self, i, image):
        """The images of i's in-neighbours under ``image`` (a sequence of indices)."""
        return frozenset(map(image.__getitem__, self._in_rows()[i]))

    def signatures(self, image):
        """Every actor's ``signature`` under ``image``, in actor order, each as a set.

        An edge u -> v of the relation adds ``image[u]`` to v's set.
        """
        out = self.relation.out
        sigs = [set() for _ in out]
        for b, row in zip(image, out):
            for v in row:
                sigs[v].add(b)
        return iter(sigs)

    def support(self, i):
        """The actors that i's signature reads: its in-neighbours, in index order."""
        return self._in_rows()[i]

    def successors(self, nodes):
        """Itself: ``refine``'s edge view reads the relation's rows backwards.

        A relation has no target sets, so it adds nothing to ``nodes``.
        """
        return self


class Partition:
    """A partition of an ActorSet with first-occurrence canonical block numbering."""

    __slots__ = ("actors", "block_of", "num_blocks")

    def __init__(self, actors, block_of):
        block_of, count = canonical_blocks(block_of)
        if len(block_of) != len(actors):
            raise StructuralError(f"expected {len(actors)} block assignments, got {len(block_of)}")
        self.actors = actors
        self.block_of = block_of
        self.num_blocks = count

    @classmethod
    def universal(cls, actors):
        return cls(actors, [0] * len(actors))

    @classmethod
    def discrete(cls, actors):
        return cls(actors, range(len(actors)))

    @classmethod
    def from_blocks(cls, actors, blocks):
        """Build from index blocks; they must be disjoint and cover every actor."""
        block_of = [None] * len(actors)
        for b, block in enumerate(blocks):
            for i in block:
                if not (0 <= i < len(actors)):
                    raise StructuralError(f"actor index {i} out of range")
                if block_of[i] is not None:
                    where = "twice in one block" if block_of[i] == b else "in two blocks"
                    raise StructuralError(f"actor {actors.labels[i]!r} occurs {where}")
                block_of[i] = b
        missing = [actors.labels[i] for i, b in enumerate(block_of) if b is None]
        if missing:
            raise StructuralError(f"actors missing from partition: {', '.join(missing)}")
        return cls(actors, block_of)

    @classmethod
    def from_label_blocks(cls, actors, blocks):
        return cls.from_blocks(actors, [[actors.resolve(lab) for lab in block] for block in blocks])

    def blocks(self):
        return block_lists(self.block_of, self.num_blocks)

    def label_blocks(self):
        labs = self.actors.labels
        return [[labs[i] for i in block] for block in self.blocks()]

    def same_block(self, i, j):
        return self.block_of[i] == self.block_of[j]

    def refines(self, other):
        """True when every block of self sits inside a single block of other."""
        self.actors.require_same(other.actors)
        theirs = {}
        return all(theirs.setdefault(b, c) == c for b, c in zip(self.block_of, other.block_of))

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.actors == other.actors
            and self.block_of == other.block_of
        )

    def __hash__(self):
        return hash((self.actors.labels, self.block_of))

    def __repr__(self):
        return f"Partition({self.label_blocks()!r})"


class MultiStructure:
    """One actor roster carrying named structures, in declaration order.

    A structure is a ``Relation`` or an ``FHyperStructure``, each a ``Structure``
    that reads its own kind of part in ``signature``, ``signatures``,
    ``support`` and ``successors``; a ``Converse`` reads a relation's rows
    backwards through the same four methods.  The shared regularity, refinement,
    brute-force and validation code reads the structures that ``views``
    selects, and a blockmodel pushes each forward through the one
    ``Structure.pushforward``.
    """

    __slots__ = ("actors", "relations")

    def __init__(self, actors, relations):
        items = list(relations.items()) if isinstance(relations, dict) else list(relations)
        seen = set()
        rels = {}
        for name, rel in items:
            _check_relation_name(name, seen)
            rel.actors.require_same(actors)
            rels[name] = rel
        self.actors = actors
        self.relations = rels

    @property
    def names(self):
        return tuple(self.relations)

    def pushforward(self, image, target):
        """Every structure pushed forward along ``image`` onto ``target``."""
        return type(self)(
            target, [(name, s.pushforward(image, target)) for name, s in self.relations.items()]
        )

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.actors == other.actors
            and self.relations == other.relations
            and self.names == other.names
        )

    def __repr__(self):
        return f"{type(self).__name__}({list(self.actors.labels)!r}, {list(self.relations)!r})"


class MultiNetwork(MultiStructure):
    """Named binary relations on one roster."""

    __slots__ = ()

    def views(self, mode=None):
        """The relations ("out"), their ``Converse`` readers ("in") or both ("both" or None)."""
        if mode not in (None, *MODES):
            raise StructuralError(f"mode must be one of {MODES}, got {mode!r}")
        rels = self.relations.values()
        return chain(
            rels if mode != "in" else (),
            map(Converse, rels) if mode != "out" else (),
        )


def _check_relation_name(name, seen):
    if not isinstance(name, str) or not name:
        raise StructuralError(f"relation names must be non-empty strings, got {name!r}")
    if name == "0":
        raise StructuralError("relation name '0' is reserved for the absorbing element")
    if name in seen:
        raise StructuralError(f"duplicate relation name {name!r}")
    seen.add(name)


# ── composition and the constant relations ──────────────────────────────────

class PartTable:
    """The distinct parts a closure reaches, each interned once: ``parts[i]`` has id i.

    A part is one actor's entry in a ``Structure``'s ``parts``, a row or a
    target family.  Given ``part_bits``, ``bits[i]`` caches what part i adds
    to a structure's ``stored_bits()``, counted when it is interned.
    """

    __slots__ = ("parts", "ids", "bits", "part_bits")

    def __init__(self, part_bits=None):
        self.parts = []
        self.ids = {}
        self.bits = []
        self.part_bits = part_bits

    def intern(self, part):
        """The id of ``part``, given the next free one on first sight."""
        i = self.ids.get(part)
        if i is None:
            i = self.ids[part] = len(self.parts)
            self.parts.append(part)
            if self.part_bits is not None:
                self.bits.append(self.part_bits(part))
        return i


class PartAction(dict):
    """A left operand's action on the parts of a ``PartTable``: part id -> part id.

    Every composition is per actor: actor a's part of k after h depends only
    on k and on a's part of h.  ``rule`` maps one part of h to that part of
    the composite; the rule makers ``row_rule``, ``hypergraph.tight_rule``
    and ``hypergraph.loose_rule`` build it from k's parts, so an action acts
    for one compose kind (and ``prune_empty`` value).  An id not yet in the
    action is filled on first sight by the rule, its result interned.
    """

    __slots__ = ("table", "rule")

    def __init__(self, table, rule):
        super().__init__()
        self.table = table
        self.rule = rule

    def __missing__(self, i):
        table = self.table
        j = self[i] = table.intern(self.rule(table.parts[i]))
        return j


def row_rule(rows):
    """The one-row rule of composing after a relation with rows ``rows``.

    A row maps to the union of its members' rows, each made an int mask, bit
    j for actor j, once, so that a composite row is a few ORs, decoded once.
    """
    masks = list(map(index_mask, rows))

    def rule(row):
        acc = 0
        for u in row:
            acc |= masks[u]
        return mask_members(acc)

    return rule


def compose_relations(r2, r1):
    """Composite relation: (v, w) holds iff some u has (v, u) in r1 and (u, w) in r2.

    The argument order follows the word convention in which the left operand
    is applied last, so ``compose_relations(p, s)`` reads "p after s".

    Inside a closure the operands come interned: r2 as its ``PartAction``
    and r1 as a tuple of row ids, and the composite's row ids are returned.
    """
    if isinstance(r2, PartAction):
        return tuple(map(r2.__getitem__, r1))
    r2.actors.require_same(r1.actors)
    return Relation._from_canonical(r1.actors, map(row_rule(r2.out), r1.out))


def identity_relation(actors):
    """The diagonal relation {(x, x)}; the unit for composition."""
    return Relation._from_canonical(actors, [(i,) for i in range(len(actors))])


def empty_relation(actors):
    """The all-zero relation; the absorbing element for composition."""
    return Relation._from_canonical(actors, [()] * len(actors))


# ── blockmodels ──────────────────────────────────────────────────────────────

def quotient_actor_set(e):
    """Actor set of a quotient: one actor per block, labelled {m1,m2,...}.

    Member labels are sorted lexicographically inside the braces; a "#k"
    suffix disambiguates in the unlikely event two blocks render identically.
    """
    labels = []
    used = {}
    for block in e.blocks():
        members = sorted(e.actors.labels[i] for i in block)
        lab = "{" + ",".join(members) + "}"
        if lab in used:
            used[lab] += 1
            lab = f"{lab}#{used[lab]}"
        else:
            used[lab] = 1
        labels.append(lab)
    return ActorSet(labels)


def blockmodel_network(net, e):
    """Quotient of every structure of a network by a partition.

    Block X relates to block Y iff some member of X relates to some member of
    Y: the pushforward along the quotient map, whose image is ``e.block_of``.
    """
    net.actors.require_same(e.actors)
    return net.pushforward(e.block_of, quotient_actor_set(e))


# ── regularity checks ────────────────────────────────────────────────────────

def signatures_agree(structures, e):
    """True when, in every structure, all actors of a block have one signature.

    That is regularity of e: the signature of i is the block-level image of
    its out-neighbours or targets, and two equivalent actors must see the
    same blocks.  Each structure signs its actors in one ``signatures`` pass,
    read only up to the first actor whose signature differs from its block's
    first; ``structures`` may be lazy and is consumed only up to that failure.
    """
    block_of = e.block_of
    for s in structures:
        s.actors.require_same(e.actors)
        first = {}
        for b, sig in zip(block_of, s.signatures(block_of)):
            if first.setdefault(b, sig) != sig:
                return False
    return True


def is_outward_regular(r, e):
    """Equivalent actors have out-edges, or families of target sets, into the same blocks."""
    return signatures_agree([r], e)


def is_inward_regular(r, e):
    """Mirror of the outward check with every edge reversed."""
    return signatures_agree([Converse(r)], e)


def network_passes(net, e, mode=None):
    """True when e passes the check against every structure that ``net.views(mode)`` selects."""
    return signatures_agree(net.views(mode), e)


# ── coarsest regular partition: refinement and brute force ──────────────────

def _predecessors(structures, actors):
    """The edge view of ``structures`` on ``actors``, as each node's in-edges.

    Nodes 0..n-1 are the n actors; ``successors`` numbers one more node per
    distinct target set, keyed by its index tuple.  Structure t gives label
    t, for k structures, and each target-set node has an edge labelled k to
    each of its members.

    Edge u -> v with label l is the entry l * N + u of ``pred[v]``, for N
    nodes in all, or ~(l * N + u) when it is u's only edge with label l.
    Returns ``pred``, N, the number of labels, each node's label set as a
    mask (bit l when it has an edge labelled l) and ``degree``, which maps
    each entry of two or more edges to their number.

    When ``successors`` gives a ``Converse``, its label reads the relation's
    rows backwards: u's in-degrees come from one pass over ``out``, and
    ``pred[v]`` is ``out[v]``'s entries.  Each entry is one int object,
    shared by every list it is in.
    """
    nodes = {}
    lists = []
    for s in structures:
        s.actors.require_same(actors)
        lists.append(s.successors(nodes))
    k, n = len(lists), len(actors)
    lists.append(nodes)  # its keys, in node order, are the members of nodes n, n + 1, ...
    size = n + len(nodes)
    pred = [[] for _ in range(size)]
    label_sets = [0] * size
    degree = {}
    for t, out in enumerate(lists):
        bit, base = 1 << t, t * size
        if isinstance(out, Converse):
            rows = out.relation.out
            entries = [0] * n  # first each actor's in-degree, then its entry
            for row in rows:
                for u in row:
                    entries[u] += 1
            for u, d in enumerate(entries):
                if d:
                    label_sets[u] |= bit
                    entry = base + u
                    if d == 1:
                        entries[u] = ~entry
                    else:
                        degree[entry] = d
                        entries[u] = entry
            for preds, row in zip(pred, rows):
                for u in row:
                    preds.append(entries[u])
            continue
        for u, vs in enumerate(out, n if t == k else 0):
            if vs:
                label_sets[u] |= bit
                entry = base + u  # one int object, shared by every list it is in
                if len(vs) == 1:
                    pred[vs[0]].append(~entry)
                else:
                    degree[entry] = len(vs)
                    for v in vs:
                        pred[v].append(entry)
    return pred, size, k + 1, label_sets, degree


def refine(structures, actors, seed=None):
    """Coarsest partition refining ``seed`` that is regular for every structure.

    Counting refinement after Paige & Tarjan (1987), over an edge view read
    once per call from each structure's ``successors``.  An F-structure is read
    as a two-sorted system (Wißmann et al., LMCS 2020): actor i has an edge to
    one node per target set, and that node an edge to each member, so its
    signature is the family of block-level target sets.  A node's signature
    is the set of (label, block) keys of its out-edges, and each node keeps a
    count per key.

    Every node starts in one block, block 0, where an entry's count is its
    out-degree, so a node's signature is its set of edge labels.  The seed's
    blocks, with the target-set nodes in a block of their own, split by label
    set are therefore pieces of block 0 whose members share a signature.  As
    at every split (Hopcroft 1971), the largest piece keeps number 0 and only
    the others move out of it, in the first round, so no round visits every
    edge just to count it.

    A round starts from the nodes that moved in the round before, each from
    block b to a fresh block c: only their predecessors' counts change.  A
    touched node's new signature is its old one plus the keys whose count
    rose from zero (all with a fresh block) minus the keys whose count fell to
    zero.  Every node of a block had one signature before the round, so the
    touched members of a block are grouped by that (added, removed) delta,
    and an untouched member keeps the old signature, which no touched member
    has.

    A block splits into its untouched rest and one piece per delta.  The
    largest piece keeps the block's number; every other piece takes a fresh
    number and its members move.  A node therefore moves only into a piece at
    most half its old block, so at most log2 N times, and a move costs its
    in-degree: O((n + m) log n) for m edges, whatever the degrees.  Blocks are
    ranges of one array of nodes (Valmari 2010), so a split moves only the
    touched members.

    A node alone in its block is settled: it never splits again, so its
    counts and deltas are never read again, and a round skips it as a
    predecessor.  A block whose touched members form one piece that covers
    it does not split, and is left as it is.  Both only remove work.

    The fixpoint is the unique coarsest regular refinement of the seed, so
    the canonically numbered result does not depend on processing order.
    """
    if seed is None:
        seed = Partition.universal(actors)
    seed.actors.require_same(actors)
    n = len(actors)
    pred, size, labels, label_sets, count = _predecessors(structures, actors)
    span = labels * size
    # the first split: (seed block, label set) -> its nodes; the target-set
    # nodes' seed block is one past the seed's last
    pieces = {}
    for v, b in enumerate(chain(seed.block_of, [seed.num_blocks] * (size - n))):
        pieces.setdefault(b << labels | label_sets[v], []).append(v)
    blocks = sorted(pieces.values(), key=len, reverse=True)  # the largest keeps number 0
    del label_sets, pieces
    # block b holds elems[first[b]:end[b]]; loc[v] is v's place in elems
    elems = [v for block in blocks for v in block]
    end = list(accumulate(map(len, blocks)))
    first = [e - len(block) for e, block in zip(end, blocks)]
    block_of = [0] * size
    loc = [0] * size
    for p, v in enumerate(elems):
        loc[v] = p
    # alone[v]: v is settled, the one member of its block
    alone = bytearray(size)
    for b, block in enumerate(blocks):
        for v in block:
            block_of[v] = b
        if len(block) == 1:
            alone[block[0]] = 1
    del blocks
    # count[b * span + entry]: how many of that entry's edges lead into block
    # b; an edge that is its source's only one with its label needs no count
    moved = [(c, 0) for c in range(1, len(first))]
    while moved:
        # each touched node's delta: key b * labels + l added, ~key removed
        delta = {}
        for c, b in moved:
            fresh, stale = c * span, b * span
            for v in elems[first[c]:end[c]]:
                for entry in pred[v]:
                    if entry < 0:
                        entry = ~entry
                        u = entry % size
                        if alone[u]:
                            continue
                        keys = delta.setdefault(u, [])
                        keys.append(~((stale + entry) // size))
                        keys.append((fresh + entry) // size)
                        continue
                    u = entry % size
                    if alone[u]:
                        continue
                    key = stale + entry
                    left = count[key] - 1
                    if left:
                        count[key] = left
                    else:
                        del count[key]
                        delta.setdefault(u, []).append(~(key // size))
                    key = fresh + entry
                    got = count.get(key)
                    if got:
                        count[key] = got + 1
                    else:
                        count[key] = 1
                        delta.setdefault(u, []).append(key // size)
        by_block = {}
        for u, keys in delta.items():
            keys.sort()
            by_block.setdefault(block_of[u], {}).setdefault(tuple(keys), []).append(u)
        moved = []
        for b, groups in by_block.items():
            if len(groups) == 1 and len(next(iter(groups.values()))) == end[b] - first[b]:
                continue  # one piece that covers the block: nothing splits
            # lay the touched members out at the end of b's range, piece by piece
            lo = hi = end[b]
            ranges = []
            for piece in groups.values():
                for v in piece:
                    lo -= 1
                    p, w = loc[v], elems[lo]
                    elems[p], loc[w] = w, p
                    elems[lo], loc[v] = v, lo
                ranges.append((lo, hi))
                hi = lo
            largest = max(ranges, key=lambda r: r[1] - r[0])
            if lo - first[b] < largest[1] - largest[0]:
                # the untouched rest is smaller than a touched piece, so it moves
                ranges.remove(largest)
                if lo > first[b]:
                    ranges.append((first[b], lo))
                first[b], end[b] = largest
            else:
                end[b] = lo
            if end[b] - first[b] == 1:
                alone[elems[first[b]]] = 1
            for lo, hi in ranges:
                c = len(first)
                first.append(lo)
                end.append(hi)
                for v in elems[lo:hi]:
                    block_of[v] = c
                if hi - lo == 1:
                    alone[elems[lo]] = 1
                moved.append((c, b))
    return Partition(actors, block_of[:n])


def max_regular_partition(net, mode=None, seed=None):
    """Coarsest regular refinement of ``seed`` for the ``views(mode)`` of either kind of network."""
    return refine(net.views(mode), net.actors, seed)


def enumerate_partitions(actors):
    """Yield every partition of the actors once, in restricted-growth order."""
    n = len(actors)
    if n > MAX_ENUM_ACTORS:
        raise ResourceLimitError(
            f"partition enumeration is capped at {MAX_ENUM_ACTORS} actors, got {n}", count=n
        )

    def gen():
        a = [0] * n
        m = [0] * n  # m[i] = max(a[0..i])
        while True:
            yield Partition(actors, a)
            i = n - 1
            while i > 0 and a[i] == m[i - 1] + 1:
                i -= 1
            if i <= 0:
                return
            a[i] += 1
            m[i] = max(m[i - 1], a[i])
            for j in range(i + 1, n):
                a[j] = 0
                m[j] = m[i]

    return gen()


def bruteforce(structures, actors):
    """The coarsest regular partition, by branch-and-bound over partitions (oracle).

    The search reads only ``signature`` and ``support`` and never refines.  It
    places actors in index order and tries block numbers in ascending order,
    so its depth-first walk meets the leaves in restricted-growth order
    (Knuth, TAOCP 7.2.1.5), the order of ``enumerate_partitions``.  It
    returns the first regular partition with the fewest blocks in that order.
    No other regular partition has that few blocks: the join of two regular
    partitions is regular, so every regular partition refines the coarsest.

    Two cuts drop a branch with all its leaves:

    - Bound: its block count has reached that of the best leaf so far.
      Placing an actor never lowers the count, so no leaf below is better.
    - Signature: i's signature in a structure is complete once i and every
      actor of ``support(i)`` are placed.  The branch is cut when it differs
      from the first complete signature of that structure in i's block.
      Placed actors never move, so the two differ at every leaf below.

    A leaf is reached when each signature equals the first of its block, so
    exactly the regular leaves survive, in restricted-growth order.
    """
    structures = list(structures)
    n = len(actors)
    if n > MAX_ORACLE_ACTORS:
        raise ResourceLimitError(
            f"brute-force search is capped at {MAX_ORACLE_ACTORS} actors, got {n}", count=n
        )
    # ready[d]: (structure t, its signature, actor i) for each signature complete at d
    ready = [[] for _ in range(n)]
    for t, s in enumerate(structures):
        s.actors.require_same(actors)
        for i in range(n):
            ready[max((i, *s.support(i)))].append((t, s.signature, i))
    # block[j]: actor j's block; no complete signature reads an unplaced one
    block = [0] * n
    # first[b][t]: the first complete signature of structure t in block b
    first = [[None] * len(structures) for _ in range(n)]
    best, best_count = None, n + 1

    def place(d, count):
        nonlocal best, best_count
        if d == n:
            best, best_count = block[:], count
            return
        for b in range(count + 1):
            grown = count + (b == count)
            if grown >= best_count:
                break
            block[d] = b
            kept = []
            for t, signature, i in ready[d]:
                firsts = first[block[i]]
                sig = signature(i, block)
                if firsts[t] is None:
                    firsts[t] = sig
                    kept.append((firsts, t))
                elif firsts[t] != sig:
                    break
            else:
                place(d + 1, grown)
            for firsts, t in kept:
                firsts[t] = None

    place(0, 0)
    del place  # it calls itself through its cell: free that cycle now, not in the collector
    return Partition(actors, best)


def coarsest_regular_bruteforce(net, mode=None):
    """Brute-force oracle for ``max_regular_partition`` with no seed, on either kind of network."""
    return bruteforce(net.views(mode), net.actors)
