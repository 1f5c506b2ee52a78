"""Actors, binary relations, partitions, and regular-equivalence machinery.

Relations are stored as per-row target bitmasks, so equality and hashing are
bitwise and composition is a handful of integer ORs per actor.  Everything in
this module is an immutable value: operations return fresh objects and never
mutate their inputs.
"""

from itertools import chain

from .errors import ResourceLimitError, StructuralError

MODES = ("out", "in", "both")

MAX_ENUM_ACTORS = 10
MAX_ORACLE_ACTORS = 8


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_mode(mode):
    if mode not in MODES:
        raise StructuralError(f"mode must be one of {MODES}, got {mode!r}")


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
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise StructuralError(f"actor labels must be non-empty strings, got {lab!r}")
        if len(set(labels)) != len(labels):
            dupes = sorted({lab for lab in labels if labels.count(lab) > 1})
            raise StructuralError(f"duplicate actor labels: {', '.join(dupes)}")
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}

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


class Relation:
    """A binary relation on an ActorSet; ``rows[i]`` has bit ``j`` set iff (i, j) holds."""

    __slots__ = ("actors", "rows")

    def __init__(self, actors, rows):
        rows = tuple(rows)
        n = len(actors)
        if len(rows) != n:
            raise StructuralError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for row in rows:
            if row & ~full:
                raise StructuralError("relation row refers to an actor index >= n")
        self.actors = actors
        self.rows = rows

    @classmethod
    def from_pairs(cls, actors, pairs):
        n = len(actors)
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise StructuralError(f"pair ({i}, {j}) out of range for {n} actors")
            rows[i] |= 1 << j
        return cls(actors, rows)

    @classmethod
    def from_label_pairs(cls, actors, pairs):
        return cls.from_pairs(actors, [(actors.resolve(a), actors.resolve(b)) for a, b in pairs])

    def pairs(self):
        """Yield index pairs in row-major order."""
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                yield i, j

    def label_pairs(self):
        labs = self.actors.labels
        return [(labs[i], labs[j]) for i, j in self.pairs()]

    @property
    def is_empty(self):
        return not any(self.rows)

    def transpose(self):
        n = len(self.actors)
        rows = [0] * n
        for i, j in self.pairs():
            rows[j] |= 1 << i
        return Relation(self.actors, rows)

    def has(self, i, j):
        return bool(self.rows[i] >> j & 1)

    def signature(self, i, image):
        """The images of i's out-neighbours under ``image`` (a sequence of indices)."""
        return frozenset(image[j] for j in _bits(self.rows[i]))

    def support(self, i):
        """The actors that i's signature reads: its out-neighbours."""
        return _bits(self.rows[i])

    def pushforward(self, image, target):
        """Image relation on ``target``: (image[i], image[j]) for every pair (i, j)."""
        rows = [0] * len(target)
        for i, j in self.pairs():
            rows[image[i]] |= 1 << image[j]
        return Relation(target, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.actors == other.actors
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.actors.labels, self.rows))

    def __repr__(self):
        return f"Relation({sorted(self.label_pairs())!r})"


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
                    raise StructuralError(f"actor {actors.labels[i]!r} occurs in two blocks")
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

    A structure is a ``Relation`` or an ``FHyperStructure``; both give
    ``signature``, ``support`` and ``pushforward``, which is all that the
    shared regularity, refinement, blockmodel and validation code asks of
    them.
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
    def k(self):
        return len(self.relations)

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

    def views(self, mode="both"):
        """The relations ("out"), their transposes ("in") or both, transposed lazily."""
        _check_mode(mode)
        rels = self.relations.values()
        return chain(
            rels if mode != "in" else (),
            (r.transpose() for r in rels) if mode != "out" else (),
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

def compose_relations(r2, r1):
    """Composite relation: (v, w) holds iff some u has (v, u) in r1 and (u, w) in r2.

    The argument order follows the word convention in which the left operand
    is applied last, so ``compose_relations(p, s)`` reads "p after s".
    """
    r2.actors.require_same(r1.actors)
    rows = []
    for mids in r1.rows:
        acc = 0
        for u in _bits(mids):
            acc |= r2.rows[u]
        rows.append(acc)
    return Relation(r1.actors, rows)


def identity_relation(actors):
    """The diagonal relation {(x, x)}; the unit for composition."""
    return Relation(actors, [1 << i for i in range(len(actors))])


def empty_relation(actors):
    """The all-zero relation; the absorbing element for composition."""
    return Relation(actors, [0] * len(actors))


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
    same blocks.  One pass over the edges; ``structures`` may be lazy and is
    consumed only up to the first failure.
    """
    block_of = e.block_of
    for s in structures:
        s.actors.require_same(e.actors)
        first = {}
        for i, b in enumerate(block_of):
            sig = s.signature(i, block_of)
            if first.setdefault(b, sig) != sig:
                return False
    return True


def is_outward_regular(r, e):
    """Equivalent actors have out-edges into the same blocks."""
    return signatures_agree([r], e)


def is_inward_regular(r, e):
    """Mirror of the outward check with every edge reversed."""
    return signatures_agree([r.transpose()], e)


def is_regular(r, e):
    return is_outward_regular(r, e) and is_inward_regular(r, e)


def network_passes(net, e, mode="both"):
    """True when e passes the selected check against every relation of net."""
    return signatures_agree(net.views(mode), e)


# ── coarsest regular partition: refinement and brute force ──────────────────

def refine(structures, actors, seed=None):
    """Coarsest partition refining ``seed`` that is regular for every structure.

    Worklist refinement after Paige & Tarjan, with Hopcroft's "all but the
    largest piece" rule.  The first round signs every actor.  A later round
    re-signs only the actors whose ``support`` in some structure holds an
    actor that moved in the round before; any other actor reads the same
    block numbers as before, so its signature is unchanged.

    A round splits each block it touched into its untouched members, as one
    piece, and one piece per signature among its touched members.  No touched
    member has the untouched members' signature: it reads a moved actor, and a
    moved actor's block number is newer than any block the untouched members
    read.  The largest piece keeps the block's number; every other piece takes
    a fresh number and its members move.  An actor therefore moves only into a
    piece at most half its old block, so at most log2 n times, and an actor is
    re-signed once per move of an actor it reads.

    The fixpoint is the unique coarsest regular refinement of the seed, so
    the canonically numbered result does not depend on processing order.
    """
    if seed is None:
        seed = Partition.universal(actors)
    seed.actors.require_same(actors)
    structures = list(structures)
    readers = [[] for _ in range(len(actors))]
    for i in range(len(actors)):
        for j in set(chain.from_iterable(s.support(i) for s in structures)):
            readers[j].append(i)
    block_of = list(seed.block_of)
    members = [set(block) for block in seed.blocks()]
    touched = range(len(actors))
    while touched:
        by_block = {}
        for i in touched:
            by_block.setdefault(block_of[i], []).append(i)
        moved = []
        for b, group in by_block.items():
            by_signature = {}
            for i in group:
                key = tuple(s.signature(i, block_of) for s in structures)
                by_signature.setdefault(key, []).append(i)
            pieces = list(by_signature.values())
            block = members[b]
            rest = len(block) - len(group)
            largest = max(pieces, key=len)
            if rest < len(largest):
                # the untouched rest is smaller than a touched piece, so it moves
                pieces.remove(largest)
                if rest:
                    pieces.append(block.difference(group))
            for piece in pieces:
                block.difference_update(piece)
                moved.append((len(members), piece))
                members.append(set(piece))
        # renumber after the round, so that all its signatures read one numbering
        for c, piece in moved:
            for i in piece:
                block_of[i] = c
        touched = {r for _, piece in moved for i in piece for r in readers[i]}
    return Partition(actors, block_of)


def max_regular_partition(net, mode="both", seed=None):
    """Coarsest regular refinement of ``seed`` for the relations selected by ``mode``."""
    return refine(net.views(mode), net.actors, seed)


def enumerate_partitions(actors):
    """Yield every partition of the actors once, in restricted-growth order."""
    n = len(actors)
    if n > MAX_ENUM_ACTORS:
        raise ResourceLimitError(
            f"partition enumeration is capped at {MAX_ENUM_ACTORS} actors, got {n}", count=n
        )

    def gen():
        if n == 0:
            yield Partition(actors, ())
            return
        a = [0] * n
        m = [0] * n  # m[i] = max(a[0..i])
        while True:
            yield Partition(actors, a)
            i = n - 1
            while i > 0 and a[i] == m[i - 1] + 1:
                i -= 1
            if i == 0:
                return
            a[i] += 1
            m[i] = max(m[i - 1], a[i])
            for j in range(i + 1, n):
                a[j] = 0
                m[j] = m[i]

    return gen()


def bruteforce(structures, actors):
    """Scan every partition and return the coarsest regular one (oracle).

    Ties in block count are broken by enumeration order; the discrete
    partition always passes, so a result always exists.
    """
    structures = list(structures)
    n = len(actors)
    if n > MAX_ORACLE_ACTORS:
        raise ResourceLimitError(
            f"brute-force search is capped at {MAX_ORACLE_ACTORS} actors, got {n}", count=n
        )
    best = None
    for p in enumerate_partitions(actors):
        if best is not None and p.num_blocks >= best.num_blocks:
            continue
        if signatures_agree(structures, p):
            best = p
    return best


def coarsest_regular_bruteforce(net, mode="both"):
    """Brute-force oracle for ``max_regular_partition`` with no seed."""
    return bruteforce(net.views(mode), net.actors)
