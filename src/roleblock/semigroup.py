"""Role-semigroup generation: closure, Cayley graphs, congruences, quotients, homs.

Elements are concrete relations or F-hypergraph structures; identity is
canonical-form equality, never isomorphism.  Words follow the composition
convention in which the leftmost generator name is the last one applied, so
the word "PS" denotes P composed after S.
"""

from collections.abc import Sequence
from functools import partial
from operator import itemgetter

from .core import (
    MultiNetwork,
    PartAction,
    PartTable,
    Relation,
    block_lists,
    canonical_blocks,
    check_indices,
    compose_relations,
    row_rule,
)
from .errors import (
    InputError,
    InvariantViolation,
    ResourceLimitError,
    StructuralError,
    WellDefinednessError,
)
from .hypergraph import FHyperStructure, MultiHypergraph, loose_compose, tight_compose
from .hypergraph import loose_rule, tight_rule

DEFAULT_CAP = 10_000

# A closure may keep cap * BITS_PER_ELEMENT bits of elements, summed over what
# each element's ``stored_bits()`` reports: 8 KiB per element of the cap, room
# for 1,024 index slots of 64 bits, so about 78 MiB at the default cap.
BITS_PER_ELEMENT = 8 * 8192

# per compose kind: the network type it closes, its structure type and its one-part rule maker
_KINDS = {
    "graph": (MultiNetwork, Relation, row_rule),
    "tight": (MultiHypergraph, FHyperStructure, tight_rule),
    "loose": (MultiHypergraph, FHyperStructure, loose_rule),
}

COMPOSE_KINDS = tuple(_KINDS)


def composition_for(compose_kind, prune_empty=False):
    """The binary operation ``op(k, h)`` of a composition kind.

    Each call goes through the compose function's name in this module,
    looked up at the call, so a wrapper set on that name sees it.  On two
    structures a call composes afresh with the kind's one-part rule;
    ``role_semigroup`` passes k as a ``core.PartAction`` that keeps the rule
    and its results for the whole closure, and h as a tuple of part ids.
    """
    if compose_kind not in COMPOSE_KINDS:
        raise StructuralError(f"compose kind must be one of {COMPOSE_KINDS}, got {compose_kind!r}")
    if prune_empty and compose_kind != "loose":
        raise StructuralError("prune_empty only applies to loose composition")
    if compose_kind == "graph":
        return lambda k, h: compose_relations(k, h)
    if compose_kind == "tight":
        return lambda k, h: tight_compose(k, h)
    return lambda k, h: loose_compose(k, h, prune_empty)


class RoleSemigroup:
    """A generated semigroup of concrete relations or hyperstructures.

    ``elements`` lists the closure in discovery (shortest-word) order;
    ``words[i]`` is the generator-index sequence of the earliest shortest word
    for element i, ``suffix[i]`` the element whose word is ``words[i]``
    without its first letter and ``prefix[i]`` the one without its last
    letter (each None for a generator).  The semigroup keeps its
    two Cayley graphs, not its table: ``left[a][i]`` indexes generator a
    composed after elements[i] and ``right[a][i]`` elements[i] composed after
    generator a, k·m entries for k generators and m elements.  The operation
    the elements were closed under must be associative: every other product
    is derived from these by associativity.

    ``row(i)`` gives the products of elements[i] with every element, derived
    in O(m·|word|); ``product(i, j)`` traces words[j] through ``right`` in
    O(|word|).  ``cayley`` is a read-only view over ``row``: ``cayley[i][j]``
    indexes elements[i] composed after elements[j] (row = left operand), and
    no m² table is ever stored.

    Built by ``generate_closure``, whose elements are relations or
    hyperstructures, and by ``quotient_semigroup``, whose elements are its
    classes as tuples of base indices; each hands over its finished tuples
    to be stored as given, and its element index or None, for one built on
    the first ``index_of`` call.  ``empty`` indexes the empty
    structure (or its class), None if there is none; ``absorbing`` is
    ``empty`` when that absorbs on both sides, else None.
    """

    __slots__ = (
        "elements",
        "words",
        "suffix",
        "prefix",
        "left",
        "right",
        "generator_names",
        "generator_elements",
        "compose_kind",
        "prune_empty",
        "empty",
        "absorbing",
        "_index",
    )

    def __init__(
        self, elements, words, suffix, prefix, left, right, index, generator_names,
        generator_elements, compose_kind, prune_empty, empty,
    ):
        self.elements = elements
        self.words = words
        self.suffix = suffix
        self.prefix = prefix
        self.left = left
        self.right = right
        self._index = index
        self.generator_names = generator_names
        self.generator_elements = generator_elements
        self.compose_kind = compose_kind
        self.prune_empty = prune_empty
        self.empty = empty
        self.absorbing = _first_zero_or_identity(self, () if empty is None else (empty,), zero=True)

    def __len__(self):
        return len(self.words)

    @property
    def cayley(self):
        """The Cayley table as a read-only ``CayleyView``."""
        return CayleyView(self)

    def row(self, i):
        """Indices of elements[i] composed after each element, as a tuple."""
        word, left = self.words[i], self.left
        row = left[word[-1]]
        for a in word[-2::-1]:
            row = _pick(left[a], row)
        return row

    def product(self, i, j):
        """Index of elements[i] composed after elements[j]."""
        right = self.right
        for a in self.words[j]:
            i = right[a][i]
        return i

    def index_of(self, element):
        """Index of an element equal to ``element``; the index is built on first use."""
        index = self._index
        if index is None:
            index = self._index = {x: i for i, x in enumerate(self.elements)}
        try:
            return index[element]
        except KeyError:
            raise StructuralError("element is not in this semigroup") from None

    def word_label(self, i):
        return "".join(self.generator_names[g] for g in self.words[i])

    def display_label(self, i):
        """Word label, with "0" standing in for the absorbing element."""
        return "0" if i == self.absorbing else self.word_label(i)

    def word_labels(self):
        """Every element's word label: its first letter's name before its suffix's label."""
        names, labels = self.generator_names, []
        for word, rest in zip(self.words, self.suffix):
            labels.append(names[word[0]] + ("" if rest is None else labels[rest]))
        return tuple(labels)

    def nonzero_indices(self):
        return tuple(i for i in range(len(self)) if i != self.absorbing)

    def __repr__(self):
        return (
            f"RoleSemigroup({self.compose_kind!r}, {len(self)} elements, "
            f"generators={list(self.generator_names)!r})"
        )


class CayleyView(Sequence):
    """The Cayley table of a ``RoleSemigroup``, derived on demand and never stored.

    ``view[i]`` is ``s.row(i)``.  Iterating derives each row from its
    prefix's row, one BFS level back, with one prebuilt pick, and keeps only
    the rows of that level and the current one.
    """

    __slots__ = ("_s",)

    def __init__(self, s):
        self._s = s

    def __len__(self):
        return len(self._s)

    def __getitem__(self, i):
        return self._s.row(i)

    def __iter__(self):
        return _rows(self._s, range(len(self._s)))


def _pick(seq, idxs):
    """The items of ``seq`` at the indices ``idxs``, as a tuple."""
    return itemgetter(*idxs)(seq) if len(idxs) > 1 else tuple(seq[i] for i in idxs)


def _rows(s, cells, last=None):
    # each element x's tuple of cells[x*y] over the elements y in index order,
    # ``last`` moved to the end.  x = p*h for its prefix p, one BFS level back
    # (shortlex words are prefix-closed), so x's row is p's row picked at h's
    # left edges; a generator's prefix is the empty word
    left, words = s.left, s.words
    cols = [y for y in range(len(s)) if y != last] + ([] if last is None else [last])
    at = {y: j for j, y in enumerate(cols)}
    pick = [tuple] * len(left)  # one element: its row is its one cell
    if len(cols) > 1:
        pick = [itemgetter(*map(at.get, _pick(row, cols))) for row in left]
    base, previous, current, depth = _pick(cells, cols), {}, {}, 1
    for x, p in enumerate(s.prefix):
        word = words[x]
        if len(word) > depth:
            previous, current, depth = current, {}, len(word)
        row = current[x] = pick[word[-1]](base if p is None else previous[p])
        yield row


def generate_closure(generators, compose, cap=DEFAULT_CAP):
    """Close a named generator list under a composition operation.

    Breadth-first over words by length, then lexicographically by generator
    order, so every element carries its earliest shortest word.  Raises
    InputError for a ``cap`` below 1, and ResourceLimitError once the closure,
    generators included, would exceed ``cap`` elements or keep more than
    ``cap * BITS_PER_ELEMENT`` bits of elements, as their ``stored_bits()``
    counts them (an element without that method counts towards ``cap`` only).

    ``compose`` must be associative: both Cayley graphs rely on it, so a
    non-associative ``compose`` gives a different closure than one compose
    call per generator and element would.  Following Froidure and Pin,
    "Algorithms for computing finite semigroups" (1997), the BFS composes
    only reduced products.  Let x's word be words[p] followed by the letter
    h, where p is x's prefix element.  If g*p has a word other than
    (g,) + words[p], then g*x = (g*p)*h is a right edge of a known element
    and takes no compose call; otherwise, and when x is a generator, g*x is
    composed.  The right Cayley graph takes no compose call either and is
    filled level by level during the search, with no second pass: once a
    level's left edges are in, x = g*x' times generator h is g*(x'*h), a left
    edge from the right edge of the suffix x', one level back.  No Cayley
    table is built; see ``RoleSemigroup``.

    ``role_semigroup`` runs the same search over interned parts: there an
    element is a tuple of part ids, and a product maps each id through the
    generator's part action, so the index hashes n small ints.
    """
    generators = list(generators)
    gens = [g for _, g in generators]
    op = lambda i, x: compose(gens[i], x)
    return _closure(generators, op, cap, "custom", False, _stored_bits, None)


def _stored_bits(element):
    size = getattr(element, "stored_bits", None)
    return size() if size else 0


def _closure(generators, compose, cap, compose_kind, prune_empty, weigh, materialise):
    # generate_closure's search, with ``compose(i, x)`` composing generator i
    # after x and each element's stored bits given by ``weigh`` (None when
    # they cannot exceed the budget); given ``materialise``, the elements are
    # stored as it maps them, and indexed on the first ``index_of`` call
    if cap < 1:
        raise InputError(f"cap must be at least 1, got {cap}")
    if not generators:
        raise InputError("at least one generator is required")
    names = tuple(name for name, _ in generators)
    gens = [g for _, g in generators]

    elements = []
    words = []
    suffix = []  # suffix[x] = x' with words[x] = (words[x][0],) + words[x']; None for generators
    index = {}
    budget = cap * BITS_PER_ELEMENT
    stored = 0

    def admit(element, word, rest):
        nonlocal stored
        if len(elements) >= cap:
            raise ResourceLimitError(
                f"closure exceeded the cap of {cap} elements", count=len(elements)
            )
        if weigh is not None:
            stored += weigh(element)
        if stored > budget:
            raise ResourceLimitError(
                f"closure exceeded the memory budget of {budget // 8192} KiB "
                f"({BITS_PER_ELEMENT // 8192} KiB per element of the cap of {cap})",
                count=len(elements),
            )
        idx = index[element] = len(elements)
        elements.append(element)
        words.append(word)
        suffix.append(rest)
        return idx

    level = []
    for i, g in enumerate(gens):
        if g not in index:
            level.append(admit(g, (i,), None))
    generator_elements = tuple(index[g] for g in gens)

    # left[i][x] indexes gens[i] composed after elements[x], right[h][x]
    # elements[x] composed after gens[h]; levels are contiguous index ranges,
    # so appending level by level fills both by position
    left = [[] for _ in gens]
    right = [[] for _ in gens]
    # prefix[x]: the element whose word is words[x] without its last letter
    # (None for generators)
    prefix = [None] * len(elements)

    while level:
        nxt = []
        for i, row in enumerate(left):
            for x in level:
                p = prefix[x]
                if p is not None:
                    y = row[p]
                    if suffix[y] != p or words[y][0] != i:
                        # g*prefix(x) has a shorter or earlier word than
                        # (i,) + words[p], so g*x is its right edge y*h, which
                        # is f*(y'*h) for y = f*y': y' lies a level back, so
                        # y'*h is in right, and that left edge is filled
                        h, rest = words[x][-1], suffix[y]
                        z = generator_elements[h] if rest is None else right[h][rest]
                        row.append(left[words[y][0]][z])
                        continue
                product = compose(i, elements[x])
                idx = index.get(product)
                if idx is None:
                    idx = admit(product, (i,) + words[x], x)
                    prefix.append(generator_elements[i] if p is None else row[p])
                    nxt.append(idx)
                row.append(idx)
        # the level's left edges are in: x = f*x' composed after gens[h] is
        # f*(x'*h), a left edge from the right edge of x', one level back
        for g, col in zip(generator_elements, right):
            for x in level:
                rest = suffix[x]
                col.append(left[words[x][0]][g if rest is None else col[rest]])
        level = nxt

    if materialise is not None:
        elements, index = map(materialise, elements), None
    elements = tuple(elements)
    empty = next((z for z, el in enumerate(elements) if getattr(el, "is_empty", False)), None)
    return RoleSemigroup(
        elements, tuple(words), tuple(suffix), tuple(prefix), tuple(map(tuple, left)),
        tuple(map(tuple, right)), index, names, generator_elements, compose_kind, prune_empty, empty,
    )


def role_semigroup(net, compose_kind, prune_empty=False, cap=DEFAULT_CAP):
    """Generate the role semigroup of a multirelational network or hypergraph.

    The closure runs over interned parts.  Each distinct row or target
    family it reaches is interned once in a ``PartTable``, each element is
    searched as the tuple of its actors' part ids, and each distinct
    generator acts on part ids through its ``PartAction``: a product maps n
    ids and is found by hashing them.  Each reduced product is one call of
    the kind's compose function, through its name in this module.  The
    memory budget sums each element's ``stored_bits()`` from bits cached per
    part.  The elements are then built as ``Relation``s or
    ``FHyperStructure``s that share the table's part tuples.
    """
    op = composition_for(compose_kind, prune_empty)
    net_type, structure, make_rule = _KINDS[compose_kind]
    if not isinstance(net, net_type):
        if compose_kind == "graph":
            raise StructuralError("graph composition needs a graph network")
        raise StructuralError(f"{compose_kind} composition needs an F-hypergraph network")
    if prune_empty:
        make_rule = partial(make_rule, prune_empty=True)
    table = PartTable(structure.part_bits)
    by_ids, generators = {}, []
    for name, g in net.relations.items():
        ids = tuple(map(table.intern, g.parts))
        if ids not in by_ids:
            by_ids[ids] = PartAction(table, make_rule(g.parts))
        generators.append((name, ids))
    actions = [by_ids[ids] for _, ids in generators]
    bits, parts, actors = table.bits, table.parts, net.actors
    n = len(actors)
    # a relation on n actors keeps at most n * (n + 1) slots, so for n up to
    # 31 the cap is always met before the budget, and no element is weighed
    weigh = lambda x: sum(map(bits.__getitem__, x))
    if compose_kind == "graph" and 64 * n * (n + 1) <= BITS_PER_ELEMENT:
        weigh = None
    return _closure(
        generators, lambda i, x: op(actions[i], x), cap, compose_kind, prune_empty, weigh,
        lambda x: structure._from_canonical(actors, _pick(parts, x)),
    )


def find_identity(s):
    """Index of the two-sided identity of the semigroup, if present.

    Checked against the generators only, for each e with elements[0]*e = elements[0].
    """
    row = s.left[s.words[0][0]]
    return _first_zero_or_identity(s, [e for e, g in enumerate(row) if g == 0], zero=False)


def _labelled_rows(s, form):
    """The nonzero elements' labels, ``form`` of each ``display_label``, and an
    iterator of (label, row of labels) per nonzero element, without the zero's column."""
    labels = list(s.word_labels())
    if s.absorbing is not None:
        labels[s.absorbing] = "0"
    shown = list(map(form, labels))
    idxs = s.nonzero_indices()
    zero, n = s.absorbing, len(idxs)
    rows = ((shown[x], row[:n]) for x, row in enumerate(_rows(s, shown, zero)) if x != zero)
    return [shown[i] for i in idxs], rows


def multiplication_table(s):
    """Row labels and word-label grid over the nonzero elements.

    The absorbing element's row and column are omitted; entries landing on it
    render as "0".
    """
    labels, rows = _labelled_rows(s, str)
    return labels, [list(row) for _, row in rows]


def _csv_field(label):
    """``label`` as one CSV field, quoted per RFC 4180 when it must be."""
    if "," in label or '"' in label or "\r" in label or "\n" in label:
        return '"' + label.replace('"', '""') + '"'
    return label


def render_table_csv(s, write=None):
    """The multiplication table as CSV, header "*" then column labels.

    The table of ``multiplication_table``, one line per row; a label holding
    a comma, a quote, CR or LF is quoted.  Returns the text; given ``write``,
    passes it each line as it is rendered instead and keeps only the rows
    that ``CayleyView`` iteration keeps, as labels with the zero's column
    last: a line is one pick of its prefix's row, one slice and one join.
    """
    if write is None:
        lines = []
        render_table_csv(s, lines.append)
        return "".join(lines)
    labels, rows = _labelled_rows(s, _csv_field)
    write(",".join(["*"] + labels) + "\n")
    for label, row in rows:
        write(label + "," + ",".join(row) + "\n")


def _generator_graphs(s):
    # (g, left, right) per distinct generator element g: its row g*x and its
    # column x*g.  The distinct generator elements are discovered first, as
    # 0..u-1; every element is a product of them, so a law that holds on their
    # rows and columns holds on every element, by induction on word length
    letters = [s.words[g][0] for g in range(len(set(s.generator_elements)))]
    return [(g, s.left[a], s.right[a]) for g, a in enumerate(letters)]


def _first_zero_or_identity(s, candidates, zero):
    # the first candidate that is the zero (else the identity) of the generators
    gens = _generator_graphs(s)
    for e in candidates:
        if all(right[e] == left[e] == (e if zero else g) for g, left, right in gens):
            return e
    return None


# ── congruences and quotients ────────────────────────────────────────────────

class ElementCongruence:
    """A partition of a semigroup's elements compatible with its table."""

    __slots__ = ("base", "block_of", "num_classes")

    def __init__(self, base, block_of):
        block_of, count = canonical_blocks(block_of)
        if len(block_of) != len(base):
            raise StructuralError("congruence must assign a class to every element")
        self.base = base
        self.block_of = block_of
        self.num_classes = count

    def classes(self):
        return block_lists(self.block_of, self.num_classes)

    def is_compatible(self):
        """Whether the partition is a congruence, checked on generator edges."""
        return _quotient_graphs(self.base, self.block_of, self.num_classes) is not None


def _quotient_graphs(s, block_of, count):
    # (reps, left, right) of the quotient by canonically numbered classes, or
    # None if they are no congruence.  reps[c] is class c's first member.  A
    # partition is a congruence exactly when every member's generator edges
    # land in the classes where its first member's land: every element is a
    # product of generators, so that extends to every multiplier
    reps = []
    for x, c in enumerate(block_of):
        if c == len(reps):
            reps.append(x)
    graphs = []
    for edges in (s.left, s.right):
        rows = []
        for row in edges:
            landed = _pick(block_of, row)
            qrow = _pick(landed, reps)
            if _pick(qrow, block_of) != landed:
                return None
            rows.append(qrow)
        graphs.append(tuple(rows))
    return reps, *graphs


def congruence_closure(s, pairs):
    """Least congruence on s containing the given element-index pairs.

    Worklist saturation: whenever two classes merge, their left and right
    multiples by the generators are re-queued until nothing changes.
    """
    m = len(s)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = []
    for a, b in pairs:
        if not (0 <= a < m and 0 <= b < m):
            raise StructuralError(f"element pair ({a}, {b}) out of range")
        queue.append((a, b))

    graphs = [(left, right) for _, left, right in _generator_graphs(s)]
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for left, right in graphs:
            queue.append((left[ra], left[rb]))
            queue.append((right[ra], right[rb]))

    return ElementCongruence(s, [find(i) for i in range(m)])


class SemigroupHom:
    """A map between semigroups given element-by-element."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        image = tuple(image)
        if len(image) != len(source):
            raise StructuralError("hom must assign an image to every source element")
        check_indices(image, len(target), "elements")
        self.source = source
        self.target = target
        self.image = image

    @property
    def is_surjective(self):
        return set(self.image) == set(range(len(self.target)))

    def holds(self):
        """Check the homomorphism law on the source's generator rows.

        Asks for an associative target.
        """
        return self._first_failure() is None

    def _first_failure(self):
        # generator rows come first, so the first failing (row, column) among
        # them is also the first of a full row-major scan
        img, target = self.image, self.target
        for g, row, _ in _generator_graphs(self.source):
            trow = target.row(img[g])
            for j, x in enumerate(row):
                if img[x] != trow[img[j]]:
                    return g, j
        return None

    def compose_with(self, other):
        """other after self; self.target must be other.source."""
        if other.source is not self.target:
            raise StructuralError("homs do not chain: first target is not second source")
        return SemigroupHom(self.source, other.target, [other.image[i] for i in self.image])

    def __repr__(self):
        return f"SemigroupHom({len(self.source)} -> {len(self.target)}, surjective={self.is_surjective})"


def quotient_semigroup(s, congruence):
    """The quotient by a congruence, plus the canonical surjection onto it.

    The quotient is a ``RoleSemigroup`` over the same generator names, whose
    elements are the classes: the classes of the generators generate it.
    Classes are numbered by first member, whose word is the class's earliest
    shortest word, so they come in the order the quotient's own closure would
    list them.  Its Cayley graphs are the classes of the base's edges from
    each first member, k·q entries; no product is computed.  Raises
    InvariantViolation if the classes fail compatibility.
    """
    if congruence.base is not s:
        raise StructuralError("congruence belongs to a different semigroup")
    b = congruence.block_of
    graphs = _quotient_graphs(s, b, congruence.num_classes)
    if graphs is None:
        raise InvariantViolation("element classes are not a congruence")
    reps, left, right = graphs
    classes = congruence.classes()
    # a first member's suffix and prefix are the first members of their own
    # classes: a shorter or earlier word for one of those classes would give
    # one for the member too
    suffix = tuple(None if s.suffix[r] is None else b[s.suffix[r]] for r in reps)
    prefix = tuple(None if s.prefix[r] is None else b[s.prefix[r]] for r in reps)
    q = RoleSemigroup(
        classes, _pick(s.words, reps), suffix, prefix, left, right, None,
        s.generator_names, _pick(b, s.generator_elements), s.compose_kind, s.prune_empty,
        None if s.empty is None else b[s.empty],
    )
    return q, SemigroupHom(s, q, b)


# ── generator-induced homomorphisms ─────────────────────────────────────────

def generator_induced_hom(src, dst):
    """Map each source element, via its word, to the target element of that word.

    Requires matching generator name lists and the same composition kind.
    Raises WellDefinednessError with a witness pair of words when the map is
    not independent of word choice; the witness words agree in the source but
    evaluate to different target elements.
    """
    if src.generator_names != dst.generator_names:
        raise StructuralError("generator name lists differ")
    if (src.compose_kind, src.prune_empty) != (dst.compose_kind, dst.prune_empty):
        raise StructuralError("composition kinds differ")

    # a generator's word is one letter; any other element's image is its
    # first letter's left edge from its suffix's image
    image = []
    for word, rest in zip(src.words, src.suffix):
        a = word[0]
        image.append(dst.generator_elements[a] if rest is None else dst.left[a][image[rest]])

    # duplicate generators in the source must stay duplicated in the target
    for i in range(len(src.generator_names)):
        e = src.generator_elements[i]
        if image[e] != dst.generator_elements[i]:
            raise WellDefinednessError(
                src.word_label(e),
                src.generator_names[i],
                dst.word_label(image[e]),
                dst.word_label(dst.generator_elements[i]),
            )

    hom = SemigroupHom(src, dst, image)
    failure = hom._first_failure()
    if failure is None:
        return hom
    i, j = failure
    prod, expected = src.product(i, j), dst.product(image[i], image[j])
    raise WellDefinednessError(
        src.word_label(prod),
        src.word_label(i) + src.word_label(j),
        dst.word_label(image[prod]),
        dst.word_label(expected),
    )
