"""Role-semigroup generation: closure, Cayley tables, congruences, quotients, homs.

Elements are concrete relations or F-hypergraph structures; identity is
canonical-form equality, never isomorphism.  Words follow the composition
convention in which the leftmost generator name is the last one applied, so
the word "PS" denotes P composed after S.
"""

from .core import MultiNetwork, compose_relations
from .errors import (
    InputError,
    InvariantViolation,
    ResourceLimitError,
    StructuralError,
    WellDefinednessError,
)
from .hypergraph import MultiHypergraph, loose_compose, tight_compose

DEFAULT_CAP = 10_000

COMPOSE_KINDS = ("graph", "tight", "loose")


def composition_for(compose_kind, prune_empty=False):
    """The binary operation named by a composition kind."""
    if compose_kind not in COMPOSE_KINDS:
        raise StructuralError(f"compose kind must be one of {COMPOSE_KINDS}, got {compose_kind!r}")
    if prune_empty and compose_kind != "loose":
        raise StructuralError("prune_empty only applies to loose composition")
    if compose_kind == "graph":
        return compose_relations
    if compose_kind == "tight":
        return tight_compose
    if prune_empty:
        return lambda x, y: loose_compose(x, y, prune_empty=True)
    return loose_compose


class RoleSemigroup:
    """A generated semigroup of concrete relations or hyperstructures.

    ``elements`` lists the closure in discovery (shortest-word) order;
    ``words[i]`` is the generator-index sequence of the earliest shortest word
    for element i; ``cayley[i][j]`` indexes elements[i] composed after
    elements[j] (row = left operand).  The operation the elements were
    closed under must be associative: the table is derived from generator
    products by associativity.
    """

    __slots__ = (
        "elements",
        "words",
        "cayley",
        "generator_names",
        "generator_elements",
        "compose_kind",
        "prune_empty",
        "absorbing",
        "_index",
    )

    def __init__(
        self,
        elements,
        words,
        cayley,
        generator_names,
        generator_elements,
        compose_kind,
        prune_empty,
        absorbing,
    ):
        self.elements = tuple(elements)
        self.words = tuple(tuple(w) for w in words)
        self.cayley = tuple(tuple(row) for row in cayley)
        self.generator_names = tuple(generator_names)
        self.generator_elements = tuple(generator_elements)
        self.compose_kind = compose_kind
        self.prune_empty = prune_empty
        self.absorbing = absorbing
        self._index = {el: i for i, el in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def index_of(self, element):
        try:
            return self._index[element]
        except KeyError:
            raise StructuralError("element is not in this semigroup") from None

    def word_label(self, i):
        return "".join(self.generator_names[g] for g in self.words[i])

    def display_label(self, i):
        """Word label, with "0" standing in for the absorbing element."""
        return "0" if i == self.absorbing else self.word_label(i)

    def word_labels(self):
        return tuple(self.word_label(i) for i in range(len(self.elements)))

    def nonzero_indices(self):
        return tuple(i for i in range(len(self.elements)) if i != self.absorbing)

    def __repr__(self):
        return (
            f"RoleSemigroup({self.compose_kind!r}, {len(self.elements)} elements, "
            f"generators={list(self.generator_names)!r})"
        )


def generate_closure(generators, compose, cap=DEFAULT_CAP, compose_kind="custom", prune_empty=False):
    """Close a named generator list under a composition operation.

    Breadth-first over words by length, then lexicographically by generator
    order, so every element carries its earliest shortest word.  Raises
    ResourceLimitError once the closure, generators included, would exceed
    ``cap`` elements, and InputError for a ``cap`` below 1.

    ``compose`` must be associative.  It is called exactly once per generator
    and element (the left Cayley graph); the Cayley table is then filled from
    that graph, following Froidure and Pin, "Algorithms for computing finite
    semigroups" (1997): the row of x = g*x' is the row of the shorter suffix
    x' mapped through left multiplication by g, since (g*x')*y = g*(x'*y).
    """
    if cap < 1:
        raise InputError(f"cap must be at least 1, got {cap}")
    generators = list(generators)
    if not generators:
        raise InputError("at least one generator is required")
    names = [name for name, _ in generators]
    gens = [g for _, g in generators]

    elements = []
    words = []
    suffix = []  # suffix[x] = x' with words[x] = (words[x][0],) + words[x']; None for generators
    index = {}

    def admit(element, word, rest):
        if len(elements) >= cap:
            raise ResourceLimitError(
                f"closure exceeded the cap of {cap} elements", count=len(elements)
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
    generator_elements = [index[g] for g in gens]

    # left[i][x] indexes gens[i] composed after elements[x]; levels are
    # contiguous index ranges, so appending level by level fills it by position
    left = [[] for _ in gens]
    while level:
        nxt = []
        for i, g in enumerate(gens):
            row = left[i]
            for x in level:
                product = compose(g, elements[x])
                idx = index.get(product)
                if idx is None:
                    idx = admit(product, (i,) + words[x], x)
                    nxt.append(idx)
                row.append(idx)
        level = nxt

    cayley = []
    for x, rest in enumerate(suffix):
        first = left[words[x][0]]
        cayley.append(first if rest is None else [first[z] for z in cayley[rest]])

    absorbing = _find_zero(elements, cayley)
    return RoleSemigroup(
        elements, words, cayley, names, generator_elements, compose_kind, prune_empty, absorbing
    )


def _find_zero(elements, cayley):
    # the zero is the empty structure, and only counts when the table
    # confirms it absorbs on both sides
    for z, el in enumerate(elements):
        if getattr(el, "is_empty", False):
            if all(cayley[z][x] == z and cayley[x][z] == z for x in range(len(elements))):
                return z
            return None
    return None


def role_semigroup(net, compose_kind, prune_empty=False, cap=DEFAULT_CAP):
    """Generate the role semigroup of a multirelational network or hypergraph."""
    op = composition_for(compose_kind, prune_empty)
    if compose_kind == "graph":
        if not isinstance(net, MultiNetwork):
            raise StructuralError("graph composition needs a graph network")
    else:
        if not isinstance(net, MultiHypergraph):
            raise StructuralError(f"{compose_kind} composition needs an F-hypergraph network")
    return generate_closure(
        list(net.relations.items()), op, cap=cap, compose_kind=compose_kind, prune_empty=prune_empty
    )


def find_identity(s):
    """Index of a two-sided identity in the generated table, if present."""
    m = len(s.elements)
    for e in range(m):
        if all(s.cayley[e][x] == x == s.cayley[x][e] for x in range(m)):
            return e
    return None


def multiplication_table(s):
    """Row labels and word-label grid over the nonzero elements.

    The absorbing element's row and column are omitted; entries landing on it
    render as "0".
    """
    idxs = s.nonzero_indices()
    shown = [s.display_label(i) for i in range(len(s))]
    labels = [shown[i] for i in idxs]
    grid = [[shown[s.cayley[i][j]] for j in idxs] for i in idxs]
    return labels, grid


def render_table_csv(s):
    """The multiplication table as CSV text, header "*" then column labels."""
    labels, grid = multiplication_table(s)
    lines = [",".join(["*"] + labels)]
    for label, row in zip(labels, grid):
        lines.append(",".join([label] + row))
    return "\n".join(lines) + "\n"


def _distinct_generators(s):
    # the distinct generator elements are discovered first, as 0..u-1
    return range(len(set(s.generator_elements)))


# ── congruences and quotients ────────────────────────────────────────────────

class ElementCongruence:
    """A partition of a semigroup's elements compatible with its table."""

    __slots__ = ("base", "block_of")

    def __init__(self, base, block_of):
        block_of = tuple(block_of)
        if len(block_of) != len(base.elements):
            raise StructuralError("congruence must assign a class to every element")
        remap = {}
        canon = []
        for b in block_of:
            if b not in remap:
                remap[b] = len(remap)
            canon.append(remap[b])
        self.base = base
        self.block_of = tuple(canon)

    @property
    def num_classes(self):
        return len(set(self.block_of))

    def classes(self):
        out = [[] for _ in range(self.num_classes)]
        for i, b in enumerate(self.block_of):
            out[b].append(i)
        return tuple(tuple(c) for c in out)

    def is_compatible(self):
        """Compatibility with the generators, which implies it with every element."""
        cay = self.base.cayley
        b = self.block_of
        gens = _distinct_generators(self.base)
        for c in self.classes():
            rep = c[0]
            for other in c[1:]:
                for x in gens:
                    if b[cay[x][rep]] != b[cay[x][other]]:
                        return False
                    if b[cay[rep][x]] != b[cay[other][x]]:
                        return False
        return True


def congruence_closure(s, pairs):
    """Least congruence on s containing the given element-index pairs.

    Worklist saturation: whenever two classes merge, their left and right
    multiples by the generators are re-queued until nothing changes.  Every
    element is a product of generators, so the result is compatible with all
    elements.
    """
    m = len(s.elements)
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

    cay = s.cayley
    gens = _distinct_generators(s)
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for g in gens:
            queue.append((cay[g][ra], cay[g][rb]))
            queue.append((cay[ra][g], cay[rb][g]))

    return ElementCongruence(s, [find(i) for i in range(m)])


class TableSemigroup:
    """A finite semigroup given by labels and a Cayley table only."""

    __slots__ = ("labels", "cayley")

    def __init__(self, labels, cayley):
        self.labels = tuple(labels)
        self.cayley = tuple(tuple(row) for row in cayley)

    def __len__(self):
        return len(self.labels)

    def word_label(self, i):
        return self.labels[i]

    display_label = word_label

    def __repr__(self):
        return f"TableSemigroup({list(self.labels)!r})"


class SemigroupHom:
    """A map between semigroups given element-by-element."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        image = tuple(image)
        if len(image) != len(source):
            raise StructuralError("hom must assign an image to every source element")
        self.source = source
        self.target = target
        self.image = image

    @property
    def is_surjective(self):
        return set(self.image) == set(range(len(self.target)))

    def holds(self):
        """Check the homomorphism law over the full tables."""
        scay, tcay, img = self.source.cayley, self.target.cayley, self.image
        for i in range(len(self.source)):
            for j in range(len(self.source)):
                if img[scay[i][j]] != tcay[img[i]][img[j]]:
                    return False
        return True

    def compose_with(self, other):
        """other after self; self.target must be other.source."""
        if other.source is not self.target:
            raise StructuralError("homs do not chain: first target is not second source")
        return SemigroupHom(self.source, other.target, [other.image[i] for i in self.image])

    def __repr__(self):
        return f"SemigroupHom({len(self.source)} -> {len(self.target)}, surjective={self.is_surjective})"


def quotient_semigroup(s, congruence):
    """Quotient table plus the canonical surjection onto it.

    Classes are labelled by brace-joining their members' display labels.
    Raises InvariantViolation if the classes fail compatibility.
    """
    if congruence.base is not s:
        raise StructuralError("congruence belongs to a different semigroup")
    classes = congruence.classes()
    b = congruence.block_of
    reps = [c[0] for c in classes]
    if not congruence.is_compatible():
        raise InvariantViolation("element classes are not a congruence")
    qcay = [[b[s.cayley[ri][rj]] for rj in reps] for ri in reps]
    labels = []
    for c in classes:
        members = [s.display_label(i) for i in c]
        labels.append(members[0] if len(members) == 1 else "{" + ",".join(members) + "}")
    q = TableSemigroup(labels, qcay)
    return q, SemigroupHom(s, q, b)


# ── generator-induced homomorphisms ─────────────────────────────────────────

def _evaluate_word(s, word):
    # word is a generator-index sequence, leftmost applied last
    acc = s.generator_elements[word[-1]]
    for g in reversed(word[:-1]):
        acc = s.cayley[s.generator_elements[g]][acc]
    return acc


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

    image = [_evaluate_word(dst, w) for w in src.words]

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

    # a failure of the hom law anywhere implies one in a generator row (by
    # induction on word length), and those rows come first, so scanning them
    # alone finds the same first witness as a full row-major scan
    for i in _distinct_generators(src):
        for j in range(len(src.elements)):
            prod = src.cayley[i][j]
            expected = dst.cayley[image[i]][image[j]]
            if image[prod] != expected:
                raise WellDefinednessError(
                    src.word_label(prod),
                    src.word_label(i) + src.word_label(j),
                    dst.word_label(image[prod]),
                    dst.word_label(expected),
                )

    return SemigroupHom(src, dst, image)
