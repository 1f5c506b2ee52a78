"""Shared fuzz generators and independent oracles for the test-suite.

The oracles here stay deliberately naive (nested loops over label pairs,
direct quantifier translation) so they exercise a different code path from
the library implementations they check.
"""

import csv
import io

from roleblock import (
    BITS_PER_ELEMENT,
    ActorSet,
    FHyperStructure,
    InputError,
    MultiHypergraph,
    MultiNetwork,
    Partition,
    Relation,
    ResourceLimitError,
    RoleSemigroup,
    StructuralError,
    UndirectedHypergraph,
)
from roleblock.core import MAX_ORACLE_ACTORS, enumerate_partitions
from roleblock.documents import KINDS


def actors(n, prefix="v"):
    return ActorSet([f"{prefix}{i}" for i in range(n)])


def random_relation(rng, acts, density=0.25):
    n = len(acts)
    pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
    return Relation.from_pairs(acts, pairs)


def random_network(rng, n=4, k=2, density=0.25):
    acts = actors(n)
    return MultiNetwork(
        acts, [(f"R{i}", random_relation(rng, acts, density)) for i in range(k)]
    )


def random_fhyper(rng, acts, max_edges=2, max_target=2):
    fams = []
    for _ in range(len(acts)):
        fam = []
        for _ in range(rng.randint(0, max_edges)):
            size = rng.randint(0, min(max_target, len(acts)))
            fam.append(rng.sample(range(len(acts)), size))
        fams.append(fam)
    return FHyperStructure(acts, fams)


def random_multihyper(rng, n=4, k=2, max_edges=2, max_target=2):
    acts = actors(n)
    return MultiHypergraph(
        acts, [(f"H{i}", random_fhyper(rng, acts, max_edges, max_target)) for i in range(k)]
    )


def random_partition(rng, acts):
    n = len(acts)
    if n == 0:
        return Partition(acts, ())
    width = rng.randint(1, n)
    return Partition(acts, [rng.randrange(width) for _ in range(n)])


# Bad pushforward images and their messages: a short image, an index >= the
# target's size and a negative index, on 3 actors.
BAD_IMAGES = [
    ([0, 1], "expected 3 images, got 2"),
    ([0, 5, 1], "image index 5 out of range for 3 actors"),
    ([0, -1, 1], "image index -1 out of range for 3 actors"),
]


# ── independent oracles ──────────────────────────────────────────────────────

def compose_oracle(r2, r1):
    """Triple loop over all (v, u, w); checks every intermediate directly."""
    n = len(r1.actors)
    pairs = []
    for v in range(n):
        for w in range(n):
            if any(r1.has(v, u) and r2.has(u, w) for u in range(n)):
                pairs.append((v, w))
    return Relation.from_pairs(r1.actors, pairs)


def tight_oracle(k, h):
    """Per-branch concatenation, written straight from the defining clause."""
    edges = []
    for a, v_set in h.edges():
        for b in v_set:
            for u_set in k.targets[b]:
                edges.append((a, u_set))
    return FHyperStructure.from_edges(h.actors, edges)


def loose_oracle(k, h):
    """Union-of-targets concatenation; one hyperedge per source hyperedge."""
    edges = []
    for a, v_set in h.edges():
        union = set()
        for b in v_set:
            for u_set in k.targets[b]:
                union.update(u_set)
        edges.append((a, tuple(sorted(union))))
    return FHyperStructure.from_edges(h.actors, edges)


def pruned_loose_oracle(k, h):
    """``loose_oracle`` with every empty target set dropped."""
    literal = loose_oracle(k, h)
    return FHyperStructure(h.actors, [[t for t in family if t] for family in literal.targets])


# (compose kind, prune_empty) -> its oracle
COMPOSE_ORACLES = {
    ("graph", False): compose_oracle,
    ("tight", False): tight_oracle,
    ("loose", False): loose_oracle,
    ("loose", True): pruned_loose_oracle,
}


# A tuple-form reference for the bitmask F-structures: per actor, a sorted
# tuple of distinct sorted index tuples.  ``families`` below is always in that
# form, as ``naive_canonical_families`` returns it.

def naive_canonical_families(families, n, what):
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


def naive_edges(families):
    """(source, target tuple) hyperedges in canonical order."""
    return [(a, t) for a, family in enumerate(families) for t in family]


def naive_signature(families, i, image):
    """The images under ``image`` of i's target sets, as sorted index tuples."""
    return frozenset(tuple(sorted({image[j] for j in t})) for t in families[i])


def naive_support(families, i):
    """The union of i's target sets."""
    return {j for t in families[i] for j in t}


def naive_is_graph_like(families):
    return all(all(len(t) == 1 for t in family) for family in families)


def naive_has_empty_target(families):
    return any(() in family for family in families)


def naive_outward_regular(r, e):
    """Pairwise check: for equivalent a, a2 and every edge (a, b), a2 has an
    edge into b's block."""
    n = len(r.actors)
    for a in range(n):
        for a2 in range(n):
            if a2 == a or not e.same_block(a, a2):
                continue
            for b in range(n):
                if r.has(a, b) and not any(
                    r.has(a2, b2) and e.same_block(b, b2) for b2 in range(n)
                ):
                    return False
    return True


def naive_pushforward(s, f):
    """Image of a relation or F-structure along an actor map, edge by edge."""
    if isinstance(s, Relation):
        return Relation.from_pairs(f.target, [(f.image[i], f.image[j]) for i, j in s.pairs()])
    return FHyperStructure.from_edges(
        f.target, [(f.image[a], [f.image[j] for j in t]) for a, t in s.edges()]
    )


def naive_preserves(f, src, dst):
    """Every (hyper)edge of src maps onto a (hyper)edge of dst."""
    if isinstance(src, Relation):
        return all(dst.has(f.image[i], f.image[j]) for i, j in src.pairs())
    for a, t in src.edges():
        if tuple(sorted({f.image[j] for j in t})) not in dst.targets[f.image[a]]:
            return False
    return True


def naive_reflects(f, src, dst):
    """Every (hyper)edge out of f(a) is the image of a (hyper)edge out of a."""
    n = len(f.source)
    if isinstance(src, Relation):
        return all(
            any(src.has(a, a2) and f.image[a2] == b2 for a2 in range(n))
            for a in range(n)
            for b2 in range(len(f.target))
            if dst.has(f.image[a], b2)
        )
    for a in range(n):
        images = {tuple(sorted({f.image[j] for j in t})) for t in src.targets[a]}
        if any(U not in images for U in dst.targets[f.image[a]]):
            return False
    return True


def _match_both_ways(u_set, u2_set, e):
    forward = all(any(e.same_block(u, u2) for u2 in u2_set) for u in u_set)
    backward = all(any(e.same_block(u, u2) for u in u_set) for u2 in u2_set)
    return forward and backward


def pp_bisimulation_oracle(h, e):
    """Two-clause lifted condition, both directions, over all equivalent pairs.

    Clause one asks every target of a to be matched at a2; clause two asks the
    mirror.  The library's regularity check tests clause one only (the mirror
    follows from symmetry of the partition); this oracle checks both.
    """
    n = len(h.actors)
    for a in range(n):
        for a2 in range(n):
            if not e.same_block(a, a2):
                continue
            fam, fam2 = h.targets[a], h.targets[a2]
            clause_one = all(
                any(_match_both_ways(u_set, u2_set, e) for u2_set in fam2) for u_set in fam
            )
            clause_two = all(
                any(_match_both_ways(u_set, u2_set, e) for u_set in fam) for u2_set in fam2
            )
            if not (clause_one and clause_two):
                return False
    return True


def table_is_associative(s):
    cay = tuple(s.cayley)
    m = len(cay)
    return all(
        cay[cay[i][j]][k] == cay[i][cay[j][k]]
        for i in range(m)
        for j in range(m)
        for k in range(m)
    )


def naive_cayley(s, compose):
    """The full table by one compose call per cell, looked up by element."""
    return tuple(tuple(s.index_of(compose(x, y)) for y in s.elements) for x in s.elements)


def naive_closure(generators, compose, cap):
    """The closure by one compose call per generator and element (k·m calls).

    Breadth-first over words by length, then by generator order, with the
    same ``cap`` and memory budget exits as ``generate_closure``; the right
    Cayley graph is filled after the search.  Returns the semigroup and the
    number of compose calls.
    """
    if cap < 1:
        raise InputError(f"cap must be at least 1, got {cap}")
    generators = list(generators)
    if not generators:
        raise InputError("at least one generator is required")
    names = tuple(name for name, _ in generators)
    gens = [g for _, g in generators]
    calls = 0

    elements = []
    words = []
    suffix = []
    index = {}
    budget = cap * BITS_PER_ELEMENT
    stored = 0

    def admit(element, word, rest):
        nonlocal stored
        if len(elements) >= cap:
            raise ResourceLimitError(
                f"closure exceeded the cap of {cap} elements", count=len(elements)
            )
        size = getattr(element, "stored_bits", None)
        stored += size() if size else 0
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

    left = [[] for _ in gens]
    while level:
        nxt = []
        for i, g in enumerate(gens):
            row = left[i]
            for x in level:
                product = compose(g, elements[x])
                calls += 1
                idx = index.get(product)
                if idx is None:
                    idx = admit(product, (i,) + words[x], x)
                    nxt.append(idx)
                row.append(idx)
        level = nxt
    left = tuple(map(tuple, left))

    firsts = [word[0] for word in words]
    right = []
    for g in generator_elements:
        col = []
        for f, rest in zip(firsts, suffix):
            col.append(left[f][g if rest is None else col[rest]])
        right.append(tuple(col))

    # each word without its last letter is the word of an element: shortlex
    # words are prefix-closed
    by_word = {word: i for i, word in enumerate(words)}
    prefix = tuple(by_word[word[:-1]] if len(word) > 1 else None for word in words)
    empty = next((z for z, el in enumerate(elements) if getattr(el, "is_empty", False)), None)
    s = RoleSemigroup(
        tuple(elements), tuple(words), tuple(suffix), prefix, left, tuple(right), index, names,
        generator_elements, "custom", False, empty,
    )
    return s, calls


def naive_table_csv(s, compose):
    """The CSV table from ``naive_cayley``: nonzero rows and columns, "0" for
    the zero, each line written by ``csv.writer`` and ended by LF."""
    return naive_csv(*naive_table(s, naive_cayley(s, compose), naive_zero(s)))


def naive_table(s, cay, zero):
    """Row labels and label grid of the full table ``cay`` without the row and
    column of ``zero`` (None for none), entries on it labelled "0"."""
    keep = [i for i in range(len(s)) if i != zero]

    def label(i):
        return "0" if i == zero else s.word_label(i)

    return [label(i) for i in keep], [[label(cay[i][j]) for j in keep] for i in keep]


def naive_csv(labels, grid):
    """Header "*" then the labels, then one line per row, each written by
    ``csv.writer`` and ended by LF."""
    lines = []
    for row in [["*"] + labels] + [[label] + row for label, row in zip(labels, grid)]:
        out = io.StringIO()
        # CRLF as terminator makes the writer quote a field holding CR or LF
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines)


def naive_zero(s):
    """The empty element, if it absorbs every element on both sides."""
    elements, cayley = s.elements, tuple(s.cayley)
    for z, el in enumerate(elements):
        if getattr(el, "is_empty", False):
            if all(cayley[z][x] == z and cayley[x][z] == z for x in range(len(elements))):
                return z
            return None
    return None


def naive_identity(s):
    """The first element that is a two-sided identity for every element."""
    m = len(s.elements)
    cay = tuple(s.cayley)
    for e in range(m):
        if all(cay[e][x] == x == cay[x][e] for x in range(m)):
            return e
    return None


def naive_congruence(s, pairs):
    """Least congruence by a fixpoint over every related pair and every multiplier."""
    m = len(s)
    cay = tuple(s.cayley)
    block = list(range(m))

    def merge(a, b):
        old, new = block[b], block[a]
        if old == new:
            return False
        for i in range(m):
            if block[i] == old:
                block[i] = new
        return True

    for a, b in pairs:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for x in range(m):
            for y in range(m):
                if block[x] == block[y]:
                    for z in range(m):
                        changed |= merge(cay[z][x], cay[z][y])
                        changed |= merge(cay[x][z], cay[y][z])
    return block


def naive_compatible(s, block_of):
    """Whether related elements have related products with every element, on both sides."""
    cay = tuple(s.cayley)
    m = len(s)
    return all(
        block_of[cay[z][x]] == block_of[cay[z][y]] and block_of[cay[x][z]] == block_of[cay[y][z]]
        for x in range(m)
        for y in range(m)
        if block_of[x] == block_of[y]
        for z in range(m)
    )


def naive_hom(src, dst):
    """Word-evaluation map checked over every cell of the source table.

    Returns ``(image, None)`` when the map is a homomorphism, else
    ``(image, witness)`` with the first failing cell in row-major order as
    ``(word_a, word_b, image_a, image_b)``, or the first generator whose
    duplicates split in the target.
    """
    scay, tcay = tuple(src.cayley), tuple(dst.cayley)
    image = []
    for word in src.words:
        acc = dst.generator_elements[word[-1]]
        for g in reversed(word[:-1]):
            acc = tcay[dst.generator_elements[g]][acc]
        image.append(acc)
    for i, e in enumerate(src.generator_elements):
        if image[e] != dst.generator_elements[i]:
            return image, (
                src.word_label(e),
                src.generator_names[i],
                dst.word_label(image[e]),
                dst.word_label(dst.generator_elements[i]),
            )
    for i in range(len(src)):
        for j in range(len(src)):
            prod = scay[i][j]
            expected = tcay[image[i]][image[j]]
            if image[prod] != expected:
                return image, (
                    src.word_label(prod),
                    src.word_label(i) + src.word_label(j),
                    dst.word_label(image[prod]),
                    dst.word_label(expected),
                )
    return image, None


def naive_holds(hom):
    """The homomorphism law checked over every cell of the source table."""
    scay, tcay, img = tuple(hom.source.cayley), tuple(hom.target.cayley), hom.image
    m = len(hom.source)
    return all(img[scay[i][j]] == tcay[img[i]][img[j]] for i in range(m) for j in range(m))


def naive_refine(structures, actors, seed=None):
    """Coarsest regular refinement of ``seed`` by rounds that re-sign every actor.

    Each round keeps two actors together only if they share a block and a
    signature in every structure; the loop stops at the first round that
    splits nothing.
    """
    structures = list(structures)
    seed = seed or Partition.universal(actors)
    block_of, num_blocks = seed.block_of, seed.num_blocks
    while True:
        assignment = {}
        new_block_of = []
        for i, b in enumerate(block_of):
            key = (b, *(s.signature(i, block_of) for s in structures))
            new_block_of.append(assignment.setdefault(key, len(assignment)))
        if len(assignment) == num_blocks:
            return Partition(actors, new_block_of)
        block_of = new_block_of
        num_blocks = len(assignment)


def naive_bruteforce(structures, actors):
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
        if naive_signatures_agree(structures, p):
            best = p
    return best


def naive_signatures_agree(structures, e):
    """True when, in every structure, all actors of a block have one signature.

    Signs one actor at a time through ``signature`` and stops at the first
    actor whose signature differs from its block's first.
    """
    block_of = e.block_of
    for s in structures:
        first = {}
        for i, b in enumerate(block_of):
            sig = s.signature(i, block_of)
            if first.setdefault(b, sig) != sig:
                return False
    return True


class CountedSignatures:
    """A structure that forwards to another and counts its ``signature`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.actors = inner.actors
        self.calls = 0

    def signature(self, i, image):
        self.calls += 1
        return self.inner.signature(i, image)

    def support(self, i):
        return self.inner.support(i)


class BulkOnly:
    """A structure that forwards ``signatures`` to another and counts its calls and yields.

    It offers only ``actors`` and ``signatures``, so a check can read it only
    in one pass per structure.
    """

    def __init__(self, inner):
        self.inner = inner
        self.actors = inner.actors
        self.calls = 0
        self.yielded = 0

    def signatures(self, image):
        self.calls += 1
        for sig in self.inner.signatures(image):
            self.yielded += 1
            yield sig


class CountedEdges:
    """A structure that forwards ``successors`` to another and counts the calls.

    It offers nothing else, so a refinement can read it only through its
    edge view.
    """

    def __init__(self, inner):
        self.inner = inner
        self.actors = inner.actors
        self.calls = 0

    def successors(self, masks):
        self.calls += 1
        return self.inner.successors(masks)


def naive_blocks(block_of):
    """Index blocks in order of first occurrence, one scan of the roster per block."""
    return tuple(
        tuple(i for i, c in enumerate(block_of) if c == b) for b in dict.fromkeys(block_of)
    )


def naive_refines(fine, coarse):
    """Whether every two indices together in ``fine`` are together in ``coarse``."""
    n = len(fine)
    return all(coarse[i] == coarse[j] for i in range(n) for j in range(n) if fine[i] == fine[j])


def naive_network_from_doc(doc, source="<input>"):
    """A network document decoded in three passes over each relation's edges.

    Every edge's shape is checked first, then every label is resolved, and the
    constructors range-check and canonicalise the indices again.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{source}: document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise InputError(f"{source}: field 'kind' must be one of {KINDS}, got {kind!r}")
    actors_field = doc.get("actors")
    if not isinstance(actors_field, list):
        raise InputError(f"{source}: field 'actors' must be a list of labels")
    try:
        actors = ActorSet(actors_field)
    except StructuralError as exc:
        raise InputError(f"{source}: {exc}") from None

    if kind == "undirected":
        edges = doc.get("hyperedges")
        if not isinstance(edges, list):
            raise InputError(f"{source}: field 'hyperedges' must be a list of label lists")
        try:
            return UndirectedHypergraph.from_label_edges(actors, edges)
        except StructuralError as exc:
            raise InputError(f"{source}: {exc}") from None

    relations = doc.get("relations")
    if not isinstance(relations, dict):
        raise InputError(f"{source}: field 'relations' must be an object")
    parsed = []
    for name, edges in relations.items():
        if not isinstance(edges, list):
            raise InputError(f"{source}: relation {name!r}: edges must be a list")
        try:
            if kind == "graph":
                pairs = [_naive_parse_pair(e, name, source) for e in edges]
                parsed.append((name, Relation.from_label_pairs(actors, pairs)))
            else:
                records = [_naive_parse_hyperedge(e, name, source) for e in edges]
                parsed.append((name, FHyperStructure.from_label_edges(actors, records)))
        except StructuralError as exc:
            raise InputError(f"{source}: relation {name!r}: {exc}") from None
    try:
        if kind == "graph":
            return MultiNetwork(actors, parsed)
        return MultiHypergraph(actors, parsed)
    except StructuralError as exc:
        raise InputError(f"{source}: {exc}") from None


def _naive_parse_pair(edge, name, source):
    if not (isinstance(edge, list) and len(edge) == 2 and all(isinstance(x, str) for x in edge)):
        raise InputError(f"{source}: relation {name!r}: edge {edge!r} is not a [src, tgt] pair")
    return edge[0], edge[1]


def _naive_parse_hyperedge(edge, name, source):
    if (
        not isinstance(edge, dict)
        or not isinstance(edge.get("src"), str)
        or not isinstance(edge.get("tgt"), list)
        or not all(isinstance(x, str) for x in edge["tgt"])
    ):
        raise InputError(
            f"{source}: relation {name!r}: hyperedge {edge!r} must be "
            '{"src": label, "tgt": [labels]}'
        )
    return edge["src"], edge["tgt"]


def naive_partition_from_doc(doc, actors, source="<input>"):
    """A partition document decoded by a shape pass over every block, then ``Partition.from_label_blocks``."""
    if not isinstance(doc, dict) or not isinstance(doc.get("blocks"), list):
        raise InputError(f"{source}: field 'blocks' must be a list of label lists")
    blocks = doc["blocks"]
    for block in blocks:
        if not (isinstance(block, list) and all(isinstance(x, str) for x in block)):
            raise InputError(f"{source}: block {block!r} is not a list of labels")
    try:
        return Partition.from_label_blocks(actors, blocks)
    except StructuralError as exc:
        raise InputError(f"{source}: {exc}") from None


def naive_roster_error(labels):
    """The message ``ActorSet(labels)`` must raise, or None: labels checked one by one, then duplicates."""
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            return f"actor labels must be non-empty strings, got {lab!r}"
    dupes = sorted({lab for lab in labels if labels.count(lab) > 1})
    return f"duplicate actor labels: {', '.join(dupes)}" if dupes else None
