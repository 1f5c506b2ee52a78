"""Shared fuzz generators and independent oracles for the test-suite.

The oracles here stay deliberately naive (nested loops over label pairs,
direct quantifier translation) so they exercise a different code path from
the library implementations they check.
"""

from roleblock import (
    ActorSet,
    FHyperStructure,
    MultiHypergraph,
    MultiNetwork,
    Partition,
    Relation,
)


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
    cay = s.cayley
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


def naive_congruence(s, pairs):
    """Least congruence by a fixpoint over every related pair and every multiplier."""
    m = len(s)
    cay = s.cayley
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
    cay = s.cayley
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
    image = []
    for word in src.words:
        acc = dst.generator_elements[word[-1]]
        for g in reversed(word[:-1]):
            acc = dst.cayley[dst.generator_elements[g]][acc]
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
            prod = src.cayley[i][j]
            expected = dst.cayley[image[i]][image[j]]
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
    scay, tcay, img = hom.source.cayley, hom.target.cayley, hom.image
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


def naive_blocks(block_of):
    """Index blocks in order of first occurrence, one scan of the roster per block."""
    return tuple(
        tuple(i for i, c in enumerate(block_of) if c == b) for b in dict.fromkeys(block_of)
    )


def naive_refines(fine, coarse):
    """Whether every two indices together in ``fine`` are together in ``coarse``."""
    n = len(fine)
    return all(coarse[i] == coarse[j] for i in range(n) for j in range(n) if fine[i] == fine[j])
