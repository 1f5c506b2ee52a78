"""Seeded inputs, expected results and work measures for the four workloads.

Nothing here imports roleblock.  The algebra below (relation and F-hypergraph
composition, closure by breadth-first search, signature refinement) is the
benchmark's own, so the documents and expectations depend only on the seed
and serve as an independent oracle for the library's outputs.

``generate(workload, seed)`` returns ``(files, manifest)``: ``files`` maps a
file name to the bytes the program will read, and ``manifest`` is a JSON-able
description of the job, the expected results and the work measures.
"""

import hashlib
import itertools
import json
import random

# The seed whose outputs have recorded digests in digests.json.
DEFAULT_SEED = 0

# ── independent algebra ──────────────────────────────────────────────────────
# A relation on n actors is a tuple of n row bitmasks.  An F-hypergraph
# structure is a tuple, per actor, of sorted distinct sorted target tuples.


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def compose_graph(r2, r1):
    """r2 after r1, the library's word convention."""
    out = []
    for mids in r1:
        acc = 0
        for u in bits(mids):
            acc |= r2[u]
        out.append(acc)
    return tuple(out)


def compose_tight(k, h):
    return tuple(tuple(sorted({U for V in fam for b in V for U in k[b]})) for fam in h)


def _loose(k, h, prune):
    out = []
    for fam in h:
        s = {tuple(sorted({u for b in V for U in k[b] for u in U})) for V in fam}
        if prune:
            s.discard(())
        out.append(tuple(sorted(s)))
    return tuple(out)


def compose_loose(k, h):
    return _loose(k, h, False)


def compose_loose_pruned(k, h):
    return _loose(k, h, True)


COMPOSE = {
    "graph": compose_graph,
    "tight": compose_tight,
    "loose": compose_loose,
    "loose-prune": compose_loose_pruned,
}


def closure(gens, op, cap):
    """(elements, words) in the library's breadth-first order, or None past ``cap``.

    Words are generator-index tuples, leftmost applied last.  Only the
    elements are built, never a Cayley table.
    """
    index = {}
    elements = []
    words = []
    level = []
    for i, g in enumerate(gens):
        if g in index:
            continue
        index[g] = len(elements)
        elements.append(g)
        words.append((i,))
        level.append(index[g])
    while level:
        nxt = []
        for i, g in enumerate(gens):
            for x in level:
                p = op(g, elements[x])
                if p in index:
                    continue
                if len(elements) >= cap:
                    return None
                index[p] = len(elements)
                elements.append(p)
                words.append((i,) + words[x])
                nxt.append(index[p])
        level = nxt
    return elements, words


def evaluate(gens, op, word):
    acc = gens[word[-1]]
    for g in reversed(word[:-1]):
        acc = op(gens[g], acc)
    return acc


def encode(structures):
    """Relations or F-hypergraph structures as JSON lists."""
    return [[r if isinstance(r, int) else [list(t) for t in r] for r in s] for s in structures]


def decode(doc):
    return [tuple(r if isinstance(r, int) else tuple(tuple(t) for t in r) for r in s) for s in doc]


def element_digest(elements):
    return hashlib.sha256(repr(sorted(elements)).encode()).hexdigest()[:16]


def canon(block_of):
    remap = {}
    return tuple(remap.setdefault(b, len(remap)) for b in block_of)


def transpose(rows):
    n = len(rows)
    out = [0] * n
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return tuple(out)


def signature_fn(net, mode):
    """Per-actor signature of a partition, the quantity a regular partition
    keeps constant on each block."""
    if net["kind"] == "fhyper":
        fams = [fam for _, fam in net["rels"]]

        def sig(i, b):
            return tuple(frozenset(frozenset(b[j] for j in t) for t in f[i]) for f in fams)

        return sig
    rows = []
    if mode in ("out", "both"):
        rows += [r for _, r in net["rels"]]
    if mode in ("in", "both"):
        rows += [transpose(r) for _, r in net["rels"]]

    def sig(i, b):
        return tuple(frozenset(b[j] for j in bits(r[i])) for r in rows)

    return sig


def refine(net, mode, seed=None):
    """Coarsest regular partition refining ``seed``, by signature splitting."""
    n = len(net["labels"])
    sig = signature_fn(net, mode)
    block_of = canon(seed if seed is not None else [0] * n)
    while True:
        new = canon([(block_of[i], sig(i, block_of)) for i in range(n)])
        if max(new, default=-1) == max(block_of, default=-1):
            return new
        block_of = new


def is_regular(net, mode, block_of):
    sig = signature_fn(net, mode)
    first = {}
    for i, b in enumerate(block_of):
        s = sig(i, block_of)
        if first.setdefault(b, s) != s:
            return False
    return True


def label_blocks(labels, block_of):
    blocks = [[] for _ in range(max(block_of, default=-1) + 1)]
    for i, b in enumerate(block_of):
        blocks[b].append(labels[i])
    return blocks


# ── documents ────────────────────────────────────────────────────────────────


def dumps(doc):
    return (json.dumps(doc, indent=2) + "\n").encode()


def network_doc(net):
    labels = net["labels"]
    if net["kind"] == "graph":
        rels = {
            name: [[labels[i], labels[j]] for i, row in enumerate(rows) for j in bits(row)]
            for name, rows in net["rels"]
        }
    else:
        rels = {
            name: [
                {"src": labels[a], "tgt": [labels[j] for j in t]}
                for a, fam in enumerate(fams)
                for t in fam
            ]
            for name, fams in net["rels"]
        }
    return {"kind": net["kind"], "actors": list(labels), "relations": rels}


def quotient_doc(net, block_of):
    """The blockmodel document the CLI writes, in its canonical order."""
    labels = net["labels"]
    qlabels = [
        "{" + ",".join(sorted(members)) + "}" for members in label_blocks(labels, block_of)
    ]
    doc = {"kind": net["kind"], "actors": qlabels, "relations": {}}
    for name, rel in net["rels"]:
        if net["kind"] == "graph":
            pairs = {(block_of[i], block_of[j]) for i, row in enumerate(rel) for j in bits(row)}
            doc["relations"][name] = sorted([qlabels[a], qlabels[b]] for a, b in pairs)
        else:
            edges = {
                (block_of[a], tuple(sorted({block_of[j] for j in t})))
                for a, fam in enumerate(rel)
                for t in fam
            }
            doc["relations"][name] = [
                {"src": s, "tgt": list(t)}
                for s, t in sorted((qlabels[a], tuple(qlabels[j] for j in t)) for a, t in edges)
            ]
    return doc


def dot_lines(net, block_of):
    """Line count of the CLI's DOT rendering of the blockmodel."""
    doc = quotient_doc(net, block_of)
    edges = doc["relations"].values()
    if net["kind"] == "graph":
        return 2 + len(doc["actors"]) + sum(len(e) for e in edges)
    return 2 + len(doc["actors"]) + sum(2 + len(h["tgt"]) for e in edges for h in e)


def fams_from_edges(n, edges):
    fams = [set() for _ in range(n)]
    for a, t in edges:
        fams[a].add(tuple(sorted(set(t))))
    return tuple(tuple(sorted(f)) for f in fams)


def rows_from_pairs(n, pairs):
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
    return tuple(rows)


def edge_count(net):
    if net["kind"] == "graph":
        return sum(bin(r).count("1") for _, rows in net["rels"] for r in rows)
    return sum(len(f) for _, fams in net["rels"] for f in fams)


def word_lengths(words):
    """How many elements have a shortest word of each length 1, 2, ..."""
    counts = [0] * max(len(w) for w in words)
    for w in words:
        counts[len(w) - 1] += 1
    return counts


def closure_entry(net, compose, cap):
    """Expected facts of one closure: size, element digest, shortest word lengths."""
    gens = [g for _, g in net["rels"]]
    elements, words = closure(gens, COMPOSE[compose], cap)
    return {
        "compose": compose,
        "elements": len(elements),
        "digest": element_digest(elements),
        "word_lengths": word_lengths(words),
    }


class Writer:
    """Collects the files of one workload by name."""

    def __init__(self):
        self.files = {}

    def add(self, name, data):
        self.files[name] = data if isinstance(data, bytes) else dumps(data)
        return name

    def network(self, name, net):
        return self.add(name, network_doc(net))


# ── roles-graph ──────────────────────────────────────────────────────────────
# Random 6-actor networks with two relations.  A candidate is kept when its
# closure size falls in the band and its elements' mean edge count falls in the
# density band (the cost of one compose call grows with the edges of its right
# operand).  Every seed scans the same number of candidates (more only if too
# few were kept), so set-up does the same work whatever the seed.  From the
# kept ones the job takes the subset whose total Cayley cells come closest to
# the budget, so every seed also asks for the same work of the program.

GRAPH_N = 6
GRAPH_EDGES = 7
GRAPH_BAND = (220, 260)
GRAPH_DENSITY = (9.0, 15.0)
GRAPH_SCAN = 500
GRAPH_PICK = 2
GRAPH_BUDGET = GRAPH_PICK * 240 * 240


def _pick_subset(weights, most, budget):
    """Indices of at most ``most`` weights whose sum comes closest to ``budget``."""
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(len(weights)), size) for size in range(1, most + 1)
    )
    best = min(subsets, key=lambda c: (abs(sum(weights[i] for i in c) - budget), c))
    return list(best)


def gen_roles_graph(rng):
    labels = [f"v{i}" for i in range(GRAPH_N)]
    all_pairs = [(i, j) for i in range(GRAPH_N) for j in range(GRAPH_N)]
    pool = []
    candidates = 0
    while candidates < GRAPH_SCAN or len(pool) < GRAPH_PICK:
        candidates += 1
        gens = [rows_from_pairs(GRAPH_N, rng.sample(all_pairs, GRAPH_EDGES)) for _ in "AB"]
        if gens[0] == gens[1]:
            continue
        found = closure(gens, compose_graph, GRAPH_BAND[1])
        if found is None or len(found[0]) < GRAPH_BAND[0]:
            continue
        density = sum(bin(r).count("1") for e in found[0] for r in e) / len(found[0])
        if GRAPH_DENSITY[0] <= density <= GRAPH_DENSITY[1]:
            pool.append((gens, len(found[0])))
    chosen = _pick_subset([m * m for _, m in pool], GRAPH_PICK, GRAPH_BUDGET)

    w = Writer()
    nets = []
    for k, idx in enumerate(chosen):
        net = {"kind": "graph", "labels": labels, "rels": list(zip("AB", pool[idx][0]))}
        nets.append({
            "id": f"net{k}",
            "network": w.network(f"net{k}.json", net),
            "table": f"net{k}.csv",
            "closure": closure_entry(net, "graph", GRAPH_BAND[1]),
            "gens": encode(g for _, g in net["rels"]),
        })
    cells = sum(n["closure"]["elements"] ** 2 for n in nets)
    work = {
        "candidates": candidates,
        "elements": [n["closure"]["elements"] for n in nets],
        "cells": cells,
        "actors": GRAPH_N * len(nets),
        "edges": GRAPH_EDGES * 2 * len(nets),
    }
    return w, {"networks": nets, "work": work}


# ── roles-hyper ──────────────────────────────────────────────────────────────
# A random 2-actor base F-hypergraph, blown up twice: every actor gets two
# copies and every hyperedge is lifted once or twice per copy, with each target
# member replaced by one of its copies.  The map from a copy to its original is
# then a valid positional reduction, so induce and functor-check must succeed.
# One compose call here costs from tens to hundreds of microseconds depending on
# the structures it combines, so the budget is on compose work, estimated per
# closure as cells times the mean work of a sample of cells, not on cells alone.

HYPER_BASE_N = 2
HYPER_COPIES = 2
HYPER_BAND = (40, 90)
HYPER_SIDE_CAP = 160
HYPER_POOL = 8
HYPER_PICK = 3
HYPER_BUDGET = 4_500_000
HYPER_SAMPLES = 64
# How often the job closes stage 0 under each composition (roles, induce, the
# induced reduction and functor-check), which weights its share of the budget.
HYPER_CLOSURES = {"tight": 3, "loose": 2, "loose-prune": 1}


def structure_size(s):
    if s and isinstance(s[0], int):
        return len(s) + sum(bin(r).count("1") for r in s)
    return sum(1 + sum(1 + len(t) for t in fam) for fam in s)


def compose_work(elements, op, rng, samples):
    """Estimated work of a closure's Cayley table: cells times the mean size of
    a sampled cell's right operand and product."""
    total = 0
    for _ in range(samples):
        x, y = rng.choice(elements), rng.choice(elements)
        total += structure_size(y) + structure_size(op(x, y))
    return len(elements) ** 2 * total / samples


def _hyper_base(rng):
    rels = []
    for _ in "AB":
        edges = []
        for a in range(HYPER_BASE_N):
            for _ in range(rng.choice((1, 1, 2))):
                edges.append((a, rng.sample(range(HYPER_BASE_N), rng.choice((1, 1, 2)))))
        rels.append(edges)
    return rels


def _blow_up(rng, n, rels):
    c = HYPER_COPIES
    lifted = []
    for edges in rels:
        new = []
        for a, U in edges:
            for i in range(c):
                for _ in range(rng.choice((1, 1, 2))):
                    new.append((a * c + i, [u * c + rng.randrange(c) for u in U]))
        lifted.append(new)
    return n * c, lifted


def _hyper_net(prefix, n, rels):
    return {
        "kind": "fhyper",
        "labels": [f"{prefix}{i}" for i in range(n)],
        "rels": [(name, fams_from_edges(n, e)) for name, e in zip("AB", rels)],
    }


def _hyper_candidate(rng):
    """Three stages and the compose work of the top one, or None outside the band."""
    base = _hyper_base(rng)
    n1, mid = _blow_up(rng, HYPER_BASE_N, base)
    n2, top = _blow_up(rng, n1, mid)
    stages = [_hyper_net("s", n2, top), _hyper_net("m", n1, mid), _hyper_net("b", HYPER_BASE_N, base)]
    gens = [g for _, g in stages[0]["rels"]]
    if gens[0] == gens[1]:
        return None
    found = {"tight": closure(gens, compose_tight, HYPER_BAND[1])}
    if found["tight"] is None or len(found["tight"][0]) < HYPER_BAND[0]:
        return None
    for c in ("loose", "loose-prune"):
        found[c] = closure(gens, COMPOSE[c], HYPER_SIDE_CAP)
        if found[c] is None:
            return None
    work = sum(
        times * compose_work(found[c][0], COMPOSE[c], rng, HYPER_SAMPLES)
        for c, times in HYPER_CLOSURES.items()
    )
    return stages, work


def gen_roles_hyper(rng):
    pool = []
    candidates = 0
    while len(pool) < HYPER_POOL:
        candidates += 1
        found = _hyper_candidate(rng)
        if found is not None:
            pool.append(found)
    chosen = _pick_subset([work for _, work in pool], HYPER_PICK, HYPER_BUDGET)

    w = Writer()
    nets = []
    actors = edges = 0
    for k, idx in enumerate(chosen):
        stages = pool[idx][0]
        top, mid, base = stages
        maps = [
            {lab: mid["labels"][i // HYPER_COPIES] for i, lab in enumerate(top["labels"])},
            {lab: base["labels"][i // HYPER_COPIES] for i, lab in enumerate(mid["labels"])},
        ]
        composite = {lab: maps[1][maps[0][lab]] for lab in top["labels"]}
        closures = [closure_entry(top, c, HYPER_SIDE_CAP) for c in ("tight", "loose", "loose-prune")]
        nets.append({
            "id": f"net{k}",
            "network": w.network(f"net{k}.json", top),
            "base": w.network(f"net{k}-base.json", base),
            "map": w.add(f"net{k}-map.json", {"map": composite}),
            "stages": [
                w.add(f"net{k}-stage0.json", {"network": network_doc(top), "map": maps[0]}),
                w.add(f"net{k}-stage1.json", {"network": network_doc(mid), "map": maps[1]}),
                w.add(f"net{k}-stage2.json", {"network": network_doc(base)}),
            ],
            "closures": closures,
            "gens": encode(g for _, g in top["rels"]),
            "tables": [f"net{k}-{c['compose']}.csv" for c in closures],
            "compose_work": round(pool[idx][1]),
        })
        actors += sum(len(s["labels"]) for s in stages)
        edges += sum(edge_count(s) for s in stages)
    work = {
        "candidates": candidates,
        "elements": [[c["elements"] for c in n["closures"]] for n in nets],
        "cells": sum(c["elements"] ** 2 for n in nets for c in n["closures"]),
        "compose_work": sum(n["compose_work"] for n in nets),
        "actors": actors,
        "edges": edges,
    }
    return w, {"networks": nets, "work": work}


# ── positions ────────────────────────────────────────────────────────────────
# Genealogies with wide generations: everyone is married, everyone below the
# top generation has a parent couple in the generation above.  Regular
# partitions then have few large blocks, which makes the pairwise regularity
# checks quadratic.  Chains make the refinement take one round per link.

GENEALOGY = (8, 140)
GENEALOGY_HYPER = (6, 70)
CHAINS = (2, 280)


def _genealogy(rng, generations, width, hyper):
    n = generations * width
    order = list(range(n))
    rng.shuffle(order)
    labels = [f"p{order[i]:05d}" for i in range(n)]
    spouse = {}
    sex = [0] * n
    parent_edges = []
    couples_above = None
    for g in range(generations):
        people = list(range(g * width, (g + 1) * width))
        rng.shuffle(people)
        couples = list(zip(people[0::2], people[1::2]))
        for a, b in couples:
            spouse[a], spouse[b] = b, a
            sex[b] = 1
        if couples_above:
            for child in range(g * width, (g + 1) * width):
                parent_edges.append((child, rng.choice(couples_above)))
        couples_above = couples
    if hyper:
        rels = [
            ("PARENTS", fams_from_edges(n, parent_edges)),
            ("SPOUSE", fams_from_edges(n, [(a, (b,)) for a, b in spouse.items()])),
        ]
        net = {"kind": "fhyper", "labels": labels, "rels": rels}
    else:
        pairs = [(c, p) for c, couple in parent_edges for p in couple]
        rels = [
            ("PARENT", rows_from_pairs(n, pairs)),
            ("SPOUSE", rows_from_pairs(n, spouse.items())),
        ]
        net = {"kind": "graph", "labels": labels, "rels": rels}
    return net, sex


def _chains(rng, count, length):
    n = count * length
    order = list(range(n))
    rng.shuffle(order)
    labels = [f"c{order[i]:05d}" for i in range(n)]
    pairs = [(c * length + i, c * length + i + 1) for c in range(count) for i in range(length - 1)]
    return {"kind": "graph", "labels": labels, "rels": [("NEXT", rows_from_pairs(n, pairs))]}


def _chain_partition(mode, count, length):
    """Equal-length chains: an actor's class is its distance to the chain's end
    (outward) or start (inward); refining would take one round per link."""
    return canon([length - 1 - i if mode == "out" else i for _ in range(count) for i in range(length)])


def gen_positions(rng):
    w = Writer()
    family, sex = _genealogy(rng, *GENEALOGY, hyper=False)
    family_h, _ = _genealogy(rng, *GENEALOGY_HYPER, hyper=True)
    chains = _chains(rng, *CHAINS)
    inputs = []
    runs = [
        ("family", family, [("out", None), ("in", None), ("both", sex)], "out"),
        ("family-h", family_h, [(None, None)], None),
        ("chains", chains, [("out", None), ("in", None)], "out"),
    ]
    for name, net, modes, blockmodel_mode in runs:
        entry = {"id": name, "network": w.network(f"{name}.json", net), "kind": net["kind"], "runs": []}
        for mode, seed in modes:
            tag = mode or "hyper"
            run = {"mode": mode, "partition": f"{name}-{tag}.part.json"}
            if seed is not None:
                run["seed"] = w.add(f"{name}-{tag}.seed.json", {"blocks": label_blocks(net["labels"], canon(seed))})
            if name == "chains":
                block_of = _chain_partition(mode, *CHAINS)
            else:
                block_of = refine(net, mode or "out", seed)
            run["blocks"] = label_blocks(net["labels"], block_of)
            if mode == blockmodel_mode:
                run["blockmodel"] = {
                    "output": f"{name}-bm.json",
                    "dot": f"{name}-bm.dot",
                    "doc": quotient_doc(net, block_of),
                    "dot_lines": dot_lines(net, block_of),
                }
            entry["runs"].append(run)
        inputs.append(entry)
        entry["actors"] = len(net["labels"])
        entry["edges"] = edge_count(net)
    work = {
        "actors": sum(e["actors"] for e in inputs),
        "edges": sum(e["edges"] for e in inputs),
        "blocks": {e["id"]: [len(r["blocks"]) for r in e["runs"]] for e in inputs},
    }
    return w, {"inputs": inputs, "work": work}


# ── small-batch ──────────────────────────────────────────────────────────────
# Many small documents, one command each, in a seeded order.  The mix is fixed
# per seed (counts and actor sizes), so only the documents vary.  Malformed
# documents expect exit code 2; the non-UTF-8 ones are among them.

BATCH_MIX = {
    "max-regular": 60,
    "check-regular": 60,
    "oracle": 40,
    "roles": 44,
    "blockmodel": 50,
    "convert": 30,
}
BATCH_MALFORMED = ("truncated", "unknown-label", "wrong-kind", "non-utf8")
BATCH_MALFORMED_EACH = 4
BATCH_SIZES = (4, 5, 6, 7, 8)
ORACLE_SIZES = (4, 5, 6, 7)
BATCH_ROLES_BAND = (8, 30)


def _small_graph(rng, n, k=2, density=0.3):
    labels = [f"a{i}" for i in range(n)]
    rels = []
    for name in "PQR"[:k]:
        rels.append((name, rows_from_pairs(n, [(i, j) for i in range(n) for j in range(n) if rng.random() < density])))
    return {"kind": "graph", "labels": labels, "rels": rels}


def _small_hyper(rng, n, k=2):
    labels = [f"a{i}" for i in range(n)]
    rels = []
    for name in "PQR"[:k]:
        edges = []
        for a in range(n):
            for _ in range(rng.choice((0, 1, 1, 2))):
                edges.append((a, rng.sample(range(n), rng.choice((0, 1, 2)))))
        rels.append((name, fams_from_edges(n, edges)))
    return {"kind": "fhyper", "labels": labels, "rels": rels}


def _random_partition(rng, n):
    return canon([rng.randrange(max(1, n // 2)) for _ in range(n)])


def _batch_case(rng, kind, n, w, i):
    stem = f"c{i:03d}"
    case = {"id": stem, "op": kind, "exit": 0}
    if kind == "roles":
        while True:
            compose = rng.choice(("graph", "tight", "loose"))
            net = _small_graph(rng, n, density=0.25) if compose == "graph" else _small_hyper(rng, n)
            gens = [g for _, g in net["rels"]]
            found = closure(gens, COMPOSE[compose], BATCH_ROLES_BAND[1])
            if found and len(found[0]) >= BATCH_ROLES_BAND[0]:
                break
        case.update(argv=["roles", "--network", w.network(f"{stem}.json", net), "--compose", compose, "--table", "-"],
                    compose=compose, elements=len(found[0]), gens=encode(gens),
                    names=[name for name, _ in net["rels"]])
        return case
    if kind == "convert":
        labels = [f"a{j}" for j in range(n)]
        hyperedges = sorted({tuple(sorted(rng.sample(range(n), rng.choice((1, 2, 3))))) for _ in range(n)})
        doc = {"kind": "undirected", "actors": labels, "hyperedges": [[labels[j] for j in e] for e in hyperedges]}
        edges = [(a, tuple(x for x in e if x != a)) for e in hyperedges for a in e]
        out = {"kind": "fhyper", "labels": labels, "rels": [("H", fams_from_edges(n, edges))]}
        expected = network_doc(out)
        expected["relations"]["H"] = sorted(expected["relations"]["H"], key=lambda h: (h["src"], h["tgt"]))
        case.update(argv=["convert", "--undirected", w.add(f"{stem}.json", doc)], doc=expected)
        return case

    hyper = rng.random() < 0.3
    net = _small_hyper(rng, n) if hyper else _small_graph(rng, n)
    mode = None if hyper else rng.choice(("out", "in", "both"))
    mode_args = ["--mode", mode] if mode else []
    path = w.network(f"{stem}.json", net)
    coarsest = refine(net, mode or "out")
    if kind in ("max-regular", "oracle"):
        verb = ["oracle", "coarsest"] if kind == "oracle" else ["max-regular"]
        case.update(argv=verb + ["--network", path] + mode_args,
                    blocks=label_blocks(net["labels"], coarsest))
    elif kind == "check-regular":
        part = coarsest if rng.random() < 0.5 else _random_partition(rng, n)
        ppath = w.add(f"{stem}.part.json", {"blocks": label_blocks(net["labels"], part)})
        regular = is_regular(net, mode or "out", part)
        case.update(argv=["check-regular", "--network", path, "--partition", ppath] + mode_args,
                    exit=0 if regular else 1, verdict="regular" if regular else "not regular")
    elif kind == "blockmodel":
        part = _random_partition(rng, n)
        ppath = w.add(f"{stem}.part.json", {"blocks": label_blocks(net["labels"], part)})
        case.update(argv=["blockmodel", "--network", path, "--partition", ppath],
                    doc=quotient_doc(net, part))
    return case


def _malformed_case(rng, kind, w, i):
    stem = f"c{i:03d}"
    net = _small_graph(rng, rng.choice(BATCH_SIZES))
    text = dumps(network_doc(net))
    if kind == "truncated":
        data = text[: len(text) // 2]
    elif kind == "unknown-label":
        doc = network_doc(net)
        doc["relations"]["P"] = doc["relations"]["P"] + [["a0", "zz"]]
        data = dumps(doc)
    elif kind == "wrong-kind":
        doc = network_doc(net)
        doc["kind"] = "digraph"
        data = dumps(doc)
    else:
        data = text.replace(b'"a0"', b'"a\xff0"')
    return {
        "id": stem,
        "op": "malformed",
        "malformed": kind,
        "argv": ["max-regular", "--network", w.add(f"{stem}.json", data)],
        "exit": 2,
    }


def gen_small_batch(rng):
    w = Writer()
    kinds = [k for k, count in BATCH_MIX.items() for _ in range(count)]
    kinds += [m for m in BATCH_MALFORMED for _ in range(BATCH_MALFORMED_EACH)]
    rng.shuffle(kinds)
    size_cycle = {k: itertools.cycle(ORACLE_SIZES if k == "oracle" else BATCH_SIZES) for k in BATCH_MIX}
    cases = []
    for i, kind in enumerate(kinds):
        if kind in BATCH_MIX:
            cases.append(_batch_case(rng, kind, next(size_cycle[kind]), w, i))
        else:
            cases.append(_malformed_case(rng, kind, w, i))
    work = {
        "cases": len(cases),
        "malformed": {m: sum(c.get("malformed") == m for c in cases) for m in BATCH_MALFORMED},
        "documents": len(w.files),
    }
    return w, {"cases": cases, "work": work}


GENERATORS = {
    "roles-graph": gen_roles_graph,
    "roles-hyper": gen_roles_hyper,
    "positions": gen_positions,
    "small-batch": gen_small_batch,
}


def generate(workload, seed):
    """Files and manifest of a workload; the same seed gives the same bytes."""
    rng = random.Random(f"{workload}/{seed}")
    w, manifest = GENERATORS[workload](rng)
    manifest["workload"] = workload
    manifest["seed"] = seed
    manifest["work"]["document_bytes"] = sum(len(b) for b in w.files.values())
    manifest["work"]["documents"] = len(w.files)
    return w.files, manifest


def inputs_digest(files, manifest):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    h.update(json.dumps(manifest, sort_keys=True).encode())
    return h.hexdigest()
