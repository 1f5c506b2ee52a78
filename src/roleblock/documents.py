"""JSON document formats for networks, partitions, actor maps, and chain stages.

One canonical serialization: keys sorted, edges deduplicated and sorted,
actors kept in roster order.  Loading tolerates duplicate edges and any key
order; saving a loaded document therefore canonicalizes it in one pass.

A valid network, partition or roster is decoded in one pass that trusts it:
types are checked in bulk, and each edge's labels are resolved and stored in
one tight loop, straight into index lists that the structure constructors
put in canonical form.  When anything in that pass fails, a checking pass
runs from scratch, only to name the error.  Errors come in a fixed order, the
order of a shape pass followed by a label pass: relations one after another;
within a relation, a malformed edge anywhere before the first unknown label;
relation names only once every relation has been read.
"""

import contextlib
import json
import os
from itertools import chain, islice

from .core import ActorSet, MultiNetwork, MultiStructure, Partition, Relation, sorted_distinct
from .errors import InputError, StructuralError
from .hypergraph import FHyperStructure, MultiHypergraph, UndirectedHypergraph
from .reduction import ActorMap

KINDS = ("graph", "fhyper", "undirected")


_quote = json.encoder.encode_basestring_ascii


def dumps_canonical(doc):
    """The canonical text of ``doc``: ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline.

    The text is that, byte for byte, but the containers are not handed to
    ``json.dumps``: with ``indent`` set it always runs its pure-Python
    encoder.  Strings go through the C function that ``json`` itself uses,
    and a list of strings is written in one join.
    """
    out = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(v, indent, emit):
    """Emit the JSON of ``v``; ``indent`` is a newline and the spaces that begin its lines.

    Lists, tuples and dicts with string keys are written here, scalars by
    ``json.dumps``.  Any other container goes to ``json.dumps`` with the
    canonical options, re-indented: strings hold no raw newline in JSON, so
    replacing each newline re-indents exactly.
    """
    t = type(v)
    if t is str:
        emit(_quote(v))
    elif not isinstance(v, (list, tuple, dict)):
        emit(json.dumps(v))
    elif not v:
        emit("{}" if isinstance(v, dict) else "[]")
    elif t is list or t is tuple:
        inner = indent + "  "
        try:
            emit("[" + inner + ("," + inner).join(map(_quote, v)) + indent + "]")
            return
        except TypeError:  # an item is not a string
            pass
        emit("[")
        sep = inner
        for x in v:
            emit(sep)
            _write(x, inner, emit)
            sep = "," + inner
        emit(indent + "]")
    elif t is dict and all(type(k) is str for k in v):
        inner = indent + "  "
        emit("{")
        sep = inner
        for k in sorted(v):
            emit(sep + _quote(k) + ": ")
            _write(v[k], inner, emit)
            sep = "," + inner
        emit(indent + "}")
    else:  # a subclass, or keys that json turns into strings
        emit(json.dumps(v, indent=2, sort_keys=True).replace("\n", indent))


def _load_json(path):
    """The JSON document in the file at ``path``; unreadable text is an InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: line {exc.lineno}: malformed JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, or too long an integer
            raise InputError(f"{path}: unreadable JSON: {exc}") from None


@contextlib.contextmanager
def replacing(path):
    """A text file open for writing that replaces ``path`` whole or not at all.

    The text goes to a fresh file beside the target, which replaces the
    target in one step when the ``with`` block ends; if anything fails, the
    target keeps its old content and the fresh file is removed.  An
    ``OSError`` names ``path``, not the fresh file.  Writes leave the
    process in 64 KiB pieces, however small the pieces written.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", buffering=1 << 16, encoding="utf-8") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None


def write_text(path, text):
    """Write ``text`` to ``path`` whole or not at all (see ``replacing``)."""
    with replacing(path) as fh:
        fh.write(text)


# ── networks ─────────────────────────────────────────────────────────────────

def network_from_doc(doc, source="<input>"):
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
        return _undirected(actors, edges, source)

    relations = doc.get("relations")
    if not isinstance(relations, dict):
        raise InputError(f"{source}: field 'relations' must be an object")
    decode = _relation if kind == "graph" else _hyper_structure
    parsed = []
    for name, edges in relations.items():
        if not isinstance(edges, list):
            raise InputError(f"{source}: relation {name!r}: edges must be a list")
        parsed.append((name, decode(actors, edges, f"{source}: relation {name!r}")))
    try:
        if kind == "graph":
            return MultiNetwork(actors, parsed)
        return MultiHypergraph(actors, parsed)
    except StructuralError as exc:
        raise InputError(f"{source}: {exc}") from None


# The two relation decoders first try one pass that trusts the document: it
# checks the edges' types in bulk and resolves and stores each edge in a tight
# loop.  A lookup that fails there (an unknown or non-string label, an edge of
# the wrong length or type) drops that pass, and the checking pass runs from
# scratch, only to name the error: a shape pass over every edge, then a label
# pass, so a malformed edge anywhere in the relation is reported before the
# first unknown label.  Every index they collect comes from the roster's
# index, so it is in range, and the stored form is built straight from them.

def _relation(actors, edges, where):
    index = actors.index
    if set(map(type, edges)) <= {list}:
        out = [[] for _ in range(len(actors))]
        try:
            for a, b in edges:
                out[index[a]].append(index[b])
        except (KeyError, TypeError, ValueError):
            pass
        else:
            return Relation._from_canonical(actors, map(sorted_distinct, out))
    for edge in edges:
        if not (
            isinstance(edge, list) and len(edge) == 2
            and isinstance(edge[0], str) and isinstance(edge[1], str)
        ):
            raise InputError(f"{where}: edge {edge!r} is not a [src, tgt] pair")
    out = [[] for _ in range(len(actors))]
    for a, b in edges:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise InputError(f"{where}: unknown actor {(a if i is None else b)!r}")
        out[i].append(j)
    return Relation._from_canonical(actors, map(sorted_distinct, out))


def _hyper_structure(actors, edges, where):
    index = actors.index
    if set(map(type, edges)) <= {dict}:
        families = [[] for _ in range(len(actors))]
        resolve = index.__getitem__
        try:
            for edge in edges:
                tgt = edge["tgt"]
                if type(tgt) is not list:
                    break
                families[resolve(edge["src"])].append(list(map(resolve, tgt)))
            else:
                return _families(actors, families)
        except (KeyError, TypeError):
            pass
    for edge in edges:
        src, tgt = (edge.get("src"), edge.get("tgt")) if isinstance(edge, dict) else (None, None)
        if not (
            isinstance(src, str) and isinstance(tgt, list)
            and all(isinstance(x, str) for x in tgt)
        ):
            raise InputError(
                f"{where}: hyperedge {edge!r} must be "
                '{"src": label, "tgt": [labels]}'
            )
    families = [[] for _ in range(len(actors))]
    for edge in edges:
        src, tgt = edge["src"], edge["tgt"]
        a = index.get(src)
        members = list(map(index.get, tgt))
        if a is None or None in members:
            unknown = src if a is None else tgt[members.index(None)]
            raise InputError(f"{where}: unknown actor {unknown!r}")
        families[a].append(members)
    return _families(actors, families)


def _families(actors, families):
    """The F-structure of one list of index lists per actor, put in canonical form."""
    return FHyperStructure._from_canonical(
        actors, [sorted_distinct(list(map(sorted_distinct, family))) for family in families]
    )


def _undirected(actors, edges, source):
    """The hypergraph; the first hyperedge that is not a list of actors is reported."""
    index = actors.index
    resolved = []
    for edge in edges:
        if not isinstance(edge, list):
            raise InputError(f"{source}: hyperedge {edge!r} is not a list of labels")
        members = []
        for x in edge:
            j = index.get(x) if isinstance(x, str) else None
            if j is None:
                raise InputError(f"{source}: unknown actor {x!r}")
            members.append(j)
        resolved.append(members)
    return UndirectedHypergraph(actors, resolved)


def structure_to_doc(s):
    """A structure's edges: sorted [src, tgt] pairs, or {"src", "tgt"} hyperedges."""
    if isinstance(s, Relation):
        return sorted([a, b] for a, b in s.label_pairs())
    return [{"src": src, "tgt": list(tgt)} for src, tgt in sorted(s.label_edges())]


def structure_lines(structures):
    """Yield ``json.dumps(structure_to_doc(x), sort_keys=True)`` for each structure x.

    The text is the same, byte for byte, but each piece is made once per
    roster: a line lists its actors' parts in label order, the JSON of one
    actor's part (``x.parts[a]``, a relation's row or an F-structure's family)
    is made once per distinct (actor, part), and an F-structure's target set is
    formatted once.  Later structures that hold the same part reuse its text.
    The text is kept only while the generator runs, and only for the roster
    of the structure at hand.
    """
    form = None
    for x in structures:
        if form is None or x.actors is not form.actors:
            form = _Fragments(x.actors)
        yield form.line(x)


class _Fragments:
    """The JSON text of one roster's actor parts, each made once (see ``structure_lines``)."""

    def __init__(self, actors):
        labels = actors.labels
        self.actors = actors
        self.quoted = [json.dumps(lab) for lab in labels]
        self.order = sorted(range(len(labels)), key=labels.__getitem__)
        self.rank = [0] * len(labels)
        for r, a in enumerate(self.order):
            self.rank[a] = r
        self.parts = {}
        self.targets = {}

    def line(self, x):
        """The JSON list of ``x``'s edges, actors in label order."""
        fragment = self._pairs if isinstance(x, Relation) else self._hyperedges
        parts, cache = x.parts, self.parts
        out = []
        for a in self.order:
            part = parts[a]
            if part:
                key = (a, part)
                text = cache.get(key)
                if text is None:
                    text = cache[key] = fragment(self.quoted[a], part)
                out.append(text)
        return "[" + ", ".join(out) + "]"

    def _pairs(self, src, row):
        """The [src, tgt] pairs of one row, targets in label order."""
        quoted = self.quoted
        return ", ".join(
            f"[{src}, {quoted[b]}]" for b in sorted(row, key=self.rank.__getitem__)
        )

    def _hyperedges(self, src, family):
        """The {"src", "tgt"} hyperedges of one family, ordered by their targets' labels."""
        return ", ".join(
            f'{{"src": {src}, "tgt": [{text}]}}' for _, text in sorted(map(self._target, family))
        )

    def _target(self, members):
        """A target's sort key, its members' label ranks, and its members' JSON.

        Members stay in roster order within a target, as ``label_edges`` gives them.
        """
        got = self.targets.get(members)
        if got is None:
            got = self.targets[members] = (
                [self.rank[j] for j in members],
                ", ".join(self.quoted[j] for j in members),
            )
        return got


def network_to_doc(net):
    if isinstance(net, MultiStructure):
        return {
            "kind": "graph" if isinstance(net, MultiNetwork) else "fhyper",
            "actors": list(net.actors.labels),
            "relations": {name: structure_to_doc(s) for name, s in net.relations.items()},
        }
    if isinstance(net, UndirectedHypergraph):
        return {
            "kind": "undirected",
            "actors": list(net.actors.labels),
            "hyperedges": sorted(sorted(edge) for edge in net.label_hyperedges()),
        }
    raise StructuralError(f"cannot serialize {type(net).__name__}")


def load_network(path):
    return network_from_doc(_load_json(path), source=str(path))


def save_network(net, path):
    write_text(path, dumps_canonical(network_to_doc(net)))


# ── partitions ───────────────────────────────────────────────────────────────

def partition_from_doc(doc, actors, source="<input>"):
    if not isinstance(doc, dict) or not isinstance(doc.get("blocks"), list):
        raise InputError(f"{source}: field 'blocks' must be a list of label lists")
    blocks = doc["blocks"]
    # one trusting pass; on any doubt the checking pass below names the error
    if set(map(type, blocks)) <= {list} and set(map(type, chain.from_iterable(blocks))) <= {str}:
        members = list(map(actors.index.get, chain.from_iterable(blocks)))
        n = len(actors)
        if len(members) == n and None not in members and len(set(members)) == n:
            block_of = [0] * n
            members = iter(members)
            for b, block in enumerate(blocks):
                for i in islice(members, len(block)):
                    block_of[i] = b
            return Partition(actors, block_of)
    for block in blocks:
        if not (isinstance(block, list) and all(isinstance(x, str) for x in block)):
            raise InputError(f"{source}: block {block!r} is not a list of labels")
    try:
        return Partition.from_label_blocks(actors, blocks)
    except StructuralError as exc:
        raise InputError(f"{source}: {exc}") from None


def partition_to_doc(e):
    return {"blocks": e.label_blocks()}


def load_partition(path, actors):
    return partition_from_doc(_load_json(path), actors, source=str(path))


def save_partition(e, path):
    write_text(path, dumps_canonical(partition_to_doc(e)))


# ── actor maps ───────────────────────────────────────────────────────────────

def map_from_doc(doc, source_actors, target_actors, source="<input>"):
    if not isinstance(doc, dict) or not isinstance(doc.get("map"), dict):
        raise InputError(f"{source}: field 'map' must be an object of label pairs")
    mapping = doc["map"]
    for key, value in mapping.items():
        if not isinstance(value, str):
            raise InputError(f"{source}: map entry {key!r} must name a target actor")
    try:
        return ActorMap.from_labels(source_actors, target_actors, mapping)
    except StructuralError as exc:
        raise InputError(f"{source}: {exc}") from None


def map_to_doc(f):
    return {
        "map": {
            lab: f.target.labels[f.image[i]] for i, lab in enumerate(f.source.labels)
        }
    }


def load_map(path, source_actors, target_actors):
    return map_from_doc(_load_json(path), source_actors, target_actors, source=str(path))


# ── chain stages ─────────────────────────────────────────────────────────────

def load_stage(path):
    """A chain stage: a network plus its 'map' field as written (None on the last stage)."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "network" not in doc:
        raise InputError(f"{path}: stage document needs a 'network' field")
    return network_from_doc(doc["network"], source=str(path)), doc.get("map")


def stage_to_doc(net, mapping=None):
    doc = {"network": network_to_doc(net)}
    if mapping is not None:
        doc["map"] = dict(mapping)
    return doc
