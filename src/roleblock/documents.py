"""JSON document formats for networks, partitions, actor maps, and chain stages.

One canonical serialization: keys sorted, edges deduplicated and sorted,
actors kept in roster order.  Loading tolerates duplicate edges and any key
order; saving a loaded document therefore canonicalizes it in one pass.
"""

import json
import os

from .core import ActorSet, MultiNetwork, MultiStructure, Partition, Relation
from .errors import InputError, StructuralError
from .hypergraph import FHyperStructure, MultiHypergraph, UndirectedHypergraph
from .reduction import ActorMap

KINDS = ("graph", "fhyper", "undirected")


def dumps_canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json(path):
    """The JSON document in the file at ``path``; unreadable text is an InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: line {exc.lineno}: malformed JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, or too long an integer
            raise InputError(f"{path}: unreadable JSON: {exc}") from None


def write_text(path, text):
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a fresh file beside the target, which then replaces the
    target in one step; if anything fails, the target keeps its old content
    and the fresh file is removed.  An ``OSError`` names ``path``, not the
    fresh file.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None


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
                pairs = [_parse_pair(e, name, source) for e in edges]
                parsed.append((name, Relation.from_label_pairs(actors, pairs)))
            else:
                records = [_parse_hyperedge(e, name, source) for e in edges]
                parsed.append((name, FHyperStructure.from_label_edges(actors, records)))
        except StructuralError as exc:
            raise InputError(f"{source}: relation {name!r}: {exc}") from None
    try:
        if kind == "graph":
            return MultiNetwork(actors, parsed)
        return MultiHypergraph(actors, parsed)
    except StructuralError as exc:
        raise InputError(f"{source}: {exc}") from None


def _parse_pair(edge, name, source):
    if not (isinstance(edge, list) and len(edge) == 2 and all(isinstance(x, str) for x in edge)):
        raise InputError(f"{source}: relation {name!r}: edge {edge!r} is not a [src, tgt] pair")
    return edge[0], edge[1]


def _parse_hyperedge(edge, name, source):
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


def structure_to_doc(s):
    """A structure's edges: sorted [src, tgt] pairs, or {"src", "tgt"} hyperedges."""
    if isinstance(s, Relation):
        return sorted([a, b] for a, b in s.label_pairs())
    return [{"src": src, "tgt": list(tgt)} for src, tgt in sorted(s.label_edges())]


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
