"""Random and garbled documents fed to every CLI verb.

Whatever the documents hold, ``main`` must return an exit code of the
contract (0 success, 1 negative verdict, 2 input error, 3 resource cap) and
let no exception escape; an input error is reported on stderr as "error:".
Documents are well-formed networks of all three kinds over at most 4
actors, so the verbs get past parsing, except for at most one per run, which
is damaged: truncated, given a field of the wrong type, bad bytes or deep
nesting.  Closures are capped at 3 or 40 elements, so every exit code occurs.
The test runs once per verb, so each verb gets its share of examples on every
run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roleblock.cli import main

LABELS = ["a", "b", "c", "d"]
NAMES = ["P", "S"]

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["", "a", "zz", "0", "P"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "actors", "src", "tgt", "map", "a", "P"]), inner,
                      max_size=3),
    max_leaves=8,
)


@st.composite
def network_doc(draw, kind=None):
    actors = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    kind = kind or draw(st.sampled_from(["graph", "fhyper", "undirected"]))
    pick = st.sampled_from(actors)
    if kind == "undirected":
        edges = draw(st.lists(st.lists(pick, max_size=3), max_size=4))
        return {"kind": kind, "actors": actors, "hyperedges": edges}
    if kind == "graph":
        edge = st.tuples(pick, pick).map(list)
    else:
        edge = st.builds(lambda s, t: {"src": s, "tgt": t}, pick, st.lists(pick, max_size=3))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True))
    return {
        "kind": kind,
        "actors": actors,
        "relations": {name: draw(st.lists(edge, max_size=8)) for name in names},
    }


def partition_doc(actors):
    return st.lists(st.integers(0, 2), min_size=len(actors), max_size=len(actors)).map(
        lambda block_of: {
            "blocks": [
                [a for a, b in zip(actors, block_of) if b == k]
                for k in sorted(set(block_of))
            ]
        }
    )


def map_doc(actors, targets):
    return st.lists(st.sampled_from(targets), min_size=len(actors), max_size=len(actors)).map(
        lambda image: {"map": dict(zip(actors, image))}
    )


@st.composite
def damaged(draw, doc):
    """The document's bytes, damaged in one of several ways."""
    text = json.dumps(doc).encode()
    how = draw(st.sampled_from(["truncate", "retype", "bytes", "nest"]))
    if how == "truncate":
        return text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    if how == "retype":
        key = draw(st.sampled_from(sorted(doc)))
        return json.dumps(dict(doc, **{key: draw(junk)})).encode()
    if how == "bytes":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.binary(min_size=1, max_size=3)) + b"\xff" + text[at:]
    depth = draw(st.sampled_from([50, 5_000, 100_000]))
    return b"[" * depth + b"]" * draw(st.sampled_from([0, depth]))


VERBS = {
    "check-regular": ["--network", "src.json", "--partition", "e.json", "MODE"],
    "max-regular": ["--network", "src.json", "--seed", "e.json", "MODE"],
    "blockmodel": ["--network", "src.json", "--partition", "e.json", "-o", "q.json",
                   "--dot", "q.dot"],
    "roles": ["--network", "src.json", "--words", "--table", "t.csv", "CLOSURE"],
    "induce": ["--source", "src.json", "--map", "map.json", "--target", "dst.json", "CLOSURE"],
    "functor-check": ["--stages", "s1.json", "s2.json", "CLOSURE"],
    "convert": ["--undirected", "u.json", "-o", "c.json"],
    "oracle": ["WHAT", "--network", "src.json", "MODE"],
}


@st.composite
def case(draw, verb):
    """An argv for ``verb``, and the files it reads by name, at most one damaged."""
    src = draw(network_doc())
    dst = draw(network_doc(src["kind"]))
    actors, targets = src["actors"], dst["actors"]
    docs = {
        "src.json": src,
        "dst.json": dst,
        "e.json": draw(partition_doc(actors)),
        "map.json": draw(map_doc(actors, targets)),
        "s1.json": {"network": src, "map": draw(map_doc(actors, targets))["map"]},
        "s2.json": {"network": dst},
        "u.json": draw(network_doc()),
    }
    files = {name: json.dumps(doc).encode() for name, doc in docs.items()}
    victim = draw(st.sampled_from([None] + [a for a in VERBS[verb] if a in files]))
    if victim:
        files[victim] = draw(damaged(docs[victim]))

    compose = "graph" if src["kind"] == "graph" else draw(st.sampled_from(["tight", "loose"]))
    closure = ["--compose", compose, "--cap", draw(st.sampled_from(["3", "40"]))]
    if compose == "loose" and draw(st.booleans()):
        closure.append("--prune-empty")
    mode = ["--mode", draw(st.sampled_from(["out", "in", "both"]))] if draw(st.booleans()) else []
    what = draw(st.sampled_from(["coarsest", "partitions"]))
    argv = [verb]
    for a in VERBS[verb]:
        argv += {"MODE": mode, "CLOSURE": closure, "WHAT": [what]}.get(a, [a])
    return argv, files


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_verb_keeps_the_exit_code_contract(verb, draws):
    argv, files = draws.draw(case(verb))
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        for name, data in files.items():
            (where / name).write_bytes(data)
        argv = [str(where / a) if a.endswith((".json", ".dot", ".csv")) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert err.getvalue().startswith("error:"), err.getvalue()
        if code == 3:
            assert err.getvalue().startswith("resource limit:"), err.getvalue()
        assert not [p.name for p in where.iterdir() if p.name.endswith(".tmp")]
