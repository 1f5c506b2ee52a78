"""The inward reader ``core.Converse``, pinned to ``Relation.transpose``.

An inward view reads a relation backwards from its own rows.  On random
relations with self-loops, empty rows, isolated actors and one hub (a full
row or a full column), every read of a ``Converse`` equals the same read of
the explicit transpose, and refinement over ``views("in"|"both")`` equals
``naive_refine`` over explicit transposes.  With ``Relation.transpose`` made
to raise, the inward checks, refinement, validation and the CLI verbs built
on them give what the oracles over explicit transposes give.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    actors,
    naive_outward_regular,
    naive_preserves,
    naive_pushforward,
    naive_refine,
    naive_reflects,
    random_partition,
)
from roleblock import (
    ActorMap,
    MultiNetwork,
    Relation,
    documents,
    is_inward_regular,
    is_outward_regular,
    max_regular_partition,
    network_passes,
    validate_positional_reduction,
)
from roleblock.cli import main
from roleblock.core import Converse, refine

SETTINGS = settings(max_examples=80, deadline=None)


def shaped_relation(rng, acts):
    """A random relation with some self-loops, some isolated actors and one hub."""
    n = len(acts)
    density = rng.choice([0.1, 0.25, 0.5])
    rows = [{j for j in range(n) if rng.random() < density} for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.3:
            rows[i].add(i)
    hub = rng.randrange(n)
    if rng.random() < 0.5:
        rows[hub] = set(range(n))
    else:
        for row in rows:
            row.add(hub)
    isolated = {i for i in range(n) if i != hub and rng.random() < 0.15}
    rows = [set() if i in isolated else row - isolated for i, row in enumerate(rows)]
    return Relation(acts, rows)


def shaped_network(rng, n_max=12):
    acts = actors(rng.randint(1, n_max))
    return MultiNetwork(acts, [(name, shaped_relation(rng, acts)) for name in "PQR"[: rng.randint(1, 3)]])


def explicit_views(net, mode):
    rels = list(net.relations.values())
    converses = [r.transpose() for r in rels]
    return {"in": converses, "both": rels + converses}[mode]


@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_converse_reads_equal_the_transposes(rng):
    net = shaped_network(rng)
    n = len(net.actors)
    e = random_partition(rng, net.actors)
    images = [e.block_of, tuple(rng.randrange(n) for _ in range(n)), range(n)]
    for r in net.relations.values():
        c, t = Converse(r), r.transpose()
        assert c.actors == t.actors
        for i in range(n):
            assert tuple(c.support(i)) == t.support(i)
        for image in images:
            assert list(c.signatures(image)) == list(t.signatures(image))
            assert [c.signature(i, image) for i in range(n)] == [t.signature(i, image) for i in range(n)]
        assert is_inward_regular(r, e) == is_outward_regular(t, e) == naive_outward_regular(t, e)


@pytest.mark.parametrize("mode", ["in", "both"])
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_refinement_over_inward_views_equals_naive_rounds_over_transposes(mode, rng):
    net = shaped_network(rng)
    seed = random_partition(rng, net.actors) if rng.random() < 0.5 else None
    expected = naive_refine(explicit_views(net, mode), net.actors, seed)
    assert refine(net.views(mode), net.actors, seed) == expected
    assert max_regular_partition(net, mode, seed) == expected


def _refusing(self):
    raise AssertionError("a transposed relation was built")


def _cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_no_transposed_relation_is_built(tmp_path, monkeypatch, capsys):
    rng = random.Random(11)
    net = shaped_network(rng, n_max=40)
    while len(net.actors) < 20:
        net = shaped_network(rng, n_max=40)
    acts = net.actors
    partitions = [random_partition(rng, acts)] + [max_regular_partition(net, m) for m in ("in", "both")]
    documents.save_network(net, tmp_path / "net.json")
    for k, e in enumerate(partitions):
        documents.save_partition(e, tmp_path / f"e{k}.json")
    # the expected outputs, from oracles over explicit transposes
    expected = {}
    for mode in ("in", "both"):
        views = explicit_views(net, mode)
        refined = naive_refine(views, acts)
        expected["max-regular", mode] = (0, documents.dumps_canonical(documents.partition_to_doc(refined)), "")
        for k, e in enumerate(partitions):
            lines, ok = [], True
            for name, r in net.relations.items():
                flags = []
                if mode == "both":
                    flags.append(f"outward={'yes' if naive_outward_regular(r, e) else 'no'}")
                    ok = ok and naive_outward_regular(r, e)
                inward = naive_outward_regular(r.transpose(), e)
                flags.append(f"inward={'yes' if inward else 'no'}")
                ok = ok and inward
                lines.append(f"{name}: " + " ".join(flags))
            lines.append(f"result: {'regular' if ok else 'not regular'}")
            expected["check-regular", mode, k] = (0 if ok else 1, "\n".join(lines) + "\n", "")
            expected["passes", mode, k] = ok
    targets = actors(5, prefix="w")
    f = ActorMap(acts, targets, [rng.randrange(5) for _ in range(len(acts) - 5)] + list(range(5)))
    dst = MultiNetwork(targets, [(name, shaped_relation(rng, targets)) for name in net.names])
    image = MultiNetwork(targets, [(name, naive_pushforward(r, f)) for name, r in net.relations.items()])
    reports = {}
    for key, d in (("random", dst), ("image", image)):
        reports[key] = (
            {n: naive_preserves(f, r.transpose(), d.relations[n].transpose()) for n, r in net.relations.items()},
            {n: naive_reflects(f, r.transpose(), d.relations[n].transpose()) for n, r in net.relations.items()},
            all(naive_pushforward(r, f) == d.relations[n] for n, r in net.relations.items()),
        )
    assert reports["image"][2] and not reports["random"][2]

    monkeypatch.setattr(Relation, "transpose", _refusing)
    monkeypatch.chdir(tmp_path)
    for mode in ("in", "both"):
        got = _cli(capsys, ["max-regular", "--network", "net.json", "--mode", mode])
        assert got == expected["max-regular", mode]
        for k, e in enumerate(partitions):
            argv = ["check-regular", "--network", "net.json", "--partition", f"e{k}.json", "--mode", mode]
            assert _cli(capsys, argv) == expected["check-regular", mode, k]
            assert network_passes(net, e, mode) == expected["passes", mode, k]
    for key, d in (("random", dst), ("image", image)):
        report = validate_positional_reduction(f, net, d, mode="in")
        assert (report.preserves, report.reflects, report.matches_blockmodel) == reports[key]
