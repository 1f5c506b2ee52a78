"""The library's own error messages, pinned word for word.

Each case calls one public function with the one bad argument that its
check names, and compares the whole message: a caller who reads
``str(exc)`` sees exactly this text.
"""

import pytest

from roleblock import (
    ActorSet,
    ElementCongruence,
    FHyperStructure,
    MultiNetwork,
    Partition,
    SemigroupHom,
    StructuralError,
    documents,
    empty_relation,
    generator_induced_hom,
    neighbourhood,
    quotient_map,
    quotient_semigroup,
    role_semigroup,
    validate_positional_reduction,
)
from roleblock.fixtures import family_three, parent_tree_hyper
from roleblock.semigroup import composition_for

AB = ActorSet(["a", "b"])


def _graph_roles():
    return role_semigroup(family_three(), "graph")


def _kinds_differ():
    hyper = parent_tree_hyper()
    graph = MultiNetwork(hyper.actors, [("H", empty_relation(hyper.actors))])
    generator_induced_hom(role_semigroup(graph, "graph"), role_semigroup(hyper, "tight"))


def _homs_do_not_chain():
    s, t = _graph_roles(), _graph_roles()
    SemigroupHom(s, s, range(len(s))).compose_with(SemigroupHom(t, t, range(len(t))))


def _foreign_congruence():
    s, t = _graph_roles(), _graph_roles()
    quotient_semigroup(s, ElementCongruence(t, range(len(t))))


def _validate_in_both_modes():
    net = family_three()
    validate_positional_reduction(quotient_map(Partition.discrete(net.actors)), net, net, "both")


CASES = {
    "partition-length": (
        lambda: Partition(AB, [0]),
        "expected 2 block assignments, got 1",
    ),
    "partition-block-index": (
        lambda: Partition.from_blocks(AB, [[0, 5]]),
        "actor index 5 out of range",
    ),
    "duplicate-relation-name": (
        lambda: MultiNetwork(AB, [("R", empty_relation(AB)), ("R", empty_relation(AB))]),
        "duplicate relation name 'R'",
    ),
    "serialize-unknown-type": (
        lambda: documents.network_to_doc(AB),
        "cannot serialize ActorSet",
    ),
    "hyperedge-source-index": (
        lambda: FHyperStructure.from_edges(AB, [(2, [0])]),
        "source index 2 out of range",
    ),
    "neighbourhood-index": (
        lambda: neighbourhood(parent_tree_hyper().relations["H"], 7),
        "actor index 7 out of range",
    ),
    "validation-mode": (
        _validate_in_both_modes,
        "mode must be 'out' or 'in', got 'both'",
    ),
    "compose-kind": (
        lambda: composition_for("dense"),
        "compose kind must be one of ('graph', 'tight', 'loose'), got 'dense'",
    ),
    "graph-composition-of-hypergraphs": (
        lambda: role_semigroup(parent_tree_hyper(), "graph"),
        "graph composition needs a graph network",
    ),
    "congruence-length": (
        lambda: ElementCongruence(_graph_roles(), [0]),
        "congruence must assign a class to every element",
    ),
    "homs-do-not-chain": (
        _homs_do_not_chain,
        "homs do not chain: first target is not second source",
    ),
    "foreign-congruence": (
        _foreign_congruence,
        "congruence belongs to a different semigroup",
    ),
    "composition-kinds-differ": (
        _kinds_differ,
        "composition kinds differ",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_error_message(case):
    call, message = CASES[case]
    with pytest.raises(StructuralError) as info:
        call()
    assert str(info.value) == message
