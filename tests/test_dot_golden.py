"""Byte-for-byte DOT output for a graph network and an F-hypergraph.

Both fixtures have nine relations, so the eight-entry palette wraps back to
black for the ninth; an actor label and a relation name hold ``"`` and ``\\``,
and the F-hypergraph has an empty target set, a junction with no lines out.
"""

from roleblock import ActorSet, FHyperStructure, MultiHypergraph, MultiNetwork, Relation
from roleblock.dot import export_dot

ACTORS = ActorSet(["a", 'say "hi"', "back\\slash"])


def graph():
    rels = [(f"R{k}", Relation.from_pairs(ACTORS, [(k % 3, (k + 1) % 3)])) for k in range(9)]
    rels[4] = ('R"4\\', Relation.from_pairs(ACTORS, [(1, 2), (2, 1)]))
    return MultiNetwork(ACTORS, rels)


def hyper():
    rels = [
        (f"H{k}", FHyperStructure.from_edges(ACTORS, [(k % 3, [(k + 1) % 3])])) for k in range(9)
    ]
    rels[0] = ("H0", FHyperStructure.from_edges(ACTORS, [(0, []), (0, [1, 2]), (2, [0])]))
    return MultiHypergraph(ACTORS, rels)


GRAPH_DOT = r"""digraph network {
  n0 [label="a"];
  n1 [label="say \"hi\""];
  n2 [label="back\\slash"];
  n0 -> n1 [label="R0", color=black, style=solid];
  n1 -> n2 [label="R1", color=red, style=dashed];
  n2 -> n0 [label="R2", color=blue, style=dotted];
  n0 -> n1 [label="R3", color=forestgreen, style=solid];
  n1 -> n2 [label="R\"4\\", color=purple, style=dashed];
  n2 -> n1 [label="R\"4\\", color=purple, style=dashed];
  n2 -> n0 [label="R5", color=darkorange, style=dotted];
  n0 -> n1 [label="R6", color=brown, style=bold];
  n1 -> n2 [label="R7", color=teal, style=solid];
  n2 -> n0 [label="R8", color=black, style=solid];
}
"""

HYPER_DOT = r"""digraph network {
  n0 [label="a"];
  n1 [label="say \"hi\""];
  n2 [label="back\\slash"];
  j0_0 [shape=point, width=0.08, color=black];
  n0 -> j0_0 [label="H0", color=black, style=solid];
  j0_1 [shape=point, width=0.08, color=black];
  n0 -> j0_1 [label="H0", color=black, style=solid];
  j0_1 -> n1 [dir=none, color=black, style=solid];
  j0_1 -> n2 [dir=none, color=black, style=solid];
  j0_2 [shape=point, width=0.08, color=black];
  n2 -> j0_2 [label="H0", color=black, style=solid];
  j0_2 -> n0 [dir=none, color=black, style=solid];
  j1_0 [shape=point, width=0.08, color=red];
  n1 -> j1_0 [label="H1", color=red, style=dashed];
  j1_0 -> n2 [dir=none, color=red, style=dashed];
  j2_0 [shape=point, width=0.08, color=blue];
  n2 -> j2_0 [label="H2", color=blue, style=dotted];
  j2_0 -> n0 [dir=none, color=blue, style=dotted];
  j3_0 [shape=point, width=0.08, color=forestgreen];
  n0 -> j3_0 [label="H3", color=forestgreen, style=solid];
  j3_0 -> n1 [dir=none, color=forestgreen, style=solid];
  j4_0 [shape=point, width=0.08, color=purple];
  n1 -> j4_0 [label="H4", color=purple, style=dashed];
  j4_0 -> n2 [dir=none, color=purple, style=dashed];
  j5_0 [shape=point, width=0.08, color=darkorange];
  n2 -> j5_0 [label="H5", color=darkorange, style=dotted];
  j5_0 -> n0 [dir=none, color=darkorange, style=dotted];
  j6_0 [shape=point, width=0.08, color=brown];
  n0 -> j6_0 [label="H6", color=brown, style=bold];
  j6_0 -> n1 [dir=none, color=brown, style=bold];
  j7_0 [shape=point, width=0.08, color=teal];
  n1 -> j7_0 [label="H7", color=teal, style=solid];
  j7_0 -> n2 [dir=none, color=teal, style=solid];
  j8_0 [shape=point, width=0.08, color=black];
  n2 -> j8_0 [label="H8", color=black, style=solid];
  j8_0 -> n0 [dir=none, color=black, style=solid];
}
"""


def test_graph_dot_is_byte_identical():
    assert export_dot(graph()) == GRAPH_DOT


def test_hyper_dot_is_byte_identical():
    assert export_dot(hyper()) == HYPER_DOT
