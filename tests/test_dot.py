import re

import pytest

from roleblock import Partition, StructuralError, blockmodel_network
from roleblock.dot import export_dot
from roleblock.fixtures import (
    coauthor_undirected,
    family_three,
    parent_tree_hyper,
    single_parent_graph,
)


def test_graph_counts():
    text = export_dot(single_parent_graph())
    assert len(re.findall(r"^  n\d+ \[label=", text, re.M)) == 3
    assert len(re.findall(r"^  n\d+ -> n\d+ ", text, re.M)) == 2


def test_hyper_counts():
    text = export_dot(parent_tree_hyper())
    assert len(re.findall(r"^  n\d+ \[label=", text, re.M)) == 7
    assert len(re.findall(r"shape=point", text)) == 3
    # one arrow into each junction, plain lines out
    assert len(re.findall(r"-> j\d+_\d+ ", text)) == 3
    assert len(re.findall(r"dir=none", text)) == 6


def test_blockmodel_labels_sorted():
    net = family_three()
    e = Partition.from_label_blocks(net.actors, [["d", "a"], ["b"]])
    text = export_dot(blockmodel_network(net, e))
    assert 'label="{a,d}"' in text


def test_relation_styles_are_stable():
    text = export_dot(family_three())
    assert 'label="S", color=black' in text
    assert 'label="B", color=red' in text
    assert 'label="P", color=blue' in text


def test_deterministic():
    assert export_dot(family_three()) == export_dot(family_three())
    assert export_dot(parent_tree_hyper()) == export_dot(parent_tree_hyper())


def test_undirected_hypergraph_is_a_structural_error():
    with pytest.raises(StructuralError, match="cannot render UndirectedHypergraph as DOT"):
        export_dot(coauthor_undirected())
