"""Graphviz DOT rendering for networks, hypergraphs, and their blockmodels."""

from .core import MultiNetwork
from .errors import StructuralError
from .hypergraph import MultiHypergraph

# fixed palette cycled by relation index, so reruns are byte-identical
_STYLES = [
    ("black", "solid"),
    ("red", "dashed"),
    ("blue", "dotted"),
    ("forestgreen", "solid"),
    ("purple", "dashed"),
    ("darkorange", "dotted"),
    ("brown", "bold"),
    ("teal", "solid"),
]


def _quote(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(net):
    """One digraph; relation names label the edges, hyperedges go through
    junction points (arrow in from the source, plain lines out)."""
    if isinstance(net, MultiNetwork):
        return _graph_dot(net)
    if isinstance(net, MultiHypergraph):
        return _hyper_dot(net)
    raise StructuralError(f"cannot render {type(net).__name__} as DOT")


def _node_lines(actors):
    return [f"  n{i} [label={_quote(lab)}];" for i, lab in enumerate(actors.labels)]


def _graph_dot(net):
    lines = ["digraph network {"]
    lines += _node_lines(net.actors)
    for ri, (name, rel) in enumerate(net.relations.items()):
        color, style = _STYLES[ri % len(_STYLES)]
        for i, j in rel.pairs():
            lines.append(
                f"  n{i} -> n{j} [label={_quote(name)}, color={color}, style={style}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _hyper_dot(net):
    lines = ["digraph network {"]
    lines += _node_lines(net.actors)
    for ri, (name, h) in enumerate(net.relations.items()):
        color, style = _STYLES[ri % len(_STYLES)]
        for ei, (a, tgt) in enumerate(h.edges()):
            junction = f"j{ri}_{ei}"
            lines.append(f"  {junction} [shape=point, width=0.08, color={color}];")
            lines.append(
                f"  n{a} -> {junction} [label={_quote(name)}, color={color}, style={style}];"
            )
            for j in tgt:
                lines.append(f"  {junction} -> n{j} [dir=none, color={color}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
