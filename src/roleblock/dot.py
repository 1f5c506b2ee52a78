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
    if not isinstance(net, (MultiNetwork, MultiHypergraph)):
        raise StructuralError(f"cannot render {type(net).__name__} as DOT")
    lines = ["digraph network {"]
    lines += [f"  n{i} [label={_quote(lab)}];" for i, lab in enumerate(net.actors.labels)]
    for ri, (name, s) in enumerate(net.relations.items()):
        color, style = _STYLES[ri % len(_STYLES)]
        arrow = f"[label={_quote(name)}, color={color}, style={style}];"
        if isinstance(net, MultiNetwork):
            lines += [f"  n{i} -> n{j} {arrow}" for i, j in s.edges()]
        else:
            plain = f"[dir=none, color={color}, style={style}];"
            for ei, (a, tgt) in enumerate(s.edges()):
                junction = f"j{ri}_{ei}"
                lines.append(f"  {junction} [shape=point, width=0.08, color={color}];")
                lines.append(f"  n{a} -> {junction} {arrow}")
                lines += [f"  {junction} -> n{j} {plain}" for j in tgt]
    lines.append("}")
    return "\n".join(lines) + "\n"
