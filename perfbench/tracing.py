"""Spans around roleblock's public calls, installed from outside the library.

A traced repetition patches module attributes (the names each roleblock
module imported) with wrappers that record a span per call: name, start, end,
parent and an optional size.  Hot calls (compose, about a million per run) are
not stored one by one: each adds to a count and a total time kept under its
parent span.  The library source is never changed, and ``uninstall`` puts every
original back.
"""

import os
import time

# (module, attribute) -> span name.  These are the names the library modules
# call through, so a wrapper sees every call the library makes to them.
PATCHED_SPANS = {
    ("cli", "main"): "cli.main",
    ("documents", "load_network"): "documents.load",
    ("documents", "load_partition"): "documents.load",
    ("documents", "load_map"): "documents.load",
    ("documents", "load_stage"): "documents.load",
    ("documents", "dumps_canonical"): "documents.dump",
    ("documents", "partition_to_doc"): "documents.dump",
    ("documents", "network_to_doc"): "documents.dump",
    ("cli", "max_regular_partition"): "core.refine",
    ("cli", "is_outward_regular"): "core.check",
    ("cli", "is_inward_regular"): "core.check",
    ("cli", "blockmodel_network"): "core.blockmodel",
    ("cli", "coarsest_regular_bruteforce"): "core.oracle",
    ("cli", "max_regular_hyper_partition"): "hypergraph.refine",
    ("cli", "is_regular_hyper"): "hypergraph.check",
    ("cli", "blockmodel_multihypergraph"): "hypergraph.blockmodel",
    ("cli", "coarsest_regular_hyper_bruteforce"): "hypergraph.oracle",
    ("cli", "role_semigroup"): "semigroup.closure",
    ("cli", "render_table_csv"): "semigroup.render",
    ("cli", "generator_induced_hom"): "semigroup.hom",
    ("cli", "validate_positional_reduction"): "reduction.validate",
    ("cli", "check_functoriality"): "reduction.functor",
    ("cli", "export_dot"): "dot.export",
    ("reduction", "role_semigroup"): "semigroup.closure",
    ("reduction", "generator_induced_hom"): "semigroup.hom",
    ("reduction", "validate_positional_reduction"): "reduction.validate",
}

PATCHED_HOT = {
    ("semigroup", "compose_relations"): "core.compose",
    ("semigroup", "tight_compose"): "hypergraph.compose",
    ("semigroup", "loose_compose"): "hypergraph.compose",
}

# Library calls the benchmark makes itself (no CLI verb): attribute -> (module, span).
DIRECT = {
    "load_network": ("documents", "documents.load"),
    "load_partition": ("documents", "documents.load"),
    "load_map": ("documents", "documents.load"),
    "role_semigroup": ("semigroup", "semigroup.closure"),
    "congruence_closure": ("semigroup", "semigroup.congruence"),
    "quotient_semigroup": ("semigroup", "semigroup.quotient"),
    "generator_induced_hom": ("semigroup", "semigroup.hom"),
    "network_passes": ("core", "core.check"),
    "quotient_map": ("reduction", None),
    "validate_positional_reduction": ("reduction", "reduction.validate"),
    "induced_role_reduction": ("reduction", "reduction.induce"),
}


def untraced(roleblock):
    """The library calls the jobs make themselves, unwrapped."""
    return {attr: getattr(getattr(roleblock, module), attr) for attr, (module, _) in DIRECT.items()}


def _size_of(span, args, result):
    """The size recorded with a span: bytes read or written, or closure elements."""
    if span == "documents.load":
        return os.path.getsize(args[0])
    if span == "documents.dump" and isinstance(result, str):
        return len(result.encode())
    if span == "semigroup.closure":
        return len(result)
    return 0


class Tracer:
    def __init__(self, roleblock):
        self.rb = roleblock
        self.spans = []  # [name, start, end, parent, size]
        self.hot = {}  # (parent, name) -> [calls, seconds]
        self.stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self.hot = {}

    def span(self, name, fn):
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = _size_of(name, args, result)
            return result

        return wrapper

    def hot_call(self, name, fn):
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (stack[-1] if stack else -1, name)
                acc = self.hot.get(key)
                if acc is None:
                    self.hot[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    def direct(self):
        """Traced versions of the library calls the jobs make themselves."""
        funcs = {}
        for attr, (module, span) in DIRECT.items():
            fn = getattr(getattr(self.rb, module), attr)
            funcs[attr] = self.span(span, fn) if span else fn
        return funcs

    def install(self):
        for table, wrap in ((PATCHED_SPANS, self.span), (PATCHED_HOT, self.hot_call)):
            for (module, attr), name in table.items():
                mod = getattr(self.rb, module)
                if not hasattr(mod, attr):
                    raise RuntimeError(f"roleblock.{module} has no attribute {attr!r} to trace")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrap(name, original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


# ── per-layer metrics ────────────────────────────────────────────────────────

# Spans each workload must fire in a traced repetition.  A span that never
# fires means a call moved out from under its wrapper; the traced run then
# fails instead of reporting the layer as free.
EXPECTED = {
    "roles-graph": [
        "cli.main", "documents.load", "semigroup.closure", "core.compose", "semigroup.render",
        "semigroup.congruence", "semigroup.quotient", "semigroup.hom",
    ],
    "roles-hyper": [
        "cli.main", "documents.load", "semigroup.closure", "hypergraph.compose", "semigroup.render",
        "semigroup.congruence", "semigroup.quotient", "semigroup.hom", "reduction.validate",
        "reduction.induce", "reduction.functor",
    ],
    "positions": [
        "cli.main", "documents.load", "documents.dump", "core.refine", "core.check",
        "core.blockmodel", "hypergraph.refine", "hypergraph.check", "hypergraph.blockmodel",
        "reduction.validate", "dot.export",
    ],
    "small-batch": [
        "cli.main", "documents.load", "documents.dump", "core.refine", "core.check",
        "core.oracle", "core.blockmodel", "semigroup.closure", "semigroup.render",
        "hypergraph.refine", "hypergraph.check", "hypergraph.oracle",
    ],
}


def layer_metrics(spans, hot):
    """Per-layer totals of one traced repetition, by the names of BENCHMARK.json's
    ``per_layer`` (the worker adds ``trace.overhead_s``)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    hot_calls = {}
    hot_time = {}
    hot_under = [0.0] * len(spans)
    closure_compose_calls = 0
    for (parent, name), (calls, seconds) in hot.items():
        hot_calls[name] = hot_calls.get(name, 0) + calls
        hot_time[name] = hot_time.get(name, 0.0) + seconds
        if parent >= 0:
            hot_under[parent] += seconds
            if spans[parent][0] == "semigroup.closure":
                closure_compose_calls += calls

    total = {}
    count = {}
    self_time = {}
    size = {}
    cells = 0
    for i, (name, start, end, _, n) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i] - hot_under[i]
        size[name] = size.get(name, 0) + n
        if name == "semigroup.closure":
            cells += n * n

    elements = size.get("semigroup.closure", 0)
    return {
        "cli.calls": count.get("cli.main", 0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "documents.load_s": total.get("documents.load", 0.0),
        "documents.bytes_in": size.get("documents.load", 0),
        "documents.dump_s": total.get("documents.dump", 0.0),
        "documents.bytes_out": size.get("documents.dump", 0),
        "core.refine_s": total.get("core.refine", 0.0),
        "core.refine_calls": count.get("core.refine", 0),
        "core.check_s": total.get("core.check", 0.0),
        "core.check_calls": count.get("core.check", 0),
        "core.blockmodel_s": total.get("core.blockmodel", 0.0),
        "core.oracle_s": total.get("core.oracle", 0.0),
        "core.compose_calls": hot_calls.get("core.compose", 0),
        "core.compose_s": hot_time.get("core.compose", 0.0),
        "hypergraph.compose_calls": hot_calls.get("hypergraph.compose", 0),
        "hypergraph.compose_s": hot_time.get("hypergraph.compose", 0.0),
        "hypergraph.refine_s": total.get("hypergraph.refine", 0.0),
        "hypergraph.check_s": total.get("hypergraph.check", 0.0),
        "hypergraph.blockmodel_s": total.get("hypergraph.blockmodel", 0.0),
        "hypergraph.oracle_s": total.get("hypergraph.oracle", 0.0),
        "semigroup.closure_s": total.get("semigroup.closure", 0.0),
        "semigroup.closure_self_s": self_time.get("semigroup.closure", 0.0),
        "semigroup.elements": elements,
        "semigroup.table_cells": cells,
        "semigroup.yield": elements / closure_compose_calls if closure_compose_calls else 0.0,
        "semigroup.render_s": total.get("semigroup.render", 0.0),
        "semigroup.congruence_s": total.get("semigroup.congruence", 0.0),
        "semigroup.quotient_s": total.get("semigroup.quotient", 0.0),
        "semigroup.hom_s": total.get("semigroup.hom", 0.0),
        "reduction.validate_s": total.get("reduction.validate", 0.0),
        "reduction.induce_self_s": self_time.get("reduction.induce", 0.0),
        "reduction.functor_self_s": self_time.get("reduction.functor", 0.0),
        "dot.export_s": total.get("dot.export", 0.0),
    }


def fired(spans, hot):
    return {s[0] for s in spans} | {name for _, name in hot}
