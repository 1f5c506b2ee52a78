"""Command-line interface.

Exit codes: 0 success (and positive analytic results), 1 negative analytic
result (not regular, no induced reduction, functoriality failure), 2 input
errors and internal errors, 3 resource caps and running out of memory.
Primary results go to standard output, diagnostics to standard error.
"""

import argparse
import functools
import json
import sys

from . import documents
from .core import (
    MultiNetwork,
    blockmodel_network,
    coarsest_regular_bruteforce,
    enumerate_partitions,
    is_inward_regular,
    is_outward_regular,
    max_regular_partition,
)
from .dot import export_dot
from .errors import (
    EngineError,
    InputError,
    NotAReductionError,
    ResourceLimitError,
    StructuralError,
    WellDefinednessError,
)
from .hypergraph import (
    MultiHypergraph,
    UndirectedHypergraph,
    blockmodel_multihypergraph,
    coarsest_regular_hyper_bruteforce,
    from_undirected,
    is_regular_hyper,
    max_regular_hyper_partition,
)
from .reduction import (
    check_functoriality,
    role_closures,
    validate_positional_reduction,
    yes_no,
)
from .semigroup import (
    COMPOSE_KINDS,
    DEFAULT_CAP,
    find_identity,
    generator_induced_hom,
    render_table_csv,
    role_semigroup,
)


def _multirelational(net, path):
    """``net``, read from ``path``; an undirected hypergraph is an input error."""
    if isinstance(net, UndirectedHypergraph):
        raise InputError(f"{path}: undirected hypergraphs carry no named relations; "
                         "convert to fhyper first")
    return net


def _load_multirelational(path):
    return _multirelational(documents.load_network(path), path)


def _write_output(text, path):
    """Write ``text`` to the file at ``path``, or to standard output when there is none."""
    if path:
        documents.write_text(path, text)
    else:
        sys.stdout.write(text)


def _resolve_mode(mode, net):
    if isinstance(net, MultiHypergraph):
        if mode is not None:
            raise InputError("--mode applies only to graph networks")
        return None
    return mode or "both"


# ── subcommands ──────────────────────────────────────────────────────────────

def _cmd_check_regular(args):
    net = _load_multirelational(args.network)
    e = documents.load_partition(args.partition, net.actors)
    mode = _resolve_mode(args.mode, net)
    ok = True
    if isinstance(net, MultiNetwork):
        for name, rel in net.relations.items():
            flags = []
            if mode in ("out", "both"):
                out = is_outward_regular(rel, e)
                flags.append(f"outward={yes_no(out)}")
                ok = ok and out
            if mode in ("in", "both"):
                inw = is_inward_regular(rel, e)
                flags.append(f"inward={yes_no(inw)}")
                ok = ok and inw
            print(f"{name}: " + " ".join(flags))
    else:
        for name, h in net.relations.items():
            reg = is_regular_hyper(h, e)
            print(f"{name}: regular={yes_no(reg)}")
            ok = ok and reg
    print(f"result: {'regular' if ok else 'not regular'}")
    return 0 if ok else 1


def _cmd_max_regular(args):
    net = _load_multirelational(args.network)
    mode = _resolve_mode(args.mode, net)
    seed = documents.load_partition(args.seed, net.actors) if args.seed else None
    if isinstance(net, MultiNetwork):
        e = max_regular_partition(net, mode=mode, seed=seed)
    else:
        e = max_regular_hyper_partition(net, seed=seed)
    sys.stdout.write(documents.dumps_canonical(documents.partition_to_doc(e)))
    return 0


def _cmd_blockmodel(args):
    net = _load_multirelational(args.network)
    e = documents.load_partition(args.partition, net.actors)
    if isinstance(net, MultiNetwork):
        quotient = blockmodel_network(net, e)
    else:
        quotient = blockmodel_multihypergraph(net, e)
    _write_output(documents.dumps_canonical(documents.network_to_doc(quotient)), args.output)
    if args.dot:
        documents.write_text(args.dot, export_dot(quotient))
    return 0


def _cmd_roles(args):
    """Print the role semigroup's summary and, with ``--words``, one line per element.

    A word line is the element's word label, a tab, and its edges as the
    one-line JSON of ``documents.structure_lines``; lines follow closure order
    and are written one at a time.  With ``--table -`` the CSV table takes
    standard output, so the summary and the word lines go to standard error.
    """
    net = _load_multirelational(args.network)
    s = role_semigroup(net, args.compose, prune_empty=args.prune_empty, cap=args.cap)

    table_to_stdout = args.table == "-"
    summary_stream = sys.stderr if table_to_stdout else sys.stdout
    zero = s.absorbing
    ident = find_identity(s)
    print(f"kind: {args.compose}" + (" (prune-empty)" if args.prune_empty else ""),
          file=summary_stream)
    print(f"generators: {','.join(s.generator_names)}", file=summary_stream)
    print(f"elements: {len(s)}", file=summary_stream)
    print(f"nonzero: {len(s.nonzero_indices())}", file=summary_stream)
    print(f"absorbing: {s.word_label(zero) if zero is not None else 'absent'}",
          file=summary_stream)
    print(f"identity: {s.word_label(ident) if ident is not None else 'absent'}",
          file=summary_stream)
    if args.words:
        for label, line in zip(s.word_labels(), documents.structure_lines(s.elements)):
            summary_stream.write(f"{label}\t{line}\n")

    if table_to_stdout:
        render_table_csv(s, sys.stdout.write)
    elif args.table:
        with documents.replacing(args.table) as fh:
            render_table_csv(s, fh.write)
    return 0


def _cmd_induce(args):
    src = _load_multirelational(args.source)
    dst = _load_multirelational(args.target)
    f = documents.load_map(args.map, src.actors, dst.actors)

    report = validate_positional_reduction(f, src, dst)
    for name, v in report.flags():
        print(f"{name}: {yes_no(v)}")
    print(f"validation: {'ok' if report.ok else 'failed'}")

    s_src, s_dst = role_closures([src, dst], args.compose, args.prune_empty, args.cap)
    try:
        hom = generator_induced_hom(s_src, s_dst)
    except WellDefinednessError as exc:
        print("hom: ill-defined")
        print(f"witness: {exc}")
        return 1
    print("hom: well-defined")
    dst_labels = s_dst.word_labels()
    for label, j in zip(s_src.word_labels(), hom.image):
        print(f"  {label} -> {dst_labels[j]}")
    print(f"hom surjective: {yes_no(hom.is_surjective)}")
    return 0 if report.ok else 1


def _cmd_functor_check(args):
    stages = [documents.load_stage(path) for path in args.stages]
    if len(stages) < 2:
        raise InputError("need at least two stages")
    networks = [_multirelational(net, path) for path, (net, _) in zip(args.stages, stages)]
    if stages[-1][1] is not None:
        raise InputError(f"{args.stages[-1]}: the final stage must not carry a map")
    maps = []
    for path, (net, mapping), nxt in zip(args.stages, stages, networks[1:]):
        if mapping is None:
            raise InputError(f"{path}: stage needs a 'map' onto the next stage")
        maps.append(documents.map_from_doc({"map": mapping}, net.actors, nxt.actors, source=path))

    try:
        report = check_functoriality(
            networks, maps, args.compose, prune_empty=args.prune_empty, cap=args.cap
        )
    except NotAReductionError as exc:
        print(f"stage validation failed: {exc.report.summary()}")
        return 1
    for i, step in enumerate(report.step_reports, start=1):
        print(f"stage {i}: {step.summary()}")
    print(f"identity law: {'ok' if report.identity_ok else 'failed'}")
    print(f"composition law: {'ok' if report.holds else 'failed'}")
    if report.counterexample:
        print(f"counterexample: {report.counterexample}")
    return 0 if report.ok else 1


def _cmd_convert(args):
    net = documents.load_network(args.undirected)
    if not isinstance(net, UndirectedHypergraph):
        raise InputError(f"{args.undirected}: expected kind 'undirected'")
    h = from_undirected(net)
    out = MultiHypergraph(net.actors, [("H", h)])
    _write_output(documents.dumps_canonical(documents.network_to_doc(out)), args.output)
    return 0


def _cmd_oracle(args):
    net = _load_multirelational(args.network)
    mode = _resolve_mode(args.mode, net)
    if args.what == "partitions":
        if args.mode is not None:
            raise InputError("--mode does not apply to oracle partitions")
        for e in enumerate_partitions(net.actors):
            print(json.dumps(documents.partition_to_doc(e), sort_keys=True))
        return 0
    if isinstance(net, MultiNetwork):
        e = coarsest_regular_bruteforce(net, mode=mode)
    else:
        e = coarsest_regular_hyper_bruteforce(net)
    sys.stdout.write(documents.dumps_canonical(documents.partition_to_doc(e)))
    return 0


# ── parser ───────────────────────────────────────────────────────────────────

def _add_compose_options(sub):
    sub.add_argument("--compose", required=True, choices=COMPOSE_KINDS)
    sub.add_argument("--prune-empty", action="store_true",
                     help="drop empty-target hyperedges after each loose composite")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP,
                     help="closure size limit (default %(default)s)")


def build_parser():
    """A fresh parser for the ``roleblock`` command, for callers who extend it.

    Its ``verbs`` attribute maps each verb to that verb's subparser.
    """
    parser = argparse.ArgumentParser(
        prog="roleblock",
        description="Role and positional analysis of multirelational networks "
                    "and F-hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-regular", help="test a partition for regularity")
    p.add_argument("--network", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--mode", choices=["out", "in", "both"])
    p.set_defaults(func=_cmd_check_regular)

    p = sub.add_parser("max-regular", help="coarsest regular partition refining a seed")
    p.add_argument("--network", required=True)
    p.add_argument("--mode", choices=["out", "in", "both"])
    p.add_argument("--seed", help="seed partition document (default: one block)")
    p.set_defaults(func=_cmd_max_regular)

    p = sub.add_parser("blockmodel", help="quotient a network by a partition")
    p.add_argument("--network", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("-o", "--output", help="write the quotient document here (default stdout)")
    p.add_argument("--dot", help="also write a DOT rendering of the quotient")
    p.set_defaults(func=_cmd_blockmodel)

    p = sub.add_parser("roles", help="generate the role semigroup")
    p.add_argument("--network", required=True)
    _add_compose_options(p)
    p.add_argument("--table", help="write the multiplication table as CSV ('-' for stdout)")
    p.add_argument("--words", action="store_true", help="list each element with its word")
    p.set_defaults(func=_cmd_roles)

    p = sub.add_parser(
        "induce",
        help="role reduction induced by an actor map",
        description="Validate an actor map as a positional reduction (outward "
                    "reflection only, as with mode 'out') and report the role "
                    "reduction it induces.",
    )
    p.add_argument("--source", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--target", required=True)
    _add_compose_options(p)
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("functor-check", help="check the composition law along a chain")
    p.add_argument("--stages", nargs="+", required=True)
    _add_compose_options(p)
    p.set_defaults(func=_cmd_functor_check)

    p = sub.add_parser("convert", help="read an undirected hypergraph as an F-hypergraph")
    p.add_argument("--undirected", required=True)
    p.add_argument("-o", "--output", help="write the fhyper document here (default stdout)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("oracle", help="small-instance brute-force oracles")
    p.add_argument("what", choices=["partitions", "coarsest"])
    p.add_argument("--network", required=True)
    p.add_argument("--mode", choices=["out", "in", "both"])
    p.set_defaults(func=_cmd_oracle)

    parser.verbs = sub.choices
    return parser


@functools.cache
def _parser():
    """The parser ``main`` uses, built on its first call."""
    return build_parser()


def main(argv=None):
    """Run one ``roleblock`` command on ``argv`` and return its exit code.

    ``main`` may be called any number of times in one process.  It builds its
    parser once, on the first call, and reuses it: parsing keeps no state in
    the parser, so each call sees only its own arguments and defaults.
    ``build_parser()`` returns a fresh parser for callers who want to extend it.

    An error is reported on standard error as one line and mapped to an exit
    code: 2 for input errors and internal errors (any exception that is not
    roleblock's own is followed by its traceback), 3 for resource caps and
    for running out of memory.  ``KeyboardInterrupt`` and ``SystemExit`` pass.

    When ``argv`` starts with a verb, the rest goes straight to that verb's
    subparser, which is what the full parser would hand it; leftovers are
    reported by the full parser, as it would.  Any other ``argv`` (empty,
    help, an unknown verb) gets the full parse.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is None:
        args = parser.parse_args(argv)
    else:
        args, extras = verb.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    try:
        return args.func(args)
    except (InputError, StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"resource limit: out of memory in {args.command}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: never let it pass for a verdict
        import traceback  # only here, so that no command pays for its import

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


def run():
    raise SystemExit(main())
