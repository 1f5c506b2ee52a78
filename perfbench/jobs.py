"""One repetition of each workload's job, with an output check on every operation.

An operation is one ``roleblock.cli.main(argv)`` call, run in-process with
stdout and stderr captured, or one direct library call.  It fails when an
exception escapes the program, when the exit code is not the expected one, or
when one of its output checks fails.  The checks compare against the
benchmark's own oracle in ``gen`` (independent composition, closure and
refinement) and, at the default seed, against output digests recorded from
the library at the commit that defined the benchmark.
"""

import contextlib
import hashlib
import io
import json
import random
import time
from array import array

import gen

SAMPLES = 200


class Crash(Exception):
    """An exception escaped the program under test."""


class CheckFailed(Exception):
    """An output did not match what the operation must produce."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def need(state, key):
    """A value an earlier operation of the repetition produced."""
    if key not in state:
        raise Crash(f"needs {key!r}, which an earlier operation did not produce")
    return state[key]


class Ops:
    """Runs the operations of one repetition and keeps their account.

    ``outputs`` digests every exit code, stream and output file in order, so
    two repetitions (traced or not) can be compared byte for byte.
    ``busy_s`` is the time spent inside the program under test (``cli`` and
    ``call``), which leaves out the checks' own work.
    """

    def __init__(self, roleblock, lib, recorded=None):
        self.rb = roleblock
        self.lib = lib
        self.recorded = recorded or {}
        self.attempted = 0
        self.crashed = []
        self.wrong = []
        self.busy_s = 0.0
        self.outputs = hashlib.sha256()

    def op(self, op_id, body):
        self.attempted += 1
        try:
            body()
        except Crash as exc:
            self.crashed.append(f"{op_id}: {exc}")
        except Exception as exc:  # a failed or broken check: the output was wrong
            self.wrong.append(f"{op_id}: {type(exc).__name__}: {exc}")

    def call(self, name, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.lib[name](*args, **kwargs)
        except Exception as exc:
            raise Crash(f"{name} raised {type(exc).__name__}: {exc}") from None
        finally:
            self.busy_s += time.perf_counter() - t0

    def cli(self, argv, expect_exit=0):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.rb.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                raise Crash(f"{argv[0]} raised {type(exc).__name__}: {exc}") from None
            finally:
                self.busy_s += time.perf_counter() - t0
        out, err = out.getvalue(), err.getvalue()
        self.outputs.update(repr((argv, code, out, err)).encode())
        expect(code == expect_exit, f"exit code {code}, expected {expect_exit}: {err.strip()[:200]}")
        return out, err

    def read(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        self.outputs.update(text.encode())
        return text

    def check_digest(self, key, text):
        """At the default seed, an output's digest must equal the recorded one."""
        if self.recorded:
            expect(key in self.recorded, f"{key}: no digest recorded for this output")
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            expect(self.recorded[key] == digest, f"{key}: output digest differs from the recorded one")


# ── role-semigroup output checks ─────────────────────────────────────────────


def _to_element(kind, labels, doc):
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    if kind == "graph":
        return gen.rows_from_pairs(n, [(index[a], index[b]) for a, b in doc])
    return gen.fams_from_edges(n, [(index[h["src"]], [index[x] for x in h["tgt"]]) for h in doc])


def _parse_word(word, names):
    return tuple(names.index(c) for c in word)


def _summary(lines):
    fields = {}
    for line in lines:
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


def check_words(out, spec, gens, names, labels):
    """The ``--words`` listing: each word is shortest and evaluates to its element.

    Returns the absorbing element (or None) and the words in listed order.
    """
    op = gen.COMPOSE[spec["compose"]]
    kind = "graph" if spec["compose"] == "graph" else "fhyper"
    lines = out.rstrip("\n").split("\n")
    head = _summary(lines[:6])
    m = spec["elements"]
    expect(head.get("elements") == str(m), f"elements {head.get('elements')}, expected {m}")
    listing = lines[6:]
    expect(len(listing) == m, f"{len(listing)} words listed, expected {m}")
    element_of = {}
    order = []
    lengths = [0] * len(spec["word_lengths"])
    for line in listing:
        word, _, doc = line.partition("\t")
        w = _parse_word(word, names)
        element = _to_element(kind, labels, json.loads(doc))
        expect(gen.evaluate(gens, op, w) == element, f"word {word} does not evaluate to its element")
        expect(len(w) <= len(lengths), f"word {word} is longer than any shortest word")
        lengths[len(w) - 1] += 1
        element_of[word] = element
        order.append(word)
    expect(lengths == spec["word_lengths"], "word lengths are not the shortest ones")
    expect(gen.element_digest(list(element_of.values())) == spec["digest"], "elements differ from the closure")
    absorbing = head.get("absorbing", "absent")
    zero = element_of[absorbing] if absorbing != "absent" else None
    return zero, order


def check_table(table, word_element, zero, op, rng, samples=SAMPLES):
    """Every Cayley cell is the composite of its row and column, and sampled
    triples associate.

    ``word_element`` evaluates a word label; ``zero`` is the absorbing element
    that the table omits and writes as "0", or None.  Generator rows are
    checked against a direct compose.  Any other row is a word ``g`` + ``rest``,
    so its cells must equal ``g * (rest * y)``, read from rows already checked:
    one flipped cell anywhere in the table is caught.  Each row is kept as an
    array of column indices, the absorbing element as index m, so the check
    holds less memory than the program's own table.
    """
    lines = table.rstrip("\n").split("\n")
    header = lines[0].split(",")
    expect(header[0] == "*", "table header does not start with '*'")
    cols = header[1:]
    m = len(cols)
    expect(len(lines) == m + 1, f"{len(lines) - 1} table rows for {m} columns")
    index = {x: i for i, x in enumerate(cols)}
    expect(len(index) == m and "0" not in index, "repeated or reserved table label")
    code = dict(index, **{"0": m})
    elements = [word_element(x) for x in cols]
    index_of = {e: i for i, e in enumerate(elements)}
    expect(len(index_of) == m, "two table labels denote the same element")
    expect(zero not in index_of, "the absorbing element has a row")
    if zero is not None:
        index_of[zero] = m
    rows = []
    for x, line in zip(cols, lines[1:]):
        cells = line.split(",")
        expect(cells[0] == x, "row labels differ from column labels")
        expect(len(cells) == m + 1, "ragged table")
        unknown = [c for c in cells[1:] if c not in code]
        expect(not unknown, f"row {x} has cells that are no element: {unknown[:3]}")
        rows.append(array("H", [code[c] for c in cells[1:]] + [m]))
    rows.append(array("H", [m] * (m + 1)))

    def named(word):
        found = index[word] if word in index else index_of.get(word_element(word))
        expect(found is not None, f"word {word} denotes no element of the table")
        return found

    for x in sorted(range(m), key=lambda i: len(cols[i])):
        row, word = rows[x], cols[x]
        if len(word) == 1:
            for y in range(m):
                expect(index_of.get(op(elements[x], elements[y])) == row[y], f"cell {word}*{cols[y]} is not their composite")
            continue
        head, rest = rows[named(word[0])], rows[named(word[1:])]
        for y in range(m):
            expect(row[y] == head[rest[y]], f"cell {word}*{cols[y]} differs from {word[0]}*({word[1:]}*{cols[y]})")
    for _ in range(samples):
        x, y, z = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        expect(rows[rows[x][y]][z] == rows[x][rows[y][z]], f"({cols[x]}*{cols[y]})*{cols[z]} is not {cols[x]}*({cols[y]}*{cols[z]})")


def check_congruence(s, c, pair, rng):
    block = c.block_of
    expect(block[pair[0]] == block[pair[1]], "congruence does not identify the generating pair")
    classes = c.classes()
    m = len(block)
    for _ in range(SAMPLES):
        i = rng.randrange(m)
        j = rng.choice(classes[block[i]])
        x = rng.randrange(m)
        expect(block[s.cayley[x][i]] == block[s.cayley[x][j]], "congruence is not left-compatible")
        expect(block[s.cayley[i][x]] == block[s.cayley[j][x]], "congruence is not right-compatible")


def check_quotient(s, c, q, h, rng):
    expect(len(q) == c.num_classes, f"quotient has {len(q)} elements, expected {c.num_classes}")
    m = len(s)
    for _ in range(SAMPLES):
        i, j = rng.randrange(m), rng.randrange(m)
        expect(h.image[s.cayley[i][j]] == q.cayley[h.image[i]][h.image[j]], "quotient map is not a hom")


def _congruence_ops(ops, nid, state, rng):
    def congruence():
        s = need(state, "S")
        pair = (s.generator_elements[0], s.generator_elements[1])
        state["C"] = ops.call("congruence_closure", s, [pair])
        check_congruence(s, state["C"], pair, rng)

    def quotient():
        s, c = need(state, "S"), need(state, "C")
        q, h = ops.call("quotient_semigroup", s, c)
        check_quotient(s, c, q, h, rng)

    ops.op(f"{nid}:congruence", congruence)
    ops.op(f"{nid}:quotient", quotient)


def _roles_op(ops, nid, network, table, spec, gens, names, labels, rng, state):
    def body():
        if spec["compose"] == "loose-prune":
            compose = ["--compose", "loose", "--prune-empty"]
        else:
            compose = ["--compose", spec["compose"]]
        argv = ["roles", "--network", network, *compose, "--table", table, "--words"]
        out, _ = ops.cli(argv)
        text = ops.read(table)
        ops.check_digest(f"{nid}:{spec['compose']}:words", out)
        ops.check_digest(f"{nid}:{spec['compose']}:table", text)
        op = gen.COMPOSE[spec["compose"]]
        zero, order = check_words(out, spec, gens, names, labels)
        check_table(text, lambda w: gen.evaluate(gens, op, _parse_word(w, names)), zero, op, rng)
        state[spec["compose"]] = order

    ops.op(f"{nid}:roles-{spec['compose']}", body)


# ── jobs ─────────────────────────────────────────────────────────────────────


def job_roles_graph(ops, man):
    labels = [f"v{i}" for i in range(gen.GRAPH_N)]
    for net in man["networks"]:
        nid = net["id"]
        rng = random.Random(nid)
        state = {}
        spec = net["closure"]
        _roles_op(ops, nid, net["network"], net["table"], spec, gen.decode(net["gens"]), "AB", labels, rng, state)

        def closure(net=net, spec=spec, state=state):
            s = ops.call("role_semigroup", ops.call("load_network", net["network"]), "graph")
            expect(len(s) == spec["elements"], f"closure has {len(s)} elements, expected {spec['elements']}")
            if "graph" in state:
                expect(list(s.word_labels()) == state["graph"], "library words differ from the CLI listing")
            state["S"] = s

        def hom(state=state):
            s = need(state, "S")
            h = ops.call("generator_induced_hom", s, s)
            expect(h.image == tuple(range(len(s))), "the identity hom is not the identity")

        ops.op(f"{nid}:closure", closure)
        _congruence_ops(ops, nid, state, rng)
        ops.op(f"{nid}:hom", hom)


def job_roles_hyper(ops, man):
    for net in man["networks"]:
        nid = net["id"]
        rng = random.Random(nid)
        state = {}
        gens = gen.decode(net["gens"])
        labels = [f"s{i}" for i in range(len(gens[0]))]
        for spec, table in zip(net["closures"], net["tables"]):
            _roles_op(ops, nid, net["network"], table, spec, gens, "AB", labels, rng, state)
        tight = net["closures"][0]["elements"]

        def induce(net=net, tight=tight):
            out, _ = ops.cli(["induce", "--source", net["network"], "--map", net["map"],
                              "--target", net["base"], "--compose", "tight"])
            lines = out.split("\n")
            for line in ("validation: ok", "hom: well-defined", "hom surjective: yes"):
                expect(line in lines, f"induce did not report {line!r}")
            mapped = sum(1 for line in lines if line.startswith("  ") and " -> " in line)
            expect(mapped == tight, f"induce mapped {mapped} elements, expected {tight}")

        def functor(net=net):
            out, _ = ops.cli(["functor-check", "--stages", *net["stages"], "--compose", "loose"])
            lines = out.split("\n")
            for line in ("identity law: ok", "composition law: ok"):
                expect(line in lines, f"functor-check did not report {line!r}")

        def induced(net=net, tight=tight, state=state):
            src = ops.call("load_network", net["network"])
            dst = ops.call("load_network", net["base"])
            f = ops.call("load_map", net["map"], src.actors, dst.actors)
            h = ops.call("induced_role_reduction", f, src, dst, "tight")
            expect(h.is_surjective, "induced role reduction is not surjective")
            expect(len(h.source) == tight, f"source closure has {len(h.source)} elements, expected {tight}")
            state["S"] = h.source

        ops.op(f"{nid}:induce", induce)
        ops.op(f"{nid}:functor-check", functor)
        ops.op(f"{nid}:induced", induced)
        _congruence_ops(ops, nid, state, rng)


def job_positions(ops, man):
    for entry in man["inputs"]:
        state = {}

        def load(entry=entry, state=state):
            state["net"] = ops.call("load_network", entry["network"])

        ops.op(f"{entry['id']}:load", load)
        for run in entry["runs"]:
            _position_ops(ops, entry, run, state)


def _position_ops(ops, entry, run, state):
    rid = f"{entry['id']}:{run['mode'] or 'hyper'}"
    mode = ["--mode", run["mode"]] if run["mode"] else []
    network, partition = entry["network"], run["partition"]

    def max_regular():
        seed = ["--seed", run["seed"]] if "seed" in run else []
        out, _ = ops.cli(["max-regular", "--network", network, *mode, *seed])
        with open(partition, "w", encoding="utf-8") as fh:
            fh.write(out)
        ops.check_digest(f"{rid}:partition", out)
        expect(json.loads(out)["blocks"] == run["blocks"], "max-regular partition differs from the oracle's")

    def check_regular():
        out, _ = ops.cli(["check-regular", "--network", network, "--partition", partition, *mode])
        expect(out.rstrip("\n").split("\n")[-1] == "result: regular", "check-regular rejects the partition")

    def passes():
        net = need(state, "net")
        e = ops.call("load_partition", partition, net.actors)
        expect(ops.call("network_passes", net, e, run["mode"]), "network_passes rejects the partition")
        if "seed" in run:
            expect(e.refines(ops.call("load_partition", run["seed"], net.actors)), "result does not refine its seed")
        state[rid] = e

    ops.op(f"{rid}:max-regular", max_regular)
    ops.op(f"{rid}:check-regular", check_regular)
    if entry["kind"] == "graph":
        ops.op(f"{rid}:network_passes", passes)
    if "blockmodel" in run:
        _blockmodel_ops(ops, entry, run, state, rid)


def _blockmodel_ops(ops, entry, run, state, rid):
    bm = run["blockmodel"]

    def blockmodel():
        ops.cli(["blockmodel", "--network", entry["network"], "--partition", run["partition"],
                 "-o", bm["output"], "--dot", bm["dot"]])
        text = ops.read(bm["output"])
        ops.check_digest(f"{rid}:blockmodel", text)
        expect(json.loads(text) == bm["doc"], "blockmodel document differs from the oracle's")
        dot = ops.read(bm["dot"])
        expect(dot.startswith("digraph network {"), "DOT output does not open a digraph")
        expect(dot.count("\n") == bm["dot_lines"], "DOT output has the wrong number of lines")

    def validate():
        net = need(state, "net")
        e = state.get(rid) or ops.call("load_partition", run["partition"], net.actors)
        f = ops.call("quotient_map", e)
        dst = ops.call("load_network", bm["output"])
        report = ops.call("validate_positional_reduction", f, net, dst)
        expect(report.ok, f"quotient map is not a positional reduction: {report.summary()}")

    ops.op(f"{rid}:blockmodel", blockmodel)
    ops.op(f"{rid}:validate", validate)


def job_small_batch(ops, man):
    for case in man["cases"]:
        ops.op(f"{case['id']}:{case['op']}", lambda case=case: _batch_case(ops, case))


def _batch_case(ops, case):
    out, err = ops.cli(case["argv"], expect_exit=case["exit"])
    kind = case["op"]
    key = f"{case['id']}:{kind}"
    if kind in ("max-regular", "oracle"):
        ops.check_digest(key, out)
        expect(json.loads(out)["blocks"] == case["blocks"], "partition differs from the oracle's")
    elif kind == "check-regular":
        expect(out.rstrip("\n").split("\n")[-1] == f"result: {case['verdict']}", "wrong regularity verdict")
    elif kind in ("blockmodel", "convert"):
        ops.check_digest(key, out)
        expect(json.loads(out) == case["doc"], "document differs from the oracle's")
    elif kind == "roles":
        ops.check_digest(key, out)
        head = _summary(err.rstrip("\n").split("\n"))
        expect(head.get("elements") == str(case["elements"]), "wrong closure size")
        op = gen.COMPOSE[case["compose"]]
        gens = gen.decode(case["gens"])

        def word_element(word):
            return gen.evaluate(gens, op, _parse_word(word, case["names"]))

        absorbing = head.get("absorbing", "absent")
        zero = word_element(absorbing) if absorbing != "absent" else None
        check_table(out, word_element, zero, op, random.Random(case["id"]), samples=20)
    else:
        expect(err.startswith("error:"), "malformed input did not report an error")


JOBS = {
    "roles-graph": job_roles_graph,
    "roles-hyper": job_roles_hyper,
    "positions": job_positions,
    "small-batch": job_small_batch,
}
