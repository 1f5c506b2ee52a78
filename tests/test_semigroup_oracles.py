"""The Froidure–Pin Cayley graphs and the generator-only scans, pinned to naive oracles.

Random small graph networks and F-hypergraphs are closed under every
composition kind; each fast result, and the table derived from the Cayley
graphs, must equal the full m^2 (or m^3) oracle in ``helpers``.  Closures
past a low cap are skipped.
"""

import contextlib
import io
import os
import random
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    COMPOSE_ORACLES,
    actors,
    naive_blocks,
    naive_cayley,
    naive_closure,
    naive_compatible,
    naive_congruence,
    naive_csv,
    naive_holds,
    naive_hom,
    naive_identity,
    naive_table,
    naive_table_csv,
    naive_zero,
    random_multihyper,
    random_network,
    random_partition,
    random_relation,
    tight_oracle,
)
from roleblock import (
    ActorSet,
    BITS_PER_ELEMENT,
    DEFAULT_CAP,
    ElementCongruence,
    FHyperStructure,
    MultiHypergraph,
    MultiNetwork,
    Relation,
    ResourceLimitError,
    SemigroupHom,
    StructuralError,
    WellDefinednessError,
    compose_relations,
    congruence_closure,
    core,
    documents,
    empty_relation,
    find_identity,
    generate_closure,
    generator_induced_hom,
    identity_relation,
    loose_compose,
    multiplication_table,
    pushforward_network,
    quotient_map,
    quotient_semigroup,
    render_table_csv,
    role_semigroup,
    semigroup,
    tight_compose,
)
from roleblock.cli import main
from roleblock.core import PartAction, PartTable, row_rule
from roleblock.fixtures import family_three, parent_grandparent_hyper
from roleblock.hypergraph import loose_rule, tight_rule
from roleblock.semigroup import composition_for

CAP = 40

KINDS = [("graph", False), ("tight", False), ("loose", False), ("loose", True)]

SETTINGS = settings(max_examples=40, deadline=None)


def random_net(rng, compose_kind):
    n = rng.randint(1, 4)
    k = rng.randint(1, 3)
    if compose_kind == "graph":
        return random_network(rng, n, k, rng.choice([0.2, 0.3, 0.45]))
    return random_multihyper(rng, n, k)


def closure(net, compose_kind, prune_empty):
    try:
        return role_semigroup(net, compose_kind, prune_empty=prune_empty, cap=CAP)
    except ResourceLimitError:
        assume(False)


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_table_equals_naive_table(compose_kind, prune_empty, rng):
    s = closure(random_net(rng, compose_kind), compose_kind, prune_empty)
    assert tuple(s.cayley) == naive_cayley(s, composition_for(compose_kind, prune_empty))
    assert s.absorbing == naive_zero(s)
    assert find_identity(s) == naive_identity(s)


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_congruence_closure_equals_naive(compose_kind, prune_empty, rng):
    s = closure(random_net(rng, compose_kind), compose_kind, prune_empty)
    m = len(s)
    pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(0, 3))]
    c = congruence_closure(s, pairs)
    assert c.block_of == ElementCongruence(s, naive_congruence(s, pairs)).block_of
    assert c.is_compatible()


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_is_compatible_equals_naive(compose_kind, prune_empty, rng):
    s = closure(random_net(rng, compose_kind), compose_kind, prune_empty)
    block_of = [rng.randrange(rng.randint(1, len(s))) for _ in range(len(s))]
    assert ElementCongruence(s, block_of).is_compatible() == naive_compatible(s, block_of)


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_induced_hom_equals_naive_scan(compose_kind, prune_empty, rng):
    net = random_net(rng, compose_kind)
    quotient = pushforward_network(net, quotient_map(random_partition(rng, net.actors)))
    src = closure(net, compose_kind, prune_empty)
    dst = closure(quotient, compose_kind, prune_empty)
    image, witness = naive_hom(src, dst)
    if witness is None:
        assert generator_induced_hom(src, dst).image == tuple(image)
    else:
        with pytest.raises(WellDefinednessError) as err:
            generator_induced_hom(src, dst)
        e = err.value
        assert (e.word_a, e.word_b, e.image_a, e.image_b) == witness


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_classes_equal_naive_blocks(compose_kind, prune_empty, rng):
    s = closure(random_net(rng, compose_kind), compose_kind, prune_empty)
    block_of = [rng.randrange(rng.randint(1, len(s))) for _ in range(len(s))]
    c = ElementCongruence(s, block_of)
    assert c.classes() == naive_blocks(block_of)
    assert c.num_classes == len(set(block_of))


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_holds_equals_full_table_scan(compose_kind, prune_empty, rng):
    net = random_net(rng, compose_kind)
    s = closure(net, compose_kind, prune_empty)
    m = len(s)
    pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(0, 3))]
    _, to_quotient = quotient_semigroup(s, congruence_closure(s, pairs))
    homs = [to_quotient, generator_induced_hom(s, s)]
    blockmodel = pushforward_network(net, quotient_map(random_partition(rng, net.actors)))
    dst = closure(blockmodel, compose_kind, prune_empty)
    if naive_hom(s, dst)[1] is None:
        homs.append(generator_induced_hom(s, dst))
    for hom in homs:
        assert hom.holds() and naive_holds(hom)
        x = rng.randrange(m)
        image = list(hom.image)
        image[x] = rng.randrange(len(hom.target))
        changed = SemigroupHom(s, hom.target, image)
        assert changed.holds() == naive_holds(changed)
    scrambled = SemigroupHom(s, dst, [rng.randrange(len(dst)) for _ in range(m)])
    assert scrambled.holds() == naive_holds(scrambled)


def naive_word_labels(s):
    """Each element's word label, its whole word's generator names joined afresh."""
    return tuple("".join(s.generator_names[g] for g in word) for word in s.words)


def assert_quotient_matches_oracles(s, table, empty, rng, depth):
    # ``table`` is s's table, already pinned to an oracle, and ``empty`` the
    # index of the empty structure's class in s (None if there is none); the
    # quotient is checked, then a quotient of it, ``depth`` levels down
    m = len(s)
    pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(0, 2))]
    c = congruence_closure(s, pairs)
    q, to_quotient = quotient_semigroup(s, c)
    b = c.block_of
    qtable = tuple(q.cayley)
    assert all(qtable[b[i]][b[j]] == b[table[i][j]] for i in range(m) for j in range(m))
    assert list(q.words) == sorted(q.words, key=lambda w: (len(w), w))
    assert q.word_labels() == naive_word_labels(q)
    assert find_identity(q) == naive_identity(q)

    qm = len(q)
    qpairs = [(rng.randrange(qm), rng.randrange(qm)) for _ in range(rng.randint(0, 2))]
    assert congruence_closure(q, qpairs).block_of == ElementCongruence(q, naive_congruence(q, qpairs)).block_of
    block_of = [rng.randrange(rng.randint(1, qm)) for _ in range(qm)]
    assert ElementCongruence(q, block_of).is_compatible() == naive_compatible(q, block_of)

    assert naive_hom(s, q) == (list(b), None)
    assert generator_induced_hom(s, q).image == b == to_quotient.image

    zero = None if empty is None else b[empty]
    absorbs = zero is not None and all(qtable[zero][x] == zero == qtable[x][zero] for x in range(qm))
    assert q.absorbing == (zero if absorbs else None)
    if depth:
        assert_quotient_matches_oracles(q, qtable, zero, rng, depth - 1)


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_quotients_match_naive_oracles(compose_kind, prune_empty, rng):
    s = closure(random_net(rng, compose_kind), compose_kind, prune_empty)
    table = naive_cayley(s, composition_for(compose_kind, prune_empty))
    empty = next((z for z, el in enumerate(s.elements) if el.is_empty), None)
    assert s.word_labels() == naive_word_labels(s)
    assert_quotient_matches_oracles(s, table, empty, rng, depth=1)


def test_holds_is_false_on_an_image_with_one_entry_changed():
    s = role_semigroup(family_three(), "graph")
    identity = generator_induced_hom(s, s)
    assert identity.holds()
    for x in range(len(s)):
        for y in range(len(s)):
            if y != x:
                image = list(identity.image)
                image[x] = y
                changed = SemigroupHom(s, s, image)
                assert not changed.holds()
                assert not naive_holds(changed)


def counted(compose):
    calls = [0]

    def wrapped(x, y):
        calls[0] += 1
        return compose(x, y)

    return wrapped, calls


def reduced_products(s):
    """How many products g*x a Froidure–Pin closure composes: x is a
    generator, or g composed after x's prefix p has exactly the word
    (g,) + words[p], so that g*x is no right edge of a known element."""
    at = {word: x for x, word in enumerate(s.words)}
    count = 0
    for g, row in enumerate(s.left):
        for x, rest in enumerate(s.suffix):
            if rest is None:
                count += 1
                continue
            p = at[s.words[x][:-1]]
            y = row[p]
            count += s.suffix[y] == p and s.words[y][0] == g
    return count


CLOSURE_FIELDS = (
    "elements", "words", "suffix", "left", "right", "generator_elements", "empty", "absorbing",
)


def assert_same_closure(generators, compose, cap, reference=None):
    """``generate_closure`` under ``compose`` equals ``naive_closure`` under
    ``reference`` (``compose`` itself by default) field for field, with one
    compose call per reduced product, or raises the same ResourceLimitError;
    returns the naive result or error."""
    try:
        expected, _ = naive_closure(generators, reference or compose, cap)
    except ResourceLimitError as err:
        with pytest.raises(ResourceLimitError) as got:
            generate_closure(generators, compose, cap)
        assert (got.value.count, str(got.value)) == (err.count, str(err))
        return err
    op, calls = counted(compose)
    s = generate_closure(generators, op, cap)
    for field in CLOSURE_FIELDS:
        assert getattr(s, field) == getattr(expected, field), field
    assert calls[0] == reduced_products(expected)
    return expected


def random_generators(rng, compose_kind, duplicate):
    """A random network's generator list, with a copy of one generator
    inserted at a random place when ``duplicate`` is set."""
    generators = list(random_net(rng, compose_kind).relations.items())
    if duplicate:
        copy = ("dup", rng.choice(generators)[1])
        generators.insert(rng.randint(0, len(generators)), copy)
    return generators


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False), duplicate=st.booleans())
def test_closure_equals_naive_closure(compose_kind, prune_empty, rng, duplicate):
    # the reference closure composes with the oracle, so it shares no memo
    # with the op under test
    generators = random_generators(rng, compose_kind, duplicate)
    op = composition_for(compose_kind, prune_empty)
    assert_same_closure(generators, op, CAP, COMPOSE_ORACLES[compose_kind, prune_empty])


@pytest.mark.parametrize(
    "net,size",
    [
        (random_network(random.Random(4), 6, 3, 0.2), 2963),
        (random_network(random.Random(3), 6, 4, 0.2), 4782),
    ],
    ids=["2963-elements", "4782-elements"],
)
def test_large_closures_equal_naive_closure(net, size):
    # deep, wide BFS levels, pinned field for field; the reference composes
    # without a memo
    generators = list(net.relations.items())
    expected = assert_same_closure(
        generators, composition_for("graph"), DEFAULT_CAP, compose_relations
    )
    assert len(expected) == size


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False), duplicate=st.booleans())
def test_right_graph_and_products_equal_compose(compose_kind, prune_empty, rng, duplicate):
    # checked against compose itself, not against a right graph derived the
    # way the closure derives it, through an op that shares no memo with the
    # closure's
    generators = random_generators(rng, compose_kind, duplicate)
    compose = composition_for(compose_kind, prune_empty)
    try:
        s = generate_closure(generators, composition_for(compose_kind, prune_empty), CAP)
    except ResourceLimitError:
        assume(False)
    for a, (_, g) in enumerate(generators):
        for x, element in enumerate(s.elements):
            assert s.right[a][x] == s.index_of(compose(element, g))
    m = len(s)
    for _ in range(20):
        i, j = rng.randrange(m), rng.randrange(m)
        assert s.product(i, j) == s.index_of(compose(s.elements[i], s.elements[j]))


# the public compose of each kind: the kind's rule, made afresh per call
MEMO_FREE = {
    ("graph", False): compose_relations,
    ("tight", False): tight_compose,
    ("loose", False): loose_compose,
    ("loose", True): lambda k, h: loose_compose(k, h, prune_empty=True),
}

# the one-part rule maker of each kind, given the left operand's parts
RULES = {
    ("graph", False): row_rule,
    ("tight", False): tight_rule,
    ("loose", False): loose_rule,
    ("loose", True): lambda parts: loose_rule(parts, prune_empty=True),
}

# the ``semigroup`` attribute each kind's products go through, the names
# perfbench/tracing.py wraps to count them
TRACED_NAMES = {"graph": "compose_relations", "tight": "tight_compose", "loose": "loose_compose"}


def parts_of(x):
    """x's rows or target families."""
    return x.out if isinstance(x, Relation) else x.targets


def rebuilt(x, acts, parts=None):
    """A new structure on ``acts`` with x's rows or target families, or ``parts``."""
    if isinstance(x, Relation):
        return Relation(acts, x.out if parts is None else parts)
    return FHyperStructure(acts, x.targets if parts is None else parts)


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False), duplicate=st.booleans())
def test_memoized_compose_equals_memo_free_compose_and_oracle(
    compose_kind, prune_empty, rng, duplicate
):
    # products through part actions over one table, one action per distinct
    # left operand, as a closure keeps them: the calls reuse and interleave
    # left operands, so most read entries that earlier calls filled; a
    # duplicate generator comes as the same object and as an equal copy,
    # which shares the action of the first
    generators = [g for _, g in random_generators(rng, compose_kind, duplicate)]
    acts = generators[0].actors
    if duplicate:
        generators.append(rebuilt(rng.choice(generators), acts))
    compose = getattr(semigroup, TRACED_NAMES[compose_kind])
    args = (prune_empty,) if compose_kind == "loose" else ()
    kind = compose_kind, prune_empty
    plain, oracle = MEMO_FREE[kind], COMPOSE_ORACLES[kind]
    table, actions = PartTable(), {}

    def ids(x):
        return tuple(map(table.intern, parts_of(x)))

    pool = list(generators)
    for _ in range(30):
        k = rng.choice(generators if rng.random() < 0.8 else pool)
        h = rng.choice(pool)
        action = actions.setdefault(ids(k), PartAction(table, RULES[kind](parts_of(k))))
        got = rebuilt(h, acts, [table.parts[i] for i in compose(action, ids(h), *args)])
        assert got == plain(k, h) == oracle(k, h)
        pool.append(got)
    # the public compose refuses the same parts on another roster
    other = ActorSet([f"w{i}" for i in range(len(acts))])
    with pytest.raises(StructuralError):
        plain(k, rebuilt(h, other))


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_one_off_composes_build_no_part_table(compose_kind, prune_empty, rng):
    # a compose call on two structures maps the right operand's parts through
    # the kind's rule: with PartTable raising, every ordered pair of a random
    # network's structures still composes to the oracle's result
    structures = list(random_net(rng, compose_kind).relations.values())
    kind = compose_kind, prune_empty

    def refuse(*args):
        raise AssertionError("a one-off compose built a PartTable")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "PartTable", refuse)
        for k in structures:
            for h in structures:
                assert MEMO_FREE[kind](k, h) == COMPOSE_ORACLES[kind](k, h)


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
def test_closures_share_no_part_action(compose_kind, prune_empty, monkeypatch):
    # every entry of the first closure's actions is made wrong once it ends:
    # a second closure of the same network still equals the first
    name = TRACED_NAMES[compose_kind]
    compose, actions = getattr(semigroup, name), []

    def spy(action, *args):
        actions.append(action)
        return compose(action, *args)

    monkeypatch.setattr(semigroup, name, spy)
    net = family_three() if compose_kind == "graph" else parent_grandparent_hyper()
    first = role_semigroup(net, compose_kind, prune_empty)
    used = len(actions)
    assert used and all(isinstance(a, PartAction) for a in actions)
    for action in actions:
        for part in action:
            action[part] = 0
    second = role_semigroup(net, compose_kind, prune_empty)
    assert (second.elements, second.words) == (first.elements, first.words)
    assert not {id(a) for a in actions[:used]} & {id(a) for a in actions[used:]}


def test_tight_action_composes_each_member_union_once():
    # h's first two families have the member union {0, 1}: k's families of
    # 0 and 1 are read once between them, then once more for {2}
    acts = actors(3)
    k = FHyperStructure(acts, [[(1,)], [(2,), (0, 1)], [(0, 2)]])
    h = FHyperStructure(acts, [[(0, 1)], [(0,), (1,)], [(2,)]])
    reads = []

    class Counted(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    table = PartTable()
    action = PartAction(table, tight_rule(Counted(k.targets)))
    got = tight_compose(action, tuple(map(table.intern, h.targets)))
    assert sorted(reads) == [0, 1, 2]
    assert got[0] == got[1]
    assert [table.parts[i] for i in got] == list(tight_oracle(k, h).targets)
    assert tight_compose(k, h) == tight_oracle(k, h)


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False), duplicate=st.booleans())
def test_closure_products_go_through_the_traced_names(compose_kind, prune_empty, rng, duplicate):
    # one call of the kind's module name per reduced product, and none of
    # the others, so a tracer's compose counts stay the closure's products
    generators = random_generators(rng, compose_kind, duplicate)
    net_type = MultiNetwork if compose_kind == "graph" else MultiHypergraph
    net = net_type(generators[0][1].actors, generators)
    calls = dict.fromkeys(TRACED_NAMES.values(), 0)

    def counting(name):
        compose = getattr(semigroup, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return compose(*args, **kwargs)

        return wrapped

    with mock.patch.multiple(semigroup, **{name: counting(name) for name in calls}):
        try:
            s = role_semigroup(net, compose_kind, prune_empty, cap=CAP)
        except ResourceLimitError:
            assume(False)
    expected = dict.fromkeys(calls, 0)
    expected[TRACED_NAMES[compose_kind]] = reduced_products(s)
    assert calls == expected


class Weighed:
    """A relation whose ``stored_bits`` is half an element's budget per pair
    it holds, plus one half."""

    __slots__ = ("relation",)

    def __init__(self, relation):
        self.relation = relation

    def __eq__(self, other):
        return self.relation == other.relation

    def __hash__(self):
        return hash(self.relation)

    def stored_bits(self):
        return BITS_PER_ELEMENT // 2 * (1 + sum(1 for _ in self.relation.pairs()))


def weighed_compose(x, y):
    return Weighed(compose_relations(x.relation, y.relation))


@pytest.mark.parametrize(
    "net", [family_three(), random_network(random.Random(1), 4, 2, 0.3)], ids=["family", "random"]
)
def test_resource_exits_equal_naive_closure(net):
    # the same exit, count and message at every cap, admission order being
    # unchanged; Weighed elements trip the memory budget at some caps
    plain = list(net.relations.items())
    weighed = [(name, Weighed(r)) for name, r in plain]
    size = len(naive_closure(plain, compose_relations, DEFAULT_CAP)[0])
    exits = set()
    for generators, compose in [(plain, compose_relations), (weighed, weighed_compose)]:
        for cap in range(1, size + 1):
            result = assert_same_closure(generators, compose, cap)
            if isinstance(result, ResourceLimitError):
                exits.add(str(result).split(" of ")[0])
    assert exits == {"closure exceeded the cap", "closure exceeded the memory budget"}


def dense_network(compose_kind, n):
    """Three structures on n actors, the first keeping more than 1,024 slots
    of 64 bits from n = 32 on: everything (all pairs, or each actor's one
    target set of all actors), all but each actor itself, and a shift."""
    acts = actors(n)
    rest = [[j for j in range(n) if j != i] for i in range(n)]
    shift = [[(i + 1) % n] for i in range(n)]
    if compose_kind == "graph":
        parts = [[range(n)] * n, rest, shift]
        return MultiNetwork(acts, [(name, Relation(acts, p)) for name, p in zip("FDS", parts)])
    parts = [[[range(n)]] * n, [[r] for r in rest], [[s] for s in shift]]
    return MultiHypergraph(acts, [(name, FHyperStructure(acts, p)) for name, p in zip("FDS", parts)])


@pytest.mark.parametrize("compose_kind,n", [("graph", 31), ("graph", 32), ("tight", 32)])
def test_role_semigroup_resource_exits_equal_naive_closure(compose_kind, n):
    # role_semigroup weighs elements by their parts' cached bits (not at all
    # for relations on at most 31 actors, which cannot exceed the budget): the
    # same exit, count and message as the structures' own stored_bits() give
    net = dense_network(compose_kind, n)
    generators = list(net.relations.items())
    op = composition_for(compose_kind)
    size = len(naive_closure(generators, op, DEFAULT_CAP)[0])
    exits = set()
    for cap in range(1, size + 1):
        try:
            expected, _ = naive_closure(generators, op, cap)
        except ResourceLimitError as err:
            with pytest.raises(ResourceLimitError) as got:
                role_semigroup(net, compose_kind, cap=cap)
            assert (got.value.count, str(got.value)) == (err.count, str(err))
            exits.add(str(err).split(" of ")[0])
        else:
            s = role_semigroup(net, compose_kind, cap=cap)
            assert (s.elements, s.words) == (expected.elements, expected.words)
    budget = {"closure exceeded the memory budget"} if n > 31 else set()
    assert exits == {"closure exceeded the cap"} | budget


def changed_parts(x, a):
    """x's parts with actor a's part changed: actor 0 toggled in a row, or
    the target set (0,) toggled in a family."""
    parts = list(parts_of(x))
    part = set(parts[a])
    part ^= {0} if isinstance(x, Relation) else {(0,)}
    parts[a] = sorted(part)
    return parts


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_index_of_equals_a_scan_and_elements_share_parts(compose_kind, prune_empty, rng):
    net = random_net(rng, compose_kind)
    s = closure(net, compose_kind, prune_empty)
    acts = net.actors
    other = ActorSet([f"w{i}" for i in range(len(acts))])
    shared = {}
    for i, x in enumerate(s.elements):
        # a separately built equal structure is found; one on another roster is not
        assert s.index_of(rebuilt(x, acts)) == i
        with pytest.raises(StructuralError):
            s.index_of(rebuilt(x, other))
        # a structure one part away is found exactly when a scan finds it
        y = rebuilt(x, acts, changed_parts(x, rng.randrange(len(acts))))
        found = [j for j, z in enumerate(s.elements) if z == y]
        if found:
            assert s.index_of(y) == found[0]
        else:
            with pytest.raises(StructuralError):
                s.index_of(y)
        # equal parts are one tuple object
        for part in parts_of(x):
            assert shared.setdefault(part, part) is part


@pytest.mark.parametrize(
    "net,compose",
    [
        (family_three(), compose_relations),
        (parent_grandparent_hyper(), tight_compose),
        # 365 elements
        (random_network(random.Random(15), 5, 2, 0.25), compose_relations),
    ],
    ids=["family-graph", "tree-tight", "random-graph"],
)
def test_closure_composes_only_reduced_products(net, compose):
    op, calls = counted(compose)
    generators = list(net.relations.items())
    s = generate_closure(generators, op)
    expected, naive_calls = naive_closure(generators, compose, DEFAULT_CAP)
    assert naive_calls == len(generators) * len(s)
    assert calls[0] == reduced_products(expected) < naive_calls
    assert tuple(s.cayley) == naive_cayley(s, compose)


def test_closure_peak_memory_stays_small():
    # 2,963 elements: a stored Cayley table alone would take about 68 MiB; the
    # two Cayley graphs are 3 x 2,963 entries each
    net = random_network(random.Random(4), n=6, k=3, density=0.2)
    tracemalloc.start()
    try:
        s = role_semigroup(net, "graph")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) == 2963
    assert peak <= 5 * 2**20


def test_streamed_table_keeps_two_levels_of_rows():
    # 989 elements, at most 136 in one BFS level: two levels of rows take
    # about 2 MiB, every row at once (a stored table) about 8 MiB
    s = role_semigroup(random_network(random.Random(1), n=6, k=2, density=0.2), "graph")
    lines = [0]

    def count(line):
        lines[0] += 1

    tracemalloc.start()
    try:
        render_table_csv(s, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) == 989 and lines[0] == len(s.nonzero_indices()) + 1
    assert peak <= 4 * 2**20


# the plain names, and names that CSV must quote: a comma, a quote, CR and LF
NAMES = [("A", "B", "C"), ("P,Q", 'S"', "T\r\n")]

# generators added to the random ones: an identity, a zero, or one of them alone
EXTRAS = ["none", "identity", "empty", "identity only", "empty only"]


@SETTINGS
@given(
    rng=st.randoms(use_true_random=False),
    extra=st.sampled_from(EXTRAS),
    names=st.sampled_from(NAMES),
)
def test_streamed_table_equals_naive_table(rng, extra, names):
    n = rng.randint(1, 4)
    acts = actors(n)
    rels = [] if extra.endswith("only") else [
        random_relation(rng, acts, rng.choice([0.2, 0.3, 0.45])) for _ in range(rng.randint(1, 2))
    ]
    if extra.startswith("identity"):
        rels.append(identity_relation(acts))
    if extra.startswith("empty"):
        rels.append(empty_relation(acts))
    net = MultiNetwork(acts, list(zip(names, rels)))
    s = closure(net, "graph", False)
    if extra.startswith("identity"):
        assert find_identity(s) is not None
    if extra.startswith("empty"):
        assert s.absorbing is not None
    if extra.endswith("only"):
        assert len(s) == 1

    expected = naive_table_csv(s, compose_relations)
    assert render_table_csv(s) == expected
    lines = []
    render_table_csv(s, lines.append)
    assert "".join(lines) == expected
    assert len(lines) == len(s.nonzero_indices()) + 1

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        documents.save_network(net, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["roles", "--network", path, "--compose", "graph", "--table", "-"])
    assert code == 0
    assert out.getvalue() == expected


def table_zero(cay, empty):
    """``empty`` if it absorbs on both sides in the full table ``cay``, else None."""
    if empty is not None and all(cay[empty][x] == empty == cay[x][empty] for x in range(len(cay))):
        return empty
    return None


def first_empty(s):
    """Index of the first empty element of a closure, None if there is none."""
    return next((z for z, x in enumerate(s.elements) if x.is_empty), None)


def assert_prefix_closed(s):
    # the premise of streamed rows: each word without its last letter is the
    # word of an element, or the empty word
    words = set(s.words)
    assert all(len(w) == 1 or w[:-1] in words for w in s.words)


def assert_table_readers_equal(s, cay, zero):
    # the three readers of the table against the full table ``cay`` and its zero
    assert tuple(s.cayley) == tuple(map(tuple, cay))
    assert s.absorbing == zero
    labels, grid = naive_table(s, cay, zero)
    expected = naive_csv(labels, grid)
    assert multiplication_table(s) == (labels, grid)
    assert render_table_csv(s) == expected
    lines = []
    render_table_csv(s, lines.append)
    assert "".join(lines) == expected and len(lines) == len(labels) + 1


def assert_quotient_readers_equal(s, c, empty):
    # the quotient of s by c against its table from ``product``, which traces
    # words through the right Cayley graph; ``empty`` indexes the empty class
    # of s (None if there is none).  Returns the quotient and its empty class
    q, to_quotient = quotient_semigroup(s, c)
    empty = None if empty is None else to_quotient.image[empty]
    cay = [[q.product(i, j) for j in range(len(q))] for i in range(len(q))]
    assert_prefix_closed(q)
    assert_table_readers_equal(q, cay, table_zero(cay, empty))
    return q, empty


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_table_readers_equal_naive_table(compose_kind, prune_empty, rng):
    s = closure(random_net(rng, compose_kind), compose_kind, prune_empty)
    cay = naive_cayley(s, composition_for(compose_kind, prune_empty))
    assert_prefix_closed(s)
    assert_table_readers_equal(s, cay, table_zero(cay, first_empty(s)))


@pytest.mark.parametrize("compose_kind,prune_empty", KINDS)
@SETTINGS
@given(rng=st.randoms(use_true_random=False))
def test_quotient_table_readers_equal_product_table(compose_kind, prune_empty, rng):
    s = closure(random_net(rng, compose_kind), compose_kind, prune_empty)
    empty = first_empty(s)
    for _ in range(2):  # a quotient, then a quotient of it
        m = len(s)
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(0, 2))]
        s, empty = assert_quotient_readers_equal(s, congruence_closure(s, pairs), empty)


def _edge_network(case):
    acts = actors(3)
    chain = Relation.from_pairs(acts, [(0, 1), (1, 2)])
    fans = FHyperStructure(acts, [[(1, 2)], [(2,)], []])
    return {
        "one element": (MultiNetwork(acts, [("I", identity_relation(acts))]), "graph"),
        "duplicated generator": (
            MultiNetwork(acts, [("A", chain), ("B", identity_relation(acts)), ("C", chain)]), "graph",
        ),
        "zero only": (MultiNetwork(acts, [("Z", empty_relation(acts))]), "graph"),
        "hyper duplicated generator": (MultiHypergraph(acts, [("A", fans), ("B", fans)]), "tight"),
        "hyper zero only": (MultiHypergraph(acts, [("Z", FHyperStructure(acts, [[]] * 3))]), "loose"),
    }[case]


@pytest.mark.parametrize(
    "case",
    ["one element", "duplicated generator", "zero only", "hyper duplicated generator", "hyper zero only"],
)
def test_table_readers_on_edge_cases(case):
    net, compose_kind = _edge_network(case)
    s = role_semigroup(net, compose_kind)
    cay = naive_cayley(s, composition_for(compose_kind))
    assert_prefix_closed(s)
    assert_table_readers_equal(s, cay, table_zero(cay, first_empty(s)))
    if case.startswith("one") or case.endswith("zero only"):
        assert len(s) == 1
    # the quotients with one class and with every element alone
    for block_of in ([0] * len(s), range(len(s))):
        assert_quotient_readers_equal(s, ElementCongruence(s, block_of), first_empty(s))


def compose_maps(k, h):
    # k after h, for maps of 0..n-1 as tuples of images
    return tuple(k[i] for i in h)


@pytest.mark.parametrize(
    "generators,identity",
    [
        # A is constant, so A*e = A for every e: A and B are candidates that
        # fail on B (B*A and B*B are neither B), before the identity C
        ([("A", (0, 0, 0)), ("B", (1, 0, 2)), ("C", (0, 1, 2))], 2),
        # A*e = A for every e, and no e has B*e = B = e*B
        ([("A", (0, 0, 0)), ("B", (1, 1, 2))], None),
    ],
    ids=["identity-after-false-candidates", "false-candidates-only"],
)
def test_identity_candidates_that_fix_only_the_first_generator(generators, identity):
    s = generate_closure(generators, compose_maps)
    assert all(s.left[0][e] == 0 for e in range(len(s)))
    assert find_identity(s) == naive_identity(s) == identity
