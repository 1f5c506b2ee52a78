"""The one-pass partition and roster decoders, pinned to the checking passes.

``documents.partition_from_doc`` and ``ActorSet`` trust a valid document and
check it in bulk; only when that fails do they run the checking pass, to name
the error.  ``helpers.naive_partition_from_doc`` checks every block's shape,
then resolves every label through ``Partition.from_label_blocks``.  On random
partition documents, whole or damaged (a block that is not a list, a label
that is not a string, an unknown, duplicate or missing actor, junk), both
must give an equal partition or an ``InputError`` with the same message.  A
roster names its first label that is not a non-empty string, and otherwise
its duplicates, as ``helpers.naive_roster_error`` does label by label.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import naive_partition_from_doc, naive_roster_error
from roleblock import ActorSet, InputError, StructuralError
from roleblock.documents import network_from_doc, partition_from_doc
from test_cli_fuzz import junk
from test_document_oracles import outcome

LABELS = ["a", "b", "c", "d", "e"]
# the label damages come three times as often as junk in place of the blocks or the document
DAMAGE = ["non-list", "non-string", "unknown", "duplicate", "missing", "empty"] * 3 + ["junk-blocks", "junk-doc"]
SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def partition_case(draw):
    """A roster and a partition document on it, whole or damaged."""
    actors = draw(st.lists(st.sampled_from(LABELS), max_size=5, unique=True))
    block_of = draw(st.lists(st.integers(0, 2), min_size=len(actors), max_size=len(actors)))
    blocks = [[a for a, b in zip(actors, block_of) if b == k] for k in sorted(set(block_of))]
    blocks = [draw(st.permutations(block)) for block in draw(st.permutations(blocks))]
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(DAMAGE))
        if how == "junk-doc":
            return actors, draw(junk)
        if how == "junk-blocks":
            return actors, {"blocks": draw(junk)}
        k = draw(st.integers(0, len(blocks)))
        if how == "non-list":
            blocks.insert(k, draw(junk.filter(lambda x: not isinstance(x, list))))
            continue
        if how == "empty":
            blocks.insert(k, [])
            continue
        block = blocks[k % len(blocks)] if blocks else None
        if not isinstance(block, list):
            continue
        if how == "missing":
            if block:
                block.pop(draw(st.integers(0, len(block) - 1)))
            continue
        label = {
            "non-string": junk.filter(lambda x: not isinstance(x, str)),
            "unknown": st.sampled_from(["zz", "", "A"]),
            "duplicate": st.sampled_from(actors or ["zz"]),
        }[how]
        block.insert(draw(st.integers(0, len(block))), draw(label))
    return actors, {"blocks": blocks}


@SETTINGS
@given(partition_case())
def test_one_pass_partition_decoder_matches_the_checking_pass(case):
    labels, doc = case
    actors = ActorSet(labels)
    got = outcome(partition_from_doc, doc, actors)
    expected = outcome(naive_partition_from_doc, doc, actors)
    if isinstance(expected, Exception):
        assert type(expected) is InputError
        assert type(got) is InputError
        assert str(got) == str(expected)
    else:
        assert got == expected


roster_label = st.one_of(st.sampled_from(LABELS), st.sampled_from(LABELS), st.just(""), junk)


@SETTINGS
@given(st.lists(roster_label, max_size=6))
def test_a_roster_names_its_first_bad_label(labels):
    got = outcome(ActorSet, labels)
    message = naive_roster_error(labels)
    if message is None:
        assert isinstance(got, ActorSet)
        assert got.labels == tuple(labels)
        assert got.index == {lab: i for i, lab in enumerate(labels)}
    else:
        assert type(got) is StructuralError
        assert str(got) == message
        doc = {"kind": "graph", "actors": labels, "relations": {}}
        loaded = outcome(network_from_doc, doc)
        assert type(loaded) is InputError
        assert str(loaded) == f"<input>: {message}"
