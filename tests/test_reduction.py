import dataclasses
import random

import pytest

from helpers import actors, random_multihyper, random_network, random_partition
from roleblock import (
    ActorMap,
    ActorSet,
    FunctorialityReport,
    MultiNetwork,
    NotAReductionError,
    Partition,
    ReductionReport,
    Relation,
    StructuralError,
    WellDefinednessError,
    check_functoriality,
    compose_reductions,
    enumerate_partitions,
    generator_induced_hom,
    identity_map,
    induced_role_reduction,
    is_regular_hyper,
    kernel_partition,
    max_regular_hyper_partition,
    max_regular_partition,
    network_passes,
    pushforward_network,
    quotient_map,
    role_semigroup,
    validate_positional_reduction,
)
from roleblock.fixtures import (
    family_three_merged,
    generations_partition,
    mirrored_pair_graph,
    mirrored_pair_partition,
    parent_tree_hyper,
    tree_generations_partition,
)


def quotient_stage(net, e):
    """The canonical map onto the blockmodel, with the blockmodel itself."""
    f = quotient_map(e)
    return f, pushforward_network(net, f)


class TestActorMap:
    def test_totality_required(self):
        src, dst = actors(2), actors(1)
        with pytest.raises(StructuralError, match="not total"):
            ActorMap.from_labels(src, dst, {"v0": "v0"})

    def test_unknown_target(self):
        src, dst = actors(1), actors(1)
        with pytest.raises(StructuralError, match="unknown actor"):
            ActorMap.from_labels(src, dst, {"v0": "zz"})

    def test_unknown_source_key(self):
        src, dst = actors(1), actors(1)
        with pytest.raises(StructuralError, match="'zz' is not a source actor"):
            ActorMap.from_labels(src, dst, {"v0": "v0", "zz": "v0"})

    def test_surjectivity_flag(self):
        src, dst = actors(2), actors(2)
        onto = ActorMap(src, dst, [1, 0])
        collapsed = ActorMap(src, dst, [0, 0])
        assert onto.is_surjective
        assert not collapsed.is_surjective


class TestKernelPartition:
    def test_identity_map_gives_discrete(self):
        acts = actors(4)
        assert kernel_partition(identity_map(acts)) == Partition.discrete(acts)

    def test_constant_map_gives_universal(self):
        acts = actors(4)
        f = ActorMap(acts, actors(1, prefix="w"), [0, 0, 0, 0])
        assert kernel_partition(f) == Partition.universal(acts)

    def test_generations_map(self):
        source = ActorSet(["a", "b", "d"])
        target = ActorSet(["X", "Y"])
        f = ActorMap.from_labels(source, target, {"a": "X", "b": "X", "d": "Y"})
        assert kernel_partition(f).label_blocks() == [["a", "b"], ["d"]]


class TestComposeReductions:
    def test_constant_after_anything_is_constant(self):
        acts = actors(3)
        mid = actors(2, prefix="m")
        end = actors(1, prefix="e")
        q = ActorMap(acts, mid, [0, 1, 1])
        p = ActorMap(mid, end, [0, 0])
        composite = compose_reductions(p, q)
        assert composite.image == (0, 0, 0)

    def test_identity_is_neutral(self):
        acts = actors(3)
        q = ActorMap(acts, acts, [2, 0, 1])
        assert compose_reductions(identity_map(acts), q) == q

    def test_chained_kernel(self):
        net = family_three_merged()
        e1 = Partition.discrete(net.actors)
        f1, n1 = quotient_stage(net, e1)
        e2 = Partition.from_label_blocks(n1.actors, [["{a}", "{b}"], ["{d}"]])
        f2, _ = quotient_stage(n1, e2)
        composite = compose_reductions(f2, f1)
        assert kernel_partition(composite).label_blocks() == [["a", "b"], ["d"]]

    def test_mismatched_chain(self):
        acts = actors(2)
        with pytest.raises(StructuralError):
            compose_reductions(identity_map(acts), identity_map(actors(3)))


class TestValidateGraph:
    def test_generations_reduction_validates(self):
        net = family_three_merged()
        f, dst = quotient_stage(net, generations_partition(net.actors))
        report = validate_positional_reduction(f, net, dst)
        assert report.ok
        assert report.surjective
        assert all(report.preserves.values())
        assert all(report.reflects.values())
        assert report.matches_blockmodel

    def test_mirrored_pair_fails_reflection_only(self):
        net = mirrored_pair_graph()
        f, dst = quotient_stage(net, mirrored_pair_partition(net.actors))
        report = validate_positional_reduction(f, net, dst)
        assert report.surjective
        assert all(report.preserves.values())
        assert not any(report.reflects.values())
        assert report.matches_blockmodel
        assert not report.ok

    def test_identity_reduction(self):
        net = family_three_merged()
        report = validate_positional_reduction(identity_map(net.actors), net, net)
        assert report.ok

    def test_flags_follow_summary_order(self):
        net = mirrored_pair_graph()
        f, dst = quotient_stage(net, mirrored_pair_partition(net.actors))
        report = validate_positional_reduction(f, net, dst)
        assert report.flags() == [
            ("surjective", True),
            ("preserves[R]", True),
            ("reflects[R]", False),
            ("blockmodel-match", True),
        ]
        words = [bit.partition("=") for bit in report.summary().split(" ")]
        assert [(name, v == "yes") for name, _, v in words] == report.flags()
        rng = random.Random(53)
        for _ in range(40):
            net = random_network(rng, n=rng.randint(1, 4), k=rng.randint(1, 3), density=0.3)
            f, dst = quotient_stage(net, random_partition(rng, net.actors))
            report = validate_positional_reduction(f, net, dst)
            words = [bit.partition("=") for bit in report.summary().split(" ")]
            assert [(name, v == "yes") for name, _, v in words] == report.flags()
            assert report.ok == (
                report.surjective
                and all(report.preserves.values())
                and all(report.reflects.values())
                and report.matches_blockmodel
            )

    def test_inward_mode_transposes(self):
        # a -> b with c merged into b's block: outward-regular (no out-edges
        # from b or c) but not inward-regular (b has an in-edge, c does not)
        acts = ActorSet(["a", "b", "c"])
        net = MultiNetwork(acts, [("R", Relation.from_label_pairs(acts, [("a", "b")]))])
        e = Partition.from_label_blocks(acts, [["a"], ["b", "c"]])
        f, dst = quotient_stage(net, e)
        assert validate_positional_reduction(f, net, dst, mode="out").ok
        assert not validate_positional_reduction(f, net, dst, mode="in").ok

    def test_reflection_flag_matches_kernel_regularity(self):
        rng = random.Random(50)
        for _ in range(80):
            net = random_network(rng, n=rng.randint(1, 5), k=rng.randint(1, 2), density=0.3)
            e = random_partition(rng, net.actors)
            f, dst = quotient_stage(net, e)
            report = validate_positional_reduction(f, net, dst)
            kernel_regular = network_passes(net, kernel_partition(f), "out")
            assert all(report.reflects.values()) == kernel_regular


class TestValidateHyper:
    def test_tree_generations_validates(self):
        mh = parent_tree_hyper()
        f, dst = quotient_stage(mh, tree_generations_partition(mh.actors))
        report = validate_positional_reduction(f, mh, dst)
        assert report.ok

    def test_tree_parent_split_validates(self):
        mh = parent_tree_hyper()
        e = Partition.from_label_blocks(
            mh.actors, [["r"], ["a"], ["b"], ["a1", "b1"], ["a2", "b2"]]
        )
        f, dst = quotient_stage(mh, e)
        assert validate_positional_reduction(f, mh, dst).ok

    def test_merging_root_with_parent_fails_reflection(self):
        mh = parent_tree_hyper()
        e = Partition.from_label_blocks(
            mh.actors, [["r", "a"], ["b"], ["a1"], ["a2"], ["b1"], ["b2"]]
        )
        f, dst = quotient_stage(mh, e)
        report = validate_positional_reduction(f, mh, dst)
        assert report.surjective
        assert not all(report.reflects.values())
        assert not report.ok

    def test_reflection_flag_matches_kernel_regularity(self):
        rng = random.Random(51)
        for _ in range(60):
            mh = random_multihyper(rng, n=rng.randint(1, 4), k=rng.randint(1, 2))
            e = random_partition(rng, mh.actors)
            f, dst = quotient_stage(mh, e)
            report = validate_positional_reduction(f, mh, dst)
            kernel_regular = all(
                is_regular_hyper(h, kernel_partition(f)) for h in mh.relations.values()
            )
            assert all(report.reflects.values()) == kernel_regular


    def test_inward_mode_rejected(self):
        mh = parent_tree_hyper()
        f, dst = quotient_stage(mh, tree_generations_partition(mh.actors))
        with pytest.raises(StructuralError, match="graph networks"):
            validate_positional_reduction(f, mh, dst, mode="in")

    def test_kinds_must_match(self):
        mh = parent_tree_hyper()
        graph = MultiNetwork(mh.actors, [("H", Relation.from_pairs(mh.actors, []))])
        with pytest.raises(StructuralError, match="same kind"):
            validate_positional_reduction(identity_map(mh.actors), mh, graph)


class TestInducedRoleReduction:
    def test_generations_reduction(self):
        net = family_three_merged()
        f, dst = quotient_stage(net, generations_partition(net.actors))
        hom = induced_role_reduction(f, net, dst, "graph")
        assert hom.is_surjective
        src = hom.source
        # the sibling tie and the parent tie map onto their blockmodels,
        # identifying "parent" with "sibling's parent"
        s_idx = src.index_of(net.relations["S"])
        p_idx = src.index_of(net.relations["P"])
        ps_idx = src.cayley[p_idx][s_idx]
        assert ps_idx == p_idx  # already equal in the source here
        assert hom.image[p_idx] == hom.target.index_of(dst.relations["P"])

    def test_identity_reduction_gives_identity_hom(self):
        net = family_three_merged()
        hom = induced_role_reduction(identity_map(net.actors), net, net, "graph")
        assert hom.image == tuple(range(len(hom.source)))

    def test_tree_generations_in_both_hyper_modes(self):
        mh = parent_tree_hyper()
        f, dst = quotient_stage(mh, tree_generations_partition(mh.actors))
        for kind, prune in (("tight", False), ("loose", True), ("loose", False)):
            hom = induced_role_reduction(f, mh, dst, kind, prune_empty=prune)
            assert hom.is_surjective
            assert hom.holds()

    def test_rejected_for_non_reduction(self):
        net = mirrored_pair_graph()
        f, dst = quotient_stage(net, mirrored_pair_partition(net.actors))
        with pytest.raises(NotAReductionError):
            induced_role_reduction(f, net, dst, "graph")

    def test_forced_hom_reports_witness(self):
        net = mirrored_pair_graph()
        f, dst = quotient_stage(net, mirrored_pair_partition(net.actors))
        src_sg = role_semigroup(net, "graph")
        dst_sg = role_semigroup(dst, "graph")
        with pytest.raises(WellDefinednessError):
            generator_induced_hom(src_sg, dst_sg)

    def test_every_regular_partition_induces_a_reduction(self):
        rng = random.Random(52)
        checked = 0
        for _ in range(40):
            net = random_network(rng, n=rng.randint(1, 4), k=rng.randint(1, 2), density=0.3)
            for e in enumerate_partitions(net.actors):
                if not network_passes(net, e, "out"):
                    continue
                f, dst = quotient_stage(net, e)
                hom = induced_role_reduction(f, net, dst, "graph", cap=400)
                assert hom.is_surjective
                checked += 1
        assert checked > 50


class TestCheckFunctoriality:
    def test_two_stage_family_chain(self):
        net = family_three_merged()
        f1, n1 = quotient_stage(net, Partition.discrete(net.actors))
        e2 = Partition.from_label_blocks(n1.actors, [["{a}", "{b}"], ["{d}"]])
        f2, n2 = quotient_stage(n1, e2)
        report = check_functoriality([net, n1, n2], [f1, f2], "graph")
        assert report.ok
        assert report.identity_ok
        assert report.counterexample is None

    def test_single_identity_stage(self):
        net = family_three_merged()
        report = check_functoriality([net, net], [identity_map(net.actors)], "graph")
        assert report.ok

    def test_two_stage_hyper_chain(self):
        mh = parent_tree_hyper()
        e1 = Partition.from_label_blocks(
            mh.actors, [["r"], ["a"], ["b"], ["a1", "b1"], ["a2", "b2"]]
        )
        f1, n1 = quotient_stage(mh, e1)
        e2 = Partition.from_label_blocks(
            n1.actors, [["{r}"], ["{a}", "{b}"], ["{a1,b1}", "{a2,b2}"]]
        )
        f2, n2 = quotient_stage(n1, e2)
        for kind, prune in (("tight", False), ("loose", False), ("loose", True)):
            report = check_functoriality([mh, n1, n2], [f1, f2], kind, prune_empty=prune)
            assert report.ok

    @pytest.mark.parametrize("maps", [0, 2])
    def test_wrong_map_count_raises(self, maps):
        net = family_three_merged()
        with pytest.raises(StructuralError, match="need one more network than maps"):
            check_functoriality([net, net], [identity_map(net.actors)] * maps, "graph")

    def test_invalid_stage_raises(self):
        net = mirrored_pair_graph()
        f, dst = quotient_stage(net, mirrored_pair_partition(net.actors))
        with pytest.raises(NotAReductionError):
            check_functoriality([net, dst], [f], "graph")

    def test_fuzzed_graph_chains(self):
        rng = random.Random(53)
        done = 0
        while done < 20:
            net = random_network(rng, n=rng.randint(2, 5), k=rng.randint(1, 2), density=0.22)
            e1 = max_regular_partition(net, mode="out", seed=random_partition(rng, net.actors))
            f1, n1 = quotient_stage(net, e1)
            e2 = max_regular_partition(n1, mode="out", seed=random_partition(rng, n1.actors))
            f2, n2 = quotient_stage(n1, e2)
            try:
                report = check_functoriality([net, n1, n2], [f1, f2], "graph", cap=400)
            except Exception as exc:  # closure blow-up: skip this sample
                from roleblock import ResourceLimitError

                if isinstance(exc, ResourceLimitError):
                    continue
                raise
            assert report.ok
            done += 1

    def test_fuzzed_hyper_chains(self):
        rng = random.Random(54)
        done = 0
        while done < 12:
            mh = random_multihyper(rng, n=rng.randint(2, 5), k=rng.randint(1, 2))
            e1 = max_regular_hyper_partition(mh, seed=random_partition(rng, mh.actors))
            f1, n1 = quotient_stage(mh, e1)
            e2 = max_regular_hyper_partition(n1, seed=random_partition(rng, n1.actors))
            f2, n2 = quotient_stage(n1, e2)
            for kind, prune in (("tight", False), ("loose", False), ("loose", True)):
                report = check_functoriality([mh, n1, n2], [f1, f2], kind, prune_empty=prune, cap=400)
                assert report.ok
            done += 1


# The report classes are plain classes; their constructors, defaults, ``==``
# and ``repr`` are pinned to the dataclasses they replaced.

@dataclasses.dataclass
class DataclassReductionReport:
    surjective: bool
    preserves: dict = dataclasses.field(default_factory=dict)
    reflects: dict = dataclasses.field(default_factory=dict)
    matches_blockmodel: bool = False


@dataclasses.dataclass
class DataclassFunctorialityReport:
    step_reports: list
    identity_ok: bool
    holds: bool
    counterexample: str | None = None


def _as_dataclass(report):
    """The dataclass with ``report``'s fields, its step reports converted too."""
    if isinstance(report, ReductionReport):
        return DataclassReductionReport(
            report.surjective, report.preserves, report.reflects, report.matches_blockmodel
        )
    return DataclassFunctorialityReport(
        [_as_dataclass(r) for r in report.step_reports],
        report.identity_ok, report.holds, report.counterexample,
    )


def test_reports_keep_the_dataclass_behaviour():
    net = family_three_merged()
    f, dst = quotient_stage(net, generations_partition(net.actors))
    valid = validate_positional_reduction(f, net, dst)
    chain = check_functoriality([net, dst], [f], "graph")
    reports = [
        ReductionReport(True),
        ReductionReport(False, {"R": True}, matches_blockmodel=True),
        valid,
        FunctorialityReport([], True, False),
        FunctorialityReport([valid], True, False, "element 'B'"),
        chain,
    ]
    for report in reports:
        mirror = _as_dataclass(report)
        assert repr(report) == repr(mirror).replace("Dataclass", "")
        for other in reports:
            assert (report == other) == (mirror == _as_dataclass(other))
        assert report != mirror
    first, second = ReductionReport(True), ReductionReport(True)
    first.preserves["R"] = True
    assert second.preserves == {} and first.reflects is not second.reflects
    with pytest.raises(TypeError):
        hash(first)
