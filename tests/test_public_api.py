"""The names ``roleblock`` exports, listed in full.

Adding, removing or renaming an export fails here, so every change to the
public surface shows as an edit of ``EXPORTS``.  Each notion has one name:
no two exports are bound to one object.
"""

from collections import defaultdict
from types import ModuleType

import roleblock
from roleblock import cli, core

EXPORTS = {
    # actors, structures, networks and partitions
    "ActorSet", "Relation", "FHyperStructure", "UndirectedHypergraph",
    "MultiNetwork", "MultiHypergraph", "Partition",
    # relations and F-structures
    "compose_relations", "empty_relation", "identity_relation",
    "tight_compose", "loose_compose", "prune_empty_targets",
    "embed_relation", "from_undirected", "is_graph_like", "to_relation", "neighbourhood",
    # regularity, refinement, oracles and blockmodels, for networks of either kind
    "is_outward_regular", "is_inward_regular", "is_regular", "network_passes",
    "max_regular_partition", "coarsest_regular_bruteforce", "enumerate_partitions",
    "blockmodel_network", "quotient_actor_set",
    # positional reductions
    "ActorMap", "FunctorialityReport", "ReductionReport", "check_functoriality",
    "compose_reductions", "identity_map", "induced_role_reduction", "kernel_partition",
    "pushforward_network", "quotient_map", "reorder_relations", "validate_positional_reduction",
    # role semigroups
    "BITS_PER_ELEMENT", "DEFAULT_CAP", "ElementCongruence", "RoleSemigroup", "SemigroupHom",
    "congruence_closure", "find_identity", "generate_closure", "generator_induced_hom",
    "multiplication_table", "quotient_semigroup", "render_table_csv", "role_semigroup",
    # errors
    "EngineError", "InputError", "InvariantViolation", "NotAReductionError",
    "ResourceLimitError", "StructuralError", "WellDefinednessError",
}


def _exported():
    # submodules become package attributes as they are imported, so they are not counted
    return {
        name: value
        for name, value in vars(roleblock).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }


def test_the_exported_names_are_the_listed_ones():
    assert set(_exported()) == EXPORTS


def test_no_two_exports_are_one_object():
    names = defaultdict(list)
    for name, value in _exported().items():
        names[id(value)].append(name)
    assert [sorted(group) for group in names.values() if len(group) > 1] == []


def test_the_cli_runs_f_hypergraphs_through_the_shared_functions():
    # the F-hypergraph branches keep names of their own, bound to the core functions
    assert cli.is_regular_hyper is core.is_outward_regular
    assert cli.max_regular_hyper_partition is core.max_regular_partition
    assert cli.coarsest_regular_hyper_bruteforce is core.coarsest_regular_bruteforce
    assert cli.blockmodel_multihypergraph is core.blockmodel_network
