"""Role and positional analysis for multirelational networks and F-hypergraphs.

The package models a social system as a set of actors carrying named binary
relations (a multirelational network) or named F-hypergraph structures, and
provides: regular-equivalence checks and the coarsest regular partition,
blockmodel quotients, role semigroups under graph, tight, and loose
composition, positional-reduction validation, and mechanical checks that
composing positional reductions composes the induced role reductions.
"""

from .core import (
    ActorSet,
    MultiNetwork,
    Partition,
    Relation,
    blockmodel_network,
    coarsest_regular_bruteforce,
    compose_relations,
    empty_relation,
    enumerate_partitions,
    identity_relation,
    is_inward_regular,
    is_outward_regular,
    is_regular,
    max_regular_partition,
    network_passes,
    quotient_actor_set,
)
from .errors import (
    EngineError,
    InputError,
    InvariantViolation,
    NotAReductionError,
    ResourceLimitError,
    StructuralError,
    WellDefinednessError,
)
from .hypergraph import (
    FHyperStructure,
    MultiHypergraph,
    UndirectedHypergraph,
    embed_relation,
    from_undirected,
    is_graph_like,
    loose_compose,
    neighbourhood,
    prune_empty_targets,
    tight_compose,
    to_relation,
)
from .reduction import (
    ActorMap,
    FunctorialityReport,
    ReductionReport,
    check_functoriality,
    compose_reductions,
    identity_map,
    induced_role_reduction,
    kernel_partition,
    pushforward_network,
    quotient_map,
    reorder_relations,
    validate_positional_reduction,
)
from .semigroup import (
    BITS_PER_ELEMENT,
    DEFAULT_CAP,
    ElementCongruence,
    RoleSemigroup,
    SemigroupHom,
    congruence_closure,
    find_identity,
    generate_closure,
    generator_induced_hom,
    multiplication_table,
    quotient_semigroup,
    render_table_csv,
    role_semigroup,
)

__version__ = "0.1.0"
