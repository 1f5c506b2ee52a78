"""Positional reductions: validation, induced role reductions, functoriality checks.

A positional reduction is a surjective actor map that reflects (hyper)edges;
equivalently, a quotient map onto the blockmodel by a regular equivalence on
the kernel.  Validation checks both characterizations and reports each flag
separately so a failing map can be diagnosed.
"""

from dataclasses import dataclass, field

from .core import Partition, quotient_actor_set
from .errors import InvariantViolation, NotAReductionError, StructuralError, WellDefinednessError
from .semigroup import DEFAULT_CAP, SemigroupHom, generator_induced_hom, role_semigroup


class ActorMap:
    """A total map between two actor sets, stored as per-source target indices."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        image = tuple(image)
        if len(image) != len(source):
            raise StructuralError(f"expected {len(source)} images, got {len(image)}")
        for v in image:
            if not (0 <= v < len(target)):
                raise StructuralError(f"image index {v} out of range for {len(target)} actors")
        self.source = source
        self.target = target
        self.image = image

    @classmethod
    def from_labels(cls, source, target, mapping):
        image = []
        for lab in source.labels:
            if lab not in mapping:
                raise StructuralError(f"map is not total: no image for actor {lab!r}")
            image.append(target.resolve(mapping[lab]))
        for key in mapping:
            if key not in source.index:
                raise StructuralError(f"map key {key!r} is not a source actor")
        return cls(source, target, image)

    @property
    def is_surjective(self):
        return set(self.image) == set(range(len(self.target)))

    def __call__(self, i):
        return self.image[i]

    def __eq__(self, other):
        return (
            isinstance(other, ActorMap)
            and self.source == other.source
            and self.target == other.target
            and self.image == other.image
        )

    def __repr__(self):
        pairs = {s: self.target.labels[self.image[i]] for i, s in enumerate(self.source.labels)}
        return f"ActorMap({pairs!r})"


def kernel_partition(f):
    """Partition of the source identifying actors with equal image."""
    return Partition(f.source, f.image)


def compose_reductions(p, q):
    """The composite map (p after q); q's target must be p's source."""
    if q.target != p.source:
        raise StructuralError("maps do not chain: q's target differs from p's source")
    return ActorMap(q.source, p.target, [p.image[v] for v in q.image])


def identity_map(actors):
    return ActorMap(actors, actors, range(len(actors)))


def quotient_map(e):
    """The canonical map from a partition's actors onto its quotient roster."""
    return ActorMap(e.actors, quotient_actor_set(e), e.block_of)


def pushforward_network(net, f):
    """Every structure of net pushed forward along f onto f's target."""
    return net.pushforward(f.image, f.target)


def reorder_relations(net, names):
    """The same network with its relations listed in the given name order.

    Generator correspondence between two networks is by name, so closures on
    both sides must enumerate generators identically regardless of document
    key order.
    """
    if set(names) != set(net.names):
        raise StructuralError("networks carry different relation names")
    return type(net)(net.actors, [(name, net.relations[name]) for name in names])


# ── validation ───────────────────────────────────────────────────────────────

@dataclass
class ReductionReport:
    """Per-flag outcome of validating a candidate positional reduction."""

    surjective: bool
    preserves: dict = field(default_factory=dict)
    reflects: dict = field(default_factory=dict)
    matches_blockmodel: bool = False

    @property
    def ok(self):
        return (
            self.surjective
            and all(self.preserves.values())
            and all(self.reflects.values())
            and self.matches_blockmodel
        )

    def summary(self):
        bits = [f"surjective={yes_no(self.surjective)}"]
        bits += [f"preserves[{n}]={yes_no(v)}" for n, v in self.preserves.items()]
        bits += [f"reflects[{n}]={yes_no(v)}" for n, v in self.reflects.items()]
        bits.append(f"blockmodel-match={yes_no(self.matches_blockmodel)}")
        return " ".join(bits)


def yes_no(v):
    return "yes" if v else "no"


def validate_positional_reduction(f, src, dst, mode="out"):
    """Validate a candidate reduction f between two networks of one kind.

    f is a coalgebra morphism when, for every actor a, the image of a's
    signature is exactly the signature of f(a): "preserves" is the inclusion
    into dst, "reflects" the inclusion back.  ``mode="in"`` (graphs only)
    transposes every relation on both sides first, which turns incoming-edge
    reflection into the outgoing check.  The blockmodel flag recomputes dst
    from src and f rather than trusting it.
    """
    if mode not in ("out", "in"):
        raise StructuralError(f"mode must be 'out' or 'in', got {mode!r}")
    if type(src) is not type(dst):
        raise StructuralError("source and target networks must be the same kind")
    f.source.require_same(src.actors)
    f.target.require_same(dst.actors)
    if set(src.names) != set(dst.names):
        raise StructuralError("source and target carry different relation names")
    dst = reorder_relations(dst, src.names)

    report = ReductionReport(surjective=f.is_surjective)
    identity = range(len(dst.actors))
    for name, s, d in zip(src.names, src.views(mode), dst.views(mode)):
        theirs = [d.signature(b, identity) for b in identity]
        ours = [s.signature(a, f.image) for a in range(len(src.actors))]
        report.preserves[name] = all(sig <= theirs[b] for sig, b in zip(ours, f.image))
        report.reflects[name] = all(sig >= theirs[b] for sig, b in zip(ours, f.image))
    report.matches_blockmodel = report.surjective and pushforward_network(src, f) == dst
    return report


# ── induced role reductions ──────────────────────────────────────────────────

def induced_role_reduction(f, src, dst, compose_kind, prune_empty=False, cap=DEFAULT_CAP):
    """Build and verify the role reduction induced by a positional reduction.

    Validates f (outward reflection only, ``mode="out"``), generates both
    role semigroups, constructs the generator-induced homomorphism, and checks
    element-by-element that each image is the blockmodel (pushforward along f)
    of its source element.
    """
    report = validate_positional_reduction(f, src, dst)
    if not report.ok:
        raise NotAReductionError(report)

    s_src = role_semigroup(src, compose_kind, prune_empty=prune_empty, cap=cap)
    s_dst = role_semigroup(
        reorder_relations(dst, src.names), compose_kind, prune_empty=prune_empty, cap=cap
    )
    try:
        hom = generator_induced_hom(s_src, s_dst)
    except WellDefinednessError as exc:
        raise InvariantViolation(
            f"validated reduction produced an ill-defined hom: {exc}"
        ) from exc
    if not hom.is_surjective:
        raise InvariantViolation("induced hom is not surjective")

    for i, element in enumerate(s_src.elements):
        if s_dst.elements[hom.image[i]] != element.pushforward(f.image, f.target):
            raise InvariantViolation(
                f"image of element {s_src.word_label(i)!r} is not its blockmodel"
            )
    return hom


# ── functoriality ────────────────────────────────────────────────────────────

@dataclass
class FunctorialityReport:
    """Outcome of checking that composing reductions composes the role homs."""

    step_reports: list
    identity_ok: bool
    holds: bool
    counterexample: str | None = None

    @property
    def ok(self):
        return self.identity_ok and self.holds


def check_functoriality(networks, maps, compose_kind, prune_empty=False, cap=DEFAULT_CAP):
    """Check the composition law of role reductions along a chain of stages.

    ``networks`` lists m+1 stages and ``maps`` the m reductions between
    consecutive stages.  Every stage map must validate; the induced hom of the
    composite map must equal the composite of the stepwise homs, element by
    element, and the identity stage must induce the identity hom.
    """
    if len(networks) != len(maps) + 1:
        raise StructuralError("need one more network than maps")
    networks = [networks[0]] + [
        reorder_relations(net, networks[0].names) for net in networks[1:]
    ]

    step_reports = []
    for i, f in enumerate(maps):
        report = validate_positional_reduction(f, networks[i], networks[i + 1])
        if not report.ok:
            raise NotAReductionError(report)
        step_reports.append(report)

    # the composite of the stages must itself validate as a reduction
    if maps:
        composite_map = maps[0]
        for f in maps[1:]:
            composite_map = compose_reductions(f, composite_map)
        composite_report = validate_positional_reduction(composite_map, networks[0], networks[-1])
        if not composite_report.ok:
            raise NotAReductionError(composite_report)

    closures = [
        role_semigroup(net, compose_kind, prune_empty=prune_empty, cap=cap) for net in networks
    ]
    step_homs = [
        generator_induced_hom(closures[i], closures[i + 1]) for i in range(len(maps))
    ]

    identity_hom = generator_induced_hom(closures[0], closures[0])
    identity_ok = identity_hom.image == tuple(range(len(closures[0])))

    composite_hom = generator_induced_hom(closures[0], closures[-1])
    chained = step_homs[0] if step_homs else SemigroupHom(
        closures[0], closures[0], range(len(closures[0]))
    )
    for hom in step_homs[1:]:
        chained = chained.compose_with(hom)

    holds = composite_hom.image == chained.image
    counterexample = None
    if not holds:
        for i, (a, b) in enumerate(zip(composite_hom.image, chained.image)):
            if a != b:
                counterexample = (
                    f"element {closures[0].word_label(i)!r}: composite gives "
                    f"{closures[-1].word_label(a)!r}, stepwise gives {closures[-1].word_label(b)!r}"
                )
                break
    return FunctorialityReport(step_reports, identity_ok, holds, counterexample)
