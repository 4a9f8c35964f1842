"""Diagrams over a finite poset, and the Grothendieck construction.

A diagram assigns a nonempty finite poset (or simplicial complex) to every
index element and an order-preserving (or simplicial) transition map to
every related pair, functorially.  The non-Hausdorff homotopy colimit of a
diagram of posets is again a finite poset: the disjoint union
of the fibers, with x in the fiber over p below y in the fiber over q
exactly when p <= q and the transition image of x is below y.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import (
    DomainMismatch,
    EmptyFiber,
    FunctorialityError,
    MissingFiber,
    MissingTransition,
    NaturalityError,
)
from .poset import NAMESPACE_SEP, FinitePoset, PosetMap, compose, identity, new_poset


def synthesize_transitions(
    index: FinitePoset,
    cover_maps: Mapping[tuple[str, str], object],
    identity_of: Callable[[str], object],
    compose_maps: Callable[[object, object], object],
):
    """Extend cover-pair maps to all related pairs, enforcing functoriality.

    For every p < q each factorization through an element z with
    p <= z < q must yield the same composite; the offending triple is
    reported otherwise.
    """
    covers = index.covers
    for key in cover_maps:
        if key not in covers:
            raise FunctorialityError(
                f"transition supplied for non-cover pair {key!r}"
            )
    for key in covers:
        if key not in cover_maps:
            raise MissingTransition(f"no transition for cover pair {key!r}")

    ext = index.linear_extension()
    pos = {e: i for i, e in enumerate(ext)}
    trans: dict[tuple[str, str], object] = {}
    for p in index.elements:
        trans[(p, p)] = identity_of(p)
    # Process targets in extension order so every shorter interval is ready.
    for q in ext:
        below_q = [z for z in ext if pos[z] < pos[q] and index.lt(z, q)]
        lower_covers = [z for z in below_q if (z, q) in covers]
        for p in sorted(below_q, key=pos.get, reverse=True):
            composites = []
            for z in lower_covers:
                if p == z or index.lt(p, z):
                    composites.append((z, compose_maps(trans[(p, z)], cover_maps[(z, q)])))
            first_z, first = composites[0]
            for z, other in composites[1:]:
                if other != first:
                    raise FunctorialityError(
                        f"composites p={p!r} -> q={q!r} disagree via z={first_z!r} and z={z!r}"
                    )
            trans[(p, q)] = first
    return trans


class Diagram:
    """Functor from a finite index poset to finite posets or simplicial complexes.

    ``transitions`` holds a map for every related pair (p, q), including
    identities; construction takes maps on cover pairs only and synthesizes
    the composites with the fiber kind's ``identity`` and ``compose``,
    rejecting non-functorial input.  Build diagrams of posets with
    ``new_diagram`` and diagrams of complexes with
    ``simplicial.new_complex_diagram``.
    """

    __slots__ = ("index", "fibers", "transitions", "identity", "compose")

    def __init__(
        self,
        index: FinitePoset,
        fibers: Mapping[str, object],
        cover_transitions: Mapping[tuple[str, str], object],
        identity: Callable[[object], object],
        compose: Callable[[object, object], object],
    ):
        for p in index.elements:
            if p not in fibers:
                raise MissingFiber(f"no fiber for index element {p!r}")
        for p in fibers:
            index.index_of(p)
        for p, fib in fibers.items():
            if fib.is_empty():
                raise EmptyFiber(f"fiber at {p!r} is empty")
        for (p, q), f in cover_transitions.items():
            if f.source != fibers[p] or f.target != fibers[q]:
                raise DomainMismatch(
                    f"transition {p!r}->{q!r} does not map fiber({p!r}) to fiber({q!r})"
                )
        self.index = index
        self.fibers = dict(fibers)
        self.identity = identity
        self.compose = compose
        self.transitions = synthesize_transitions(
            index,
            dict(cover_transitions),
            identity_of=lambda p: identity(fibers[p]),
            compose_maps=compose,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (
            self.index == other.index
            and self.fibers == other.fibers
            and self.transitions == other.transitions
        )

    def __repr__(self) -> str:
        return f"Diagram({len(self.index)} index elements)"


def new_diagram(
    index: FinitePoset,
    fibers: Mapping[str, FinitePoset],
    cover_transitions: Mapping[tuple[str, str], PosetMap],
) -> Diagram:
    """A diagram of posets."""
    return Diagram(index, fibers, cover_transitions, identity, compose)


def constant_diagram(index: FinitePoset, fiber: FinitePoset) -> Diagram:
    maps = {(p, q): identity(fiber) for (p, q) in index.covers}
    return new_diagram(index, {p: fiber for p in index.elements}, maps)


def hocolim_name(p: str, x: str) -> str:
    return f"{p}{NAMESPACE_SEP}{x}"


def hocolim(d: Diagram) -> FinitePoset:
    """The Grothendieck construction of the diagram, as a finite poset.

    Elements are namespaced "p::x"; the result is validated as a poset and
    its cover relation recovered by transitive reduction.
    """
    index = d.index
    names: list[str] = []
    offsets: dict[str, int] = {}
    for p in index.elements:
        offsets[p] = len(names)
        names.extend(hocolim_name(p, x) for x in d.fibers[p].elements)
    if len(set(names)) != len(names):
        raise ValueError("hocolim element names collide; avoid '::' in identifiers")
    n = len(names)
    leq = np.zeros((n, n), dtype=bool)
    for p in index.elements:
        fp = d.fibers[p]
        for q in index.elements:
            if not index.leq(p, q):
                continue
            fq = d.fibers[q]
            t = d.transitions[(p, q)]
            qmat = fq.closure_matrix()
            rows = [fq.index_of(t(x)) for x in fp.elements]
            block = qmat[rows, :]
            leq[
                offsets[p] : offsets[p] + len(fp),
                offsets[q] : offsets[q] + len(fq),
            ] = block
    return FinitePoset.from_closure(names, leq)


def restrict(d: Diagram, keep) -> Diagram:
    """The diagram restricted to a subposet of the index."""
    sub = d.index.subposet(keep)
    fibers = {p: d.fibers[p] for p in sub.elements}
    maps = {(p, q): d.transitions[(p, q)] for (p, q) in sub.covers}
    return Diagram(sub, fibers, maps, d.identity, d.compose)


def pullback(phi: PosetMap, d: Diagram) -> Diagram:
    """Reindex d along phi: the fiber over p is the fiber over phi(p)."""
    if phi.target != d.index:
        raise DomainMismatch("pullback requires phi.target == diagram index")
    p_index = phi.source
    fibers = {p: d.fibers[phi(p)] for p in p_index.elements}
    maps = {(p, q): d.transitions[(phi(p), phi(q))] for (p, q) in p_index.covers}
    return Diagram(p_index, fibers, maps, d.identity, d.compose)


def canonical_map(phi: PosetMap, d: Diagram) -> PosetMap:
    """hocolim(pullback(phi, d)) -> hocolim(d), (p, x) |-> (phi(p), x)."""
    pb = pullback(phi, d)
    source = hocolim(pb)
    target = hocolim(d)
    assignment = {}
    for p in pb.index.elements:
        for x in pb.fibers[p].elements:
            assignment[hocolim_name(p, x)] = hocolim_name(phi(p), x)
    return PosetMap(source, target, assignment)


def mapping_cylinder(f: PosetMap) -> FinitePoset:
    """Non-Hausdorff mapping cylinder: the hocolim of f over the chain 0 < 1."""
    return hocolim(cylinder_diagram(f))


def cylinder_diagram(f: PosetMap) -> Diagram:
    two = new_poset(["0", "1"], [("0", "1")])
    return new_diagram(two, {"0": f.source, "1": f.target}, {("0", "1"): f})


class DiagramMorphism:
    """Componentwise map between diagrams over the same index, natural in p."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: Diagram,
        target: Diagram,
        components: Mapping[str, object],
    ):
        if source.index != target.index:
            raise DomainMismatch("diagram morphism requires equal index posets")
        for p in source.index.elements:
            if p not in components:
                raise MissingFiber(f"no component at {p!r}")
            c = components[p]
            if c.source != source.fibers[p] or c.target != target.fibers[p]:
                raise DomainMismatch(f"component at {p!r} has wrong source/target")
        for (p, q) in source.index.covers:
            lhs = source.compose(components[p], target.transitions[(p, q)])
            rhs = source.compose(source.transitions[(p, q)], components[q])
            if lhs != rhs:
                raise NaturalityError(f"naturality fails on cover {p!r} -> {q!r}")
        self.source = source
        self.target = target
        self.components = dict(components)
